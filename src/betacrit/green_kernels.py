"""Green functions of the unperturbed exterior operators.

All kernels are normalized so that (H0 - lambda) G = delta with G >= 0 for
lambda < 0.  Exterior-ball kernels are returned per unit sphere measure
(divided by |S^{d-1}|), so that matrix assembly against the full volume
element reproduces the sector operator exactly.

On the half-line and in every exterior-ball sector the kernel is
G(r, rho) = u_reg(min) u_dec(max) / C, where u_reg meets the boundary
condition and u_dec decays at infinity.  ``solution_pair`` is the only place
that knows these solutions: the sector ODE up to the radius r_f where a
flattens to 1 (an empty span where a == 1), the free solutions beyond.  Each
comes apart from its log-scale, u = y e^s, and the scales are added before
anything is exponentiated, so kernels stay finite for any k = sqrt(-lambda).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ive, kve

from .errors import KernelLimitError
from .model import ProblemSpec, ValidationError
from .sector_ode import SectorODE


def solution_pair(problem: ProblemSpec, lam: float):
    """(reg, dec, C) with G(r, rho) = u_reg(min) u_dec(max) / C against
    ``problem.measure`` in the problem's sector.

    ``reg`` and ``dec`` map radii to (y, s), the solution being y e^s: the
    sector ODE below r_f, the free solutions with s = +-k (r - r_f) beyond.
    For r <= rho, s_reg(r) + s_dec(rho) is at most about 0.  lam = 0 gives
    the zero-energy limit and raises ``KernelLimitError`` where it diverges:
    Neumann when the zero-energy decaying solution is constant.
    """
    if problem.geometry not in ("half_line", "exterior_ball"):
        raise ValidationError("sector Green functions cover the half-line and the "
                              "exterior ball; half-space studies assemble image "
                              "kernels on point clouds")
    if lam > 0:
        raise ValidationError("Green functions need lambda <= 0")
    d, l = problem.dimension, problem.sector
    k = math.sqrt(-lam)
    # for d + l <= 2 the zero-energy decaying solution is constant
    if k == 0 and problem.effective_bc() == "neumann" and d + l <= 2:
        raise KernelLimitError(f"limit kernel divergent for the Neumann condition "
                               f"on the {problem.geometry} (d={d}, sector {l})")

    def free(r, derivatives=False):
        """Free solutions g(r) e^{kr} (growing) and f(r) e^{-kr} (decaying) as
        (g, f); with ``derivatives`` also their r-derivatives, scaled alike."""
        r = np.asarray(r, dtype=float)
        if d == 1:  # sinh(kr)/k and e^{-kr}; r and 1 at zero energy
            g = r if k == 0 else -np.expm1(-2.0 * k * r) / (2.0 * k)
            dg = 0.5 * (1.0 + np.exp(-2.0 * k * r))
            f, df = np.ones_like(r), np.full_like(r, -k)
        elif k == 0:
            q = l + d - 2
            if q == 0:
                g, dg, f, df = np.log(r), 1.0 / r, np.ones_like(r), np.zeros_like(r)
            else:
                g, dg = r ** l, l * r ** (l - 1.0)
                f, df = r ** (-q), -q * r ** (-q - 1.0)
        else:
            # r^{1-d/2} I_nu(kr) and r^{1-d/2} K_nu(kr) through the scaled Bessels
            nu = l + 0.5 * d - 1.0
            z = k * r
            amp = r ** (1.0 - 0.5 * d)
            i_nu, k_nu = ive(nu, z), kve(nu, z)
            g, f = amp * i_nu, amp * k_nu
            if derivatives:
                s = (1.0 - 0.5 * d) / r
                dg = s * g + amp * k * (ive(nu + 1.0, z) + (nu / z) * i_nu)
                df = s * f + amp * k * (-kve(nu + 1.0, z) + (nu / z) * k_nu)
        return (g, f, dg, df) if derivatives else (g, f)

    r0, rf = problem.inner_radius, problem.flat_radius()
    ode = SectorODE(problem)
    p_rf = ode.coefficients(rf)[0]
    g, f, dg, df = (float(v) for v in free(rf, derivatives=True))
    inward = outward = None  # the span [r0, r_f] is empty where a == 1
    y_rf, s_rf = np.array(ode.regular_state()), 0.0
    if rf > r0:
        inward = ode.integrate(lam, [f, p_rf * df], rf, r0)
        outward = ode.integrate(lam, ode.regular_state(), r0, rf)
        y_rf, s_rf = outward.log_state(rf)
    # past r_f u_reg = alpha g e^{k(r - r_f)} + beta f e^{-k(r - r_f)}
    u_rf, du_rf = y_rf / [1.0, p_rf]
    wr = g * df - dg * f
    alpha = (u_rf * df - du_rf * f) / wr
    beta = (du_rf * g - u_rf * dg) / wr

    def joined(solution, shift, outside):
        """(y, s): ``solution``'s below r_f, less ``shift``; ``outside``'s beyond."""
        def read(r):
            r = np.asarray(r, dtype=float)
            y, s = np.empty_like(r), np.empty_like(r)
            inner = r < rf  # empty where a == 1
            if inner.any():
                (y[inner], _), s[inner] = solution.log_state(r[inner])
                s[inner] -= shift
            y[~inner], s[~inner] = outside(r[~inner])
            return y, s
        return read

    def reg_outside(r):
        g_o, f_o = free(r)
        return alpha * g_o + beta * f_o * np.exp(-2.0 * k * (r - rf)), k * (r - rf)

    # the decaying solution starts from the true size of (f, p f') at r_f,
    # so it keeps its own log-scale; the regular one is taken relative to r_f
    reg = joined(outward, s_rf, reg_outside)
    dec = joined(inward, 0.0, lambda r: (free(r)[1], -k * (r - rf)))
    # p (u_dec u_reg' - u_dec' u_reg) is constant; the coefficient is 1 at r_f
    return reg, dec, float(problem.measure(rf) * (f * du_rf - df * u_rf))


def green_kernel(problem: ProblemSpec, lam: float, x, xi):
    """Pointwise kernel of (H0 - lambda)^{-1} on the half-line or in the
    problem's exterior-ball sector, per unit sphere measure.

    lam = 0 gives the zero-energy limit kernel where it exists.  Radii
    inside the obstacle raise ``ValidationError``.
    """
    reg, dec, c = solution_pair(problem, lam)
    lo = np.minimum(x, xi)
    if np.any(lo < problem.inner_radius):
        raise ValidationError("kernel radii must lie outside the obstacle")
    (y_reg, s_reg), (y_dec, s_dec) = reg(lo), dec(np.maximum(x, xi))
    return y_reg * y_dec * np.exp(s_reg + s_dec) / c
