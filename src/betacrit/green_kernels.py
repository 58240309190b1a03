"""Green functions of the unperturbed exterior operators.

All kernels are normalized so that (H0 - lambda) G = delta with G >= 0 for
lambda < 0.  Exterior-ball kernels are returned per unit sphere measure
(divided by |S^{d-1}|), so that matrix assembly against the full volume
element reproduces the sector operator exactly.

On the half-line and in every exterior-ball sector the kernel is
G(r, rho) = u_reg(min) u_dec(max) / C, where u_reg meets the boundary
condition and u_dec decays at infinity.  ``solution_pair`` is the only place
that knows these solutions.  It returns them exponentially scaled,
u_reg = a(r) e^{kr} and u_dec = b(r) e^{-kr} with k = sqrt(-lambda), so
kernels stay finite for any k*r.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ive, kve

from .errors import KernelLimitError
from .model import ProblemSpec, ValidationError
from .sector_ode import SectorODE


def solution_pair(problem: ProblemSpec, lam: float):
    """(a, b, C, k) with G(r, rho) = a(min) b(max) exp(-k |r - rho|) / C.

    ``a`` and ``b`` are callables, and G is the kernel against
    ``problem.measure`` in the problem's sector.  lam = 0 gives the pointwise
    zero-energy limit and raises ``KernelLimitError`` where that diverges: the
    Neumann condition when the zero-energy decaying solution is constant.
    """
    if problem.geometry not in ("half_line", "exterior_ball"):
        raise ValidationError("sector Green functions cover the half-line and the "
                              "exterior ball; half-space studies assemble image "
                              "kernels on point clouds")
    if lam > 0:
        raise ValidationError("Green functions need lambda <= 0")
    d = problem.dimension
    l = problem.sector
    bc = problem.effective_bc()
    k = math.sqrt(-lam)
    # for d + l <= 2 the zero-energy decaying solution is constant
    if k == 0 and bc == "neumann" and d + l <= 2:
        raise KernelLimitError(f"limit kernel divergent for the Neumann condition "
                               f"on the {problem.geometry} (d={d}, sector {l})")

    def free(r, derivatives=False):
        """Free solutions g(r) e^{kr} (growing) and f(r) e^{-kr} (decaying) as
        (g, f); with ``derivatives`` also their r-derivatives, scaled alike."""
        r = np.asarray(r, dtype=float)
        if d == 1:
            # sinh(kr)/k and e^{-kr}; r and 1 at zero energy
            if k == 0:
                g, dg = r, np.ones_like(r)
            else:
                g = -np.expm1(-2.0 * k * r) / (2.0 * k)
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

    if problem.flat_radius() > problem.inner_radius:  # a(r) != 1 somewhere
        return _variable_a_pair(problem, lam, free)
    r0 = problem.inner_radius
    g0, f0, dg0, df0 = free(r0, derivatives=True)
    # u_reg = growing - ratio * e^{2k r0} * decaying meets the boundary condition
    ratio = g0 / f0 if bc == "dirichlet" else dg0 / df0

    def a(r):
        g, f = free(r)
        return g - ratio * f * np.exp(-2.0 * k * (np.asarray(r, dtype=float) - r0))

    def b(r):
        return free(r)[1]

    c = float(problem.measure(r0) * (f0 * dg0 - df0 * g0))
    return a, b, c, k


def _variable_a_pair(problem: ProblemSpec, lam: float, free):
    """``solution_pair`` for a variable coefficient: the sector ODE inside
    [r0, r_flat], the free solutions beyond.

    Each ODE solution is read apart from its log-scale, which meets the
    factor e^{-k |r - start|} before anything is exponentiated, so no k
    overflows it.
    """
    r0 = problem.inner_radius
    rf = problem.flat_radius()
    k = math.sqrt(-lam)
    ode = SectorODE(problem)
    p_rf = ode.coefficients(rf)[0]
    g, f, dg, df = (float(v) for v in free(rf, derivatives=True))

    # decaying solution inward from the flattening radius, regular outward
    dec = ode.integrate(lam, [f, p_rf * df], rf, r0)
    reg = ode.integrate(lam, ode.regular_state(), r0, rf)

    def damped(solution, r, start):
        y, s = solution.log_state(r)
        return y * np.exp(s - k * np.abs(r - start))

    # a = u_reg e^{-k(r - r0)} and b = u_dec e^{-k(rf - r)}; past r_flat
    # a = alpha g + beta f e^{-2k(r - rf)} continues the regular solution
    y_rf, dy_rf = damped(reg, rf, r0) / [1.0, p_rf]
    wr = g * df - dg * f
    alpha = (y_rf * df - dy_rf * f) / wr
    beta = (dy_rf * g - y_rf * dg) / wr

    def a(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        inner = r <= rf
        if inner.any():
            out[inner] = damped(reg, r[inner], r0)[0]
        if (~inner).any():
            ro = r[~inner]
            g_o, f_o = free(ro)
            out[~inner] = alpha * g_o + beta * f_o * np.exp(-2.0 * k * (ro - rf))
        return out

    def b(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        inner = r < rf
        if inner.any():
            out[inner] = damped(dec, r[inner], rf)[0]
        if (~inner).any():
            out[~inner] = free(r[~inner])[1]
        return out

    # p (u_dec u_reg' - u_dec' u_reg) is constant; the coefficient is 1 at r_flat
    c = float(problem.measure(rf) * (f * dy_rf - df * y_rf))
    return a, b, c, k


def green_kernel(problem: ProblemSpec, lam: float, x, xi):
    """Pointwise kernel of (H0 - lambda)^{-1} on the half-line or in the
    problem's exterior-ball sector, per unit sphere measure.

    lam = 0 gives the zero-energy limit kernel where it exists.
    """
    a, b, c, k = solution_pair(problem, lam)
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lo, hi = np.minimum(x, xi), np.maximum(x, xi)
    return a(lo) * b(hi) * np.exp(-k * (hi - lo)) / c
