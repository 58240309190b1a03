"""Green functions of the unperturbed exterior operators.

All kernels are normalized so that (H0 - lambda) G = delta with G >= 0 for
lambda < 0.  Exterior-ball kernels are returned per unit sphere measure
(divided by |S^{d-1}|), so that matrix assembly against the full volume
element reproduces the sector operator exactly.

On the half-line and in every exterior-ball sector the kernel is
G(r, rho) = u_reg(min) u_dec(max) / C, where u_reg meets the boundary
condition and u_dec decays at infinity.  ``solution_pair`` builds these
solutions: the sector ODE on its span [r0, r_f], r_f = ``SectorODE.r_star``
(empty where a == 1 without a potential), matched at r_f to the free
solutions of ``SectorODE.free_pair``, the one place that writes those down.  Both
are read together at the same radii, past r_f from one ``free_pair`` call.  Each
comes apart from its log-scale, u = y e^s, and the scales are added before
anything is exponentiated, so kernels stay finite for any k = sqrt(-lambda).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import KernelLimitError
from .model import Potential, ProblemSpec, ValidationError
from .sector_ode import SectorODE


def solution_pair(problem: ProblemSpec, lam: float, potential: Potential | None = None,
                  beta: float = 0.0):
    """(pair, C) with G(r, rho) = u_reg(min) u_dec(max) / C against
    ``problem.measure`` in the problem's sector of H0, or of H0 - beta V.

    ``pair`` maps radii to ((y_reg, s_reg), (y_dec, s_dec)), each solution
    being y e^s: the sector ODE below r_f = ``SectorODE.r_star``, the free
    solutions with s = +-k (r - r_f) beyond, both from one Bessel read.
    For r <= rho, s_reg(r) + s_dec(rho) is at most about 0.  lam = 0 gives
    the zero-energy limit and raises ``KernelLimitError`` where it diverges
    (``ProblemSpec.limit_diverges``: Neumann, and the bounded zero-energy
    solution constant).
    """
    if problem.limit_diverges() and lam == 0:  # a half-space problem raises here
        raise KernelLimitError(f"limit kernel divergent for the Neumann condition on the "
                               f"{problem.geometry} (d={problem.dimension}, "
                               f"sector {problem.sector})")
    if lam > 0:
        raise ValidationError("Green functions need lambda <= 0")
    r0 = problem.inner_radius
    ode = SectorODE(problem, potential, beta)
    rf = ode.r_star
    k, p_rf = math.sqrt(-lam), ode.coefficients(rf)[0]
    g, f, dg, df = (float(v) for v in ode.free_pair(lam, rf, derivatives=True))
    inward = outward = None  # the span [r0, r_f] is empty where a == 1
    y_rf, s_rf = np.array(ode.regular_state()), 0.0
    if rf > r0:
        inward = ode.integrate(lam, [f, p_rf * df], inward=True)
        outward = ode.integrate(lam, ode.regular_state())
        y_rf, s_rf = outward.log_state(rf)
    # past r_f u_reg = alpha g e^{k(r - r_f)} + beta f e^{-k(r - r_f)}
    u_rf, du_rf = y_rf / [1.0, p_rf]
    wr = g * df - dg * f
    alpha = (u_rf * df - du_rf * f) / wr
    beta = (du_rf * g - u_rf * dg) / wr

    def pair(r):
        """((y_reg, s_reg), (y_dec, s_dec)) at the radii r: the integrations below
        r_f, the regular one less its scale at r_f (the decaying one starts from
        the true size of (f, p f') there); beyond, both from one ``free_pair`` read."""
        r = np.asarray(r, dtype=float)
        y, s = np.empty((2,) + r.shape), np.empty((2,) + r.shape)
        inner = r < rf  # empty where a == 1
        if inner.any():
            for j, (solution, shift) in enumerate(((outward, s_rf), (inward, 0.0))):
                (y[j, inner], _), s[j, inner] = solution.log_state(r[inner])
                s[j, inner] -= shift
        x = r[~inner] - rf
        g_o, f_o = ode.free_pair(lam, r[~inner])
        y[0, ~inner], s[0, ~inner] = alpha * g_o + beta * f_o * np.exp(-2.0 * k * x), k * x
        y[1, ~inner], s[1, ~inner] = f_o, -k * x
        return (y[0], s[0]), (y[1], s[1])

    # p (u_dec u_reg' - u_dec' u_reg) is constant; the coefficient is 1 at r_f
    return pair, float(problem.measure(rf) * (f * du_rf - df * u_rf))


def green_kernel(problem: ProblemSpec, lam: float, x, xi):
    """Pointwise kernel of (H0 - lambda)^{-1} on the half-line or in the
    problem's exterior-ball sector, per unit sphere measure.

    lam = 0 gives the zero-energy limit kernel where it exists.  Radii
    inside the obstacle raise ``ValidationError``.
    """
    pair, c = solution_pair(problem, lam)
    lo = np.minimum(x, xi)
    if np.any(lo < problem.inner_radius):
        raise ValidationError("kernel radii must lie outside the obstacle")
    ((y_reg, s_reg), _), (_, (y_dec, s_dec)) = pair(lo), pair(np.maximum(x, xi))
    return y_reg * y_dec * np.exp(s_reg + s_dec) / c
