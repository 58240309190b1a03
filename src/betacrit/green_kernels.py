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

    The ODE runs unscaled, so k (r_flat - r0) must stay well below 700.
    """
    r0 = problem.inner_radius
    rf = problem.flat_radius()
    k = math.sqrt(-lam)
    ode = SectorODE(problem)
    p_rf = ode.coefficients(rf)[0]
    g, f, dg, df = (float(v) for v in free(rf, derivatives=True))

    # decaying solution inward from the flattening radius, regular outward
    (dec,), _, _ = ode.integrate(lam, [f, p_rf * df], rf, r0, dense_output=True,
                                 rtol=1e-11, atol=1e-14)
    (reg,), y_reg, _ = ode.integrate(lam, ode.regular_state(), r0, rf,
                                     dense_output=True, rtol=1e-11, atol=1e-14)

    # a = u_reg e^{-k(r - r0)} and b = u_dec e^{kr}; past r_flat
    # a = alpha g + beta f e^{-2k(r - rf)} continues the regular solution
    scale = math.exp(-k * (rf - r0))
    y_rf, dy_rf = y_reg[0] * scale, y_reg[1] / p_rf * scale
    wr = g * df - dg * f
    alpha = (y_rf * df - dy_rf * f) / wr
    beta = (dy_rf * g - y_rf * dg) / wr

    def a(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        inner = r <= rf
        if inner.any():
            out[inner] = reg.sol.sol(r[inner])[0] * np.exp(-k * (r[inner] - r0))
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
            out[inner] = dec.sol.sol(r[inner])[0] * np.exp(k * (r[inner] - rf))
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


_FUNDAMENTAL_C3 = 1.0 / (4.0 * math.pi)


def halfspace_green(d: int, bc: str, x, xi):
    """Zero-energy half-space Green function by reflection (physical points).

    d=3: (1/4pi) (1/|x-xi| -/+ 1/|x-xi*|); d=2 Dirichlet:
    (1/2pi) ln(|x-xi*|/|x-xi|); the domain is x1 > 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    xi_star = xi.copy()
    xi_star[..., 0] = -xi_star[..., 0]
    direct = np.linalg.norm(x - xi, axis=-1)
    image = np.linalg.norm(x - xi_star, axis=-1)
    if d == 3:
        sgn = -1.0 if bc == "dirichlet" else 1.0
        return _FUNDAMENTAL_C3 * (1.0 / direct + sgn / image)
    if d == 2:
        if bc != "dirichlet":
            raise ValidationError("d=2 half-space kernel is supported for the Dirichlet condition")
        return np.log(image / direct) / (2.0 * math.pi)
    raise ValidationError("half-space kernels are implemented for d = 2, 3")


def halfspace_image_kernel(d: int, sign: str, n: float, center: float, y, sigma,
                           profile=None):
    """Rescaled near-boundary kernel of the shrinking-well family.

    Points live in the rescaled frame (original = center*e1 + point/n); the
    reflected argument picks up the shift 2*n*center along e1.  ``profile``
    is the radial profile of the well shape W (default: indicator of the unit
    ball).  Values vanish for points outside the rescaled half-space.
    """
    if sign not in ("minus", "plus"):
        raise ValidationError(f"sign must be 'minus' or 'plus', got {sign!r}")
    if d == 2 and sign == "plus":
        raise ValidationError("the d=2 rescaled kernel is defined for the minus (Dirichlet) case")
    if d not in (2, 3):
        raise ValidationError("rescaled kernels are implemented for d = 2, 3")
    if d == 2 and n <= 1.0:
        raise ValidationError("d=2 rescaled kernel needs n > 1 (log factor)")
    c = center if np.ndim(center) == 0 else float(np.asarray(center).reshape(-1)[0])
    if c <= 0:
        raise ValidationError("center must have a positive distance from the boundary")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    shift = 2.0 * n * c
    sigma_star = sigma.copy()
    sigma_star[..., 0] = -sigma_star[..., 0]
    arg = y - sigma_star
    arg[..., 0] = arg[..., 0] + shift
    direct = np.linalg.norm(y - sigma, axis=-1)
    image = np.linalg.norm(arg, axis=-1)

    if profile is None:
        wy = (np.linalg.norm(y, axis=-1) <= 1.0).astype(float)
        ws = (np.linalg.norm(sigma, axis=-1) <= 1.0).astype(float)
    else:
        wy = profile(np.linalg.norm(y, axis=-1))
        ws = profile(np.linalg.norm(sigma, axis=-1))
    inside = (y[..., 0] > -n * c) & (sigma[..., 0] > -n * c)
    weight = np.sqrt(wy) * np.sqrt(ws) * inside

    with np.errstate(divide="ignore"):
        if d == 3:
            sgn = -1.0 if sign == "minus" else 1.0
            vals = _FUNDAMENTAL_C3 * (1.0 / direct + sgn / image)
        else:
            vals = np.log(image / direct) / (2.0 * math.pi * math.log(n))
    return vals * weight
