"""Independent reference computations used to pin expected values.

Everything here is deliberately separate from the package machinery: closed
forms, zero-energy matching, banded finite-difference boundary-value solves,
and plain reflection arithmetic.  Tests freeze values computed by these
routines and compare the package against them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import brentq
from scipy.special import ive, kve, spherical_jn, spherical_yn, jv, yv


def threshold_wavenumber(width: float, arm: float, crossing: int = 0) -> float:
    """Root of k*width + arctan(k*arm) = pi/2 + crossing*pi.

    Zero-energy matching for an indicator well of the given width whose
    inner edge sits a distance ``arm`` from the point where the regular
    solution vanishes (arm = 0 for a well touching the boundary).
    """
    target = 0.5 * math.pi + crossing * math.pi
    lo, hi = 1e-9, 10.0
    while hi * width + math.atan(hi * arm) < target:
        hi *= 2.0
    return brentq(lambda k: k * width + math.atan(k * arm) - target, lo, hi,
                  xtol=1e-14)


def square_well_beta_cr(a: float, b: float, inner: float = 0.0,
                        crossing: int = 0) -> float:
    """Critical coupling of the indicator well on (a, b), Dirichlet at ``inner``."""
    k = threshold_wavenumber(b - a, a - inner, crossing)
    return k * k


def halfline_crossing_count(beta: float, a: float, b: float,
                            inner: float = 0.0) -> int:
    """Number of zero-energy threshold crossings passed at coupling beta."""
    k = math.sqrt(beta)
    phase = k * (b - a) + math.atan(k * (a - inner))
    return max(0, int(math.floor((phase - 0.5 * math.pi) / math.pi)) + 1) \
        if phase > 0.5 * math.pi else 0


def square_well_ground_energy(beta: float, a: float, b: float,
                              inner: float = 0.0) -> float:
    """Lowest eigenvalue -kappa^2 of the indicator well beta*1_(a,b), Dirichlet
    at ``inner``, from the matching condition u'(b) = -kappa u(b).

    u = sinh(kappa (x - inner)) before the well enters it at the Pruefer
    angle atan((q/kappa) tanh(kappa arm)), q = sqrt(beta - kappa^2), and
    advances by q (b - a) inside; the ground state leaves it at
    pi - atan(q/kappa).  The mismatch falls strictly in kappa.
    """
    arm, width = a - inner, b - a

    def mismatch(kappa):
        # clamped: at the bracket end sqrt(beta)**2 may round above beta
        q = math.sqrt(max(0.0, beta - kappa * kappa))
        return (math.atan(q / kappa * math.tanh(kappa * arm)) + q * width
                + math.atan(q / kappa) - math.pi)

    kappa = brentq(mismatch, 1e-300, math.sqrt(beta), xtol=1e-300, rtol=1e-15)
    return -kappa * kappa


def bvp_green_halfline(bc: str, lam: float, xi: float, x_eval: np.ndarray,
                       length: float = 40.0, n: int = 200001) -> np.ndarray:
    """Finite-difference two-point solve of (-d2/dx2 - lam) G = delta_xi.

    Independent of the package: plain banded solve with a hard truncation
    far enough out that the decay makes the truncation error negligible.
    """
    x = np.linspace(0.0, length, n)
    h = x[1] - x[0]
    j = int(round(xi / h))
    main = np.full(n, 2.0 / h ** 2 - lam)
    off = np.full(n - 1, -1.0 / h ** 2)
    rhs = np.zeros(n)
    rhs[j] = 1.0 / h
    if bc == "dirichlet":
        sl = slice(1, n - 1)
        rhs_in = rhs[sl]
        ab = np.zeros((3, n - 2))
        ab[0, 1:] = off[sl][:-1]
        ab[1, :] = main[sl]
        ab[2, :-1] = off[sl][:-1]
        g_in = solve_banded((1, 1), ab, rhs_in)
        g = np.concatenate([[0.0], g_in, [0.0]])
    else:  # neumann: ghost-free half-cell closure at x = 0
        main0 = main.copy()
        main0[0] = 1.0 / h ** 2 - 0.5 * lam
        rhs0 = rhs.copy()
        if j == 0:
            rhs0[0] = 1.0 / (0.5 * h)
        ab = np.zeros((3, n - 1))
        ab[0, 1:] = off[: n - 2]
        ab[1, :] = main0[: n - 1]
        ab[2, :-1] = off[: n - 2]
        g_in = solve_banded((1, 1), ab, rhs0[: n - 1])
        g = np.concatenate([g_in, [0.0]])
    return np.interp(x_eval, x, g)


def bvp_green_radial(d: int, l: int, bc: str, lam: float, r0: float, xi: float,
                     r_eval: np.ndarray, coefficient=None, length: float = 40.0,
                     n: int = 120001) -> np.ndarray:
    """Radial sector kernel by a banded solve against the volume measure.

    Solves -(a r^{d-1} G')' + a l(l+d-2) r^{d-3} G - lam r^{d-1} G =
    delta_xi (with the r^{d-1} measure normalization), Dirichlet truncation
    far out, so only lam < 0 (or bounded-limit setups over compact windows).
    """
    r = np.linspace(r0, r0 + length, n)
    h = r[1] - r[0]
    a_vals = np.ones_like(r) if coefficient is None else coefficient(r)
    r_half = r[:-1] + 0.5 * h
    a_half = np.ones_like(r_half) if coefficient is None else coefficient(r_half)
    p_half = a_half * r_half ** (d - 1)
    cent = l * (l + d - 2)
    q = (a_vals * cent * r ** (d - 3.0) if cent else np.zeros_like(r)) \
        - lam * r ** (d - 1.0)
    j = int(round((xi - r0) / h))
    diag = np.empty(n)
    diag[1:-1] = (p_half[:-1] + p_half[1:]) / h + q[1:-1] * h
    diag[0] = p_half[0] / h + q[0] * 0.5 * h
    diag[-1] = p_half[-1] / h + q[-1] * 0.5 * h
    off = -p_half / h
    rhs = np.zeros(n)
    rhs[j] = 1.0
    if bc == "dirichlet":
        sl_lo = 1
    else:
        sl_lo = 0
    ab = np.zeros((3, n - 1 - sl_lo))
    ab[0, 1:] = off[sl_lo: n - 2]
    ab[1, :] = diag[sl_lo: n - 1]
    ab[2, :-1] = off[sl_lo: n - 2]
    g_in = solve_banded((1, 1), ab, rhs[sl_lo: n - 1])
    g = np.zeros(n)
    g[sl_lo: n - 1] = g_in
    return np.interp(r_eval, r, g)


def _fd_sector(d: int, l: int, r0: float, length: float, h: float, well,
               beta: float, coefficient=None):
    """Interior nodes and (p at the half nodes, q, w) of the sector equation
    -(a r^{d-1} u')' + a l(l+d-2) r^{d-3} u - beta V r^{d-1} u = lam r^{d-1} u
    on (r0, r0 + length), V the unit indicator of ``well`` averaged over
    each cell, so the jumps cost O(h^2)."""
    n = int(round(length / h))
    r = r0 + h * np.arange(1, n)
    r_half = r0 + h * (np.arange(n) + 0.5)
    a = (lambda x: np.ones_like(x)) if coefficient is None else coefficient
    lo, hi = well
    frac = np.clip((np.minimum(r + 0.5 * h, hi) - np.maximum(r - 0.5 * h, lo)) / h,
                   0.0, 1.0)
    w = r ** (d - 1.0)
    q = a(r) * l * (l + d - 2) * r ** (d - 3.0) - beta * frac * w
    return r, a(r_half) * r_half ** (d - 1.0), q, w


def fd_ground_energy(d: int, l: int, r0: float, well, beta: float,
                     coefficient=None, length: float = 24.0,
                     h: float = 2e-3) -> float:
    """Lowest Dirichlet-Dirichlet eigenvalue of the sector equation by a
    symmetrized tridiagonal eigensolve, Richardson-extrapolated from h and
    h/2."""
    def energy(step):
        r, p, q, w = _fd_sector(d, l, r0, length, step, well, beta, coefficient)
        diag = ((p[:-1] + p[1:]) / step ** 2 + q) / w
        off = -p[1:-1] / step ** 2 / np.sqrt(w[:-1] * w[1:])
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, 0))[0]
    return (4.0 * energy(0.5 * h) - energy(h)) / 3.0


def fd_unit_trace(d: int, r0: float, well, beta: float, lam: float,
                  coefficient=None, length: float = 30.0, h: float = 1e-3):
    """Radially symmetric solution with u(r0) = 1 decaying to 0 at
    r0 + length: nodes, values and -u'(r0), Richardson-extrapolated in h."""
    def solve(step):
        r, p, q, w = _fd_sector(d, 0, r0, length, step, well, beta, coefficient)
        ab = np.zeros((3, r.size))
        ab[0, 1:] = -p[1:-1] / step ** 2
        ab[1, :] = (p[:-1] + p[1:]) / step ** 2 + q - lam * w
        ab[2, :-1] = -p[1:-1] / step ** 2
        rhs = np.zeros(r.size)
        rhs[0] = p[0] / step ** 2  # the boundary value u(r0) = 1
        u = solve_banded((1, 1), ab, rhs)
        flux = -(-3.0 + 4.0 * u[0] - u[1]) / (2.0 * step)
        return r, u, flux

    r, u, flux = solve(h)
    r_fine, u_fine, flux_fine = solve(0.5 * h)
    u_fine = u_fine[1::2]  # the coarse nodes
    return r, (4.0 * u_fine - u) / 3.0, (4.0 * flux_fine - flux) / 3.0


def _radial_zero_energy_pair(d: int, l: int):
    """(growing, bounded) zero-energy free solutions and their derivatives."""
    if d == 1:
        return ((lambda r: r, lambda r: np.ones_like(np.asarray(r, float))),
                (lambda r: np.ones_like(np.asarray(r, float)),
                 lambda r: np.zeros_like(np.asarray(r, float))))
    if d == 2 and l == 0:
        return ((np.log, lambda r: 1.0 / np.asarray(r, float)),
                (lambda r: np.ones_like(np.asarray(r, float)),
                 lambda r: np.zeros_like(np.asarray(r, float))))
    q = l + d - 2
    return ((lambda r: np.asarray(r, float) ** l,
             lambda r: l * np.asarray(r, float) ** (l - 1)),
            (lambda r: np.asarray(r, float) ** (-q),
             lambda r: -q * np.asarray(r, float) ** (-q - 1)))


def _bessel_block(d: int, l: int, kappa: float):
    """Oscillatory zero-energy solutions inside the well and derivatives."""
    if d == 1:
        return ((lambda r: np.sin(kappa * r), lambda r: kappa * np.cos(kappa * r)),
                (lambda r: np.cos(kappa * r), lambda r: -kappa * np.sin(kappa * r)))
    if d == 2:
        return ((lambda r: jv(l, kappa * r),
                 lambda r: 0.5 * kappa * (jv(l - 1, kappa * r) - jv(l + 1, kappa * r))),
                (lambda r: yv(l, kappa * r),
                 lambda r: 0.5 * kappa * (yv(l - 1, kappa * r) - yv(l + 1, kappa * r))))
    return ((lambda r: spherical_jn(l, kappa * r),
             lambda r: kappa * spherical_jn(l, kappa * r, derivative=True)),
            (lambda r: spherical_yn(l, kappa * r),
             lambda r: kappa * spherical_yn(l, kappa * r, derivative=True)))


def sector_count_zero_energy(d: int, l: int, r0: float, a: float, b: float,
                             height: float, beta: float, bc: str = "dirichlet") -> int:
    """Negative-eigenvalue count of one sector by zero-energy oscillation.

    Piecewise closed forms for the indicator well height*chi_[a,b]: the
    number of zeros of the regular zero-energy solution on (r0, infinity)
    equals the number of eigenvalues below zero.
    """
    kappa = math.sqrt(beta * height)
    (grow, dgrow), (bdd, dbdd) = _radial_zero_energy_pair(d, l)
    # region 1: regular solution on [r0, a]
    if bc == "dirichlet":
        c1, c2 = bdd(r0), -grow(r0)
    else:
        c1, c2 = dbdd(r0), -dgrow(r0)
    u_a = c1 * grow(a) + c2 * bdd(a)
    du_a = c1 * dgrow(a) + c2 * dbdd(a)
    # region 2: match Bessel-type pair on [a, b]
    (f1, df1), (f2, df2) = _bessel_block(d, l, kappa)
    wr = f1(a) * df2(a) - df1(a) * f2(a)
    A = (u_a * df2(a) - du_a * f2(a)) / wr
    B = (du_a * f1(a) - u_a * df1(a)) / wr
    rr = np.linspace(a, b, max(2000, int(4000 * kappa * (b - a) / math.pi)))
    vals = A * f1(rr) + B * f2(rr)
    signs = np.sign(vals)
    signs = signs[signs != 0]
    zeros = int(np.sum(signs[1:] != signs[:-1]))
    # region 3: free tail past the well
    u_b = A * f1(b) + B * f2(b)
    du_b = A * df1(b) + B * df2(b)
    wr3 = grow(b) * dbdd(b) - dgrow(b) * bdd(b)
    cg = (u_b * dbdd(b) - du_b * bdd(b)) / wr3
    cb = (du_b * grow(b) - u_b * dgrow(b)) / wr3
    if d == 2 and l == 0:
        # tail cg*ln r + cb: a zero exists if the solution changes sign past b
        root = math.exp(-cb / cg) if cg != 0 else math.inf
        if cg != 0 and root > b:
            zeros += 1
    elif d == 1:
        if cg != 0:
            root = -cb / cg
            if root > b:
                zeros += 1
    else:
        q = l + d - 2
        if cg != 0 and cb != 0 and (cb / cg) < 0:
            root = (-cb / cg) ** (1.0 / (l + q))
            if root > b:
                zeros += 1
    return zeros


def total_count_zero_energy(d: int, r0: float, a: float, b: float,
                            height: float, beta: float,
                            bc: str = "dirichlet") -> int:
    """Full negative-eigenvalue count: sector sum with multiplicities (d >= 2)."""
    total = 0
    for l in range(0, 10000):
        c = sector_count_zero_energy(d, l, r0, a, b, height, beta, bc)
        if c == 0:
            break
        mult = 2 * l + 1 if d == 3 else (1 if l == 0 else 2)
        total += mult * c
    return total


def reflection_kernel(d: int, sign: str, x: np.ndarray, xi: np.ndarray) -> float:
    """Plain image-charge arithmetic for the half-space at zero energy."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    xi_ref = xi.copy()
    xi_ref[0] = -xi_ref[0]
    direct = float(np.linalg.norm(x - xi))
    image = float(np.linalg.norm(x - xi_ref))
    if d == 3:
        s = -1.0 if sign == "minus" else 1.0
        return (1.0 / direct + s / image) / (4.0 * math.pi)
    return math.log(image / direct) / (2.0 * math.pi)


def broadcast_distances(pts: np.ndarray, shift: float | None = None):
    """(direct, image) distances from m x m x d difference arrays: the image
    of s is its mirror across x1 = 0 moved by ``shift`` along e1."""
    diff = pts[:, None, :] - pts[None, :, :]
    direct = np.sqrt(np.sum(diff ** 2, axis=-1))
    if shift is None:
        return direct, None
    star = pts.copy()
    star[:, 0] = -star[:, 0]
    diff_im = pts[:, None, :] - star[None, :, :]
    diff_im[..., 0] += shift
    return direct, np.sqrt(np.sum(diff_im ** 2, axis=-1))


def sturm_count(diag: np.ndarray, off: np.ndarray) -> int:
    """Eigenvalues <= 0 of a symmetric tridiagonal, by the Sturm sequence of
    pivots in plain Python.  A zero pivot stands for -tiny, so it counts as
    negative (as in LAPACK's bisection)."""
    d = diag.tolist()
    e = off.tolist()
    count = 0
    t = d[0]
    if t <= 0:
        count += 1
    tiny = 1e-300
    for i in range(1, len(d)):
        denom = t if abs(t) > tiny else math.copysign(tiny, t if t != 0 else -1.0)
        t = d[i] - e[i - 1] * e[i - 1] / denom
        if t <= 0:
            count += 1
    return count


def ball_potential_at(potential, y: np.ndarray) -> np.ndarray:
    """A ball-supported potential at d-dimensional points (rows): its radial
    profile at the distance from the center on the x1-axis."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    center = np.zeros(y.shape[1])
    center[0] = potential.center
    return potential(np.linalg.norm(y - center, axis=1))


def report_lambdas(report) -> np.ndarray:
    """The energies of a ``SpectralReport``'s samples."""
    return np.array([s[0] for s in report.samples])


def report_mus(report) -> np.ndarray:
    """The principal eigenvalues of a ``SpectralReport``'s samples."""
    return np.array([s[1] for s in report.samples])


def constant_coefficient_green(problem, lam: float, x, xi):
    """Sector kernel for a == 1 in closed form, per unit sphere measure.

    With the free solutions g e^{kr} (growing) and f e^{-kr} (decaying),
    u_reg = g - (g0/f0) f e^{-2k(r - r0)} for Dirichlet (derivatives for
    Neumann), u_dec = f, and C the measure times their Wronskian at r0;
    G = u_reg(min) u_dec(max) e^{-k |x - xi|} / C.
    """
    d, l, r0 = problem.dimension, problem.sector, problem.inner_radius
    k = math.sqrt(-lam)

    def free(r):
        """(g, f, g', f'), each scaled by e^{-kr} (g) or e^{kr} (f)."""
        r = np.asarray(r, dtype=float)
        one = np.ones_like(r)
        if d == 1:
            if k == 0:
                return r, one, one, 0.0 * one
            return (-np.expm1(-2.0 * k * r) / (2.0 * k), one,
                    0.5 * (1.0 + np.exp(-2.0 * k * r)), -k * one)
        if k == 0:
            q = l + d - 2
            if q == 0:
                return np.log(r), one, 1.0 / r, 0.0 * one
            return r ** l, r ** (-q), l * r ** (l - 1.0), -q * r ** (-q - 1.0)
        nu, z, amp = l + 0.5 * d - 1.0, k * r, r ** (1.0 - 0.5 * d)
        g, f = amp * ive(nu, z), amp * kve(nu, z)
        s = (1.0 - 0.5 * d) / r
        return (g, f, s * g + amp * k * (ive(nu + 1.0, z) + (nu / z) * ive(nu, z)),
                s * f + amp * k * (-kve(nu + 1.0, z) + (nu / z) * kve(nu, z)))

    g0, f0, dg0, df0 = free(r0)
    ratio = g0 / f0 if problem.effective_bc() == "dirichlet" else dg0 / df0
    lo = np.minimum(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))
    hi = np.maximum(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))
    u_reg = free(lo)[0] - ratio * free(lo)[1] * np.exp(-2.0 * k * (lo - r0))
    c = problem.measure(r0) * (f0 * dg0 - df0 * g0)
    return u_reg * free(hi)[1] * np.exp(-k * (hi - lo)) / c
