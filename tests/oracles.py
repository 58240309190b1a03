"""Independent reference computations used to pin expected values.

Everything here is deliberately separate from the package machinery: closed
forms, zero-energy matching, banded finite-difference boundary-value solves,
finite-difference eigenvalue counts, and plain reflection arithmetic.  Tests
freeze values computed by these routines and compare the package against
them.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import dstebz
from scipy.optimize import brentq
from scipy.special import iv, ive, kv, kve, spherical_jn, spherical_yn, jv, yv

from betacrit.errors import UnconvergedError, ValidationError
from betacrit.model import Potential, ProblemSpec, Profile, require_valid
from betacrit.sector_ode import SectorODE

DEFAULT_H = 1e-3
DEFAULT_BISECT_TOL = 1e-6


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


def planar_ground_energy(beta: float, a: float, b: float, r0: float) -> float:
    """Lowest sector-0 eigenvalue -kappa^2 of the indicator well
    beta*1_(a,b) outside the disk of radius r0 (Dirichlet), from Bessel
    matching rooted in ln kappa: a planar s-state just above threshold is
    exponentially shallow.

    u = I0(kappa r) K0(kappa r0) - K0(kappa r) I0(kappa r0) up to the well,
    J0/Y0 of q = sqrt(beta - kappa^2) inside it, and K0(kappa r) past it.
    """
    def mismatch(log_kappa):
        kappa = math.exp(log_kappa)
        q = math.sqrt(beta - kappa * kappa)
        u = iv(0, kappa * a) * kv(0, kappa * r0) - kv(0, kappa * a) * iv(0, kappa * r0)
        du = kappa * (iv(1, kappa * a) * kv(0, kappa * r0)
                      + kv(1, kappa * a) * iv(0, kappa * r0))
        wr = q * (jv(0, q * a) * -yv(1, q * a) + jv(1, q * a) * yv(0, q * a))
        c_j = (u * -q * yv(1, q * a) - du * yv(0, q * a)) / wr
        c_y = (du * jv(0, q * a) + u * q * jv(1, q * a)) / wr
        u_b = c_j * jv(0, q * b) + c_y * yv(0, q * b)
        du_b = -q * (c_j * jv(1, q * b) + c_y * yv(1, q * b))
        return du_b * kv(0, kappa * b) + u_b * kappa * kv(1, kappa * b)

    log_kappa = brentq(mismatch, -372.0, math.log(0.1 * math.sqrt(beta)), xtol=1e-13)
    return -math.exp(2.0 * log_kappa)


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


def fd_resolvent(d: int, l: int, r0: float, well, beta: float, lam: float, f,
                 bc: str = "dirichlet", length: float = 30.0, h: float = 1e-3):
    """(H - lam) w = f in sector l with w = 0 at r0 + length, and either
    w(r0) = 0 (``bc`` "dirichlet") or no flux at r0 ("neumann", the node r0
    on its half cell): nodes, values and -w'(r0), Richardson-extrapolated
    in h.  The whole source on the interval enters; none is cut."""
    def solve(step):
        r, p, q, w = _fd_sector(d, l, r0, length, step, well, beta)
        diag = (p[:-1] + p[1:]) / step ** 2 + q - lam * w
        off = -p[1:-1] / step ** 2
        rhs = w * f(r)
        if bc == "neumann":
            w0 = r0 ** (d - 1.0)
            lo, hi = well
            frac0 = np.clip((min(r0 + 0.5 * step, hi) - max(r0, lo)) / (0.5 * step), 0.0, 1.0)
            q0 = l * (l + d - 2) * r0 ** (d - 3.0) - beta * frac0 * w0
            r = np.append(r0, r)
            diag = np.append(p[0] / step ** 2 + 0.5 * (q0 - lam * w0), diag)
            off = np.append(-p[0] / step ** 2, off)
            rhs = np.append(0.5 * w0 * f(r0), rhs)
        ab = np.zeros((3, r.size))
        ab[0, 1:] = off
        ab[1, :] = diag
        ab[2, :-1] = off
        u = solve_banded((1, 1), ab, rhs)
        flux = 0.0 if bc == "neumann" else -(4.0 * u[0] - u[1]) / (2.0 * step)
        return r, u, flux

    r, u, flux = solve(h)
    _, u_fine, flux_fine = solve(0.5 * h)
    u_fine = u_fine[::2] if bc == "neumann" else u_fine[1::2]  # the coarse nodes
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


def ring_average(f, y: np.ndarray, s: np.ndarray, n_phi: int = 2048) -> float:
    """Mean of f(y, R s) over n_phi midpoint rotations R about the x1 axis,
    for 3-d points y and s: a periodic trapezoid sum, fast to converge
    where y stays off the ring of s."""
    total = 0.0
    for phi in 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi:
        c, sn = math.cos(phi), math.sin(phi)
        total += f(y, np.array([s[0], c * s[1] - sn * s[2], sn * s[1] + c * s[2]]))
    return total / n_phi


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


def broadcast_distance_pair(pts: np.ndarray, shift: float | None = None):
    """(near, mirrored) distances between 2-column points from m x m x 2
    difference arrays: to s and to its mirror across x2 = 0; with a
    ``shift``, both first mirrored across x1 = 0 and moved by it along e1."""
    pair = []
    for sign in (1.0, -1.0):
        s = pts * np.array([1.0 if shift is None else -1.0, sign])
        diff = pts[:, None, :] - s[None, :, :]
        if shift is not None:
            diff[..., 0] += shift
        pair.append(np.sqrt(np.sum(diff ** 2, axis=-1)))
    return tuple(pair)


def ray_cell_integrals(points: np.ndarray, radius: float, x1_min: float,
                       n_dir: int, center: float = 0.0) -> np.ndarray:
    """Integrals of ln(1/|y - s|) (2-d points) or 1/|y - s| (3-d points)
    over the disk or ball of ``radius`` about center e1, cut at
    s1 > x1_min, along rays from each y: n_dir midpoint angles in 2-d,
    n_dir Gauss polar by n_dir midpoint azimuthal directions in 3-d.  Each
    ray runs to the circle or sphere, or to the cut plane if that is
    nearer; its radial integral is exact."""
    d = points.shape[1]
    phi = 2.0 * math.pi * (np.arange(n_dir) + 0.5) / n_dir
    if d == 2:
        omega = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        wdir = np.full(n_dir, 2.0 * math.pi / n_dir)
    else:
        mu, wmu = np.polynomial.legendre.leggauss(n_dir)
        sin_t = np.sqrt(1.0 - mu ** 2)
        omega = np.stack([np.repeat(mu, n_dir), np.outer(sin_t, np.cos(phi)).ravel(),
                          np.outer(sin_t, np.sin(phi)).ravel()], axis=1)
        wdir = np.repeat(wmu, n_dir) * (2.0 * math.pi / n_dir)
    down = omega[:, 0] < 0
    cells = []
    for y in points:  # one row at a time: 3-d direction sets are large
        yc = y - center * np.eye(d)[0]
        b = omega @ yc
        t = -b + np.sqrt(radius ** 2 - yc @ yc + b ** 2)
        t_cut = (x1_min - y[0]) / np.where(down, omega[:, 0], -1.0)
        t = np.where(down, np.minimum(t, t_cut), t)
        f = 0.25 * t ** 2 * (1.0 - 2.0 * np.log(t)) if d == 2 else 0.5 * t ** 2
        cells.append(f @ wdir)
    return np.array(cells)


def point_matrix(weights: np.ndarray, density: np.ndarray, regular: np.ndarray,
                 singular: np.ndarray, coefficient: float,
                 cells: np.ndarray) -> np.ndarray:
    """Full m x m Nystrom matrix of the kernel coefficient g + regular on a
    point cloud, every node a row: sqrt(density) [...] sqrt(density) off the
    diagonal, the mean-value subtraction with the cell integrals of g on it,
    symmetrized."""
    v = weights * density
    sq = np.sqrt(v)
    entries = sq[:, None] * regular * sq[None, :]
    g = np.array(singular, dtype=float)
    np.fill_diagonal(g, 0.0)
    entries = entries + coefficient * (sq[:, None] * g * sq[None, :])
    fix = coefficient * density * (cells - g @ weights)
    entries[np.diag_indices_from(entries)] = np.diag(regular) * v + fix
    return 0.5 * (entries + entries.T)


def halfspace_matrix(d: int, sign: str, n: float, center: float, pts: np.ndarray,
                     weights: np.ndarray, density: np.ndarray,
                     cells: np.ndarray) -> np.ndarray:
    """Full m x m rescaled half-space matrix: direct part c_s g, image part
    from the broadcast distances to the mirror shifted by 2 n x(n)."""
    direct, image = broadcast_distances(pts, 2.0 * n * center)
    with np.errstate(divide="ignore"):
        if d == 2:
            c_s = 1.0 / (2.0 * math.pi * math.log(n))
            return point_matrix(weights, density, c_s * np.log(image),
                                np.log(1.0 / direct), c_s, cells)
        c3 = 1.0 / (4.0 * math.pi)
        sgn = -1.0 if sign == "minus" else 1.0
        return point_matrix(weights, density, sgn * c3 / image, 1.0 / direct,
                            c3, cells)


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


# ---------------------------------------------------------------------------
# finite-difference eigenvalue counts: a second discretization of the sector
# equation, the reference for the package's zero-energy angle count


def integral_to(profile: Profile, x):
    """Exact antiderivative of the piecewise-linear profile from lo to x."""
    xs, ys = profile.xs, profile.ys
    seg = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    x = np.clip(np.asarray(x, dtype=float), xs[0], xs[-1])
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    t = x - xs[idx]
    slope = (ys[idx + 1] - ys[idx]) / (xs[idx + 1] - xs[idx])
    return cum[idx] + ys[idx] * t + 0.5 * slope * t * t


def cell_average(potential: Potential, r, h: float):
    """Average of V over cells [r - h/2, r + h/2]; exact for the sampled
    representation, so indicator edges carry their true fractional weight."""
    upper = integral_to(potential.profile, np.asarray(r, dtype=float) + 0.5 * h)
    lower = integral_to(potential.profile, np.asarray(r, dtype=float) - 0.5 * h)
    return potential.amplitude * (upper - lower) / h


class _Mesh(NamedTuple):
    """What no sector and no coupling changes in the pencil on [r_in, R* + 1]."""

    r: np.ndarray        # nodes r_0..r_N
    h: float
    p_half: np.ndarray   # p at the cell midpoints
    p_sum: np.ndarray    # (p_{i-1/2} + p_{i+1/2}) / h at the interior nodes
    off: np.ndarray      # -p_half / h
    weight: np.ndarray
    v_cell: np.ndarray   # V averaged over the cells as the mesh realizes them


def _mesh(problem: ProblemSpec, potential: Potential, h: float) -> _Mesh:
    """Nodes of spacing h on [r_in, R* + 1], where every closure is exact."""
    ode = SectorODE(problem, potential)
    r_in = problem.inner_radius
    r_out = ode.r_star + 1.0
    n = max(8, int(round((r_out - r_in) / h)))
    r = r_in + h * np.arange(n + 1)
    weight = ode.coefficients(r)[2]
    p_half = ode.coefficients(r[:-1] + 0.5 * h)[0]
    return _Mesh(r, h, p_half, (p_half[:-1] + p_half[1:]) / h, -p_half / h,
                 weight, cell_average(potential, r, float(r[1] - r[0])))


class SectorPencil:
    """One sector's finite-difference pencil with the coupling factored out,
    A(beta) = A0 - beta D_V, on the mesh of a ``_Mesh``, closed at lambda = 0.

    The diagonal is assembled from the quadratic form in the order a single
    build uses, p-sum + (q0 - beta V w) h, so it is the same to the last bit
    for every coupling.
    """

    def __init__(self, mesh: _Mesh, problem: ProblemSpec):
        ode = SectorODE(problem)
        if ode.bc not in ("dirichlet", "neumann"):
            raise ValidationError(f"unsupported sector boundary condition {ode.bc!r}")
        self.ode, self.grid = ode, mesh
        # Dirichlet eliminates u(r_in) = 0, the first node
        self.first = 1 if ode.bc == "dirichlet" else 0
        self.off = mesh.off[self.first:]
        self.flux = ode.decay_state(0.0, mesh.r[-1])[1]  # zero-energy closure

    def diag(self, beta: float) -> np.ndarray:
        grid, h = self.grid, self.grid.h
        q = self.ode.coefficients(grid.r)[1] - beta * grid.v_cell * grid.weight
        diag = np.empty(q.size)
        diag[1:-1] = grid.p_sum + q[1:-1] * h
        diag[0] = grid.p_half[0] / h + q[0] * 0.5 * h
        diag[-1] = grid.p_half[-1] / h + q[-1] * 0.5 * h - self.flux
        return diag[self.first:]

    def count(self, beta: float) -> int:
        """Negative eigenvalues of A(beta)."""
        return _sturm_count(self.diag(beta), self.off)


def _sturm_count(diag: np.ndarray, off: np.ndarray) -> int:
    """Number of eigenvalues <= 0 of a symmetric tridiagonal.

    LAPACK's bisection (``dstebz``) counts the nonpositive pivots of the
    Sturm sequence, a zero pivot standing for -tiny; with an infinite
    tolerance every interval has converged at once, so only the count is
    formed.
    """
    if diag.size == 1:  # the wrapper rejects an empty off-diagonal
        return int(diag[0] <= 0.0)
    count, *_, info = dstebz(diag, off, 1, -math.inf, 0.0, 0, 0, math.inf, "B")
    if info:
        raise UnconvergedError("LAPACK dstebz failed", details={"info": info})
    return count


class SpectrumCounter:
    """Finite-difference negative-eigenvalue counts of one problem and
    potential, each (h, sector) pencil built on first use and kept."""

    def __init__(self, problem: ProblemSpec, potential: Potential):
        require_valid(problem, potential)
        self.problem, self.potential = problem, potential
        self._meshes: dict[float, _Mesh] = {}
        self._pencils: dict[tuple[float, int], SectorPencil] = {}

    def pencil(self, h: float, sector: int) -> SectorPencil:
        pencil = self._pencils.get((h, sector))
        if pencil is None:
            if h not in self._meshes:
                self._meshes[h] = _mesh(self.problem, self.potential, h)
            pencil = SectorPencil(self._meshes[h], self.problem.with_sector(sector))
            self._pencils[(h, sector)] = pencil
        return pencil

    def total(self, beta: float, h: float) -> int:
        """Sum of sector counts with multiplicities, up to the first empty
        sector (sectors empty out monotonically)."""
        problem = self.problem
        if problem.geometry == "half_line":
            return self.pencil(h, 0).count(beta)
        if problem.dimension == 1:  # even/odd components of the punctured line
            return sum(self.pencil(h, l).count(beta) for l in (0, 1))
        total = 0
        for l in itertools.count():
            c = self.pencil(h, l).count(beta)
            if c == 0:
                return total
            total += problem.sector_multiplicity(l) * c

    def count(self, beta: float, h: float = DEFAULT_H, refine: bool = True) -> int:
        """The count on the pencils at h; with ``refine`` also at h/2, and a
        disagreement, or a coupling the mesh cannot resolve,
        h sqrt(beta max V) > 1, raises ``UnconvergedError``."""
        if beta < 0:
            raise ValidationError("coupling must be nonnegative")
        if self.potential.is_zero() or beta == 0.0:
            return 0
        resolution = beta * self.potential.max_value() * h * h
        if resolution > 1.0:  # the well's wavelength spans less than a cell
            raise UnconvergedError(
                "mesh too coarse for this coupling: h sqrt(beta max V) > 1",
                details={"beta": beta, "h": h, "beta_max_v_h2": resolution})
        base = self.total(beta, h)
        if not refine:
            return base
        half = self.total(beta, 0.5 * h)
        if half != base:
            raise UnconvergedError(
                "negative-eigenvalue count did not stabilize under refinement",
                details={f"h={h:g}": base, f"h={0.5 * h:g}": half})
        return base

    def threshold(self, tol: float = DEFAULT_BISECT_TOL, h: float = DEFAULT_H):
        """Coupling threshold by bisection of sector 0's count: every other
        sector's pencil is a principal submatrix of it plus the nonnegative
        centrifugal diagonal, so only sector 0 decides."""
        if self.potential.is_zero():
            return None
        ground = self.pencil(h, 0)
        if ground.ode.bc == "neumann" and ground.flux == 0.0:
            return 0.0  # A0 annihilates the constants: every coupling binds
        lo, hi = 0.0, 1.0
        while not ground.count(hi):  # no bound state yet
            lo, hi = hi, 2.0 * hi
            if hi > 2.0 ** 60:
                return None
        while hi - lo > tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):  # adjacent floats: tol is below their spacing
                break
            if ground.count(mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)
