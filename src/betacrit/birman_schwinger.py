"""Resolvent sandwich operators and the coupling threshold they encode.

The operator sqrt(V) (H0 - lambda)^{-1} sqrt(V) is discretized by a Nystrom
method on composite Gauss-Legendre panels over the support of V.  Its largest
eigenvalue mu0(lambda) increases toward mu* as lambda -> 0-, and the coupling
threshold is 1/mu*; when mu0 diverges the threshold is zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh

from .errors import (IndeterminateError, KernelLimitError, MethodDisagreement,
                     UnconvergedError, ValidationError)
from .green_kernels import solution_pair
from .model import Potential, ProblemSpec, require_valid

DEFAULT_M = 400
DEFAULT_PANEL_ORDER = 8
DEFAULT_EIG_TOL = 1e-8
DEFAULT_DECADES = (2, 7)


def default_lambda_grid(decades=DEFAULT_DECADES) -> np.ndarray:
    """Energies -10^{-j} for j in the decade range, sorted toward 0-."""
    j0, j1 = decades
    return -np.power(10.0, [-j for j in range(j0, j1 + 1)])


_legendre = functools.cache(leggauss)  # read only: shared by every assembly


def gauss_panels(lo: float, hi: float, m: int, panel_order: int = DEFAULT_PANEL_ORDER):
    """Composite Gauss-Legendre rule with ~m nodes on [lo, hi]."""
    if hi <= lo:
        raise ValidationError("empty quadrature interval")
    q = max(1, min(panel_order, m))
    panels = max(1, round(m / q))
    xg, wg = _legendre(q)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetrized Nystrom discretization of the sandwiched resolvent."""

    nodes: np.ndarray
    weights: np.ndarray  # volume weights (measure of each node's cell)
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def assemble(problem: ProblemSpec, potential: Potential, lam: float,
             m: int = DEFAULT_M, panel_order: int = DEFAULT_PANEL_ORDER) -> KernelMatrix:
    """Kernel matrix of the sandwiched resolvent at energy lambda <= 0.

    lam = 0 requests the limit kernel and raises ``KernelLimitError`` where
    that limit diverges (e.g. Neumann in low dimension).
    """
    require_valid(problem, potential)
    reg, dec, c = solution_pair(problem, lam)
    lo, hi = potential.support
    nodes, w = gauss_panels(max(lo, problem.inner_radius), hi, m, panel_order)
    vol = w * problem.measure(nodes)
    (y_reg, s_reg), (y_dec, s_dec) = reg(nodes), dec(nodes)
    # G = u_reg(min) u_dec(max) / C: the nodes ascend, so the upper triangle
    # holds u_reg(x_i) u_dec(x_j) with x_i <= x_j, where s_reg(x_i) + s_dec(x_j)
    # is at most about 0; mirroring it makes the matrix exactly symmetric
    half_weight = np.sqrt(vol) * np.sqrt(potential(nodes))
    entries = np.outer(half_weight * y_reg / c, half_weight * y_dec)
    upper = np.tri(nodes.size, dtype=bool).T
    if s_reg.any() or s_dec.any():
        entries *= np.exp(np.where(upper, s_reg[:, None] + s_dec[None, :], 0.0))
    entries = np.where(upper, entries, entries.T)
    return KernelMatrix(nodes, vol, entries)


def assemble_points(points: np.ndarray, weights: np.ndarray, density: np.ndarray,
                    regular_matrix: np.ndarray, singular_matrix: np.ndarray,
                    singular_coefficient: float,
                    singular_cell_integrals: np.ndarray) -> KernelMatrix:
    """Zero-energy Nystrom matrix on an explicit point cloud, with subtraction.

    The operator kernel is density-weighted:
        K(y, s) = sqrt(density(y)) [c_s * g(y,s) + reg(y,s)] sqrt(density(s))
    ``singular_matrix`` holds g off the diagonal (diagonal entries ignored),
    and ``singular_cell_integrals`` the exact integrals of g(y_i, .) over the
    whole quadrature domain.  The mean-value subtraction then fixes the
    diagonal without ever evaluating g on it.
    """
    v = weights * density
    sq = np.sqrt(v)
    entries = sq[:, None] * regular_matrix * sq[None, :]
    g = np.array(singular_matrix, dtype=float)
    np.fill_diagonal(g, 0.0)
    entries = entries + singular_coefficient * (sq[:, None] * g * sq[None, :])
    row = g @ weights  # sum_{j != i} w_j g_ij
    diag_fix = singular_coefficient * density * (singular_cell_integrals - row)
    entries[np.diag_indices_from(entries)] = np.diag(regular_matrix) * v + diag_fix
    entries = 0.5 * (entries + entries.T)
    return KernelMatrix(np.asarray(points, dtype=float), v, entries)


def _power_iteration(a: np.ndarray, tol: float, max_iter: int = 20000):
    """Largest eigenvalue of a symmetric matrix; all-ones start vector.

    Each iterate is divided by the power of two at the matrix's largest
    entry: that is exact, and keeps every squared norm in range.
    """
    n = a.shape[0]
    if n == 0:
        return 0.0, 0.0, 0
    scale = 2.0 ** math.frexp(max(float(a.max()), -float(a.min())))[1]
    v = np.full(n, 1.0 / math.sqrt(n))
    theta = 0.0
    for it in range(1, max_iter + 1):
        u = (a @ v) / scale
        norm_u = float(np.linalg.norm(u))
        if norm_u == 0.0:
            return 0.0, 0.0, it
        theta = float(v @ u)
        res = float(np.linalg.norm(u - theta * v))
        if res <= tol * max(abs(theta), 1e-300):
            return theta * scale, res * scale, it
        v = u / norm_u
    return theta * scale, res * scale, -1


def principal_eigenvalue(matrix, tol: float = DEFAULT_EIG_TOL):
    """(largest eigenvalue, achieved residual) of a symmetric kernel matrix.

    Power iteration from the all-ones vector; where it stalls (a nearly
    degenerate top), a dense symmetric solve for the top pair.  The
    residual lands in reports.
    """
    a = matrix.entries if isinstance(matrix, KernelMatrix) else np.asarray(matrix, dtype=float)
    theta, res, iters = _power_iteration(a, tol)
    if iters < 0:
        evals, evecs = eigh(a, subset_by_index=[len(a) - 1, len(a) - 1])
        theta, w = float(evals[0]), evecs[:, 0]
        res = float(np.linalg.norm(a @ w - theta * w))
        if res > tol * max(abs(theta), 1e-300):
            raise UnconvergedError(
                f"principal eigenvalue solve missed the tolerance (residual {res:.3e})",
                details={"residual": res, "value": theta})
    return theta, res


@dataclass(frozen=True)
class Classification:
    """Verdict on the lambda -> 0- behaviour of mu0."""

    verdict: str  # bounded | divergent | indeterminate
    mu_star: float | None = None
    mu_last: float | None = None
    extrapolation_gap: float | None = None
    rate_exponent: float | None = None
    log_divergence: bool = False
    growth_per_decade: float | None = None


@dataclass(frozen=True)
class SpectralReport:
    """mu0(lambda) samples along an energy grid."""

    samples: tuple  # rows (lambda, mu0, m, residual)
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"samples": list(self.csv_rows()), "metadata": dict(self.metadata)}

    def csv_rows(self):
        for s in self.samples:
            yield {"lambda": s[0], "mu0": s[1], "m": s[2], "residual": s[3]}


def mu_curve(problem: ProblemSpec, potential: Potential, lambda_grid=None,
             m: int = DEFAULT_M, panel_order: int = DEFAULT_PANEL_ORDER,
             tol: float = DEFAULT_EIG_TOL) -> SpectralReport:
    """Principal eigenvalue along an energy grid increasing toward 0-.

    The samples must come out monotone (the operator grows with lambda); a
    violation beyond the eigenvalue tolerance is flagged as a discretization
    failure in the metadata.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lams = np.sort(np.asarray(lambda_grid, dtype=float))
    if lams.size and lams[-1] >= 0:
        raise ValidationError("energy grid must be strictly negative")
    rows = []
    for lam in lams:
        mat = assemble(problem, potential, float(lam), m=m, panel_order=panel_order)
        mu, res = principal_eigenvalue(mat, tol)
        rows.append((float(lam), mu, mat.size, res))
    mus = np.array([r[1] for r in rows])
    scale = float(np.max(np.abs(mus))) if mus.size else 1.0
    monotone = bool(np.all(np.diff(mus) >= -10 * tol * max(scale, 1.0)))
    meta = {"m": m, "panel_order": panel_order, "monotone": monotone,
            "sector": problem.sector, "bc": problem.boundary_condition,
            "normalization": "(H0-lambda)G=delta; G>=0 for lambda<0"}
    return SpectralReport(tuple(rows), meta)


def _fit_line(x: np.ndarray, y: np.ndarray):
    # dividing y by a power of two is exact and keeps squared norms in range
    scale = 2.0 ** math.frexp(float(np.max(np.abs(y))))[1]
    y = y / scale
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    denom = float(np.linalg.norm(y - y.mean())) or 1.0
    return coef[0] * scale, coef[1] * scale, float(np.linalg.norm(resid)) / denom


def classify_limit(samples, bounded_tol: float = 0.02,
                   divergent_tol: float = 0.05) -> Classification:
    """Bounded / divergent verdict from mu0 samples along lambda -> 0-.

    Growth below ``bounded_tol`` per decade reads as bounded; above
    ``divergent_tol`` the tail is fit against power and logarithmic models.
    Growth between the two thresholds yields an explicit indeterminate
    verdict, never a silent guess.
    """
    if isinstance(samples, SpectralReport):
        rows = [(s[0], s[1]) for s in samples.samples]
    else:
        rows = [(float(l), float(mu)) for l, mu in samples]
    rows.sort(key=lambda t: t[0])  # ascending lambda, i.e. toward 0-
    if len(rows) < 4:
        raise ValidationError("classification needs at least 4 samples")
    lam = np.array([r[0] for r in rows])
    mu = np.array([r[1] for r in rows])
    if np.any(lam >= 0):
        raise ValidationError("classification samples must have lambda < 0")
    span = math.log10(-lam[0]) - math.log10(-lam[-1])
    if span < 3 - 1e-9:
        raise ValidationError("classification needs samples spanning >= 3 decades")
    if np.any(mu <= 0):
        return Classification("bounded", mu_star=float(mu[-1]), mu_last=float(mu[-1]),
                              extrapolation_gap=0.0, growth_per_decade=0.0)
    ddec = math.log10(-lam[-2]) - math.log10(-lam[-1])
    growth = (mu[-1] / mu[-2]) ** (1.0 / ddec) - 1.0

    if growth < bounded_tol:
        d1 = mu[-2] - mu[-3]
        d2 = mu[-1] - mu[-2]
        mu_star = float(mu[-1])
        if d1 > 0 and 0 < d2 / d1 < 0.95:
            rho = d2 / d1
            mu_star = float(mu[-1] + d2 * rho / (1 - rho))
        return Classification("bounded", mu_star=mu_star, mu_last=float(mu[-1]),
                              extrapolation_gap=float(mu_star - mu[-1]),
                              growth_per_decade=float(growth))
    if growth <= divergent_tol:
        return Classification("indeterminate", mu_last=float(mu[-1]),
                              growth_per_decade=float(growth))

    tail = slice(max(0, len(rows) - 5), len(rows))
    x = np.log(np.abs(lam[tail]))
    slope_pow, _, resid_pow = _fit_line(x, np.log(mu[tail]))
    slope_log, _, resid_log = _fit_line(-x, mu[tail])
    if resid_pow <= resid_log:
        return Classification("divergent", mu_last=float(mu[-1]),
                              rate_exponent=float(slope_pow),
                              growth_per_decade=float(growth))
    return Classification("divergent", mu_last=float(mu[-1]),
                          log_divergence=True,
                          rate_exponent=None,
                          growth_per_decade=float(growth))


def norm_limit(problem: ProblemSpec, potential: Potential, sectors,
               lambda_grid=None, m: int = DEFAULT_M,
               panel_order: int = DEFAULT_PANEL_ORDER,
               tol: float = DEFAULT_EIG_TOL) -> dict:
    """Classify mu0 as lambda -> 0- in every sector and combine the verdicts.

    The norm diverges as soon as one sector's does; otherwise one
    indeterminate sector makes the whole verdict indeterminate; otherwise it
    is bounded with mu* the largest sector limit.
    """
    per_sector = {l: classify_limit(mu_curve(problem.with_sector(l), potential,
                                             lambda_grid=lambda_grid, m=m,
                                             panel_order=panel_order, tol=tol))
                  for l in sectors}
    verdicts = {cls.verdict for cls in per_sector.values()}
    verdict = next((v for v in ("divergent", "indeterminate") if v in verdicts),
                   "bounded")
    mu_star = (max(cls.mu_star for cls in per_sector.values())
               if verdict == "bounded" else None)
    return {"verdict": verdict, "mu_star": mu_star, "sectors": per_sector}


def beta_from_verdict(verdict: str, mu_star: float | None):
    """The coupling threshold a norm verdict implies.

    1/mu* when the norm stays bounded, None when mu* <= 0 (no coupling
    creates a bound state), 0.0 when it diverges; an indeterminate verdict
    raises ``IndeterminateError``.
    """
    if verdict == "divergent":
        return 0.0
    if verdict == "indeterminate":
        raise IndeterminateError("the lambda -> 0- growth of mu0 is between the "
                                 "bounded and divergent thresholds; refine the grid")
    return None if mu_star <= 0 else 1.0 / mu_star


def beta_critical(problem: ProblemSpec, potential: Potential,
                  method: str = "auto", m: int = DEFAULT_M,
                  tol: float = DEFAULT_EIG_TOL, lambda_grid=None,
                  panel_order: int = DEFAULT_PANEL_ORDER,
                  sector_max: int | None = None):
    """Coupling threshold 1/mu* from the sandwiched-resolvent route.

    method 'limit-kernel' evaluates the zero-energy kernel directly;
    'extrapolation' classifies the mu0(lambda) tail; 'auto' prefers the limit
    kernel and falls back; 'both' runs the two and cross-checks.  Sectors
    0..sector_max are swept when ``sector_max`` is given.  Returns 0.0 for
    divergent limits and None when there are no bound states (V == 0).
    """
    if method not in ("auto", "limit-kernel", "extrapolation", "both"):
        raise ValidationError(f"unknown method {method!r}")
    if potential.is_zero():
        return None
    sectors = [problem.sector] if sector_max is None else range(sector_max + 1)

    def _limit_kernel_value():
        mats = (assemble(problem.with_sector(l), potential, 0.0, m=m,
                         panel_order=panel_order) for l in sectors)
        return beta_from_verdict("bounded", max(principal_eigenvalue(mat, tol)[0]
                                                for mat in mats))

    def _extrapolation_value():
        limit = norm_limit(problem, potential, sectors, lambda_grid, m,
                           panel_order, tol)
        return beta_from_verdict(limit["verdict"], limit["mu_star"])

    if method == "limit-kernel":
        return _limit_kernel_value()
    if method == "extrapolation":
        return _extrapolation_value()
    try:
        lk = _limit_kernel_value()
    except KernelLimitError:
        return _extrapolation_value()
    if method == "auto":
        return lk

    # both: cross-validate
    ex = _extrapolation_value()
    if lk is None or ex is None:
        return None
    scale = max(abs(lk), abs(ex), 1e-300)
    if ex == 0.0 and lk > 0.0:
        raise MethodDisagreement(
            "limit kernel exists but the extrapolation classified the norm as divergent",
            values={"limit-kernel": lk, "extrapolation": ex})
    if abs(lk - ex) > 5e-2 * scale:
        raise MethodDisagreement(
            f"threshold methods disagree: {lk:.6g} vs {ex:.6g}",
            values={"limit-kernel": lk, "extrapolation": ex})
    return lk
