"""Resolvent sandwich operators and the coupling threshold they encode.

The operator sqrt(V) (H0 - lambda)^{-1} sqrt(V) is discretized by a Nystrom
method on Gauss-Legendre panels over the support of V, in a sector as the
generators of its semiseparable kernel.  Its largest eigenvalue mu0(lambda)
grows to mu* as lambda -> 0-: the threshold is 1/mu*, or 0 where mu0 diverges.
A sweep (``mu_curve``) reads the quadrature and V on it once, and starts
each power iteration from the eigenvector of the energy before.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (IndeterminateError, MethodDisagreement, UnconvergedError,
                     ValidationError)
from .green_kernels import solution_pair
from .model import Potential, ProblemSpec, require_valid

DEFAULT_M = 400
DEFAULT_DECADES = (2, 7)
PANEL_ORDER = 8  # Gauss-Legendre points per panel
EIG_TOL = 1e-8  # relative residual of the principal eigenpair
STALL = 50  # power steps in which the residual must halve, or eigh takes over
# growth of mu0 per decade below which the tail reads as bounded, and above
# which it reads as divergent
BOUNDED_TOL, DIVERGENT_TOL = 0.02, 0.05


def default_lambda_grid(decades=DEFAULT_DECADES) -> np.ndarray:
    """Energies -10^{-j} for j in the decade range, sorted toward 0-."""
    j0, j1 = decades
    return -np.power(10.0, [-j for j in range(j0, j1 + 1)])


_legendre = functools.cache(leggauss)  # read only: shared by every assembly


def gauss_panels(lo: float, hi: float, m: int):
    """Composite Gauss-Legendre rule with ~m nodes on [lo, hi]."""
    if hi <= lo:
        raise ValidationError("empty quadrature interval")
    q = max(1, min(PANEL_ORDER, m))
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
    """Symmetrized Nystrom matrix of a sandwiched kernel on a point cloud."""

    nodes: np.ndarray
    weights: np.ndarray  # volume weights (measure of each node's cell)
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SectorKernel:
    """A sector's sandwiched resolvent by the generators of G = u_reg(min) u_dec(max)
    / C: on ascending nodes, entry (i, j), i <= j, is a_i b_j e^{s_reg_i + s_dec_j},
    mirrored below.  ``K @ x`` takes two running sums (``_sums``), never the matrix.
    With h = 1 the kernel is the Green matrix G(x_i, x_j) itself."""

    nodes: np.ndarray
    weights: np.ndarray  # volume weights (measure of each node's cell)
    a: np.ndarray  # h y_reg / C, h = sqrt(weight V) in the sandwich
    b: np.ndarray  # h y_dec
    s_reg: np.ndarray
    s_dec: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size

    def dense(self) -> np.ndarray:
        """The m x m matrix: the upper triangle, with s_reg + s_dec <~ 0, mirrored."""
        upper = np.tri(self.size, dtype=bool).T
        scales = np.where(upper, np.add.outer(self.s_reg, self.s_dec), 0.0)
        entries = np.outer(self.a, self.b) * np.exp(scales)
        return np.where(upper, entries, entries.T)

    @functools.cached_property
    def _sums(self):
        # (K x)_i = e^{s_reg_i + s_dec_i} [b_i sum_{j<=i} a_j x_j e^{s_reg_j - s_reg_i}
        # + a_i sum_{j>=i} b_j x_j e^{s_dec_j - s_dec_i} - a_i b_i x_i], both sums by
        # recursive doubling in one array (the second reversed): step h adds term i - h
        # times e^{s_{i-h} - s_i} (0 across the seam), as exact as the entries at any k
        a, b, r, q = self.a, self.b, self.s_reg, self.s_dec[::-1]
        steps = [(h, np.exp(np.concatenate([r[:-h] - r[h:], np.full(h, -np.inf), q[:-h] - q[h:]])))
                 for h in (2 ** j for j in range((a.size - 1).bit_length()))]
        d = np.exp(self.s_reg + self.s_dec)
        return np.concatenate([a, b[::-1]]), steps, d * b, d * a, d * a * b

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        coef, steps, db, da, diag = self._sums
        y = coef * np.concatenate([x, x[::-1]])
        for h, factor in steps:
            y[h:] += factor * y[:-h]
        return db * y[:x.size] + da * y[:x.size - 1:-1] - diag * x


def _kernels(problem: ProblemSpec, potential: Potential, lams, m: int):
    """The kernel at each energy of ``lams`` on one quadrature, read once with V
    on it: each energy pays only for its Green pair on the nodes."""
    require_valid(problem, potential)
    lo, hi = potential.support
    nodes, w = gauss_panels(max(lo, problem.inner_radius), hi, m)
    vol = w * problem.measure(nodes)
    half_weight = np.sqrt(vol) * np.sqrt(potential(nodes))
    for lam in lams:
        pair, c = solution_pair(problem, float(lam))
        (y_reg, s_reg), (y_dec, s_dec) = pair(nodes)
        yield SectorKernel(nodes, vol, half_weight * y_reg / c, half_weight * y_dec, s_reg, s_dec)


def assemble(problem: ProblemSpec, potential: Potential, lam: float,
             m: int = DEFAULT_M) -> SectorKernel:
    """Semiseparable Nystrom kernel of the sandwiched resolvent at lambda <= 0.

    lam = 0 requests the limit kernel and raises ``KernelLimitError`` where
    that limit diverges (e.g. Neumann in low dimension).
    """
    return next(_kernels(problem, potential, [lam], m))


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
    diagonal without ever evaluating g on it.  A node may stand for an orbit
    (a ring, or a mirror pair): then ``weights`` holds the orbit's measure,
    g the kernel's mean over it, and the matrix is the operator's even block.
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


def _power_iteration(a, start=None):
    """(eigenvalue, residual, steps, unit vector) of a symmetric matrix's largest
    eigenvalue from the unit vector ``start``, all ones by default; steps is -1
    when 20,000 did not reach ``EIG_TOL`` or the last ``STALL`` did not halve it.

    Each iterate is divided by the power of two at the largest entry (on the
    diagonal of a ``SectorKernel``): exact, and keeps squared norms in range.
    """
    n = a.size if isinstance(a, SectorKernel) else a.shape[0]
    if n == 0:
        return 0.0, 0.0, 0, np.empty(0)
    top = a._sums[-1].max() if isinstance(a, SectorKernel) else max(a.max(), -a.min())
    scale = 2.0 ** math.frexp(float(top))[1]
    v = np.full(n, 1.0 / math.sqrt(n)) if start is None else start
    theta, history = 0.0, []
    for it in range(1, 20001):
        u = (a @ v) / scale
        norm_u = math.sqrt(float(u @ u))
        if norm_u == 0.0:
            return 0.0, 0.0, it, v
        theta = float(v @ u)
        res = math.sqrt(float((r := u - theta * v) @ r))
        if res <= EIG_TOL * max(abs(theta), 1e-300):
            return theta * scale, res * scale, it, u / norm_u
        history.append(res)
        if it > STALL and res > 0.5 * history[-1 - STALL]:
            break
        v = u / norm_u
    return theta * scale, res * scale, -1, v


def _principal(matrix, start=None):
    """``principal_eigenvalue`` and its unit eigenvector, iterated from ``start``."""
    a = matrix.entries if isinstance(matrix, KernelMatrix) else matrix
    a = a if isinstance(a, SectorKernel) else np.asarray(a, dtype=float)
    theta, res, iters, vector = _power_iteration(a, start)
    if iters < 0:
        a = a.dense() if isinstance(a, SectorKernel) else a
        evals, evecs = np.linalg.eigh(a)
        theta, w = float(evals[-1]), evecs[:, -1]
        res = float(np.linalg.norm(a @ w - theta * w))
        if res > EIG_TOL * max(abs(theta), 1e-300):
            raise UnconvergedError(
                f"principal eigenvalue solve missed the tolerance (residual {res:.3e})",
                details={"residual": res, "value": theta})
        vector = np.abs(w)  # a kernel >= 0 entrywise has a top eigenvector >= 0
    return theta, res, vector


def principal_eigenvalue(matrix):
    """(largest eigenvalue, achieved residual) of a symmetric kernel matrix
    or ``SectorKernel``, the residual at most ``EIG_TOL`` relative.

    Power iteration from the all-ones vector, each step one product with the
    operator; where it stalls (a nearly degenerate top), a dense symmetric
    solve for the top pair.  The residual lands in reports.
    """
    return _principal(matrix)[:2]


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
             m: int = DEFAULT_M) -> SpectralReport:
    """Principal eigenvalue along an energy grid increasing toward 0-.

    Each energy's power iteration starts from the last one's eigenvector.  The
    samples must come out monotone (the operator grows with lambda); a violation
    beyond the eigenvalue tolerance is flagged as a discretization failure in
    the metadata.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lams = np.sort(np.asarray(lambda_grid, dtype=float))
    if lams.size and lams[-1] >= 0:
        raise ValidationError("energy grid must be strictly negative")
    rows, vector = [], None
    for lam, mat in zip(lams, _kernels(problem, potential, lams, m)):
        mu, res, vector = _principal(mat, vector)
        rows.append((float(lam), mu, mat.size, res))
    mus = np.array([r[1] for r in rows])
    scale = float(np.max(np.abs(mus))) if mus.size else 1.0
    monotone = bool(np.all(np.diff(mus) >= -10 * EIG_TOL * max(scale, 1.0)))
    meta = {"m": m, "panel_order": PANEL_ORDER, "monotone": monotone,
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


def classify_limit(samples) -> Classification:
    """Bounded / divergent verdict from mu0 samples along lambda -> 0-.

    Growth below ``BOUNDED_TOL`` per decade reads as bounded; above
    ``DIVERGENT_TOL`` the tail is fit against power and logarithmic models.
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

    if growth < BOUNDED_TOL:
        d1 = mu[-2] - mu[-3]
        d2 = mu[-1] - mu[-2]
        mu_star = float(mu[-1])
        if d1 > 0 and 0 < d2 / d1 < 0.95:
            rho = d2 / d1
            mu_star = float(mu[-1] + d2 * rho / (1 - rho))
        return Classification("bounded", mu_star=mu_star, mu_last=float(mu[-1]),
                              extrapolation_gap=float(mu_star - mu[-1]),
                              growth_per_decade=float(growth))
    if growth <= DIVERGENT_TOL:
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


def _observed_limit(problem: ProblemSpec, potential: Potential, lambda_grid=None,
                    m: int = DEFAULT_M):
    """(``mu_curve``, its ``classify_limit``) in the problem's sector.  The
    tail observes the verdict ``ProblemSpec.limit_diverges`` decides: with
    V != 0 a determinate tail that reads the other one is a discretization
    fault, and raises ``UnconvergedError``."""
    report = mu_curve(problem, potential, lambda_grid=lambda_grid, m=m)
    cls = classify_limit(report)
    if (not potential.is_zero() and cls.verdict != "indeterminate"
            and (cls.verdict == "divergent") != problem.limit_diverges()):
        raise UnconvergedError(f"the mu0 tail of sector {problem.sector} reads {cls.verdict}"
                               f" against the boundary-condition rule: discretization failure",
                               details={"growth_per_decade": cls.growth_per_decade})
    return report, cls


def norm_limit(problem: ProblemSpec, potential: Potential, sectors,
               lambda_grid=None, m: int = DEFAULT_M) -> dict:
    """Observe mu0 as lambda -> 0- in every sector and combine the verdicts.

    Each sector's tail is checked against its verdict by the rule
    (``_observed_limit``).  The norm diverges as soon as one sector's does;
    otherwise one indeterminate sector makes the whole verdict
    indeterminate; otherwise it is bounded with mu* the largest sector limit.
    """
    per_sector = {l: _observed_limit(problem.with_sector(l), potential, lambda_grid, m)[1]
                  for l in sectors}
    verdicts = {cls.verdict for cls in per_sector.values()}
    verdict = next((v for v in ("divergent", "indeterminate") if v in verdicts),
                   "bounded")
    mu_star = (max(cls.mu_star for cls in per_sector.values())
               if verdict == "bounded" else None)
    return {"verdict": verdict, "mu_star": mu_star, "sectors": per_sector}


def beta_critical(problem: ProblemSpec, potential: Potential,
                  method: str = "auto", m: int = DEFAULT_M, lambda_grid=None,
                  sector_max: int | None = None):
    """Coupling threshold 1/mu* from the sandwiched-resolvent route.

    0.0 where a swept sector's limit kernel diverges by the rule
    (``ProblemSpec.limit_diverges``), where every coupling binds; there
    'limit-kernel' raises ``KernelLimitError``.  mu* comes from the
    zero-energy kernel ('limit-kernel', 'auto') or from the mu0(lambda)
    tails of ``norm_limit`` ('extrapolation'); 'both' takes the two and
    cross-checks them.  The tails are taken under 'extrapolation' and
    'both' also where the rule gives 0.0, and an indeterminate one raises
    ``IndeterminateError``.  Sectors 0..sector_max are swept when
    ``sector_max`` is given.  None when no coupling binds (V == 0, mu* <= 0).
    """
    if method not in ("auto", "limit-kernel", "extrapolation", "both"):
        raise ValidationError(f"unknown method {method!r}")
    if potential.is_zero():
        return None
    require_valid(problem, potential)
    sectors = [problem.sector] if sector_max is None else range(sector_max + 1)
    diverges = any(problem.with_sector(l).limit_diverges() for l in sectors)
    mus = {}
    if method == "limit-kernel" or method != "extrapolation" and not diverges:
        mus["limit-kernel"] = max(principal_eigenvalue(assemble(
            problem.with_sector(l), potential, 0.0, m=m))[0] for l in sectors)
    if method in ("extrapolation", "both"):
        limit = norm_limit(problem, potential, sectors, lambda_grid, m)
        if limit["verdict"] == "indeterminate":
            raise IndeterminateError("the lambda -> 0- growth of mu0 is between the "
                                     "bounded and divergent thresholds; refine the grid")
        mus["extrapolation"] = limit["mu_star"]
    if diverges:
        return 0.0
    values = {name: 1.0 / mu if mu > 0 else None for name, mu in mus.items()}
    lk, ex = values.get("limit-kernel"), values.get("extrapolation")
    if lk and ex and abs(lk - ex) > 5e-2 * max(lk, ex):
        raise MethodDisagreement(f"threshold methods disagree: {lk:.6g} vs {ex:.6g}",
                                 values=values)
    return None if None in values.values() else lk or ex
