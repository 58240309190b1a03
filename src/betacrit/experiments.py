"""Scaling studies, boundary-condition dichotomy, and the counting audit.

The shrinking-well studies work in the rescaled frame where the well has unit
size: the near-boundary kernels there determine how the coupling threshold
responds as the well approaches the boundary.  Weakly singular kernels (log
in 2-d, inverse distance in 3-d) get their Nystrom diagonal from a
mean-value subtraction with exact cell integrals.  Operators are symmetric
about x1, as their positive top eigenfunctions are, and are solved with one
node per orbit: mirror pairs on the upper half-disk in 2-d, rings on the
meridian half-disk in 3-d; the 3-d sub-ball lower bound is in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import birman_schwinger as bs
from . import direct_spectrum as ds
from .errors import ValidationError
from .model import Potential, ProblemSpec, Profile, ScaledPotentialFamily

C3 = 1.0 / (4.0 * math.pi)
CLR_CONSTANT = 0.1156  # d=3 counting-bound constant
# one decade past the kernel default: the planar Dirichlet tail creeps up
# like 1/ln(1/|lambda|) and needs it to read as bounded
DICHOTOMY_DECADES = (2, 8)
SUB_BALL = (0.5, 0.25)  # c1 and radius of the d=3 comparison ball about c1 e1
SEGMENT_ORDER = 32  # Gauss nodes per direction on the segment a cut removes


@dataclass(frozen=True)
class ScalingStudy:
    """Per-n results of one study, with shared resolution metadata."""

    kind: str
    rows: tuple
    notices: tuple = ()
    meta: dict = field(default_factory=dict)

    def values(self, key: str) -> np.ndarray:
        return np.array([row[key] for row in self.rows])

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "rows": [dict(r) for r in self.rows],
                "notices": list(self.notices), "metadata": dict(self.meta)}


# ---------------------------------------------------------------------------
# quadrature on disks and meridian half-disks


def disk_grid(n_r: int, n_t: int, radius: float = 1.0):
    """Polar product rule: Gauss-Legendre radially, trapezoid in angle."""
    xg, wg = leggauss(n_r)
    r = 0.5 * radius * (xg + 1.0)
    wr = 0.5 * radius * wg * r
    theta = 2.0 * math.pi * np.arange(n_t) / n_t
    wt = 2.0 * math.pi / n_t
    pts = np.stack([np.outer(r, np.cos(theta)).ravel(),
                    np.outer(r, np.sin(theta)).ravel()], axis=1)
    w = np.outer(wr, np.full(n_t, wt)).ravel()
    return pts, w


def meridian_grid(c: int, radius: float = 1.0, c1: float = 0.0):
    """The ball about c1 e1 on its meridian half-disk: nodes (s1, sigma) =
    (c1 + r mu, r sqrt(1 - mu^2)) from the c x c Gauss rule in r and
    mu = cos(theta), sigma the distance from the x1 axis, each weighted by
    the volume 2 pi w_r w_mu r^2 of its ring."""
    xg, wg = leggauss(c)
    r = 0.5 * radius * (xg + 1.0)
    wr = math.pi * radius * wg * r ** 2
    mu, wmu = leggauss(c)
    pts = np.stack([c1 + np.outer(r, mu).ravel(),
                    np.outer(r, np.sqrt(1.0 - mu ** 2)).ravel()], axis=1)
    return pts, np.outer(wr, wmu).ravel()


def _segment(d: int, x1_min: float, radius: float, c1: float):
    """Gauss product rule on the segment s1 < x1_min of the disk (d = 2) or
    of the meridian half-disk with ring weights (d = 3) of ``radius`` about
    c1 e1: s1 = c1 + R cos(theta) for theta from the cut to pi, then across
    the chord of half-width R sin(theta), so no endpoint is singular."""
    x, w = leggauss(SEGMENT_ORDER)
    t0 = math.acos(min(1.0, max(-1.0, (x1_min - c1) / radius)))
    theta = t0 + 0.5 * (math.pi - t0) * (x + 1.0)
    half = radius * np.sin(theta)  # chord half-width, and ds1 / dtheta
    w_s1 = 0.5 * (math.pi - t0) * w * half
    if d == 2:
        across = np.outer(half, x)
        weights = np.outer(w_s1 * half, w)
    else:
        across = np.outer(half, 0.5 * (x + 1.0))
        weights = math.pi * across * np.outer(w_s1 * half, w)
    s1 = np.repeat(c1 + radius * np.cos(theta), SEGMENT_ORDER)
    return np.stack([s1, across.ravel()], axis=1), weights.ravel()


# ---------------------------------------------------------------------------
# near-boundary kernel studies


def _distances(y: np.ndarray, s: np.ndarray, shift: float | None = None):
    """(|y - s|, |y - s'|) for 2-column points y in ``y``, s in ``s`` and s'
    the mirror of s across x2 = 0; with a ``shift``, s and s' are first
    mirrored across x1 = 0 and moved by ``shift`` along e1."""
    if shift is None:
        x1 = np.subtract.outer(y[:, 0], s[:, 0])
    else:
        x1 = np.add.outer(y[:, 0], s[:, 0]) + shift
    x1 *= x1  # the square both distances share
    pair = np.subtract.outer(y[:, 1], s[:, 1]), np.add.outer(y[:, 1], s[:, 1])
    for x2 in pair:  # in place: sqrt(x1^2 + x2^2)
        x2 *= x2
        x2 += x1
        np.sqrt(x2, out=x2)
    return pair


def _ring_mean(y: np.ndarray, s: np.ndarray, shift: float | None = None) -> np.ndarray:
    """Mean of 1/|y - R s| over the rotations R about x1, for meridian
    points y and s (or the shifted images of ``_distances``):
    (2/pi) K(1 - near^2/far^2) / far, with near and far the distances from
    y to the nearest and farthest points of the ring."""
    from scipy.special import ellipkm1
    near, far = _distances(y, s, shift)
    return (2.0 / math.pi) * ellipkm1((near / far) ** 2) / far


class _Cloud:
    """Quadrature cloud cut to x1 > x1_min, with what no shift changes: the
    node radii, the singular kernel g on the nodes and its exact cell
    integrals per cut, each formed on first use, so once for a study
    sharing the cloud.

    Each node stands for its orbit about the x1 axis, weighted by the orbit's
    measure, and g(y, s) is the kernel's mean over the orbit of s: in d = 2
    the mirror pair {s, s*} on the upper half-disk (n_r (n_r + 1) nodes), in
    d = 3 the ring through s on the meridian half-disk of the ball about c1 e1.
    """

    def __init__(self, d: int, m: int, x1_min: float = -np.inf,
                 radius: float = 1.0, c1: float = 0.0):
        if d == 2:
            n_r = max(6, int(round(math.sqrt(m / 2.0))))
            pts, w = disk_grid(n_r, 2 * n_r, radius)
            j = np.arange(w.size) % (2 * n_r)  # angle index theta_j = pi j / n_r, radius-major
            axis = j % n_r == 0  # theta = 0 or pi, on x2 = 0 exactly
            pts[axis, 1], w = 0.0, np.where(axis, w, 2.0 * w)  # a pair's node weighs both
            pts, w = pts[j <= n_r], w[j <= n_r]  # the upper half
        else:
            c = max(5, int(round((m / 1.4) ** (1.0 / 3.0))))
            pts, w = meridian_grid(c, radius, c1)
        keep = pts[:, 0] > x1_min + 1e-12
        self.pts, self.w = pts[keep], w[keep]
        self.d, self.radius, self.c1 = d, radius, c1
        self._cells = {}

    def keeps_all(self, x1_min: float) -> bool:
        """Whether the cut x1 > x1_min drops none of the nodes."""
        return bool(np.all(self.pts[:, 0] > x1_min + 1e-12))

    @functools.cached_property
    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.pts, axis=1)

    def kernel(self, s: np.ndarray, shift: float | None = None) -> np.ndarray:
        """g from every node to the points ``s``, or to their images."""
        if self.d == 3:
            return _ring_mean(self.pts, s, shift)
        near, mirrored = _distances(self.pts, s, shift)
        with np.errstate(divide="ignore"):  # the mean over the mirror pair {s, s'}
            return -0.5 * np.log(near * mirrored)

    @functools.cached_property
    def g(self) -> np.ndarray:
        return self.kernel(self.pts)

    def cells(self, x1_min: float = -np.inf) -> np.ndarray:
        """Exact integrals of g from every node over the disk or ball cut at
        s1 > x1_min: the uncut closed form less the ``_segment`` rule on the
        part the cut removes, which holds no node.  Every cut at or below
        the bottom shares the uncut integrals.
        """
        if x1_min <= self.c1 - self.radius:
            x1_min = -np.inf
        if x1_min not in self._cells:
            r2 = self.radius ** 2
            y2 = np.sum((self.pts - [self.c1, 0.0]) ** 2, axis=1)  # |y - center|^2
            if self.d == 2:
                cells = math.pi * (r2 * math.log(1.0 / self.radius) + 0.5 * (r2 - y2))
            else:
                cells = 2.0 * math.pi * (r2 - y2 / 3.0)
            if x1_min > -np.inf:
                seg, w = _segment(self.d, x1_min, self.radius, self.c1)
                cells = cells - self.kernel(seg) @ w
            self._cells[x1_min] = cells
        return self._cells[x1_min]


def _require_kernel(d: int, sign: str):
    if d not in (2, 3):
        raise ValidationError("rescaled kernels are implemented for d = 2, 3")
    if sign not in ("minus", "plus"):
        raise ValidationError(f"sign must be 'minus' or 'plus', got {sign!r}")
    if d == 2 and sign == "plus":
        raise ValidationError("the d=2 rescaled kernel exists for the minus case only")


def _singular_coefficient(d: int, n: float) -> float:
    """c_s(n); the rescaled kernel is c_s(n) times a function of n x(n)."""
    if d == 2 and n <= 1.0:
        raise ValidationError("d=2 scaling needs n > 1")
    return C3 if d == 3 else 1.0 / (2.0 * math.pi * math.log(n))


def halfspace_kernel_matrix(d: int, sign: str, n: float, center: float,
                            profile: Profile | None = None,
                            m: int = 700, *, _cloud: _Cloud | None = None) -> bs.KernelMatrix:
    """Discretized rescaled kernel operator for one value of n.

    Points live in the rescaled frame (original = center*e1 + point/n): the
    half-space is x1 > -n*center, and the image of s picks up the shift
    2*n*center along e1.  ``profile`` is the radial profile of the well
    shape W (default: indicator of the unit ball).  ``_cloud`` is the uncut
    unit cloud a study shares across its n grid; it serves every n whose
    cut drops no node.  In d = 3 the nodes and the operator live on the
    meridian half-disk.
    """
    _require_kernel(d, sign)
    c_s = _singular_coefficient(d, n)
    cut = -n * center
    cloud = _cloud
    if cloud is None or not cloud.keeps_all(cut):
        cloud = _Cloud(d, m, cut)
    density = (cloud.radii <= 1.0).astype(float) if profile is None \
        else profile(cloud.radii)
    image = cloud.kernel(cloud.pts, 2.0 * n * center)
    regular = (-c_s if sign == "minus" else c_s) * image
    return bs.assemble_points(cloud.pts, cloud.w, density, regular, cloud.g, c_s,
                              cloud.cells(cut))


def minorant_eigenvalue(shift: float, profile: Profile | None = None) -> float:
    """Principal eigenvalue of the fixed d = 3 sub-ball comparison operator.

    On the ball B of radius R about c1 e1 (``SUB_BALL``), away from the
    boundary, |image| >= 2(c1 - R) + shift, so the kernel dominates
    rho alpha c3 / |y - s| there with rho independent of n and alpha the
    least value of the profile on B's radii [c1 - R, c1 + R]: at the two
    ends and the samples between.  The top eigenvalue of 1/|y - s| on B is
    16 R^2 / pi, with eigenfunction sin(kr)/r and kR = pi/2.
    """
    c1, radius = SUB_BALL
    rho = 1.0 - (2.0 * radius) / (2.0 * (c1 - radius) + shift)
    if rho <= 0:
        return 0.0
    ends = (c1 - radius, c1 + radius)  # samples outside B read at its ends
    alpha = 1.0 if profile is None else \
        float(np.min(profile(np.clip(np.append(profile.xs, ends), *ends))))
    return rho * alpha * C3 * (16.0 * radius ** 2 / math.pi)


def halfspace_norm_study(d: int, sign: str, family: ScaledPotentialFamily,
                         n_grid, m: int = 700) -> ScalingStudy:
    """Norm of the rescaled near-boundary operator along the n grid.

    Rows carry the principal eigenvalue per n; for d=2 the rank-one lower
    bound of the shifted-log kernel, for d=3 the sub-ball comparison
    eigenvalue, land alongside for the boundedness checks.  Each value of
    n x(n) is built once, its norm rescaled by c_s(n) for the other n.
    """
    if family.dimension != d:
        raise ValidationError("family dimension does not match the study dimension")
    _require_kernel(d, sign)
    rows = []
    notices = []
    built = {}  # n x(n) -> (c_s, norm, nodes) at the first n with that product
    w_mass = Potential(family.base_profile, center=0.0).integral_power(1.0, d)
    # the geometry no n changes; its distances and integrals are formed by
    # the first n that needs them
    unit = _Cloud(d, m)
    for n in n_grid:
        center = family.center(n)
        row = {"n": float(n), "center": center}
        try:
            c_s = _singular_coefficient(d, float(n))
            if n * center not in built:
                mat = halfspace_kernel_matrix(d, sign, float(n), center,
                                              family.base_profile, m=m, _cloud=unit)
                norm = bs.principal_eigenvalue(mat)[0]
                built[n * center] = (c_s, norm, mat.nodes.shape[0])
        except ValidationError as exc:
            notices.append(f"n={n:g} skipped: {exc}")
            continue
        c_first, norm, nodes = built[n * center]
        row["norm"], row["nodes"] = norm * (c_s / c_first), nodes
        if d == 2:
            row["rank_one_bound"] = (math.log(2.0 * n * center)
                                     / (2.0 * math.pi * math.log(n))) * w_mass
        else:
            row["minorant"] = minorant_eigenvalue(2.0 * n * center, family.base_profile)
        rows.append(row)
    norms = [r["norm"] for r in rows]
    meta = {"d": d, "sign": sign, "m": m, "path": family.center_path.describe(),
            "strictly_decreasing": bool(all(b < a for a, b in zip(norms, norms[1:]))),
            "profile_mass": w_mass}
    return ScalingStudy("halfspace-norm", tuple(rows), tuple(notices), meta)


# ---------------------------------------------------------------------------
# one-dimensional shrinking wells


def scaling_study_1d(family: ScaledPotentialFamily, n_grid,
                     m: int = bs.DEFAULT_M) -> ScalingStudy:
    """Coupling threshold of the shrinking well family on the half-line.

    Both routes are reported per admissible n; inadmissible scales (support
    poking out of the domain) are dropped with a notice.
    """
    if family.dimension != 1:
        raise ValidationError("this study is the d=1 Dirichlet one")
    problem = ProblemSpec(1, "half_line", "dirichlet")
    rows = []
    notices = []
    for n in n_grid:
        if not family.admissible(n):
            notices.append(f"n={n:g} inadmissible: support leaks outside the domain "
                           f"(margin {family.margin(n):.3e})")
            continue
        pot = family.realize(n)
        beta_kernel = bs.beta_critical(problem, pot, method="limit-kernel", m=m)
        rows.append({"n": float(n), "beta_cr_kernel": beta_kernel, "m": m,
                     "beta_cr_direct": ds.beta_critical_direct(problem, pot)})
    if not rows:
        raise ValidationError("every n in the grid was inadmissible; " +
                              "; ".join(notices))
    vals = [r["beta_cr_kernel"] for r in rows]
    meta = {"m": m, "path": family.center_path.describe(),
            "monotone_increasing": None not in vals and all(
                b > a for a, b in zip(vals, vals[1:]))}
    return ScalingStudy("shrinking-well-1d", tuple(rows), tuple(notices), meta)


# ---------------------------------------------------------------------------
# counting-bound audit


def clr_audit(problem: ProblemSpec, potential: Potential, beta_grid) -> ScalingStudy:
    """Counting bound audit: count <= CLR_CONSTANT * beta^{3/2} integral V^{3/2}.

    A violation would expose a solver bug, so the rows carry an explicit
    flag; the integral runs over the volume where V lives.
    """
    if problem.dimension != 3:
        raise ValidationError("the counting bound audit is a d=3 statement")
    v_moment = potential.integral_power(1.5, 3)
    rows = []
    for beta in beta_grid:
        count = ds.count_negative(problem, potential, float(beta))
        bound = CLR_CONSTANT * float(beta) ** 1.5 * v_moment
        rows.append({"beta": float(beta), "count": count, "bound": bound,
                     "violated": bool(count > bound)})
    meta = {"constant": CLR_CONSTANT, "v_moment": v_moment,
            "violations": int(sum(r["violated"] for r in rows))}
    return ScalingStudy("counting-audit", tuple(rows), (), meta)


# ---------------------------------------------------------------------------
# boundary-condition dichotomy


# the wells per dimension: d = 1 on the half-line, d = 2 outside the unit disk
DICHOTOMY_POTENTIALS = {
    1: (("indicator[1,2]", Potential(Profile.indicator(1.0, 2.0))),
        ("tent[0.8,2.0]x2", Potential(Profile.tent(0.8, 2.0, 2.0))),
        ("bump[1.5,2.5]x1.5", Potential(Profile.bump(1.5, 2.5, 1.5)))),
    2: (("indicator[1.5,2.5]", Potential(Profile.indicator(1.5, 2.5))),
        ("tent[1.2,2.4]x2", Potential(Profile.tent(1.2, 2.4, 2.0))),
        ("bump[1.8,2.8]x1.5", Potential(Profile.bump(1.8, 2.8, 1.5)))),
}


def dichotomy_suite(m: int = 300, decades=DICHOTOMY_DECADES) -> ScalingStudy:
    """Bounded/divergent verdicts over (dimension, condition, potential).

    Low-dimensional exterior problems split by the boundary condition:
    Dirichlet stays bounded, Neumann diverges (a power law on the half-line,
    logarithmically for the planar exterior ball), as
    ``ProblemSpec.limit_diverges`` decides; each row is the tail's
    observation of it, and a tail that contradicts it raises
    ``UnconvergedError``.  Indeterminate verdicts are listed as such, never
    coerced.
    """
    grid = bs.default_lambda_grid(decades)
    rows = []
    for d, pots in DICHOTOMY_POTENTIALS.items():
        for bc in ("dirichlet", "neumann"):
            for name, pot in pots:
                if d == 1:
                    prob = ProblemSpec(1, "half_line", bc)
                else:
                    prob = ProblemSpec(2, "exterior_ball", bc)  # unit obstacle
                _, cls = bs._observed_limit(prob, pot, lambda_grid=grid, m=m)
                rows.append({"d": d, "bc": bc, "potential": name,
                             "verdict": cls.verdict,
                             "rate_exponent": cls.rate_exponent,
                             "log_divergence": cls.log_divergence,
                             "growth_per_decade": cls.growth_per_decade})
    meta = {"m": m, "decades": list(decades),
            "indeterminate": int(sum(r["verdict"] == "indeterminate" for r in rows))}
    return ScalingStudy("dichotomy", tuple(rows), (), meta)
