"""Direct negative-spectrum computations, closed at the support edge R*.

Past R* = max(support hi of V, r_flat, r_in) the sector equation is the free
one, so decay at infinity enters through an exact boundary relation there:
the zero-energy closure for counting and for the threshold, and the
energy-dependent closure inside the shooting solver for eigenvalues, which
roots the phase mismatch in k = sqrt(-lambda).  Counts and thresholds are
read off the Pruefer angle at lambda = 0 (Sturm oscillation): a count off
every sector's ``ZeroEnergyAngle``, the threshold as the Newton root in beta
of sector 0's ``phase_mismatch`` there, on the slope its walk sums, and a
count next to that crossing off the same ``phase_mismatch``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import birman_schwinger as bs
from .errors import UnconvergedError, ValidationError
from .model import Potential, ProblemSpec, require_valid
from .sector_ode import SectorODE, ZeroEnergyAngle, closure_radius

MAX_WORK = 2 ** 22     # most steps x sectors of one count
CHUNK = 2 ** 18        # most steps x sectors stepped at once
GUARD = 0.05           # radians from a crossing where a count reads phase_mismatch
GROUND_TOL = 1e-10     # |d lambda| the ground state's root search allows
PROFILE_NODES = 4000  # eigenfunction samples up to R*, and a quarter as many past it
RESIDUAL_H = 1e-2  # spacing of the residual check's sub-grids


def count_negative(problem: ProblemSpec, potential: Potential, beta: float) -> int:
    """Number of negative eigenvalues of the full operator at coupling beta.

    By Sturm oscillation sector l holds floor(m_l / pi) + 1 of them when its
    zero-energy mismatch m_l (``ZeroEnergyAngle.mismatch``) is positive, and
    none otherwise.  Sectors are summed with their multiplicities up to the
    first empty one: only those with l(l+d-2) < beta V r^2 / a somewhere can
    bind.  Within ``GUARD`` of a crossing sector 0 reads ``phase_mismatch``
    at lambda = 0 instead, the function ``beta_critical_direct`` roots, so a
    coupling next to the threshold counts on the side the threshold puts it.
    Exactly at a crossing the count takes the side its mismatch rounds to:
    at the first m = 0 and the state is not counted; at the j-th, j >= 2,
    m = (j - 1) pi up to rounding, and the state is counted when m rounds up
    to it.  The half-line well [0, 0.5] at beta = 49 pi^2 (k = 7 pi, the
    fourth crossing) has m / pi = 2.999999999999994 and counts 3, the side
    below.  Past ``MAX_WORK`` steps times the sectors that can bind it
    raises ``UnconvergedError``.
    """
    if beta < 0:
        raise ValidationError("coupling must be nonnegative")
    require_valid(problem, potential)
    if potential.is_zero() or beta == 0.0:
        return 0
    angle = ZeroEnergyAngle(problem, potential, beta)
    steps, sectors = angle.mesh.size - 1, angle.sectors
    if not steps * sectors <= MAX_WORK:
        raise UnconvergedError("zero-energy count needs more steps than one count takes",
                               details={"beta": beta, "steps": steps, "sectors": sectors})
    total, first = 0, 0
    while first < angle.limit:
        ls = np.arange(first, first + max(1, min(CHUNK // max(steps, 1), sectors - first)))
        mismatch = angle.mismatch(ls)
        if first == 0 and abs(mismatch[0] - math.pi * round(mismatch[0] / math.pi)) < GUARD:
            mismatch[0] = phase_mismatch(problem.with_sector(0), potential, beta, 0.0)
        for l, m_l in zip(ls.tolist(), mismatch.tolist()):
            if not m_l > 0.0:
                return total
            total += problem.sector_multiplicity(l) * (math.floor(m_l / math.pi) + 1)
        first = int(ls[-1]) + 1
    return total


def phase_mismatch(problem: ProblemSpec, potential: Potential, beta: float,
                   lam: float) -> float:
    """theta(R*) - theta_target; zero exactly at sector eigenvalues.

    theta is the Pruefer angle of (u, p u') along the regular solution, the
    target that of the decaying free solution at R* (the bounded one at
    lam = 0).  As lam rises theta rises and the target falls, so the
    mismatch increases with lam.  Every lam <= 0 steps the floored
    ``SectorODE.mesh``; at lam = 0 sector 0's root in beta is the threshold,
    and a count reads it next to a crossing.
    """
    return _shoot(problem, potential, beta, lam)[0]


def _shoot(problem, potential, beta, lam, slope=False):
    """(``phase_mismatch``, with ``slope`` its beta-derivative, the angle's)."""
    ode = SectorODE(problem, potential, beta)
    r_star = closure_radius(problem, potential)
    end = ode.integrate(lam, ode.regular_state(), problem.inner_radius, r_star, slope=slope)
    return end.angle - math.atan2(*ode.decay_state(lam, r_star)), end.slope


def ground_state(problem: ProblemSpec, potential: Potential, beta: float) -> float | None:
    """Lowest eigenvalue of the problem's sector, or None without bound
    states there.

    Shooting on the phase mismatch with the energy-dependent decay closure,
    rooted in k = sqrt(-lambda) on (sqrt(1e-12 max(1, beta max V)),
    sqrt(beta max V + 1e-6)): the closure is smooth in k where it has a
    square-root branch in lambda, so a shallow state comes out accurate
    relative to its size.  The k-tolerance keeps |d lambda| <= ``GROUND_TOL``
    on the whole bracket.  A state shallower than the bracket, just above
    threshold, exists where the zero-energy closure (k = 0) still leaves a
    positive mismatch; it is rooted in ln k to 1e-12 relative, and comes
    out as -0.0 where its energy underflows.  ``eigenfunction`` gives the
    profile at the returned energy.
    """
    require_valid(problem, potential)
    if beta <= 0:
        raise ValidationError("ground-state search needs beta > 0")
    if potential.is_zero():
        return None
    vmax = beta * potential.max_value()
    lam_lo = -vmax - 1e-6
    k_lo, k_hi = math.sqrt(1e-12 * max(1.0, vmax)), math.sqrt(-lam_lo)

    @functools.cache
    def mismatch(k):  # falls as k rises
        return phase_mismatch(problem, potential, beta, -k * k)

    from scipy.optimize import brentq
    if mismatch(k_lo) <= 0.0:
        if mismatch(0.0) <= 0.0:
            return None
        # shallower than the bracket: root in ln k, so the state comes out
        # relative to its size (a planar s-state's is exponentially small)
        # down to e^-744, the smallest subnormal; below it lambda is -0.0
        if mismatch(math.exp(-372.0)) <= 0.0:
            return -0.0
        u = brentq(lambda u: mismatch(math.exp(u)), -372.0, math.log(k_lo), xtol=1e-12)
        return -math.exp(2.0 * u)
    if mismatch(k_hi) >= 0.0:
        raise UnconvergedError(
            "shooting bracket failure: mismatch positive at the lower bound",
            details={"lambda_lo": lam_lo, "mismatch": mismatch(k_hi)})
    k = brentq(mismatch, k_lo, k_hi, xtol=0.5 * GROUND_TOL / k_hi)
    return -k * k


def eigenfunction(problem: ProblemSpec, potential: Potential, beta: float,
                  lam: float):
    """(mesh, u): the profile at an eigenvalue of the problem's sector,
    normalized in the volume measure.

    The regular branch is integrated outward up to R*; past R* the profile
    is the decaying free solution in closed form, out to where it has
    fallen by e^{-40}, so it needs lambda < 0: a state whose energy
    underflows to -0.0 has no tail to sample.
    """
    if not lam < 0.0:
        raise ValidationError(f"the profile needs an energy below zero, got {lam!r}")
    ode = SectorODE(problem, potential, beta)
    r_in = problem.inner_radius
    r_star = closure_radius(problem, potential)
    solution = ode.integrate(lam, ode.regular_state(), r_in, r_star, decays=True)
    pieces = solution.sample(lambda a0, b0: np.linspace(
        a0, b0, max(8, int(PROFILE_NODES * (b0 - a0) / (r_star - r_in)))))
    tail = r_star + np.linspace(0.0, 40.0 / math.sqrt(-lam), PROFILE_NODES // 4 + 1)[1:]
    mesh = np.concatenate([r for r, _, _ in pieces] + [tail])
    u = np.concatenate([u for _, u, _ in pieces] + [solution(tail)])
    norm = math.sqrt(np.trapezoid(u ** 2 * mesh ** (problem.dimension - 1), mesh))
    return mesh, u / norm


def crosscheck_birman_schwinger(problem: ProblemSpec, potential: Potential,
                                beta_grid, m: int = bs.DEFAULT_M):
    """Residual |beta * mu0(lambda0(beta)) - 1| over a coupling grid.

    For each coupling the ground state energy of the problem's sector comes
    from the shooting solver and mu0 from the independently assembled
    semiseparable kernel of that same sector at that energy.
    """
    rows = []
    if potential.is_zero():
        return rows
    for beta in beta_grid:
        lam0 = ground_state(problem, potential, float(beta))
        if lam0 is None:
            raise ValidationError(f"no bound state at beta={beta:g}; "
                                  "crosscheck needs couplings above threshold")
        mat = bs.assemble(problem, potential, lam0, m=m)
        mu0, _ = bs.principal_eigenvalue(mat)
        rows.append({"beta": float(beta), "lambda0": lam0, "mu0": mu0,
                     "residual": abs(beta * mu0 - 1.0)})
    return rows


def beta_critical_direct(problem: ProblemSpec, potential: Potential):
    """Coupling threshold: the root in beta of sector 0's zero-energy
    ``phase_mismatch``, which rises with beta.

    Newton from the well's own scale (pi/2)^2 / (max V width^2) on the slope
    d theta / d beta of each shot's walk, inside the bracket the shots' signs
    narrow from (0, inf): a step leaving it doubles beta while none binds,
    and bisects after.  A step inside of at most 1e-9 beta ends it (the next
    would be about its square), as does a bracket under 1e-15 of its top.
    None when no coupling up to 2^60 creates a bound state (as for V == 0),
    and exactly 0.0 where sector 0 is Neumann without a zero-energy closure
    flux (d = 1 and 2, the sectors whose limit kernel diverges): there the
    constants solve the free equation, so every coupling binds.
    """
    require_valid(problem, potential)
    if potential.is_zero():
        return None
    ground = problem.with_sector(0)
    if ground.limit_diverges():
        return 0.0
    lo, hi = potential.support
    beta, bracket = (0.5 * math.pi / (hi - lo)) ** 2 / potential.max_value(), [0.0, math.inf]
    while True:
        mismatch, slope = _shoot(ground, potential, beta, 0.0, slope=True)
        bracket[mismatch > 0.0] = beta
        (lo, hi), step = bracket, -mismatch / slope if slope > 0.0 else math.nan
        inside = lo <= beta + step < hi
        beta = beta + step if inside else 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        if inside and abs(step) <= 1e-9 * beta or hi - lo <= 1e-15 * hi < math.inf:
            return beta if beta <= 2.0 ** 60 else None


def eigenvalue_residual(problem: ProblemSpec, potential: Potential, beta: float,
                        lam: float) -> float:
    """Strong-form residual of the eigen-equation at a converged energy.

    Reads the regular solution (u, p u') on uniform sub-grids up to R*
    (past it the closed-form tail solves the free equation exactly) and
    checks (p u')' = (q - lambda w) u with fourth-order differences inside
    each smooth segment.  Returns the max residual relative to the profile
    scale.
    """
    ode = SectorODE(problem, potential, beta)
    pieces = ode.integrate(
        lam, ode.regular_state(), problem.inner_radius, closure_radius(problem, potential),
    ).sample(lambda a0, b0: np.linspace(
        a0, b0, max(9, int(round((b0 - a0) / RESIDUAL_H)) + 1)))
    scale_u = max(float(np.max(np.abs(uu))) for _, uu, _ in pieces)
    scale_v = max(float(np.max(np.abs(vv))) for _, _, vv in pieces)
    denom = max(scale_v, (abs(lam) + beta * potential.max_value() + 1.0) * scale_u)
    worst = 0.0
    for r, uu, vv in pieces:
        if r.size < 9:
            continue
        hh = r[1] - r[0]
        dv = (vv[:-4] - 8 * vv[1:-3] + 8 * vv[3:-1] - vv[4:]) / (12 * hh)
        _, q, w = ode.coefficients(r[2:-2])
        res = dv - (q - lam * w) * uu[2:-2]
        worst = max(worst, float(np.max(np.abs(res))) / denom)
    return worst
