"""Direct negative-spectrum computations on truncated domains.

The radial operator -(a r^{d-1} u')'/r^{d-1} + centrifugal - beta V is
discretized by second-order finite differences built from the quadratic form,
so the matrix is symmetric tridiagonal.  Decay at infinity enters through an
exact boundary relation at the truncation radius: the zero-energy closure for
eigenvalue counting (which makes the count independent of the truncation),
and the energy-dependent closure inside the shooting solver for eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import birman_schwinger as bs
from .errors import UnconvergedError, ValidationError
from .model import Potential, ProblemSpec, validate
from .sector_ode import SectorODE

DEFAULT_H = 1e-3
DEFAULT_R_MAX = 30.0
DEFAULT_BISECT_TOL = 1e-6


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal pencil (A, M) for one angular sector."""

    mesh: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    mass: np.ndarray
    beta: float
    meta: dict = field(default_factory=dict)


def build_operator(problem: ProblemSpec, potential: Potential, beta: float,
                   h: float = DEFAULT_H, r_max: float = DEFAULT_R_MAX,
                   sector: int | None = None, closure_lambda: float = 0.0) -> DiscreteOperator:
    """Finite-difference pencil on [r_in, r_max] with the decay closure.

    ``closure_lambda`` selects the energy of the outer boundary relation;
    0 gives the threshold-exact closure used for counting.
    """
    ode = SectorODE(problem, sector=sector)
    l, bc = ode.sector, ode.bc
    r_in = problem.inner_radius
    hi = potential.support[1]
    if r_max < hi + 1.0:
        r_max = hi + 5.0
    n = max(8, int(round((r_max - r_in) / h)))
    r = r_in + h * np.arange(n + 1)
    _, q, weight = ode.coefficients(r)
    # V enters cell-averaged, over the cells as the mesh realizes them
    q = q - beta * potential.cell_average(r, float(r[1] - r[0])) * weight
    p_half = ode.coefficients(r[:-1] + 0.5 * h)[0]
    _, flux_out = ode.decay_state(closure_lambda, r[-1])

    # quadratic-form assembly over all nodes r_0..r_N
    diag_full = np.empty(n + 1)
    diag_full[1:-1] = (p_half[:-1] + p_half[1:]) / h + q[1:-1] * h
    diag_full[0] = p_half[0] / h + q[0] * 0.5 * h
    diag_full[-1] = p_half[-1] / h + q[-1] * 0.5 * h - flux_out
    off_full = -p_half / h
    mass_full = weight * h
    mass_full[0] *= 0.5
    mass_full[-1] *= 0.5

    if bc == "dirichlet":
        # eliminate u(r_in) = 0; node 1 becomes a full interior cell
        mesh, diag, off = r[1:], diag_full[1:], off_full[1:]
        mass = mass_full[1:].copy()
        mass[0] = weight[1] * h
    elif bc == "neumann":
        mesh, diag, off, mass = r, diag_full, off_full, mass_full
    else:
        raise ValidationError(f"unsupported sector boundary condition {bc!r}")
    meta = {"h": h, "r_max": float(r[-1]), "sector": l, "bc": bc,
            "closure_lambda": closure_lambda}
    return DiscreteOperator(mesh, diag, off, mass, beta, meta)


def _sturm_count(diag: np.ndarray, off: np.ndarray, shift: np.ndarray | float = 0.0) -> int:
    """Number of eigenvalues below the shift for a symmetric tridiagonal.

    A zero pivot stands for -tiny, so it counts as negative (as in LAPACK's
    bisection).
    """
    d = (diag - shift).tolist()
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


def sector_count(problem: ProblemSpec, potential: Potential, beta: float,
                 h: float, r_max: float, sector: int) -> int:
    """Negative-eigenvalue count of one angular sector."""
    op = build_operator(problem, potential, beta, h, r_max, sector=sector,
                        closure_lambda=0.0)
    return _sturm_count(op.diag, op.off, 0.0)


def _total_count(problem: ProblemSpec, potential: Potential, beta: float,
                 h: float, r_max: float, l_cap: int = 400) -> int:
    """Sum of sector counts with multiplicities (sectors empty out monotonically)."""
    if problem.geometry == "half_line":
        return sector_count(problem, potential, beta, h, r_max, 0)
    if problem.dimension == 1:  # even/odd components of the punctured line
        return sum(sector_count(problem, potential, beta, h, r_max, l) for l in (0, 1))
    total = 0
    for l in range(l_cap + 1):
        c = sector_count(problem, potential, beta, h, r_max, l)
        if c == 0:
            break
        total += problem.sector_multiplicity(l) * c
    return total


def count_negative(problem: ProblemSpec, potential: Potential, beta: float,
                   h: float = DEFAULT_H, r_max: float = DEFAULT_R_MAX,
                   refine: bool = True) -> int:
    """Number of negative eigenvalues of the full operator at coupling beta.

    With ``refine`` the count is recomputed at half the mesh and at twice the
    truncation radius; disagreement raises ``UnconvergedError`` carrying all
    the counts.
    """
    diags = validate(problem, potential)
    if diags:
        raise ValidationError("; ".join(diags))
    if beta < 0:
        raise ValidationError("coupling must be nonnegative")
    if potential.is_zero() or beta == 0.0:
        return 0
    base = _total_count(problem, potential, beta, h, r_max)
    if not refine:
        return base
    checks = {
        (h, r_max): base,
        (0.5 * h, r_max): _total_count(problem, potential, beta, 0.5 * h, r_max),
        (h, 2.0 * r_max): _total_count(problem, potential, beta, h, 2.0 * r_max),
    }
    values = set(checks.values())
    if len(values) > 1:
        raise UnconvergedError(
            "negative-eigenvalue count did not stabilize under refinement",
            details={f"h={k[0]:g},R={k[1]:g}": v for k, v in checks.items()})
    return base


def phase_mismatch(problem: ProblemSpec, potential: Potential, beta: float,
                   lam: float, r_max: float = DEFAULT_R_MAX,
                   sector: int = 0) -> float:
    """theta(r_max) - theta_target; zero exactly at sector eigenvalues.

    theta is the Pruefer angle of (u, p u') along the regular solution, the
    target that of the decaying free solution at r_max.
    """
    ode = SectorODE(problem, potential, beta, sector)
    _, theta, _ = ode.integrate(lam, [math.atan2(*ode.regular_state())],
                                problem.inner_radius, r_max, prufer=True,
                                rtol=1e-10, atol=1e-13)
    return float(theta[0]) - math.atan2(*ode.decay_state(lam, r_max))


def ground_state(problem: ProblemSpec, potential: Potential, beta: float,
                 tol: float = 1e-10, r_max: float = DEFAULT_R_MAX,
                 sector: int = 0):
    """Lowest eigenvalue and radial profile, or None without bound states.

    Shooting on the phase mismatch with the energy-dependent decay closure;
    the eigenvalue is bracketed inside (-beta max V, 0).
    """
    diags = validate(problem, potential)
    if diags:
        raise ValidationError("; ".join(diags))
    if beta <= 0:
        raise ValidationError("ground-state search needs beta > 0")
    if potential.is_zero():
        return None
    lo, hi = potential.support
    r_max = max(r_max, hi + 10.0)
    vmax = beta * potential.max_value()
    lam_lo = -vmax - 1e-6
    lam_hi = -1e-12 * max(1.0, vmax)
    f_hi = phase_mismatch(problem, potential, beta, lam_hi, r_max, sector)
    if f_hi <= 0.0:
        return None
    f_lo = phase_mismatch(problem, potential, beta, lam_lo, r_max, sector)
    if f_lo >= 0.0:
        raise UnconvergedError(
            "shooting bracket failure: mismatch positive at the lower bound",
            details={"lambda_lo": lam_lo, "mismatch": f_lo})
    lam0 = brentq(lambda lam: phase_mismatch(problem, potential, beta, lam,
                                             r_max, sector),
                  lam_lo, lam_hi, xtol=tol)
    mesh, u = _eigenfunction(problem, potential, beta, lam0, r_max, sector)
    return float(lam0), (mesh, u)


def _eigenfunction(problem, potential, beta, lam, r_max, sector, n_mesh=4000):
    """Profile at a converged eigenvalue, normalized in the volume measure.

    The regular branch is integrated outward only up to the outer support
    edge; past the well the decaying branch is integrated inward from the
    truncation radius (the stable direction) and the two are glued by value.
    """
    ode = SectorODE(problem, potential, beta, sector)
    r_in = problem.inner_radius
    glue = min(max(potential.support[1], problem.flat_radius()), r_max - 1.0)

    def branch(y, start):
        pieces, _, _ = ode.integrate(
            lam, y, start, glue, rtol=1e-10, atol=1e-13,
            t_eval=lambda a0, b0: np.linspace(
                a0, b0, max(8, int(n_mesh * abs(b0 - a0) / (r_max - r_in)))))
        return (np.concatenate([seg.sol.t for seg in pieces]),
                np.concatenate([seg.sol.y[0] for seg in pieces]))

    mesh_out, u_out = branch(ode.regular_state(), r_in)
    mesh_in, u_in = branch(ode.decay_state(lam, r_max), r_max)
    mesh_in, u_in = mesh_in[::-1], u_in[::-1]
    scale = u_out[-1] / u_in[0] if u_in[0] != 0 else 1.0
    mesh = np.concatenate([mesh_out, mesh_in[1:]])
    u = np.concatenate([u_out, scale * u_in[1:]])
    norm = math.sqrt(np.trapezoid(u ** 2 * mesh ** (problem.dimension - 1), mesh))
    return mesh, u / norm


def crosscheck_birman_schwinger(problem: ProblemSpec, potential: Potential,
                                beta_grid, m: int = bs.DEFAULT_M,
                                tol: float = 1e-10):
    """Residual |beta * mu0(lambda0(beta)) - 1| over a coupling grid.

    For each coupling the ground state energy comes from the shooting solver
    and mu0 from the independently assembled kernel matrix at that energy.
    """
    rows = []
    if potential.is_zero():
        return rows
    for beta in beta_grid:
        gs = ground_state(problem, potential, float(beta), tol=tol)
        if gs is None:
            raise ValidationError(f"no bound state at beta={beta:g}; "
                                  "crosscheck needs couplings above threshold")
        lam0, _ = gs
        mat = bs.assemble(problem, potential, lam0, m=m)
        mu0, _ = bs.principal_eigenvalue(mat, bs.DEFAULT_EIG_TOL)
        rows.append({"beta": float(beta), "lambda0": lam0, "mu0": mu0,
                     "residual": abs(beta * mu0 - 1.0)})
    return rows


def beta_critical_direct(problem: ProblemSpec, potential: Potential,
                         tol: float = DEFAULT_BISECT_TOL, h: float = DEFAULT_H,
                         r_max: float = DEFAULT_R_MAX):
    """Coupling threshold by bisection of the negative-eigenvalue count.

    None when no coupling up to 2^60 creates a bound state (as for V == 0).
    """
    diags = validate(problem, potential)
    if diags:
        raise ValidationError("; ".join(diags))
    if potential.is_zero():
        return None
    lo_sup, hi_sup = potential.support
    r_max = max(r_max, hi_sup + 10.0)

    def has_state(beta):
        return _total_count(problem, potential, beta, h, r_max) >= 1

    lo, hi = 0.0, 1.0
    doublings = 0
    while not has_state(hi):
        lo, hi = hi, 2.0 * hi
        doublings += 1
        if doublings > 60:
            return None
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if has_state(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def eigenvalue_residual(problem: ProblemSpec, potential: Potential, beta: float,
                        lam: float, r_max: float | None = None,
                        sector: int = 0, h_res: float = 1e-2) -> float:
    """Strong-form residual of the eigen-equation at a converged energy.

    Re-integrates the first-order system (u, p u') on uniform sub-grids and
    checks (p u')' = (q - lambda w) u with fourth-order differences inside
    each smooth segment.  Returns the max residual relative to the profile
    scale.
    """
    ode = SectorODE(problem, potential, beta, sector)
    if r_max is None:
        r_max = max(DEFAULT_R_MAX, potential.support[1] + 10.0)
    pieces, _, _ = ode.integrate(
        lam, ode.regular_state(), problem.inner_radius, r_max,
        rtol=1e-12, atol=1e-14,
        t_eval=lambda a0, b0: np.linspace(
            a0, b0, max(9, int(round((b0 - a0) / h_res)) + 1)))
    scale_u = max(float(np.max(np.abs(seg.sol.y[0]))) for seg in pieces)
    scale_v = max(float(np.max(np.abs(seg.sol.y[1]))) for seg in pieces)
    denom = max(scale_v, (abs(lam) + beta * potential.max_value() + 1.0) * scale_u)
    worst = 0.0
    for seg in pieces:
        r, (uu, vv) = seg.sol.t, seg.sol.y
        if r.size < 9:
            continue
        hh = r[1] - r[0]
        dv = (vv[:-4] - 8 * vv[1:-3] + 8 * vv[3:-1] - vv[4:]) / (12 * hh)
        _, q, w = ode.coefficients(r[2:-2])
        res = dv - (q - lam * w) * uu[2:-2]
        worst = max(worst, float(np.max(np.abs(res))) / denom)
    return worst
