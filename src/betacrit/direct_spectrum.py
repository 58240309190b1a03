"""Direct negative-spectrum computations, closed at the support edge R*.

Past R* = max(support hi of V, r_flat, r_in) the sector equation is the free
one, so decay at infinity enters through an exact boundary relation there:
the zero-energy closure for eigenvalue counting (which makes the count
independent of where the mesh ends), and the energy-dependent closure
inside the shooting solver for eigenvalues, which roots the phase mismatch
in k = sqrt(-lambda).  For counting, the radial operator
-(a r^{d-1} u')'/r^{d-1} + centrifugal - beta V is discretized by
second-order finite differences built from the quadratic form, so the
matrix is symmetric tridiagonal.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from . import birman_schwinger as bs
from .errors import UnconvergedError, ValidationError
from .model import Potential, ProblemSpec, require_valid
from .sector_ode import SectorODE, closure_radius

DEFAULT_H = 1e-3
DEFAULT_BISECT_TOL = 1e-6
PROFILE_NODES = 4000  # eigenfunction samples up to R*, and a quarter as many past it
RESIDUAL_H = 1e-2  # spacing of the residual check's sub-grids


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
    ode = SectorODE(problem)
    r_in = problem.inner_radius
    r_out = closure_radius(problem, potential) + 1.0
    n = max(8, int(round((r_out - r_in) / h)))
    r = r_in + h * np.arange(n + 1)
    weight = ode.coefficients(r)[2]
    p_half = ode.coefficients(r[:-1] + 0.5 * h)[0]
    return _Mesh(r, h, p_half, (p_half[:-1] + p_half[1:]) / h, -p_half / h,
                 weight, potential.cell_average(r, float(r[1] - r[0])))


class SectorPencil:
    """One sector's finite-difference pencil with the coupling factored out,
    A(beta) = A0 - beta D_V, on the mesh of a ``_Mesh``, closed at lambda = 0.

    The diagonal is assembled from the quadratic form in the order a single
    build uses, p-sum + (q0 - beta V w) h, so it is the same to the last bit
    for every coupling.  The centrifugal term q0 is formed afresh for each
    diagonal (a few microseconds), so a pencil keeps no array of its own and
    a count that sweeps many sectors holds one mesh, not one array per
    sector.
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
    from scipy.linalg.lapack import dstebz
    count, *_, info = dstebz(diag, off, 1, -math.inf, 0.0, 0, 0, math.inf, "B")
    if info:
        raise UnconvergedError("LAPACK dstebz failed", details={"info": info})
    return count


class SpectrumCounter:
    """Negative-eigenvalue counts of one problem and potential.

    Each (h, sector) pencil is built on first use and kept for the life of
    the counter, so a bisection or a coupling grid pays for it once; make
    one counter per study, never one per process.
    """

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
        """``count_negative`` on this counter's pencils."""
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
        """``beta_critical_direct`` on this counter's sector-0 pencil: every
        other sector's pencil is a principal submatrix of it plus the
        nonnegative centrifugal diagonal, so only sector 0 decides."""
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


def count_negative(problem: ProblemSpec, potential: Potential, beta: float,
                   h: float = DEFAULT_H, refine: bool = True) -> int:
    """Number of negative eigenvalues of the full operator at coupling beta.

    With ``refine`` the count is recomputed at half the mesh; disagreement
    raises ``UnconvergedError`` carrying both counts, as does a coupling
    the mesh cannot resolve, h sqrt(beta max V) > 1.
    """
    return SpectrumCounter(problem, potential).count(beta, h, refine)


def phase_mismatch(problem: ProblemSpec, potential: Potential, beta: float,
                   lam: float) -> float:
    """theta(R*) - theta_target; zero exactly at sector eigenvalues.

    theta is the Pruefer angle of (u, p u') along the regular solution, the
    target that of the decaying free solution at R*.  As lam rises theta
    rises and the target falls, so the mismatch increases with lam.
    """
    ode = SectorODE(problem, potential, beta)
    r_star = closure_radius(problem, potential)
    theta = ode.integrate(lam, ode.regular_state(), problem.inner_radius, r_star).angle
    return theta - math.atan2(*ode.decay_state(lam, r_star))


def ground_state(problem: ProblemSpec, potential: Potential, beta: float,
                 tol: float = 1e-10) -> float | None:
    """Lowest eigenvalue of the problem's sector, or None without bound
    states there.

    Shooting on the phase mismatch with the energy-dependent decay closure,
    rooted in k = sqrt(-lambda) on (sqrt(1e-12 max(1, beta max V)),
    sqrt(beta max V + 1e-6)): the closure is smooth in k where it has a
    square-root branch in lambda, so a shallow state comes out accurate
    relative to its size.  The k-tolerance keeps |d lambda| <= tol on the
    whole bracket.  A state shallower than the bracket, just above
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
    k = brentq(mismatch, k_lo, k_hi, xtol=0.5 * tol / k_hi)
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
                                beta_grid, m: int = bs.DEFAULT_M,
                                tol: float = 1e-10):
    """Residual |beta * mu0(lambda0(beta)) - 1| over a coupling grid.

    For each coupling the ground state energy of the problem's sector comes
    from the shooting solver and mu0 from the independently assembled kernel
    matrix of that same sector at that energy.
    """
    rows = []
    if potential.is_zero():
        return rows
    for beta in beta_grid:
        lam0 = ground_state(problem, potential, float(beta), tol=tol)
        if lam0 is None:
            raise ValidationError(f"no bound state at beta={beta:g}; "
                                  "crosscheck needs couplings above threshold")
        mat = bs.assemble(problem, potential, lam0, m=m)
        mu0, _ = bs.principal_eigenvalue(mat)
        rows.append({"beta": float(beta), "lambda0": lam0, "mu0": mu0,
                     "residual": abs(beta * mu0 - 1.0)})
    return rows


def beta_critical_direct(problem: ProblemSpec, potential: Potential,
                         tol: float = DEFAULT_BISECT_TOL, h: float = DEFAULT_H):
    """Coupling threshold by bisection of the negative-eigenvalue count.

    None when no coupling up to 2^60 creates a bound state (as for V == 0),
    and exactly 0.0 where sector 0 is Neumann without a zero-energy closure
    flux (d = 1 and 2, the sectors whose limit kernel diverges).
    """
    return SpectrumCounter(problem, potential).threshold(tol, h)


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
