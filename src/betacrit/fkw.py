"""Constant-trace / zero-mean-flux boundary condition on the exterior ball.

With the uniform measure on the sphere the nonlocal condition decouples:
the radially symmetric sector obeys a Neumann condition, every higher sector
a Dirichlet one.  Solutions are reconstructed as u = alpha*v + w where v is
the auxiliary exterior solution with unit trace, w the Dirichlet resolvent of
the source, and alpha = -gamma/gamma1 balances the total flux.

Flux functionals are averaged over the sphere and oriented toward the
obstacle, which makes gamma1 positive for strongly negative energies and
gamma1(0-) = 1 in the classical d=3 unit-ball case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import birman_schwinger as bs
from .direct_spectrum import SectorPencil, _mesh, beta_critical_direct
from .errors import (KernelLimitError, MethodDisagreement, NearSingularError,
                     ValidationError)
from .model import Potential, ProblemSpec, require_valid
from .sector_ode import SectorODE, SectorSolution, closure_radius

DEFAULT_SECTOR_MAX = 3


def _require_fkw(problem: ProblemSpec):
    if problem.boundary_condition != "fkw" or problem.geometry != "exterior_ball":
        raise ValidationError("this operation needs an exterior-ball problem "
                              "with the constant-trace/zero-flux condition")


def _top_sector(problem: ProblemSpec, sector_max: int) -> int:
    """Highest sector swept: the line has only the even and odd sectors."""
    return 1 if problem.dimension == 1 else sector_max


@dataclass(frozen=True)
class FkwSolution:
    """Sector-decomposed solution with its boundary constants."""

    alpha: float
    gamma: float
    gamma1: float
    lam: float
    sector_profiles: dict  # l -> (mesh, values)
    meta: dict = field(default_factory=dict)  # "source_cut": see solve_fkw

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha, "gamma": self.gamma, "gamma1": self.gamma1,
                "lambda": self.lam, "sectors": sorted(self.sector_profiles),
                "metadata": dict(self.meta)}


def solve_v(problem: ProblemSpec, beta: float, potential: Potential,
            lam: float) -> SectorSolution:
    """Decaying radial solution with unit trace on the obstacle sphere, in
    the symmetric sector.

    Integrated inward (the stable direction for the decaying branch) from
    R*, where the decaying free solution is exact; raises
    ``NearSingularError`` when the energy sits at a Dirichlet eigenvalue,
    where no unit-trace solution exists.
    """
    _require_fkw(problem)
    require_valid(problem, potential)
    if lam > 0:
        raise ValidationError("the exterior solve needs lambda <= 0")
    if lam == 0 and problem.dimension <= 2:
        raise KernelLimitError("no decaying zero-energy solution in this sector")
    r_star = closure_radius(problem, potential)
    ode = SectorODE(problem.with_sector(0), potential, beta)
    v = ode.integrate(lam, ode.decay_state(lam, r_star), r_star, problem.inner_radius,
                      decays=True)
    v.normalize(problem.inner_radius)  # only the ratio to the trace matters
    if not v.peak < 1e6:
        raise NearSingularError("energy sits at a Dirichlet eigenvalue; "
                                "the unit-trace solution degenerates")
    return v


def _boundary_flux(problem: ProblemSpec, v: SectorSolution) -> float:
    """Mean boundary flux -v'(r0) of the unit-trace solution."""
    r0 = problem.inner_radius
    return -float(v.state(r0)[1]) / SectorODE(problem).coefficients(r0)[0]


def gamma1(problem: ProblemSpec, beta: float, potential: Potential,
           lam: float) -> float:
    """Mean boundary flux of the unit-trace solution, oriented to be positive
    for energies below the potential well."""
    return _boundary_flux(problem, solve_v(problem, beta, potential, lam))


def _dirichlet_resolvent(problem: ProblemSpec, beta: float, potential: Potential,
                         lam: float, f, h: float):
    """Dirichlet solve (H_beta - lambda) w = f on [r0, R* + 1] in the
    problem's sector, closed there by the decay relation at lambda.

    The resolvent decomposition always uses the Dirichlet condition, whatever
    the sector's effective condition is.  Returns the mesh, w, and the part
    of the source the mesh cuts, |f(R* + 1)| / max |f| (0 for f == 0).
    """
    forced = replace(problem, boundary_condition="dirichlet")
    pencil = SectorPencil(_mesh(forced, potential, h), forced)
    mesh = pencil.grid.r[pencil.first:]
    f_vals = np.asarray(f(mesh), dtype=float)
    f_max = float(np.max(np.abs(f_vals)))
    cut = abs(float(f_vals[-1])) / f_max if f_max > 0.0 else 0.0
    from scipy.linalg import solve_banded
    ab = np.zeros((3, mesh.size))
    ab[0, 1:] = pencil.off
    ab[1, :] = pencil.diag(beta, lam) - lam * pencil.mass
    ab[2, :-1] = pencil.off
    w = solve_banded((1, 1), ab, pencil.mass * f_vals)
    if float(np.max(np.abs(w))) > 1e10 * (f_max + 1e-300):
        raise NearSingularError("resolvent solve near-singular at this energy")
    return mesh, w, cut


def _inner_flux(mesh: np.ndarray, w: np.ndarray, h: float) -> float:
    """-w'(r0) for a Dirichlet profile (w(r0) = 0 eliminated from the mesh)."""
    # one-sided fourth-order stencil including the boundary zero
    u0, u1, u2, u3, u4 = 0.0, w[0], w[1], w[2], w[3]
    deriv = (-25 * u0 + 48 * u1 - 36 * u2 + 16 * u3 - 3 * u4) / (12 * h)
    return -deriv


def solve_fkw(problem: ProblemSpec, beta: float, potential: Potential, lam: float,
              f: dict, h: float = 1e-3, gamma1_tol: float = 1e-9) -> FkwSolution:
    """Solve (H_beta - lambda) u = f under the constant-trace/zero-flux pair.

    ``f`` maps sector indices to radial source callables.  The symmetric
    sector combines the Dirichlet resolvent with the unit-trace solution so
    both boundary conditions hold; higher sectors are pure Dirichlet solves.
    Profiles run over [r0, R* + 1], where the decay closure is exact for a
    source supported inside that interval; any source past R* + 1 is cut,
    and ``meta["source_cut"]`` records |f(R* + 1)| / max |f| per sector.
    """
    _require_fkw(problem)
    if lam >= 0:
        raise ValidationError("source problems are solved below the continuous spectrum")
    v = solve_v(problem, beta, potential, lam)
    g1 = _boundary_flux(problem, v)
    r0 = problem.inner_radius
    r_out = closure_radius(problem, potential) + 1.0
    sector_profiles = {}
    source_cut = {}
    alpha = 0.0
    gamma = 0.0
    f0 = f.get(0)
    if f0 is not None:
        mesh0, w0, source_cut[0] = _dirichlet_resolvent(
            problem.with_sector(0), beta, potential, lam, f0, h)
        gamma = _inner_flux(mesh0, w0, h)
        if abs(g1) < gamma1_tol * max(1.0, abs(gamma)):
            raise NearSingularError(
                "zero-mean-flux constant is degenerate (gamma1 ~ 0): "
                "the energy is too close to an eigenvalue of the nonlocal problem")
        alpha = -gamma / g1
        u0 = alpha * v(mesh0) + w0
        sector_profiles[0] = (np.concatenate([[r0], mesh0]),
                              np.concatenate([[alpha], u0]))
    for l, fl in sorted(f.items()):
        if l == 0 or fl is None:
            continue
        mesh_l, w_l, source_cut[l] = _dirichlet_resolvent(
            problem.with_sector(l), beta, potential, lam, fl, h)
        sector_profiles[l] = (np.concatenate([[r0], mesh_l]),
                              np.concatenate([[0.0], w_l]))
    if not sector_profiles:
        sector_profiles[0] = (np.array([r0, r_out]), np.zeros(2))
    return FkwSolution(alpha=float(alpha), gamma=float(gamma), gamma1=float(g1),
                       lam=lam, sector_profiles=sector_profiles,
                       meta={"h": h, "r_out": r_out, "beta": beta,
                             "flux_orientation": "toward the obstacle",
                             "source_cut": source_cut})


def fkw_norm_limit(problem: ProblemSpec, potential: Potential, lambda_grid=None,
                   m: int = bs.DEFAULT_M, sector_max: int = DEFAULT_SECTOR_MAX,
                   tol: float = bs.DEFAULT_EIG_TOL) -> dict:
    """Classify the sandwiched-resolvent norm per sector as lambda -> 0-.

    Sector 0 carries the Neumann-type reduction of the nonlocal condition,
    higher sectors are Dirichlet; ``bs.norm_limit`` combines the verdicts.
    """
    _require_fkw(problem)
    if lambda_grid is None:
        lambda_grid = bs.default_lambda_grid((2, 8))
    return bs.norm_limit(problem, potential,
                         range(_top_sector(problem, sector_max) + 1),
                         lambda_grid, m, tol=tol)


def beta_critical_fkw(problem: ProblemSpec, potential: Potential,
                      m: int = bs.DEFAULT_M, sector_max: int = DEFAULT_SECTOR_MAX,
                      crosscheck: bool = True, agree_tol: float = 1e-2,
                      limit: dict | None = None):
    """Coupling threshold for the nonlocal condition (uniform measure).

    1/mu* over the sector family when the norms stay bounded, 0 when they
    diverge, None without bound states; cross-checked against the direct
    eigenvalue sweep with the matching per-sector conditions.  ``limit`` is
    a ``fkw_norm_limit`` result to reuse; without it the limit is taken on
    the default grid.
    """
    _require_fkw(problem)
    require_valid(problem, potential)
    if potential.is_zero():
        return None
    if limit is None:
        limit = fkw_norm_limit(problem, potential, m=m, sector_max=sector_max)
    beta = bs.beta_from_verdict(limit["verdict"], limit["mu_star"])
    if not beta:  # a divergent norm (0.0) or no bound state (None)
        return beta
    value = bs.beta_critical(problem, potential, method="limit-kernel", m=m,
                             sector_max=_top_sector(problem, sector_max))
    if crosscheck:
        direct = beta_critical_direct(problem, potential, tol=1e-6)
        if isinstance(direct, float) and abs(direct - value) > agree_tol * max(value, direct):
            raise MethodDisagreement(
                f"kernel and direct thresholds disagree: {value:.6g} vs {direct:.6g}",
                values={"kernel": value, "direct": direct})
    return value
