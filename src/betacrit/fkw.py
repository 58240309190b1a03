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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import birman_schwinger as bs
from .direct_spectrum import beta_critical_direct
from .errors import (KernelLimitError, MethodDisagreement, NearSingularError,
                     UnconvergedError, ValidationError)
from .green_kernels import solution_pair
from .model import Potential, ProblemSpec, require_valid
from .sector_ode import MAX_STEPS, MAX_TURN, SectorODE, SectorSolution, fill

DEFAULT_SECTOR_MAX = 3
GAMMA1_TOL = 1e-9  # |gamma1| below this, relative to max(1, |gamma|), is degenerate
SIMPSON_PER_UNIT = 1000  # fewest Simpson steps of the resolvent per unit length


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
    meta: dict = field(default_factory=dict)


def _require_energies(problem: ProblemSpec, potential: Potential, lam) -> None:
    """What ``solve_v`` needs of the problem and of every energy in ``lam``."""
    _require_fkw(problem)
    require_valid(problem, potential)
    if np.any(lam > 0):
        raise ValidationError("the exterior solve needs lambda <= 0")
    if not np.all(lam) and problem.with_sector(0).limit_diverges():
        raise KernelLimitError("no decaying zero-energy solution in this sector")


def solve_v(problem: ProblemSpec, beta: float, potential: Potential,
            lam: float) -> SectorSolution:
    """Decaying radial solution with unit trace on the obstacle sphere, in
    the symmetric sector.

    Integrated inward (the stable direction for the decaying branch) from
    R*, where the decaying free solution is exact, or at beta = 0 from r_flat
    (r0 without a coefficient); raises ``NearSingularError`` when the energy
    sits at a Dirichlet eigenvalue, where no unit-trace solution exists.
    """
    _require_energies(problem, potential, lam)
    ode = SectorODE(problem.with_sector(0), potential if beta else None, beta)
    v = ode.integrate(lam, ode.decay_state(lam, ode.r_star), inward=True, decays=True)
    v.normalize(problem.inner_radius)  # only the ratio to the trace matters
    if not v.peak < 1e6:
        raise NearSingularError("energy sits at a Dirichlet eigenvalue; "
                                "the unit-trace solution degenerates")
    return v


def _boundary_flux(problem: ProblemSpec, v: SectorSolution) -> float:
    """Mean boundary flux -v'(r0) of the unit-trace solution."""
    r0 = problem.inner_radius
    return -float(v.state(r0)[1]) / v.ode.coefficients(r0)[0]


def gamma1(problem: ProblemSpec, beta: float, potential: Potential, lam):
    """Mean boundary flux of the unit-trace solution, oriented to be positive
    for energies below the potential well; an array of them for a grid of
    energies.  Where ``solve_v`` steps an empty span (beta = 0 without a
    coefficient) the unit-trace solution is the decaying free one, f / f(r0),
    and a grid below 0 reads every -f'(r0) / f(r0) from one ``free_pair`` call."""
    _require_fkw(problem)
    lams, r0 = np.asarray(lam, dtype=float), problem.inner_radius
    free = SectorODE(problem.with_sector(0))  # what solve_v steps at beta = 0
    if beta or free.r_star > r0 or not lams.all():
        values = np.reshape([_boundary_flux(problem, solve_v(problem, beta, potential, float(l)))
                             for l in lams.flat], lams.shape)
    else:
        _require_energies(problem, potential, lams)
        _, f, _, df = free.free_pair(lams, r0, derivatives=True, growing=False)
        values = -df / f
    return values if lams.ndim else float(values)


def _dirichlet_resolvent(problem: ProblemSpec, beta: float, potential: Potential,
                         lam: float, f):
    """Dirichlet solve (H_beta - lambda) w = f in the problem's sector, whatever
    its effective condition, by variation of parameters on the Green pair,
    w(r) = [u_dec(r) int_{r0}^r u_reg f dm + u_reg(r) int_r^inf u_dec f dm] / C,
    as one product of a ``SectorKernel`` with generators y_reg / C and y_dec
    (the Green matrix itself) and the source times its composite Simpson
    weights.  That Simpson grid is a quadrature rule, not an ODE mesh: each
    of the sector ODE's ``pieces`` and the free piece [R*, R* + 1] takes
    ``SIMPSON_PER_UNIT`` steps per unit length or as many more as the turn
    bound needs, each step split until k h <= ``MAX_TURN``; then come 1000
    quadratically growing steps until u_dec has fallen by e^-40.  No
    source is cut, and the product stays finite and exact to rounding at any
    k = sqrt(-lambda).  Returns the mesh, w on it and gamma = -w'(r0).
    """
    forced = replace(problem, boundary_condition="dirichlet")
    pair, c = solution_pair(forced, lam, potential, beta)
    r0, k = problem.inner_radius, math.sqrt(-lam)
    ode = SectorODE(forced, potential, beta)
    r_out = ode.r_star + 1.0
    cuts, turn = np.append(ode.cuts, r_out), np.append(ode.pieces(lam)[0], 0.0)  # free: no turn
    mesh = fill(cuts, np.maximum(turn, np.ceil(np.diff(cuts) * SIMPSON_PER_UNIT)))
    parts = math.ceil(k * float(np.max(np.diff(mesh))) / MAX_TURN)  # Simpson steps per step
    if 2 * parts * mesh.size > MAX_STEPS:
        raise UnconvergedError("resolvent quadrature past the step budget",
                               details={"lambda": lam})
    ends = np.append((mesh[:-1, None] + np.diff(mesh)[:, None] * np.arange(parts) / parts)
                     .ravel(), r_out + np.linspace(0.0, 1.0, 1001) ** 2 * (40.0 / k))
    x = np.empty(2 * ends.size - 1)  # the ends of the Simpson steps, and their midpoints
    x[::2], x[1::2] = ends, 0.5 * (ends[:-1] + ends[1:])
    sixth = np.diff(ends) / 6.0  # Simpson step i: h/6 at x_2i and x_2i+2, 4h/6 at x_2i+1
    q = np.empty_like(x)
    q[::2], q[1::2] = np.append(sixth, 0.0) + np.append(0.0, sixth), 4.0 * sixth
    (y_reg, s_reg), (y_dec, s_dec) = pair(x)
    green = bs.SectorKernel(x, q * forced.measure(x), y_reg / c, y_dec, s_reg, s_dec)
    fx = np.asarray(f(x), dtype=float)
    source = green.weights * fx
    w = (green @ source)[2 * parts * np.arange(mesh.size)]  # mesh node j is x[2 parts j]
    if not float(np.max(np.abs(w))) <= 1e10 * (float(np.max(np.abs(fx))) + 1e-300):
        raise NearSingularError("resolvent solve near-singular at this energy")
    # gamma = -u_reg'(r0) int u_dec f dm / C, u_reg'(r0) / C from the Wronskian
    # p (u_dec u_reg' - u_dec' u_reg) m / w = C
    p0, _, w0 = ode.coefficients(r0)
    gamma = (-w0 * np.dot(y_dec * np.exp(s_dec - s_dec[0]), source)
             / (forced.measure(r0) * p0 * y_dec[0]))
    return mesh, w, float(gamma)


def solve_fkw(problem: ProblemSpec, beta: float, potential: Potential, lam: float,
              f: dict) -> FkwSolution:
    """Solve (H_beta - lambda) u = f under the constant-trace/zero-flux pair.

    ``f`` maps sector indices to radial source callables.  The symmetric
    sector combines the Dirichlet resolvent with the unit-trace solution so
    both boundary conditions hold; higher sectors are pure Dirichlet solves.
    Profiles run over [r0, R* + 1]; the whole source enters them, its tail
    past R* + 1 included.
    """
    _require_fkw(problem)
    if lam >= 0:
        raise ValidationError("source problems are solved below the continuous spectrum")
    v = solve_v(problem, beta, potential, lam)
    g1 = _boundary_flux(problem, v)
    sector_profiles = {}
    alpha = gamma = 0.0
    for l in sorted(l for l in f if f[l] is not None):
        mesh, w, flux = _dirichlet_resolvent(problem.with_sector(l), beta, potential,
                                             lam, f[l])
        if l == 0:
            if abs(g1) < GAMMA1_TOL * max(1.0, abs(flux)):
                raise NearSingularError(
                    "zero-mean-flux constant is degenerate (gamma1 ~ 0): "
                    "the energy is too close to an eigenvalue of the nonlocal problem")
            gamma, alpha = flux, -flux / g1
            w = alpha * v(mesh) + w
        sector_profiles[l] = (mesh, w)
    r_out = SectorODE(problem, potential).r_star + 1.0  # the well's, whatever v stepped
    if not sector_profiles:
        sector_profiles[0] = (np.array([problem.inner_radius, r_out]), np.zeros(2))
    return FkwSolution(alpha=float(alpha), gamma=float(gamma), gamma1=float(g1),
                       lam=lam, sector_profiles=sector_profiles,
                       meta={"r_out": r_out, "beta": beta,
                             "flux_orientation": "toward the obstacle"})


def fkw_norm_limit(problem: ProblemSpec, potential: Potential, lambda_grid=None,
                   m: int = bs.DEFAULT_M, sector_max: int = DEFAULT_SECTOR_MAX) -> dict:
    """Classify the sandwiched-resolvent norm per sector as lambda -> 0-.

    Sector 0 carries the Neumann-type reduction of the nonlocal condition,
    higher sectors are Dirichlet; ``bs.norm_limit`` checks each sector's tail
    against its verdict by the rule and combines the verdicts.
    """
    _require_fkw(problem)
    if lambda_grid is None:
        lambda_grid = bs.default_lambda_grid((2, 8))
    return bs.norm_limit(problem, potential,
                         range(_top_sector(problem, sector_max) + 1),
                         lambda_grid, m)


def beta_critical_fkw(problem: ProblemSpec, potential: Potential,
                      m: int = bs.DEFAULT_M, sector_max: int = DEFAULT_SECTOR_MAX):
    """Coupling threshold for the nonlocal condition (uniform measure).

    ``bs.beta_critical`` ('auto') over the sector family, with no energy
    sweep: 0.0 where the symmetric sector's limit kernel diverges (d <= 2),
    1/mu* of the zero-energy kernels otherwise, None without bound states.
    A positive threshold must agree with the direct eigenvalue sweep to 1%,
    or ``MethodDisagreement`` is raised.
    """
    _require_fkw(problem)
    require_valid(problem, potential)
    value = bs.beta_critical(problem, potential, m=m,
                             sector_max=_top_sector(problem, sector_max))
    if not value:  # every coupling binds (0.0), or none does (None)
        return value
    direct = beta_critical_direct(problem, potential)
    if isinstance(direct, float) and abs(direct - value) > 1e-2 * max(value, direct):
        raise MethodDisagreement(
            f"kernel and direct thresholds disagree: {value:.6g} vs {direct:.6g}",
            values={"kernel": value, "direct": direct})
    return value
