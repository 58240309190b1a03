"""The radial equation of one angular sector, and its only integrator.

In sector l of a d-dimensional problem every route solves

    -(p u')' + q u = lambda w u,   p = a r^{d-1},  w = r^{d-1},
    q = a l(l+d-2) r^{d-3} - beta V w,

with the diffusion coefficient a(r) and the potential V.  ``SectorODE`` is
the only code that knows p, q and w, the first-order (u, p u') and Pruefer
forms of the equation, the decaying free solution past the closure radius
R*, and how to integrate across the kinks of V and a.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import kve

from .errors import UnconvergedError
from .model import Potential, ProblemSpec


def closure_radius(problem: ProblemSpec, potential: Potential) -> float:
    """R* = max(support hi of V, r_flat, r_in).

    Past R* the potential vanishes and a == 1, so the sector equation is the
    free one and ``SectorODE.decay_state`` closes it exactly.
    """
    return max(potential.support[1], problem.flat_radius())


class Segment(NamedTuple):
    """One integrated piece: the true state on it is ``sol`` times ``scale``."""

    start: float
    end: float
    sol: object
    scale: float


class SectorODE:
    """Sector equation of ``problem`` at coupling ``beta`` to ``potential``.

    ``sector`` defaults to the problem's own.  Without a coefficient (a == 1)
    or without a potential that term is never evaluated.
    """

    def __init__(self, problem: ProblemSpec, potential: Potential | None = None,
                 beta: float = 0.0, sector: int | None = None):
        self.problem = problem
        self.potential = potential
        self.beta = beta
        self.sector = problem.sector if sector is None else sector
        self.dimension = problem.dimension
        self.bc = problem.effective_bc(self.sector)
        self._cent = self.sector * (self.sector + self.dimension - 2)
        self._nu = self.sector + 0.5 * self.dimension - 1.0

    def coefficients(self, r):
        """(p, q, w) at r, a float or an array; a float never touches numpy."""
        array = isinstance(r, np.ndarray)
        if not array:
            r = float(r)
        d = self.dimension
        w = r ** (d - 1)
        coefficient = self.problem.coefficient
        if coefficient is None:
            a = 1.0
        else:
            a = coefficient(r) if array else coefficient.at(r)
        q = a * self._cent * r ** (d - 3) if self._cent else 0.0
        if self.potential is not None:
            v = self.potential(r) if array else self.potential.at(r)
            q = q - self.beta * v * w
        return a * w, q, w

    def rhs(self, lam: float):
        """Right-hand side of the first-order system for (u, p u')."""
        coefficients = self.coefficients

        def rhs(r, y):
            p, q, w = coefficients(r)
            return [y[1] / p, (q - lam * w) * y[0]]

        return rhs

    def prufer_rhs(self, lam: float):
        """Right-hand side for the Pruefer angle theta of (u, p u') = rho (sin, cos)."""
        coefficients = self.coefficients

        def rhs(r, y):
            p, q, w = coefficients(r)
            s, c = math.sin(y[0]), math.cos(y[0])
            return [c * c / p + (lam * w - q) * s * s]

        return rhs

    def regular_state(self) -> tuple[float, float]:
        """(u, p u') meeting the sector's boundary condition on the obstacle."""
        return (0.0, 1.0) if self.bc == "dirichlet" else (1.0, 0.0)

    def decay_state(self, lam: float, r: float) -> tuple[float, float]:
        """(u, p u') of the decaying free solution at a radius past the well.

        At lambda = 0 the bounded solution takes over, r^{-(l+d-2)} when that
        decays and a constant otherwise.
        """
        d, l = self.dimension, self.sector
        if lam == 0:
            log_derivative = -max(l + d - 2, 0) / r
        else:
            k = math.sqrt(-lam)
            z = k * r
            log_derivative = l / r - k * kve(self._nu + 1.0, z) / kve(self._nu, z)
        return 1.0, self.coefficients(r)[0] * log_derivative

    def decay_ratio(self, lam: float, r, r0: float):
        """u(r) / u(r0) along the decaying free solution r^{1-d/2} K_nu(k r),
        for r, r0 past the well; at lambda = 0 along the bounded one of
        ``decay_state``."""
        if lam == 0:
            return (r / r0) ** -max(self.sector + self.dimension - 2, 0)
        k = math.sqrt(-lam)
        return ((r / r0) ** (1.0 - 0.5 * self.dimension) * np.exp(-k * (r - r0))
                * kve(self._nu, k * r) / kve(self._nu, k * r0))

    def segment_points(self, r_in: float, r_out: float) -> list[float]:
        """[r_in, r_out] cut at the support edges of V and at r_flat, ascending."""
        cuts = {r_in, r_out}
        inner = [self.problem.flat_radius()]
        if self.potential is not None:
            inner += self.potential.support
        cuts.update(float(c) for c in inner if r_in < c < r_out)
        return sorted(cuts)

    def integrate(self, lam: float, y, start: float, end: float, *,
                  prufer: bool = False, t_eval=None, rescale: bool = False,
                  **options):
        """Integrate from state ``y`` at ``start`` to ``end``, either direction.

        Each piece between consecutive ``segment_points`` is one RK45 solve,
        with the step capped at an eighth of the support width inside it.
        ``t_eval(a, b)`` gives a piece's output radii; with ``rescale`` the
        state restarts each piece divided by its largest component.  Other
        ``options`` go to ``solve_ivp``.  Returns the pieces as ``Segment``
        records, and the final state with its scale.  A failed solve raises
        ``UnconvergedError``.
        """
        rhs = self.prufer_rhs(lam) if prufer else self.rhs(lam)
        points = self.segment_points(min(start, end), max(start, end))
        if start > end:
            points.reverse()
        support = None if self.potential is None else self.potential.support
        scale = 1.0
        pieces = []
        for a0, b0 in zip(points[:-1], points[1:]):
            max_step = abs(b0 - a0)
            if (support is not None and min(a0, b0) >= support[0] - 1e-15
                    and max(a0, b0) <= support[1] + 1e-15):
                max_step = min(max_step, max(support[1] - support[0], 1e-6) / 8)
            with np.errstate(over="ignore", invalid="ignore"):
                sol = solve_ivp(rhs, (a0, b0), y, max_step=max_step,
                                t_eval=None if t_eval is None else t_eval(a0, b0),
                                **options)
            if not (sol.success and np.isfinite(sol.y).all()):
                raise UnconvergedError(
                    "sector ODE integration failed",
                    details={"segment": [float(a0), float(b0)], "lambda": lam,
                             "solver": sol.message})
            pieces.append(Segment(a0, b0, sol, scale))
            y = sol.y[:, -1]
            if rescale:
                mag = max(abs(y[0]), abs(y[1]), 1e-300)
                scale *= mag
                y = y / mag
        return pieces, y, scale
