"""The radial equation of one angular sector, and its only integrator.

In sector l of a d-dimensional problem every route solves

    -(p u')' + q u = lambda w u,   p = a r^{d-1},  w = r^{d-1},
    q = a l(l+d-2) r^{d-3} - beta V w,

with the diffusion coefficient a(r) and the potential V.  ``SectorODE`` is
the only code that knows p, q and w, the first-order (u, p u') and Pruefer
forms of the equation, the decaying free solution past the closure radius
R*, and how to integrate across the kinks of V and a.  ``SectorSolution``
is the only reader of what it integrates.
"""

from __future__ import annotations

import math

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


def _gap(r: float) -> float:
    """Shortest piece the integrator is given: far above RK45's 10 ulps."""
    return 1e-12 * max(1.0, abs(r))


class SectorSolution:
    """One integration of the sector equation at energy ``lam``.

    Inside its span the state (u, p u') is each piece's dense output times
    the piece's scale; below the inner end it is 0.  Past the outer end only
    a solution that ``decays`` there (one started from ``decay_state``, or
    an eigenfunction) continues, as the decaying free solution in closed
    form; reading any other past its end raises ``ValueError``.  ``end`` is
    the true state where the integration stopped and ``peak`` the largest
    |u| it passed.  Values read through ``state``, ``sample`` and calling
    are divided by ``norm`` (1 unless a caller sets it).  An integration
    without dense output gives only ``end`` and ``peak``.
    """

    def __init__(self, ode: "SectorODE", lam: float, pieces, end, decays: bool):
        self.ode, self.lam, self.end, self.norm, self.decays = ode, lam, end, 1.0, decays
        self._pieces = pieces  # (start, end, solve_ivp result, scale), in order
        start, stop = pieces[0][0], pieces[-1][1]
        self.span = (min(start, stop), max(start, stop))
        self._outer = pieces[0][2].y[:, 0] if start > stop else end

    @property
    def peak(self) -> float:
        return max(abs(scale) * float(np.max(np.abs(sol.y[0])))
                   for _, _, sol, scale in self._pieces)

    def state(self, r) -> np.ndarray:
        """(u, p u') at the radii r, stacked along the first axis."""
        r = np.asarray(r, dtype=float)
        out = np.zeros((2,) + r.shape)
        lo, hi = self.span
        tail = r > hi
        if tail.any():
            if not self.decays:
                raise ValueError("no decaying tail past the end of this solution")
            u = self._outer[0] * self.ode.decay_ratio(self.lam, r[tail], hi)
            out[0, tail] = u
            out[1, tail] = u * self.ode.decay_state(self.lam, r[tail])[1]
        for start, stop, sol, scale in self._pieces:
            a, b = min(start, stop), max(start, stop)
            mask = (r >= a - 1e-12) & (r <= b + 1e-12) & ~tail
            if mask.any():
                out[:, mask] = sol.sol(np.clip(r[mask], a, b)) * scale
        return out / self.norm

    def __call__(self, r):
        return self.state(r)[0]

    def derivative(self, r):
        """p(r) u'(r) along the solution."""
        return self.state(r)[1]

    def sample(self, points):
        """(r, u, p u') on each piece, at the radii ``points(start, end)`` of
        that piece, each read from the piece's own dense output."""
        return [(r, *(sol.sol(r) * scale / self.norm))
                for start, stop, sol, scale in self._pieces
                for r in (points(start, stop),)]


class SectorODE:
    """Sector equation of ``problem`` at coupling ``beta`` to ``potential``,
    in the problem's own sector.

    Without a coefficient (a == 1) or without a potential that term is never
    evaluated.
    """

    def __init__(self, problem: ProblemSpec, potential: Potential | None = None,
                 beta: float = 0.0):
        self.problem, self.potential, self.beta = problem, potential, beta
        self.sector, self.dimension = problem.sector, problem.dimension
        self.bc = problem.effective_bc()
        self._cent = self.sector * (self.sector + self.dimension - 2)
        self._nu = self.sector + 0.5 * self.dimension - 1.0
        kinks = {problem.flat_radius()}  # a and V are smooth between samples
        if problem.coefficient is not None:  # sampled up to r_flat at most
            kinks.update(problem.coefficient.profile.xs.tolist())
        if potential is not None:
            kinks.update(potential.profile.xs.tolist())
        kinks = sorted(kinks)  # RK45 cannot step across a few ulps: drop near-repeats
        self._kinks = [c for b, c in zip([-math.inf] + kinks, kinks) if c - b > _gap(c)]

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
        """[r_in, r_out] cut at every sample of V and of a, and at r_flat,
        ascending; samples within ``_gap`` of r_in or r_out are dropped."""
        return [r_in] + [c for c in self._kinks
                         if r_in + _gap(c) < c < r_out - _gap(c)] + [r_out]

    def integrate(self, lam: float, y, start: float, end: float, *,
                  prufer: bool = False, rescale: bool = False, decays: bool = False,
                  dense_output: bool = True, **options) -> SectorSolution:
        """Integrate from state ``y`` at ``start`` to ``end``, either direction.

        Each piece between consecutive ``segment_points`` is one RK45 solve,
        with the step capped at an eighth of the support width inside it.
        With ``rescale`` the state restarts each piece divided by its largest
        component; with ``decays`` the solution continues past its outer end
        as the decaying free solution.  Other ``options`` go to ``solve_ivp``.
        A Pruefer integration (``prufer``) gives the angle alone; read only
        its ``end``.  A failed solve raises ``UnconvergedError``.
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
                                dense_output=dense_output, **options)
            if not (sol.success and np.isfinite(sol.y).all()):
                raise UnconvergedError(
                    "sector ODE integration failed",
                    details={"segment": [float(a0), float(b0)], "lambda": lam,
                             "solver": sol.message})
            pieces.append((a0, b0, sol, scale))
            y = sol.y[:, -1]
            if rescale:
                mag = max(abs(y[0]), abs(y[1]), 1e-300)
                scale *= mag
                y = y / mag
        return SectorSolution(self, lam, pieces, y * scale, decays)
