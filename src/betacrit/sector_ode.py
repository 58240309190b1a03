"""The radial equation of one angular sector, and its only propagator.

In sector l of a d-dimensional problem every route solves

    -(p u')' + q u = lambda w u,   p = a r^{d-1},  w = r^{d-1},
    q = a l(l+d-2) r^{d-3} - beta V w,

with the diffusion coefficient a(r) and the potential V.  ``SectorODE`` is
the only code that knows p, q and w, the first-order form y' = A y of the
equation for y = (u, p u'), the decaying free solution past the closure
radius R*, and how to step across the kinks of V and a.  ``SectorSolution``
is the only reader of what it integrates.

A step of length h is the fourth-order Magnus propagator on two Gauss points
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009), y -> exp(Omega) y
with Omega = h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1].  For
A = [[0, 1/p], [q - lambda w, 0]] the commutator is diagonal and Omega
traceless, so Omega^2 = D I and exp(Omega) = cos t + sin(t)/t Omega for
D = -t^2 (a step turning the state by about t) or cosh t + sinh(t)/t Omega
for D = t^2 (a growing step, kept divided by e^t).  Where p, q and w are
constant the step is exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnconvergedError
from .model import Potential, ProblemSpec

STEPS_PER_UNIT = 1000  # fewest steps per unit length where p, q or w varies
MAX_TURN = 0.25        # most an oscillating step may turn the state, in radians
MAX_STEPS = 2 ** 18    # most steps of one integration
GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def closure_radius(problem: ProblemSpec, potential: Potential) -> float:
    """R* = max(support hi of V, r_flat, r_in).

    Past R* the potential vanishes and a == 1, so the sector equation is the
    free one and ``SectorODE.decay_state`` closes it exactly.
    """
    return max(potential.support[1], problem.flat_radius())


def _gap(r: float) -> float:
    """Shortest piece of the mesh: closer samples are one cut."""
    return 1e-12 * max(1.0, abs(r))


def fill(cuts: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Nodes with ``steps[i]`` uniform steps from cuts[i] to cuts[i + 1]."""
    steps = steps.astype(np.int64)
    piece = np.repeat(np.arange(steps.size), steps)
    j = np.arange(piece.size) - np.repeat(np.cumsum(steps) - steps, steps)
    r = cuts[piece] + (cuts[piece + 1] - cuts[piece]) * (j / steps[piece])
    return np.append(r, cuts[-1])


class SectorSolution:
    """One integration of the sector equation at energy ``lam``.

    At each node of the mesh ``r``, in the order stepped, the state
    (u, p u') is ``y`` e^``log``, y of unit 1-norm until ``normalize``;
    between nodes it is a partial step from the node before, and below the
    span 0.  Past the outer end only a solution that ``decays`` there (one
    started from ``decay_state``, or an eigenfunction) continues, as the
    decaying free solution in closed form; any other raises ``ValueError``.
    """

    def __init__(self, ode: "SectorODE", lam: float, cuts, r, y, log, decays: bool):
        self.ode, self.lam, self.decays = ode, lam, decays
        self.cuts, self.r, self.y, self.log = cuts, r, y, log
        self.span = (min(r[0], r[-1]), max(r[0], r[-1]))
        self._sign = 1.0 if r[-1] >= r[0] else -1.0  # self._sign * r ascends

    def normalize(self, r: float) -> None:
        """Divide the solution by u(r), apart from its log-scale, so that
        ratios stay finite where u itself would overflow."""
        (u, _), (s,) = self.log_state(np.array([float(r)]))
        with np.errstate(divide="ignore", invalid="ignore"):
            self.y, self.log = self.y / u, self.log - s

    @property
    def peak(self) -> float:
        """Largest |u| at the nodes."""
        return float(np.max(np.abs(self.y[0]) * np.exp(self.log)))

    @property
    def angle(self) -> float:
        """Pruefer angle atan2(u, p u') at the end, carried from the start:
        no step turns the state by pi, so each adds its principal change."""
        theta = np.arctan2(self.y[0], self.y[1])
        turn = np.diff(theta)
        turn -= 2.0 * math.pi * np.round(turn / (2.0 * math.pi))
        return float(theta[0] + turn.sum())

    def log_state(self, r):
        """(y, s) at the radii r, with the state (u, p u') equal to y e^s."""
        r = np.asarray(r, dtype=float)
        y = np.zeros((2,) + r.shape)
        s = np.full(r.shape, -math.inf)
        lo, hi = self.span
        tail = r > hi
        if tail.any():
            if not self.decays:
                raise ValueError("no decaying tail past the end of this solution")
            outer = 0 if self.r[0] == hi else -1
            u = self.y[0, outer] * self.ode.decay_ratio(self.lam, r[tail], hi)
            y[:, tail] = u, u * self.ode.decay_state(self.lam, r[tail])[1]
            s[tail] = self.log[outer]
        inside = (r >= lo - 1e-12) & ~tail
        if inside.any():
            x = np.clip(r[inside], lo, hi)
            i = np.searchsorted(self._sign * self.r, self._sign * x, side="right") - 1
            m, growth = self.ode.propagators(self.lam, self.r[i], x - self.r[i])
            u, v = self.y[:, i]
            y[:, inside] = m[0] * u + m[1] * v, m[2] * u + m[3] * v
            s[inside] = self.log[i] + growth
        return y, s

    def state(self, r) -> np.ndarray:
        """(u, p u') at the radii r, stacked along the first axis."""
        y, s = self.log_state(r)
        return y * np.exp(s)

    def __call__(self, r):
        return self.state(r)[0]

    def sample(self, points):
        """(r, u, p u') on each piece between cuts, in the order integrated,
        at the radii ``points(start, end)`` of that piece."""
        rs = [points(a, b) for a, b in zip(self.cuts[:-1], self.cuts[1:])]
        u, v = self.state(np.concatenate(rs))
        bounds = np.cumsum([r.size for r in rs])[:-1]
        return list(zip(rs, np.split(u, bounds), np.split(v, bounds)))


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
        kinks = sorted(kinks)  # near-repeated samples make one cut
        self._kinks = [c for b, c in zip([-math.inf] + kinks, kinks) if c - b > _gap(c)]

    def coefficients(self, r):
        """(p, q, w) at r, a float or an array."""
        d = self.dimension
        w = r ** (d - 1)
        a = 1.0 if self.problem.coefficient is None else self.problem.coefficient(r)
        q = a * self._cent * r ** (d - 3) if self._cent else 0.0
        if self.potential is not None:
            q = q - self.beta * self.potential(r) * w
        return a * w, q, w

    def regular_state(self) -> tuple[float, float]:
        """(u, p u') meeting the sector's boundary condition on the obstacle."""
        return (0.0, 1.0) if self.bc == "dirichlet" else (1.0, 0.0)

    def decay_state(self, lam: float, r: float) -> tuple[float, float]:
        """(u, p u') of the decaying free solution at a radius past the well.

        At lambda = 0 the bounded solution takes over, r^{-(l+d-2)} when that
        decays and a constant otherwise.
        """
        d, l, k = self.dimension, self.sector, math.sqrt(-lam)
        if lam == 0:
            log_derivative = -max(l + d - 2, 0) / r
        elif d == 1:  # e^{-kr}: the line has no centrifugal term
            log_derivative = -k
        else:
            from scipy.special import kve
            log_derivative = l / r - k * kve(self._nu + 1.0, k * r) / kve(self._nu, k * r)
        return 1.0, self.coefficients(r)[0] * log_derivative

    def decay_ratio(self, lam: float, r, r0: float):
        """u(r) / u(r0) along the decaying free solution r^{1-d/2} K_nu(k r),
        for r, r0 past the well; at lambda = 0 along the bounded one of
        ``decay_state``."""
        if lam == 0:
            return (r / r0) ** -max(self.sector + self.dimension - 2, 0)
        from scipy.special import kve
        k = math.sqrt(-lam)
        return ((r / r0) ** (1.0 - 0.5 * self.dimension) * np.exp(-k * (r - r0))
                * kve(self._nu, k * r) / kve(self._nu, k * r0))

    def segment_points(self, r_in: float, r_out: float) -> list[float]:
        """[r_in, r_out] cut at every sample of V and of a, and at r_flat,
        ascending; samples within ``_gap`` of r_in or r_out are dropped."""
        return [r_in] + [c for c in self._kinks
                         if r_in + _gap(c) < c < r_out - _gap(c)] + [r_out]

    def pieces(self, lam: float, r_in: float, r_out: float):
        """(cuts, turn, exact): the ``segment_points`` of [r_in, r_out], and
        for each piece between them the fewest uniform steps that keep every
        turn at or below ``MAX_TURN`` at the local wavenumber
        sqrt((lambda w - q) / p), and whether p, q and w are constant, so
        that one step is exact.  Both are read just inside the two ends of
        the piece, where V and a are linear."""
        cuts = np.array(self.segment_points(r_in, r_out))
        width = np.diff(cuts)
        p, q, w = (c.reshape(2, -1) for c in np.broadcast_arrays(*self.coefficients(
            np.concatenate([cuts[:-1] + 1e-9 * width, cuts[1:] - 1e-9 * width]))))
        wave = np.sqrt(np.maximum(lam * w - q, 0.0) / p).max(axis=0)
        exact = (p[0] == p[1]) & (q[0] == q[1]) & (w[0] == w[1])
        return cuts, np.ceil(width * (wave / MAX_TURN)), exact

    def mesh(self, lam: float, r_in: float, r_out: float) -> np.ndarray:
        """Ascending nodes: each of the ``pieces`` filled with uniform steps,
        as many as its turn needs and at least one, and where p, q or w
        varies at least ``STEPS_PER_UNIT`` per unit length.  A step that does
        not oscillate turns the state by less than pi however long it is (the
        Pruefer angle cannot cross k pi downward or k pi + pi/2 upward), as
        ``SectorSolution.angle`` needs.  Past ``MAX_STEPS`` steps the mesh
        raises ``UnconvergedError``."""
        cuts, turn, exact = self.pieces(lam, r_in, r_out)
        floor = np.where(exact, 1.0, np.ceil(np.diff(cuts) * STEPS_PER_UNIT))
        steps = np.maximum(turn, floor)
        if not steps.sum() <= MAX_STEPS:
            raise UnconvergedError("sector ODE needs more steps than one integration takes",
                                   details={"segment": [r_in, r_out], "lambda": lam,
                                            "steps": float(steps.sum())})
        return fill(cuts, steps)

    def propagators(self, lam: float, r, h):
        """Magnus steps from the radii r over the lengths h: (m, g), with the
        entries m00, m01, m10, m11 of exp(Omega) e^{-g} along the first axis
        and the growth g >= 0 taken out."""
        p, q, w = self.coefficients(np.concatenate([r + GAUSS[0] * h, r + GAUSS[1] * h]))
        a1, a2 = np.split(1.0 / p, 2)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            b1, b2 = np.split(q - lam * w, 2)  # integrate() checks what overflows
            diag = math.sqrt(3.0) / 12.0 * h * h * (a2 * b1 - a1 * b2)
            up, low = 0.5 * h * (a1 + a2), 0.5 * h * (b1 + b2)
            disc = diag * diag + up * low
            grows, t = disc > 0.0, np.sqrt(np.abs(disc))
            c = np.where(grows, 0.5 + 0.5 * np.exp(-2.0 * t), np.cos(t))
            s = np.where(grows, -0.5 * np.expm1(-2.0 * t) / t, np.sinc(t / math.pi))
            m = np.array([c + s * diag, s * up, s * low, c - s * diag])
        return m, np.where(grows, t, 0.0)

    def integrate(self, lam: float, y, start: float, end: float, *,
                  decays: bool = False) -> SectorSolution:
        """Step from state ``y`` at ``start`` to ``end``, either way, on the
        ``mesh`` of the span, scaling the state to unit 1-norm after every
        step and keeping the logarithm of the scale apart.  With ``decays``
        the solution continues past its outer end as the decaying free
        solution.  A state that is not finite raises ``UnconvergedError``.
        """
        r = self.mesh(lam, min(start, end), max(start, end))
        cuts = self.segment_points(min(start, end), max(start, end))
        if start > end:
            r, cuts = r[::-1], cuts[::-1]
        m, growth = self.propagators(lam, r[:-1], np.diff(r))
        u, v = float(y[0]), float(y[1])
        size = abs(u) + abs(v)
        u, v = u / size, v / size
        steps = [u, v, size]
        for m00, m01, m10, m11 in zip(*m.tolist()):
            u, v = m00 * u + m01 * v, m10 * u + m11 * v
            size = abs(u) + abs(v)
            u /= size
            v /= size
            steps += u, v, size
        states, sizes = np.split(np.array(steps).reshape(-1, 3).T, [2])
        with np.errstate(divide="ignore", invalid="ignore"):
            log = np.cumsum(np.log(sizes[0]) + np.append(0.0, growth))
        if not (np.isfinite(states).all() and np.isfinite(log[-1])):
            raise UnconvergedError("sector ODE integration failed",
                                   details={"segment": [start, end], "lambda": lam})
        return SectorSolution(self, lam, cuts, r, states, log, decays)
