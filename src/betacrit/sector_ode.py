"""The radial equation of one angular sector, and its only propagator.

In sector l of a d-dimensional problem every route solves

    -(p u')' + q u = lambda w u,   p = a r^{d-1},  w = r^{d-1},
    q = a l(l+d-2) r^{d-3} - beta V w,

with the diffusion coefficient a(r) and the potential V.  ``SectorODE`` is
the only code that knows p, q and w, the first-order form y' = A y of the
equation for y = (u, p u'), how to step across the kinks of V and a, and the
free solutions past the closure radius R* (``free_pair``, which the Green
functions read).  It reads the span [r_in, R*] and the well on it once; a
shot at another coupling, or a count's batch of sectors, steps a copy of the
same well (``SectorODE._with``).  ``SectorSolution`` is the only reader of
what it integrates.

A step of length h is the fourth-order Magnus propagator on two Gauss points
(Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009), y -> exp(Omega) y
with Omega = h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1].  For
A = [[0, 1/p], [q - lambda w, 0]] the commutator is diagonal and Omega
traceless, so Omega^2 = D I and exp(Omega) = cos t + sin(t)/t Omega for
D = -t^2 (a step turning the state by about t) or cosh t + sinh(t)/t Omega
for D = t^2 (a growing step, kept divided by e^t).  Where p, q and w are
constant the step is exact, and so is ``free_step`` where V = 0 and a == 1.
``SectorODE.mesh``, scaled to the well, is the one rule for where a solve steps.

``ZeroEnergyAngle`` steps all sectors of a chunk together on one mesh at
lambda = 0, for ``direct_spectrum.count_negative`` to read the number of
negative eigenvalues off (Sturm oscillation; Pryce 1993, as in SLEDGE and
MATSLISE).
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import UnconvergedError
from .model import Potential, ProblemSpec

MAX_TURN = 0.25        # most an oscillating step may turn the state, in radians,
                       # and a count's step may grow a sector that can bind, in e-folds
MAX_STEPS = 2 ** 18    # most steps of one integration
WELL_STEPS = 1000      # fewest steps across the stepped span where p, q or w varies
GUARD = 0.05           # radians from a crossing where a count checks a sector's read
GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _gap(r: float) -> float:
    """Shortest piece of the mesh: closer samples are one cut."""
    return 1e-12 * max(1.0, abs(r))


def _regular(bc: str) -> tuple[float, float]:
    """(u, p u') meeting the boundary condition ``bc`` on the obstacle."""
    return (0.0, 1.0) if bc == "dirichlet" else (1.0, 0.0)


def fill(cuts: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Nodes with ``steps[i]`` uniform steps from cuts[i] to cuts[i + 1]."""
    steps = steps.astype(np.int64)
    piece = np.repeat(np.arange(steps.size), steps)
    j = np.arange(piece.size) - np.repeat(np.cumsum(steps) - steps, steps)
    r = cuts[piece] + (cuts[piece + 1] - cuts[piece]) * (j / steps[piece])
    return np.append(r, cuts[-1])


def walk(steps, u, v) -> np.ndarray:
    """(u, v, size) along the first axis, at the start and after each of
    ``steps`` (rows m00, m01, m10, m11 of floats or of arrays): the state is
    scaled to unit 1-norm after every step, and size is the 1-norm it had
    before."""
    size = abs(u) + abs(v)
    u, v = u / size, v / size
    states = [u, v, size]
    for m00, m01, m10, m11 in steps:
        u, v = m00 * u + m01 * v, m10 * u + m11 * v
        size = abs(u) + abs(v)
        u, v = u / size, v / size
        states += u, v, size
    return np.array(states).reshape((-1, 3) + np.shape(u))


def pruefer_angle(u, v, axis: int = -1):
    """Pruefer angle atan2(u, v) at the last node along ``axis``, carried
    from the first: no step turns the state by pi, so each adds its
    principal change."""
    theta = np.arctan2(u, v)
    turn = np.diff(theta, axis=axis)
    return np.take(theta, 0, axis=axis) + (turn - 2.0 * math.pi * np.round(
        turn / (2.0 * math.pi))).sum(axis=axis)


class SectorSolution:
    """One integration of the sector equation at energy ``lam``.

    At each node of the mesh ``r``, in the order stepped, the state
    (u, p u') is ``y`` e^``log``, y of unit 1-norm until ``normalize``;
    between nodes it is a partial step from the node before, and below the
    span 0.  Past the outer end only a solution that ``decays`` there (one
    started from ``decay_state``, or an eigenfunction) continues, as the
    decaying free solution in closed form; any other raises ``ValueError``.
    """

    def __init__(self, ode: "SectorODE", lam: float, r, y, log, decays: bool):
        self.ode, self.lam, self.decays, self.slope = ode, lam, decays, None
        self.r, self.y, self.log, self.span = r, y, log, (ode.cuts[0], ode.r_star)
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
        """Pruefer angle atan2(u, p u') at the end, carried from the start."""
        return float(pruefer_angle(self.y[0], self.y[1]))

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
            _, f, _, df = self.ode.free_pair(self.lam, np.append(hi, r[tail]),
                                             derivatives=True, growing=False)
            u = self.y[0, outer] / f[0]
            y[:, tail] = u * f[1:], u * self.ode.coefficients(r[tail])[0] * df[1:]
            s[tail] = self.log[outer] - math.sqrt(-self.lam) * (r[tail] - hi)
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
        cuts = self.ode.cuts[::int(self._sign)]
        rs = [points(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        u, v = self.state(np.concatenate(rs))
        bounds = np.cumsum([r.size for r in rs])[:-1]
        return list(zip(rs, np.split(u, bounds), np.split(v, bounds)))


class SectorODE:
    """Sector equation of ``problem`` at coupling ``beta`` to ``potential``,
    in the problem's own sector, on its span [r_in, R*].

    Past ``r_star`` = R* = max(support hi of V, r_flat, r_in) V = 0 and
    a == 1, so ``decay_state`` closes the equation exactly.  ``cuts`` cut the
    span at every sample of V and of a and at r_flat; samples within ``_gap``
    of each other or of an end make one cut.  A missing coefficient (a == 1)
    or potential is never evaluated.
    """

    def __init__(self, problem: ProblemSpec, potential: Potential | None = None,
                 beta: float = 0.0):
        self.problem, self.potential, self.beta = problem, potential, beta
        self.dimension, self.bc = problem.dimension, problem.effective_bc()
        self._set_sector(problem.sector)
        r_in, a = problem.inner_radius, problem.coefficient  # a == 1 past r_flat
        r_flat = r_in if a is None else max(r_in, a.r_flat)
        lo, r_star = (r_flat, r_flat) if potential is None else (  # V = 0, a == 1 on [r_flat, lo]
            max(potential.support[0], r_flat), max(potential.support[1], r_flat))
        self.r_star, self._free = r_star, (r_flat, lo, r_star)
        self._density = WELL_STEPS / ((r_flat - r_in) + (r_star - lo) or 1.0)  # the floor
        cuts, width = np.array([r_in, r_star]), np.empty(0)  # an empty span has no piece
        if r_star > r_in:  # cut it, and read the well just inside both ends of each piece
            samples = (f.profile.xs.tolist() for f in (a, potential) if f is not None)
            kinks = sorted({r_flat}.union(*samples))  # a and V are smooth between samples
            inside = [c for b, c in zip([-math.inf] + kinks, kinks)  # near repeats make one cut
                      if r_in + _gap(c) < c < r_star - _gap(c) and c - b > _gap(c)]
            cuts = np.array([r_in] + inside + [r_star])
            width = cuts[1:] - cuts[:-1]
        self.cuts, self._width = cuts, width  # so an empty span's mesh is its one node
        ends = np.array([cuts[:-1] + 1e-9 * width, cuts[1:] - 1e-9 * width])
        self._ends = self._read(ends, self.dimension > 1)

    def _set_sector(self, sector) -> None:
        self.sector, self._cent = sector, sector * (sector + self.dimension - 2)
        self._nu, self._spins = sector + self.dimension / 2 - 1, np.count_nonzero(self._cent) > 0

    def _with(self, beta: float | None = None, sectors=None) -> "SectorODE":
        """This equation on the same well and its reads, at coupling ``beta`` or
        in every one of ``sectors`` at once, as a column: coefficients, propagators,
        ``free_step`` and the zero-energy ``decay_state`` carry a row per sector."""
        other = copy.copy(self)
        if beta is not None:
            other.beta = beta
        if sectors is not None:
            other._set_sector(np.asarray(sectors)[:, None])
        return other

    def coefficients(self, r):
        """(p, q, w) at r, a float or an array."""
        return self._equation(*self._read(r, self._spins))

    def _read(self, r, cent: bool):
        """(a, V, w, r^{d-3}) at r, what the equation reads of the well: V is
        None without a potential, r^{d-3} read only with ``cent`` (l(l+d-2) > 0)."""
        d, a = self.dimension, self.problem.coefficient
        return (1.0 if a is None else a(r), None if self.potential is None else self.potential(r),
                r ** (d - 1), r ** (d - 3) if cent else 0.0)

    def _equation(self, a, v, w, r3):
        q = a * self._cent * r3 if self._spins else 0.0 * self._cent
        if v is not None:
            q = q - self.beta * v * w
        return a * w, q, w

    def regular_state(self) -> tuple[float, float]:
        """(u, p u') meeting the sector's boundary condition on the obstacle."""
        return _regular(self.bc)

    def free_pair(self, lam: float, r, derivatives: bool = False, growing: bool = True):
        """Free solutions (V = 0, a = 1) at the radii r, growing g(r) e^{kr} and
        decaying f(r) e^{-kr}, k = sqrt(-lambda), as (g, f); with ``derivatives``
        also their r-derivatives, scaled alike.  sinh(kr)/k and e^{-kr} on the
        line, r^{1-d/2} I_nu(kr) and r^{1-d/2} K_nu(kr) otherwise (DLMF 10.29);
        at lambda = 0 r and 1 on the line, ln r and 1 in the planar sector 0,
        r^l and r^{-(l+d-2)} otherwise.  Without ``growing`` g is NaN.  A Bessel
        value that is not finite raises ``UnconvergedError``."""
        d, l, k = self.dimension, self.sector, math.sqrt(-lam)
        r = np.asarray(r, dtype=float)
        if d == 1:
            g = r if k == 0 else -np.expm1(-2.0 * k * r) / (2.0 * k)
            dg = 0.5 * (1.0 + np.exp(-2.0 * k * r))
            f, df = np.ones_like(r), np.full_like(r, -k)
        elif k == 0 and l + d == 2:  # the planar sector 0
            g, dg, f, df = np.log(r), 1.0 / r, np.ones_like(r), np.zeros_like(r)
        elif k == 0:
            q = l + d - 2
            g, dg, f, df = r ** l, l * r ** (l - 1.0), r ** (-q), -q * r ** (-q - 1.0)
        else:  # the Bessels scaled by e^{-z} and e^{z}
            from scipy.special import ive, kve
            nu, z, amp = self._nu, k * r, r ** (1.0 - 0.5 * d)
            k_n = [kve(nu + j, z) for j in range(1 + derivatives)]
            i_n = [ive(nu + j, z) if growing else np.nan for j in range(1 + derivatives)]
            if not np.isfinite(k_n + i_n if growing else k_n).all():
                raise UnconvergedError("Bessel functions of the free pair out of range",
                                       details={"lambda": lam, "sector": l})
            g, f = amp * i_n[0], amp * k_n[0]
            if derivatives:
                s = (1.0 - 0.5 * d) / r
                dg = s * g + amp * k * (i_n[1] + (nu / z) * i_n[0])
                df = s * f + amp * k * (-k_n[1] + (nu / z) * k_n[0])
        return (g, f, dg, df) if derivatives else (g, f)

    def decay_state(self, lam: float, r: float) -> tuple[float, float]:
        """(u, p u') of the decaying free solution at a radius past the well.

        At lambda = 0 the bounded solution takes over, r^{-(l+d-2)} when that
        decays and a constant otherwise; its log-derivative is written out,
        since r^{-(l+d-2)} underflows in the far sectors a count steps."""
        p = self.coefficients(r)[0]
        if lam == 0:  # q = 0 gives flux 0.0 at every radius, r = 0 too
            q = np.maximum(self.sector + self.dimension - 2, 0)
            return 1.0, p * (-q / np.where(q > 0, r, 1.0))
        _, f, _, df = self.free_pair(lam, r, derivatives=True, growing=False)
        return 1.0, p * (df / f)

    def free_step(self, lam: float, start, end):
        """(m, g): the exact steps from the radii ``start`` to ``end``, either
        way, where V = 0 and a == 1 in d >= 2, as ``propagators`` gives them.
        Below 0 the matrix is Phi(end) Phi(start)^-1, Phi the (u, p u')
        columns of ``free_pair``, and g = k |end - start|; at 0 it is written
        out from r^l and r^{-(l+d-2)} (ln r and 1 in the planar sector 0), and
        g = l ln(end/start).  The step turns the state by less than pi."""
        d, l = self.dimension, self.sector
        p0, p1 = start ** (d - 1), end ** (d - 1)  # p = w where a == 1
        if lam < 0:
            k, h = math.sqrt(-lam), end - start
            pair = np.array(self.free_pair(lam, np.concatenate([start, end]), derivatives=True))
            (g0, f0, dg0, df0), (g1, f1, dg1, df1) = np.split(pair, 2, axis=-1)
            # g1 f0 carries e^{k h}, f1 g0 e^{-k h}: divided by e^{k |h|}
            up, down = np.exp(2.0 * k * np.minimum(h, 0.0)), np.exp(-2.0 * k * np.maximum(h, 0.0))
            m = np.array([p0 * (g1 * df0 * up - f1 * dg0 * down), f1 * g0 * down - g1 * f0 * up,
                          p0 * p1 * (dg1 * df0 * up - df1 * dg0 * down),
                          p1 * (df1 * g0 * down - dg1 * f0 * up)])
            return m / (p0 * (g0 * df0 - dg0 * f0)), k * np.abs(h)
        # the pair's transfer matrix divided by (end/start)^l, written with
        # e = (1 - (start/end)^s) / s, s = 2l + d - 2, which tends to ln(end/start)
        log_rho, s = np.log(end / start), 2 * l + d - 2
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.where(s > 0, -np.expm1(-s * log_rho) / s, log_rho)
        return np.array([1.0 - l * e, start * e / p0, p1 * self._cent * e / end,
                         p1 * start * (np.exp(-s * log_rho) + l * e) / (end * p0)]), l * log_rho

    def pieces(self, lam: float):
        """(turn, exact): for each piece between the ``cuts`` the fewest
        uniform steps that keep every turn at or below ``MAX_TURN`` at the
        local wavenumber sqrt((lambda w - q) / p), and whether one step is
        exact: p, q and w constant, or a ``free_step``.  Both are read just
        inside the two ends of the piece, where V and a are linear."""
        p, q, w = np.broadcast_arrays(*self._equation(*self._ends))
        wave = np.sqrt(np.maximum(lam * w - q, 0.0) / p).max(axis=0)
        exact = ((p[0] == p[1]) & (q[0] == q[1]) & (w[0] == w[1])
                 | self._is_free(lam, self.cuts[:-1], self._width))
        return np.ceil(self._width * (wave / MAX_TURN)), exact

    def mesh(self, lam: float, floor: bool = True, rise: float = 0.0) -> np.ndarray:
        """Ascending nodes on the span, the one rule for where the sector ODE
        steps: each of the ``pieces`` in uniform steps, as many as its turn
        needs and at least one.  Where one step is not exact (p, q or w
        varies) there are at least two, with ``floor`` at least
        ``WELL_STEPS`` per length of the stepped span [r_in, r_flat] and
        [lo, R*], so a dilated well takes the same steps, and with ``rise``
        enough that none grows a solution by more than ``rise`` / r per unit
        length.  A step that does not oscillate turns the state by less than
        pi however long (the Pruefer angle cannot cross k pi downward or
        k pi + pi/2 upward).  Past ``MAX_STEPS`` steps it raises
        ``UnconvergedError``."""
        (turn, exact), cuts, width = self.pieces(lam), self.cuts, self._width
        least = np.ceil(width * self._density) if floor else 2.0
        if rise:
            least = np.maximum(least, np.ceil(width * rise / cuts[:-1]))
        steps = np.maximum(turn, np.where(exact, 1.0, least))
        if not steps.sum() <= MAX_STEPS:
            raise UnconvergedError("sector ODE needs more steps than one integration takes",
                                   details={"segment": cuts[[0, -1]].tolist(), "lambda": lam,
                                            "steps": float(steps.sum())})
        return fill(cuts, steps)

    def _is_free(self, lam: float, r, h):
        """Whether each step from the radii r over the lengths h is a
        ``free_step``: no step crosses a cut, so its middle tells."""
        if self.dimension == 1 or lam > 0.0:  # constant on the line; no pair above 0
            return np.False_
        mid, (r_flat, lo, r_star) = r + 0.5 * h, self._free
        return ((mid > r_flat) & (mid < lo)) | (mid > r_star)

    def propagators(self, lam: float, r, h, slope: bool = False):
        """Steps from the radii r over the lengths h: (m, g), with the
        entries m00, m01, m10, m11 of the step's matrix e^{-g} along the first
        axis and the growth g taken out: Magnus steps, and ``free_step``
        where the equation is free.  With ``slope`` also dm, the entries'
        derivatives in beta with g held (a growth only rescales the state)."""
        n = np.shape(r)[-1]  # the second Gauss points start at n
        p, q, w = self.coefficients(x := np.concatenate([r + GAUSS[0] * h, r + GAUSS[1] * h]))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            a, b = 1.0 / p, q - lam * w  # integrate() checks what overflows
            a1, a2, b1, b2 = a[..., :n], a[..., n:], b[..., :n], b[..., n:]
            diag = math.sqrt(3.0) / 12.0 * h * h * (a2 * b1 - a1 * b2)
            up, low = 0.5 * h * (a1 + a2), 0.5 * h * (b1 + b2)
            disc = diag * diag + up * low
            grows, t = disc > 0.0, np.sqrt(np.abs(disc))
            c = np.where(grows, 0.5 + 0.5 * np.exp(-2.0 * t), np.cos(t))
            s = np.where(grows, -0.5 * np.expm1(-2.0 * t) / t, np.sinc(t / math.pi))
            m, g = np.array([c + s * diag, s * up, s * low, c - s * diag]), np.where(grows, t, 0.0)
            if slope:  # d b / d beta = -V w; d c = s d disc / 2, d s = (c - s) / disc d disc / 2
                db = -self.potential(x) * w
                d_diag = math.sqrt(3.0) / 12.0 * h * h * (a2 * db[:n] - a1 * db[n:])
                d_low = 0.5 * h * (db[:n] + db[n:])
                half = diag * d_diag + 0.5 * up * d_low  # d disc / 2
                # (c - s) / disc = sum over j >= 1 of 2j disc^(j-1) / (2j+1)!
                ds = half * np.where(np.abs(disc) < 1e-2, np.exp(-g) * (
                    1 / 3 + disc * (1 / 30 + disc * (1 / 840 + disc / 45360))), (c - s) / disc)
                dm = np.array([s * (half + d_diag) + ds * diag, ds * up, ds * low + s * d_low,
                               s * (half - d_diag) - ds * diag])
        if (free := self._is_free(lam, r, h)).any():  # V = 0 there, and so is dm
            m[..., free], g[..., free] = self.free_step(lam, r[free], (r + h)[free])
        return (m, g, dm) if slope else (m, g)

    def integrate(self, lam: float, y, inward: bool = False, *,
                  decays: bool = False, slope: bool = False) -> SectorSolution:
        """Step from state ``y`` at r_in to R*, or ``inward`` from R* to r_in,
        on the ``mesh``, scaling the state to unit 1-norm after every step
        and keeping the logarithm of the scale apart.  With ``decays`` the
        solution continues past its outer end as the decaying free solution,
        and with ``slope`` its ``slope`` is d ``angle`` / d beta.  A state
        that is not finite raises ``UnconvergedError``.
        """
        r = self.mesh(lam)[::-1 if inward else 1]
        m, growth, *dm = self.propagators(lam, r[:-1], np.diff(r), slope)
        states = walk(zip(*m.tolist()), float(y[0]), float(y[1])).T
        with np.errstate(divide="ignore", invalid="ignore"):
            states, log = states[:2], np.cumsum(np.log(states[2]) + np.append(0.0, growth))
        if not (np.isfinite(states).all() and np.isfinite(log[-1])):
            raise UnconvergedError("sector ODE integration failed",
                                   details={"segment": r[[0, -1]].tolist(), "lambda": lam})
        solution = SectorSolution(self, lam, r, states, log, decays)
        if slope:  # step i adds dM_i y_i at node i + 1, which turns the end by
            # det[y, dM_i y_i] / |y|^2 there: every step keeps the determinant
            (u, v), (du, dv) = states, (dm[0].reshape(2, 2, -1) * states[:, :-1]).sum(axis=1)
            scale = np.exp(log[:-1] + log[1:] + growth - 2.0 * log[-1])
            solution.slope = float((v[1:] * du - u[1:] * dv) @ scale / (u[-1] ** 2 + v[-1] ** 2))
        return solution


class ZeroEnergyAngle:
    """The zero-energy Pruefer angle of every sector of ``problem`` at
    coupling beta, as a count reads it.

    ``mismatch`` steps sectors together on one ``mesh``, ``SectorODE.mesh``
    of sector 0 on its span without the floor: one exact ``free_step`` from
    r_flat (the obstacle without a coefficient) to the well, and elsewhere
    steps that turn sector 0, where the well turns fastest, by at most
    ``MAX_TURN`` and grow a sector that can bind by at most ``MAX_TURN``
    e-folds.  Next to a crossing a count reads sector 0 as a shot of ``ode``
    instead, the ``direct_spectrum.phase_mismatch`` the threshold roots.
    """

    def __init__(self, problem: ProblemSpec, potential: Potential, beta: float):
        ode = self.ode = SectorODE(problem.with_sector(0), potential, beta)
        d, probe = problem.dimension, fill(ode.cuts, np.full(ode.cuts.size - 1, 8.0))
        p, q, _ = ode.coefficients(probe)  # l(l+d-2) below reach can bind; on the line every l
        reach = 0.0 if d == 1 else max(0.0, float(np.max(-q * probe * probe / p)))
        # such a sector grows by up to sqrt(reach) / r per unit length where V is small
        self.mesh = ode.mesh(0.0, floor=False, rise=math.sqrt(reach) / MAX_TURN)
        self.limit = 1 if problem.geometry == "half_line" else 2 if d == 1 else math.inf
        self.sectors = min(self.limit, 1 + math.ceil(
            0.5 * (math.sqrt((d - 2) ** 2 + 4 * reach) - d + 2)))  # that can bind
        self._starts = np.array([_regular(problem.with_sector(l).effective_bc())
                                 for l in range(min(self.limit, 2))])  # sector 0 may differ

    def mismatch(self, sectors) -> np.ndarray:
        """theta(R*) - theta_target of each of ``sectors``, stepped together
        on the ``mesh``.  Those l >= 1 within ``GUARD`` of 0 are stepped again
        on half its steps, which moves each by about 15 times its error (the
        mesh is fourth order); those it moves by more than their distance to 0
        are read together on sector 0's floored mesh, as fine as any shot's."""
        ls = np.asarray(sectors).ravel()
        mismatch = self._walk(ls, self.mesh)
        near = np.flatnonzero((ls > 0) & (np.abs(mismatch) < GUARD))
        if near.size:
            steps = np.diff(np.searchsorted(self.mesh, self.ode.cuts))
            coarse = self._walk(ls[near], fill(self.ode.cuts, np.ceil(steps / 2)))
            near = near[np.abs(mismatch[near]) < np.abs(coarse - mismatch[near])]
            if near.size:
                mismatch[near] = self._walk(ls[near], self.ode.mesh(0.0))
        return mismatch

    def _walk(self, ls: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The mismatch of each of the sectors ``ls``, stepped together on ``r``."""
        batch = self.ode._with(sectors=ls)
        m, _ = batch.propagators(0.0, r[:-1], np.diff(r))
        u, v = self._starts[np.minimum(ls, 1)].T
        if ls.size == 1:  # floats step faster than arrays of one
            y = walk(zip(*m[:, 0].tolist()), float(u[0]), float(v[0]))[..., None]
        else:
            y = walk(np.ascontiguousarray(np.moveaxis(m, -1, 0)), u, v)
        target = np.arctan2(*batch.decay_state(0.0, self.ode.r_star)).ravel()
        mismatch = pruefer_angle(y[:, 0], y[:, 1], axis=0) - target
        if not np.isfinite(mismatch).all():
            raise UnconvergedError("zero-energy angle failed", details={"beta": self.ode.beta})
        return mismatch
