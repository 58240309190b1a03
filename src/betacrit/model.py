"""Problem geometry, coefficients, and potentials.

Everything downstream (kernels, matrix assembly, eigenvalue solvers) consumes
the immutable types defined here.  Profiles are stored as samples with
piecewise-linear evaluation and zero extension, so indicator wells and tent /
bump shapes are all exact within the same representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GEOMETRIES = ("half_line", "exterior_ball", "half_space")
BOUNDARY_CONDITIONS = ("dirichlet", "neumann", "fkw")

# surface measure of the unit sphere S^{d-1}; |S^0| = 2 (two points)
SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class ValidationError(ValueError):
    """Raised when a problem/potential combination violates an invariant."""


def _readonly(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Profile:
    """Sampled function with piecewise-linear interpolation, zero outside.

    ``xs`` must be strictly increasing; the function vanishes outside
    ``[xs[0], xs[-1]]``.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xs", _readonly(self.xs))
        object.__setattr__(self, "ys", _readonly(self.ys))
        if self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
            raise ValidationError("profile samples must be two equal-length 1-d arrays")
        if self.xs.size < 2:
            raise ValidationError("profile needs at least two samples")
        if not np.all(np.diff(self.xs) > 0):
            raise ValidationError("profile abscissae must be strictly increasing")

    @classmethod
    def indicator(cls, lo: float, hi: float, height: float = 1.0) -> "Profile":
        return cls(np.array([lo, hi]), np.array([height, height]))

    @classmethod
    def bump(cls, lo: float, hi: float, height: float = 1.0, n: int = 201) -> "Profile":
        """Smooth compactly supported bump, cos^2 shape, zero at the endpoints."""
        xs = np.linspace(lo, hi, n)
        t = (xs - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
        return cls(xs, height * np.cos(0.5 * math.pi * t) ** 2)

    @classmethod
    def tent(cls, lo: float, hi: float, height: float = 1.0) -> "Profile":
        mid = 0.5 * (lo + hi)
        return cls(np.array([lo, mid, hi]), np.array([0.0, height, 0.0]))

    @property
    def lo(self) -> float:
        return float(self.xs[0])

    @property
    def hi(self) -> float:
        return float(self.xs[-1])

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys, left=0.0, right=0.0)

    def integral_to(self, x):
        """Exact antiderivative of the piecewise-linear profile from lo to x."""
        xs, ys = self.xs, self.ys
        seg = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        x = np.clip(np.asarray(x, dtype=float), xs[0], xs[-1])
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        t = x - xs[idx]
        slope = (ys[idx + 1] - ys[idx]) / (xs[idx + 1] - xs[idx])
        return cum[idx] + ys[idx] * t + 0.5 * slope * t * t

    def min_value(self) -> float:
        return float(self.ys.min())

    def max_value(self) -> float:
        return float(self.ys.max())


@dataclass(frozen=True)
class CoefficientProfile:
    """Radial diffusion coefficient a(r): sampled on [r0, r_flat], 1 beyond.

    ``a`` must stay positive; the stored samples are joined continuously to the
    constant value 1 at ``r_flat``.
    """

    profile: Profile
    r_flat: float

    def __post_init__(self):
        if self.profile.min_value() <= 0.0:
            raise ValidationError("coefficient profile must be strictly positive")
        if self.r_flat < self.profile.hi:
            raise ValidationError("coefficient must be sampled up to its flattening radius")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        inside = np.interp(r, self.profile.xs, self.profile.ys,
                           left=self.profile.ys[0], right=1.0)
        return np.where(r >= self.r_flat, 1.0, inside)[()]  # a float gives a float


@dataclass(frozen=True)
class ProblemSpec:
    """Exterior problem: geometry, dimension, coefficient, boundary condition.

    ``sector`` selects the angular component for exterior-ball problems
    (``l = 0`` is the radially symmetric one); it is the only way any
    routine is told which sector to work in, so a caller that sweeps sectors
    passes ``with_sector(l)``.  ``radius`` is the obstacle radius for the
    exterior ball and is ignored otherwise.
    """

    dimension: int
    geometry: str
    boundary_condition: str
    radius: float = 1.0
    coefficient: CoefficientProfile | None = None
    sector: int = 0

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValidationError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.geometry not in GEOMETRIES:
            raise ValidationError(f"unknown geometry {self.geometry!r}")
        if self.boundary_condition not in BOUNDARY_CONDITIONS:
            raise ValidationError(f"unknown boundary condition {self.boundary_condition!r}")
        if self.geometry == "half_line" and self.dimension != 1:
            raise ValidationError("the half-line is one-dimensional (dimension 1)")
        if self.geometry == "exterior_ball" and not self.radius > 0:
            raise ValidationError("exterior ball needs a positive obstacle radius")
        if self.boundary_condition == "fkw" and self.geometry != "exterior_ball":
            raise ValidationError("fkw condition is only supported on the exterior ball")
        if self.sector < 0:
            raise ValidationError("sector index must be nonnegative")
        if self.geometry != "exterior_ball" and self.sector != 0:
            raise ValidationError("sectors are meaningful only for the exterior ball")
        if self.dimension == 1 and self.sector > 1:
            raise ValidationError("d=1 exterior problems have only the even/odd sectors 0, 1")

    @property
    def inner_radius(self) -> float:
        return self.radius if self.geometry == "exterior_ball" else 0.0

    def measure(self, r):
        """Volume element of the radial coordinate: 1 on the half-line,
        |S^{d-1}| r^{d-1} outside the ball."""
        r = np.asarray(r, dtype=float)
        if self.geometry == "exterior_ball":
            return SPHERE_AREA[self.dimension] * r ** (self.dimension - 1)
        return np.ones_like(r)

    def flat_radius(self) -> float:
        """Radius beyond which a(r) = 1."""
        if self.coefficient is None:
            return self.inner_radius
        return max(self.inner_radius, self.coefficient.r_flat)

    def effective_bc(self) -> str:
        """Boundary condition seen by the problem's angular sector.

        The nonlocal condition (constant trace, zero mean flux against the
        uniform measure) decouples into a Neumann condition on the symmetric
        sector and Dirichlet conditions on all the others.
        """
        if self.boundary_condition != "fkw":
            return self.boundary_condition
        return "neumann" if self.sector == 0 else "dirichlet"

    def with_sector(self, sector: int) -> "ProblemSpec":
        return ProblemSpec(self.dimension, self.geometry, self.boundary_condition,
                           self.radius, self.coefficient, sector)

    def sector_multiplicity(self, l: int) -> int:
        if self.dimension == 3:
            return 2 * l + 1
        if self.dimension == 2:
            return 1 if l == 0 else 2
        return 1


@dataclass(frozen=True)
class Potential:
    """Nonnegative compactly supported potential.

    ``center is None``: the profile is a function of the radial coordinate
    (half-line or exterior-ball problems).  Otherwise the support is the ball
    ``|y - center*e1| <= profile.hi`` in a half-space problem, with the profile
    giving the radial dependence about the center.
    """

    profile: Profile
    amplitude: float = 1.0
    center: float | None = None

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValidationError("potential amplitude must be nonnegative")
        if self.center is not None and self.profile.lo != 0.0:
            raise ValidationError("ball-supported potentials need a radial profile starting at 0")

    @property
    def support(self) -> tuple[float, float]:
        if self.center is None:
            return (self.profile.lo, self.profile.hi)
        return (self.center - self.profile.hi, self.center + self.profile.hi)

    def __call__(self, r):
        return self.amplitude * self.profile(r)

    def cell_average(self, r, h: float):
        """Average of V over cells [r - h/2, r + h/2]; exact for the sampled
        representation, so indicator edges carry their true fractional weight."""
        upper = self.profile.integral_to(np.asarray(r, dtype=float) + 0.5 * h)
        lower = self.profile.integral_to(np.asarray(r, dtype=float) - 0.5 * h)
        return self.amplitude * (upper - lower) / h

    def is_zero(self) -> bool:
        return self.amplitude == 0.0 or self.profile.max_value() == 0.0

    def max_value(self) -> float:
        return self.amplitude * self.profile.max_value()

    def integral_power(self, p: float, dimension: int, n: int = 4001) -> float:
        """integral of V^p over the d-dimensional domain (radial supports)."""
        if self.is_zero():
            return 0.0
        lo, hi = self.profile.lo, self.profile.hi
        if self.center is not None:
            r = np.linspace(0.0, hi, n)
            vals = self(r) ** p * SPHERE_AREA[dimension] * r ** (dimension - 1)
            return float(np.trapezoid(vals, r))
        r = np.linspace(lo, hi, n)
        w = np.ones_like(r) if dimension == 1 else SPHERE_AREA[dimension] * r ** (dimension - 1)
        return float(np.trapezoid(self(r) ** p * w, r))


class CenterPath:
    """Distance from the boundary as a function of the scale parameter n.

    Implements x(n) = c * n^(-delta) along the inward normal.
    """

    def __init__(self, coefficient: float = 1.0, exponent: float = 1.0):
        if coefficient <= 0:
            raise ValidationError("center path coefficient must be positive")
        if not 0.0 <= exponent <= 1.5:
            raise ValidationError("center path exponent out of the supported range")
        self.coefficient = float(coefficient)
        self.exponent = float(exponent)

    def __call__(self, n: float) -> float:
        return self.coefficient * float(n) ** (-self.exponent)

    def describe(self) -> str:
        return f"{self.coefficient:g}*n^(-{self.exponent:g})"


def h_factor(d: int, n: float) -> float:
    """Height scaling that keeps the near-boundary well family comparable.

    Returns n for d=1, n^2/ln(n) for d=2 (n must exceed 1) and n^2 for d>=3.
    """
    if d not in (1, 2, 3):
        raise ValidationError(f"dimension must be 1, 2 or 3, got {d}")
    if n <= 0:
        raise ValidationError("scale parameter must be positive")
    if d == 1:
        return float(n)
    if d == 2:
        if n <= 1.0:
            raise ValidationError("d=2 height scaling needs n > 1 (log factor)")
        return float(n) ** 2 / math.log(n)
    return float(n) ** 2


@dataclass(frozen=True)
class ScaledPotentialFamily:
    """Shrinking wells V_n(x) = h_d(n) * W((x - x(n)) * n) near the boundary.

    ``base_profile`` is the radial profile of W, supported in [0, 1]; the
    center moves along the inward normal according to ``center_path``.
    """

    base_profile: Profile
    center_path: CenterPath
    dimension: int

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValidationError("dimension must be 1, 2 or 3")
        if self.base_profile.lo < 0 or self.base_profile.hi > 1.0 + 1e-12:
            raise ValidationError("base profile must be supported inside the unit ball")
        if self.base_profile.min_value() < 0:
            raise ValidationError("base profile must be nonnegative")

    def support_radius(self) -> float:
        return self.base_profile.hi

    def center(self, n: float) -> float:
        return self.center_path(n)

    def margin(self, n: float) -> float:
        """Distance between the support of V_n and the boundary (can be < 0)."""
        return self.center(n) - self.support_radius() / float(n)

    def admissible(self, n: float, tol: float = 1e-12) -> bool:
        return self.margin(n) >= -tol

    def realize(self, n: float) -> Potential:
        if n <= 0:
            raise ValidationError("scale parameter must be positive")
        if not self.admissible(n):
            raise ValidationError(
                f"support of the scaled potential leaks outside the domain at n={n:g} "
                f"(margin {self.margin(n):.3e})")
        h = h_factor(self.dimension, n)
        c = self.center(n)
        base = self.base_profile
        if self.dimension == 1:
            # mirror the radial profile into an even bump about the center
            left = c - base.xs[::-1] / n
            right = c + base.xs / n
            if base.lo == 0.0:
                xs = np.concatenate([left[:-1], right])
                ys = h * np.concatenate([base.ys[::-1][:-1], base.ys])
            else:
                xs = np.concatenate([left, right])
                ys = h * np.concatenate([base.ys[::-1], base.ys])
            if xs[0] < 0.0:  # admissibility tolerance can leave a ~1e-12 overhang
                xs = xs.copy()
                xs[0] = 0.0
            return Potential(Profile(xs, ys))
        # half-space realization: ball support about the center on the x1-axis
        xs = base.xs / n
        return Potential(Profile(xs, h * base.ys), center=c)


def validate(problem: ProblemSpec, potential: Potential) -> list[str]:
    """Check every shared invariant; returns diagnostics (empty list = ok)."""
    diags: list[str] = []
    if potential.profile.min_value() < 0 or potential.amplitude < 0:
        diags.append("potential not nonnegative")
    lo, hi = potential.support
    if problem.geometry in ("half_line", "exterior_ball"):
        if potential.center is not None:
            diags.append("support outside domain: ball supports belong to half-space problems")
        elif lo < problem.inner_radius - 1e-12 or hi <= problem.inner_radius + 1e-12:
            diags.append("support outside domain")  # in the domain to within 1e-12
    else:  # half_space: support is a ball about center*e1, domain x1 > 0
        if potential.center is None:
            diags.append("support outside domain: half-space potentials need a ball support")
        elif lo < -1e-12:
            diags.append("support outside domain")
    if not math.isfinite(hi):
        diags.append("support not compact")
    return diags


def require_valid(problem: ProblemSpec, potential: Potential) -> None:
    """Raise ``ValidationError`` carrying every diagnostic of ``validate``."""
    diags = validate(problem, potential)
    if diags:
        raise ValidationError("; ".join(diags))
