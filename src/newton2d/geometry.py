"""Problem data and piecewise-linear body profiles.

A body contour is a continuous piecewise-linear function y(x) on [0, r]
with y(0) = 0 and y(r) = H.  Profiles are stored as breakpoints; segment
slopes are derived, never integrated, so every closed-form family is
represented exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class Variant(Enum):
    """Control set for the slope: any real, or nonnegative (monotone body)."""

    UNRESTRICTED = "unrestricted"
    RESTRICTED = "restricted"


@dataclass(frozen=True)
class ProblemSpec:
    """Base half-width r, height H, slope-control variant and dimension tag."""

    r: float
    H: float
    variant: Variant = Variant.RESTRICTED
    dimension: int = 2

    def __post_init__(self) -> None:
        if isinstance(self.variant, str):
            object.__setattr__(self, "variant", Variant(self.variant))
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        if not (math.isfinite(self.H) and self.H > 0.0):
            raise ValueError(f"H must be positive and finite, got {self.H}")
        if isinstance(self.dimension, bool) or not isinstance(self.dimension, int):
            raise ValueError(
                f"dimension must be an int, got {type(self.dimension).__name__}"
            )
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")


def check_seed(rng_seed: int) -> None:
    """Reject a random seed that is not a non-negative Python int.

    Every seeded routine applies this one rule.  bool, float and None are
    refused: None would draw a fresh, irreproducible stream, and numpy
    refuses a negative seed with a message that does not name it.
    """
    if isinstance(rng_seed, bool) or not isinstance(rng_seed, int) or rng_seed < 0:
        raise ValueError(f"rng_seed must be a non-negative int, got {rng_seed!r}")


@dataclass(frozen=True)
class Profile:
    """Piecewise-linear contour given by its breakpoints.

    Breakpoints are finite and their x-coordinates strictly increasing; a
    positive jump in y over zero width would mean an infinite slope and is
    rejected at construction time.  Instances are immutable, so xs, ys and
    slopes are computed once per instance and cached; the cache lives in
    the instance dict, outside the dataclass fields, so equality, hashing
    and repr still see the breakpoints alone.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise ValueError("profile needs at least two breakpoints")
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"breakpoint ({x}, {y}) is not finite")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if not (x1 > x0):
                raise ValueError(
                    f"breakpoint x-coordinates must be strictly increasing "
                    f"({x0} -> {x1})"
                )

    @cached_property
    def xs(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.breakpoints)

    @cached_property
    def ys(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.breakpoints)

    @cached_property
    def slopes(self) -> tuple[float, ...]:
        """Per-segment slopes u_i = (y_{i+1} - y_i) / (x_{i+1} - x_i)."""
        pts = self.breakpoints
        return tuple(
            (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])
        )

    def segment_index(self, x: float) -> int:
        """Index of the segment containing x (right-continuous at breakpoints)."""
        xs = self.xs
        if x < xs[0] or x > xs[-1]:
            raise ValueError(f"x={x} outside profile domain [{xs[0]}, {xs[-1]}]")
        i = bisect.bisect_right(xs, x) - 1
        return min(i, len(xs) - 2)

    def slope_at(self, x: float) -> float:
        """Slope of the segment containing x; right-segment slope at breakpoints."""
        return self.slopes[self.segment_index(x)]


@dataclass(frozen=True)
class StaircaseParams:
    """Breakpoint parameters (xi, mu) of an alternating flat/rise contour.

    xi has 2n+2 entries 0 = xi[0] <= ... <= xi[2n+1]; mu has n+1 entries
    0 = mu[0] <= ... <= mu[n].  Flats sit on [xi[2i], xi[2i+1]] at height
    mu[i]; rise i spans [xi[2i+1], xi[2i+2]] from mu[i] to mu[i+1].
    """

    n: int
    xi: tuple[float, ...]
    mu: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", tuple(float(v) for v in self.xi))
        object.__setattr__(self, "mu", tuple(float(v) for v in self.mu))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if len(self.xi) != 2 * self.n + 2:
            raise ValueError(
                f"xi must have 2n+2 = {2 * self.n + 2} entries, got {len(self.xi)}"
            )
        if len(self.mu) != self.n + 1:
            raise ValueError(
                f"mu must have n+1 = {self.n + 1} entries, got {len(self.mu)}"
            )
        if self.xi[0] != 0.0:
            raise ValueError("xi[0] must be 0")
        if self.mu[0] != 0.0:
            raise ValueError("mu[0] must be 0")
        if any(b < a for a, b in zip(self.xi, self.xi[1:])):
            raise ValueError("xi must be nondecreasing")
        if any(b < a for a, b in zip(self.mu, self.mu[1:])):
            raise ValueError("mu must be nondecreasing")
        for i in range(self.n):
            width = self.xi[2 * i + 2] - self.xi[2 * i + 1]
            height = self.mu[i + 1] - self.mu[i]
            if height > 0.0 and width <= 0.0:
                raise ValueError(
                    f"rise {i} has height {height} over zero width (infinite slope)"
                )

    @property
    def rise_widths(self) -> tuple[float, ...]:
        return tuple(
            self.xi[2 * i + 2] - self.xi[2 * i + 1] for i in range(self.n)
        )

    @property
    def rise_heights(self) -> tuple[float, ...]:
        return tuple(self.mu[i + 1] - self.mu[i] for i in range(self.n))

    @property
    def flat_widths(self) -> tuple[float, ...]:
        return tuple(
            self.xi[2 * i + 1] - self.xi[2 * i] for i in range(self.n + 1)
        )


@dataclass(frozen=True)
class CounterexampleParams:
    """Slope magnitude of the up/down wedge showing unbounded improvement."""

    a: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0):
            raise ValueError(f"a must be positive, got {self.a}")


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    issues: tuple[str, ...] = ()


def make_triangle(spec: ProblemSpec) -> Profile:
    """Single-segment contour (0,0) -> (r,H); slope H/r everywhere."""
    return Profile(((0.0, 0.0), (spec.r, spec.H)))


def make_staircase(spec: ProblemSpec, params: StaircaseParams) -> Profile:
    """Alternating flat/rise contour from its (xi, mu) parameters.

    Zero-width segments (family degeneration boundaries, e.g. xi_1 = 0) are
    silently dropped.
    """
    if params.xi[-1] != spec.r:
        raise ValueError(
            f"xi[-1] = {params.xi[-1]} does not match spec.r = {spec.r}"
        )
    if params.mu[-1] != spec.H:
        raise ValueError(
            f"mu[-1] = {params.mu[-1]} does not match spec.H = {spec.H}"
        )
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    for i in range(params.n + 1):
        _append(points, (params.xi[2 * i + 1], params.mu[i]))
        if i < params.n:
            _append(points, (params.xi[2 * i + 2], params.mu[i + 1]))
    return Profile(tuple(points))


def _append(points: list[tuple[float, float]], pt: tuple[float, float]) -> None:
    # drop zero-width segments; zero-width with a y-jump cannot occur here
    # because StaircaseParams rejects infinite-slope rises
    if pt[0] > points[-1][0]:
        points.append(pt)


def make_counterexample(
    spec: ProblemSpec, params: CounterexampleParams
) -> Profile:
    """Wedge with slope +a then -a, switching at x = r/2 + H/(2a).

    Its resistance r/(1+a^2) vanishes as a grows, which is why the
    unrestricted problem has no global minimum.  Not admissible for the
    restricted variant (one face has negative slope).
    """
    if spec.variant is Variant.RESTRICTED:
        raise ValueError("counterexample profile requires the unrestricted variant")
    if params.a < spec.H / spec.r:
        raise ValueError(
            f"a = {params.a} must be at least H/r = {spec.H / spec.r} "
            "so the switch point stays inside (0, r]"
        )
    switch = spec.r / 2.0 + spec.H / (2.0 * params.a)
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    if switch < spec.r:
        points.append((switch, params.a * switch))
    points.append((spec.r, spec.H))
    return Profile(tuple(points))


_SLOPE_TOL = 1e-12


def validate(profile: Profile, spec: ProblemSpec) -> ValidationResult:
    """Diagnose admissibility of a profile against a problem spec.

    Reports every violated invariant instead of aborting on the first.
    """
    issues: list[str] = []
    x0, y0 = profile.breakpoints[0]
    xn, yn = profile.breakpoints[-1]
    if x0 != 0.0 or y0 != 0.0:
        issues.append(f"profile must start at (0, 0), starts at ({x0}, {y0})")
    if xn != spec.r:
        issues.append(f"profile must end at x = r = {spec.r}, ends at x = {xn}")
    if yn != spec.H:
        issues.append(f"endpoint mismatch: y(r) = {yn}, expected H = {spec.H}")
    if spec.variant is Variant.RESTRICTED:
        for i, u in enumerate(profile.slopes):
            if u < -_SLOPE_TOL:
                issues.append(
                    f"segment {i} has negative slope {u} "
                    "(restricted variant requires u >= 0)"
                )
    return ValidationResult(ok=not issues, issues=tuple(issues))


def profile_to_dict(profile: Profile, spec: ProblemSpec) -> dict:
    """JSON-ready mapping for a profile and its problem data."""
    return {
        "r": spec.r,
        "H": spec.H,
        "variant": spec.variant.value,
        "breakpoints": [[x, y] for x, y in profile.breakpoints],
    }


def profile_from_dict(data: dict) -> tuple[Profile, ProblemSpec]:
    """Parse the mapping produced by :func:`profile_to_dict`."""
    try:
        spec = ProblemSpec(
            r=float(data["r"]),
            H=float(data["H"]),
            variant=Variant(data["variant"]),
        )
        breakpoints = tuple((float(x), float(y)) for x, y in data["breakpoints"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed profile data: {exc}") from exc
    return Profile(breakpoints), spec
