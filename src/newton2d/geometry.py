"""Problem data and piecewise-linear body profiles.

A body contour is a continuous piecewise-linear function y(x) on [0, r]
with y(0) = 0 and y(r) = H.  Profiles are stored as breakpoints; segment
slopes are derived, never integrated, so every closed-form family is
represented exactly.
"""

from __future__ import annotations

import bisect
import math
import sys
from enum import Enum
from functools import cached_property


class Variant(Enum):
    """Control set for the slope: any real, or nonnegative (monotone body)."""

    UNRESTRICTED = "unrestricted"
    RESTRICTED = "restricted"


class Record:
    """Immutable value record: the part of a frozen dataclass this package uses.

    A record's fields are its own __init__'s positional parameters, in
    order, read into _fields when the class is defined; so each subclass
    defines __init__, which stores them once with self._init(...), since
    plain assignment raises.  Two records are equal when they are of the
    same class and have equal field tuples; a record hashes as its field
    tuple and prints as Name(field=value!r, ...).  Assigning or deleting
    any attribute raises AttributeError.  Instances keep their __dict__, so
    functools.cached_property, pickle and copy work as for a plain class.

    Records are not dataclasses, so dataclasses.replace, asdict and fields
    do not apply to them.  Every CLI command imports this layer, and
    dataclasses would load inspect, ast and dis with it.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _init(self, *values: object) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ProblemSpec(Record):
    """Base half-width r, height H, slope-control variant and dimension tag."""

    def __init__(
        self, r: float, H: float, variant: Variant = Variant.RESTRICTED, dimension: int = 2
    ) -> None:
        try:
            variant = Variant(variant)
        except ValueError:
            raise ValueError(
                f"variant must be 'restricted' or 'unrestricted', got {variant!r}"
            ) from None
        check_real("r", r, positive=True)
        check_real("H", H, positive=True)
        check_int("dimension", dimension, 2, 3)
        self._init(r, H, variant, dimension)


def check_int(name: str, value: int, lo: int, hi: float = math.inf) -> None:
    """The integer rule: value must be a Python int with lo <= value <= hi.

    bool is refused, though it subclasses int, and so is every other type,
    float and numpy integers included.  The ValueError names the argument
    and the refused value.
    """
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        if hi < math.inf:
            bounds = f"an int in [{lo}, {hi}]"
        else:
            bounds = "a non-negative int" if lo == 0 else f"an int >= {lo}"
        raise ValueError(f"{name} must be {bounds}, got {value!r}")


def check_real(name: str, value: float, lo=-math.inf, hi=math.inf, *, positive=False) -> None:
    """The real-number rule: value must be a finite int or float in [lo, hi].

    positive=True asks for value > 0 instead of a lower bound.  NaN and
    +-inf are refused whatever the bounds, and so is an int beyond the
    largest double; bool, str and every other type are refused too.  The
    ValueError names the argument and the refused value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        max(lo, -sys.float_info.max) <= value <= min(hi, sys.float_info.max)
        and (value > 0 or not positive)
    ):
        if positive:
            bounds = "positive and finite"
        elif hi < math.inf:
            bounds = f"a finite number in [{lo}, {hi}]"
        else:
            bounds = "a finite number" + (f" >= {lo}" if lo > -math.inf else "")
        raise ValueError(f"{name} must be {bounds}, got {value!r}")


def _number(name: str, value: object) -> float:
    # the type rule of Profile and StaircaseParams, their first rule: a float
    # as it is, anything else by the real-number rule, as a float
    if not isinstance(value, float):
        check_real(name, value)
    return float(value)


def aspect_ratio(spec: ProblemSpec) -> float:
    """H/r, or ValueError naming it where it overflows a double."""
    ratio = spec.H / spec.r
    if ratio == math.inf:
        raise ValueError(f"H/r = {spec.H!r} / {spec.r!r} overflows a double")
    return ratio


def slope_power(s: float, k: int, use: str) -> float:
    """(1.0 + s * s) ** k, or ValueError naming the slope where it overflows."""
    try:
        power = (1.0 + s * s) ** k
    except OverflowError:
        power = math.inf
    if power == math.inf:
        raise ValueError(f"slope {s} is too steep for {use}: (1 + s^2)^{k} overflows")
    return power


def check_seed(rng_seed: int) -> None:
    """The seed rule of every seeded routine: the integer rule, rng_seed >= 0.

    None would draw an irreproducible stream, and numpy refuses a negative
    seed with a message that does not name it.
    """
    check_int("rng_seed", rng_seed, 0)


class Profile(Record):
    """Piecewise-linear contour given by its breakpoints.

    Coordinates are floats, or ints within the doubles, stored as floats;
    bool, str and other types are refused first, naming the coordinate.
    Breakpoints are finite and their x-coordinates strictly increasing; a
    positive jump in y over zero width would mean an infinite slope and is
    rejected at construction time.  So are a width x_n - x_0 or a slope
    that overflows, such as a rise of 1e10 over 1e-300: every drag, sample
    and reflection is computed from them.  slopes holds the per-segment
    slopes u_i = (y_{i+1} - y_i) / (x_{i+1} - x_i), formed in the pass that
    converts and checks the breakpoints; xs and ys are computed once, on
    first use.  Instances are immutable, and slopes, xs and ys live in the
    instance dict, outside _fields, so equality, hashing and repr see the
    breakpoints alone.
    """

    def __init__(self, breakpoints: tuple[tuple[float, float], ...]) -> None:
        # a width that is not positive adds no slope, so the input breaks a
        # rule just when the slopes come out short, the width overflows or a
        # slope is not finite (a non-finite y makes its slopes so); then
        # _refuse_profile names the first rule broken, in the order stated
        pts = []
        slopes = []
        px = py = math.nan
        for x, y in breakpoints:
            if type(x) is not float:
                x = _number(f"breakpoint {len(pts)} x", x)
            if type(y) is not float:
                y = _number(f"breakpoint {len(pts)} y", y)
            pts.append((x, y))
            width = x - px
            if width > 0.0:
                slopes.append((y - py) / width)
            px = x
            py = y
        self._init(tuple(pts))
        self.__dict__["slopes"] = tuple(slopes)
        if not (
            len(slopes) == len(pts) - 1 > 0
            and math.isfinite(px - pts[0][0])
            and all(map(math.isfinite, slopes))
        ):
            _refuse_profile(self.breakpoints, self.slopes)

    @cached_property
    def xs(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.breakpoints)

    @cached_property
    def ys(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.breakpoints)

    def segment_index(self, x: float) -> int:
        """Index of the segment containing x (right-continuous at breakpoints)."""
        xs = self.xs
        check_real("x", x, xs[0], xs[-1])
        i = bisect.bisect_right(xs, x) - 1
        return min(i, len(xs) - 2)

    def slope_at(self, x: float) -> float:
        """Slope of the segment containing x; right-segment slope at breakpoints."""
        return self.slopes[self.segment_index(x)]


def _refuse_profile(pts: tuple[tuple[float, float], ...], slopes: tuple[float, ...]) -> None:
    # Profile's rules in order; the first one broken raises
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
    if not math.isfinite(pts[-1][0] - pts[0][0]):
        raise ValueError(
            f"profile width {pts[0][0]} -> {pts[-1][0]} overflows a float"
        )
    for i, u in enumerate(slopes):
        if not math.isfinite(u):
            raise ValueError(f"segment {i} has non-finite slope {u}")


class StaircaseParams(Record):
    """Breakpoint parameters (xi, mu) of an alternating flat/rise contour.

    xi has 2n+2 entries 0 = xi[0] <= ... <= xi[2n+1]; mu has n+1 entries
    0 = mu[0] <= ... <= mu[n], all finite floats, or ints within the doubles,
    stored as floats; bool, str and other types are refused first, naming
    the entry.  Flats sit on [xi[2i], xi[2i+1]] at height mu[i]; rise i
    spans [xi[2i+1], xi[2i+2]] from mu[i] to mu[i+1].
    """

    def __init__(self, n: int, xi: tuple[float, ...], mu: tuple[float, ...]) -> None:
        xi = tuple([v if type(v) is float else _number(f"xi[{i}]", v) for i, v in enumerate(xi)])
        mu = tuple([v if type(v) is float else _number(f"mu[{i}]", v) for i, v in enumerate(mu)])
        self._init(n, xi, mu)
        check_int("n", n, 1)
        # one pass over flat i, rise i and the heights around it; NaN fails
        # every comparison and the last entries bound the rest, so ok holds
        # just when every rule does, and _refuse_staircase names the first
        # one broken otherwise
        ok = (
            len(xi) == 2 * n + 2
            and len(mu) == n + 1
            and xi[0] == 0.0 == mu[0]
            and xi[-2] <= xi[-1] < math.inf
            and mu[-1] < math.inf
        )
        if ok:
            for a, b, c, lo, hi in zip(xi[0::2], xi[1::2], xi[2::2], mu, mu[1:]):
                if not (a <= b <= c and lo <= hi and (b < c or lo == hi)):
                    ok = False
                    break
        if not ok:
            _refuse_staircase(self)

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


def _refuse_staircase(params: StaircaseParams) -> None:
    # StaircaseParams' rules in order; the first one broken raises
    xi, mu, n = params.xi, params.mu, params.n
    if not all(map(math.isfinite, xi + mu)):
        raise ValueError(f"xi and mu must be finite, got xi={xi}, mu={mu}")
    if len(xi) != 2 * n + 2:
        raise ValueError(f"xi must have 2n+2 = {2 * n + 2} entries, got {len(xi)}")
    if len(mu) != n + 1:
        raise ValueError(f"mu must have n+1 = {n + 1} entries, got {len(mu)}")
    if xi[0] != 0.0:
        raise ValueError("xi[0] must be 0")
    if mu[0] != 0.0:
        raise ValueError("mu[0] must be 0")
    if any(b < a for a, b in zip(xi, xi[1:])):
        raise ValueError("xi must be nondecreasing")
    if any(b < a for a, b in zip(mu, mu[1:])):
        raise ValueError("mu must be nondecreasing")
    for i, (width, height) in enumerate(zip(params.rise_widths, params.rise_heights)):
        if height > 0.0 and width <= 0.0:
            raise ValueError(
                f"rise {i} has height {height} over zero width (infinite slope)"
            )


class CounterexampleParams(Record):
    """Slope magnitude of the up/down wedge showing unbounded improvement."""

    def __init__(self, a: float) -> None:
        check_real("a", a, positive=True)
        self._init(a)


class ValidationResult(Record):
    def __init__(self, ok: bool, issues: tuple[str, ...] = ()) -> None:
        self._init(ok, issues)


def make_triangle(spec: ProblemSpec) -> Profile:
    """Single-segment contour (0,0) -> (r,H); slope H/r everywhere.

    An H/r that overflows a double is refused, naming H/r.
    """
    aspect_ratio(spec)
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
    # breakpoint k >= 1 is (xi[k], mu[k // 2]); a zero-width segment is
    # dropped, and it cannot carry a y-jump, since StaircaseParams refuses
    # infinite-slope rises
    xi, mu = params.xi, params.mu
    points = [(0.0, 0.0)]
    for k in range(1, len(xi)):
        if xi[k] > points[-1][0]:
            points.append((xi[k], mu[k // 2]))
    return Profile(points)


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
    """Parse the mapping produced by :func:`profile_to_dict`.

    r, H and every coordinate pass the real-number rule, so a string or a
    bool is refused, not converted; every breakpoint must be an [x, y] pair.
    """
    try:
        spec = ProblemSpec(r=data["r"], H=data["H"], variant=data["variant"])
        points = data["breakpoints"]
        for i, point in enumerate(points):
            if not isinstance(point, (list, tuple)) or len(point) != 2:
                raise ValueError(f"breakpoint {i} must be an [x, y] pair, got {point!r}")
            check_real(f"breakpoint {i} x", point[0])
            check_real(f"breakpoint {i} y", point[1])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed profile data: {exc}") from exc
    return Profile(tuple(map(tuple, points))), spec
