import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton2d import jsonio
from newton2d.geometry import (
    CounterexampleParams,
    ProblemSpec,
    Profile,
    StaircaseParams,
    Variant,
    check_seed,
    make_counterexample,
    make_staircase,
    make_triangle,
    profile_from_dict,
    profile_to_dict,
    validate,
)


def test_problem_spec_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        ProblemSpec(r=0.0, H=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(r=1.0, H=-0.5)
    with pytest.raises(ValueError):
        ProblemSpec(r=1.0, H=1.0, dimension=4)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="r must be"):
            ProblemSpec(r=bad, H=1.0)
        with pytest.raises(ValueError, match="H must be"):
            ProblemSpec(r=1.0, H=bad)


@pytest.mark.parametrize("dimension", [2.0, 3.0, True])
def test_problem_spec_rejects_non_int_dimension(dimension):
    with pytest.raises(ValueError, match="dimension must be an int"):
        ProblemSpec(r=1.0, H=1.0, dimension=dimension)


def test_problem_spec_accepts_variant_strings():
    spec = ProblemSpec(r=1.0, H=1.0, variant="unrestricted")
    assert spec.variant is Variant.UNRESTRICTED


@pytest.mark.parametrize(
    "r,H,slope", [(1.0, 1.0, 1.0), (1.0, 2.0, 2.0), (2.0, 1.0, 0.5)]
)
def test_make_triangle_slope(r, H, slope):
    profile = make_triangle(ProblemSpec(r=r, H=H))
    assert profile.breakpoints == ((0.0, 0.0), (r, H))
    assert profile.slopes == (slope,)


def test_staircase_degenerates_to_triangle():
    spec = ProblemSpec(r=1.0, H=2.0)
    params = StaircaseParams(n=1, xi=(0.0, 0.0, 1.0, 1.0), mu=(0.0, 2.0))
    profile = make_staircase(spec, params)
    assert profile.breakpoints == make_triangle(spec).breakpoints


def test_staircase_flat_then_rise():
    spec = ProblemSpec(r=1.0, H=0.4)
    params = StaircaseParams(n=1, xi=(0.0, 0.6, 1.0, 1.0), mu=(0.0, 0.4))
    profile = make_staircase(spec, params)
    assert profile.breakpoints == ((0.0, 0.0), (0.6, 0.0), (1.0, 0.4))
    assert profile.slopes == (0.0, 1.0)


def test_staircase_two_rises():
    spec = ProblemSpec(r=1.0, H=0.5)
    params = StaircaseParams(
        n=2, xi=(0.0, 0.1, 0.3, 0.5, 0.8, 1.0), mu=(0.0, 0.2, 0.5)
    )
    profile = make_staircase(spec, params)
    # rises of width 0.2 and 0.3 with heights 0.2 and 0.3: both slope 1
    rise_slopes = [u for u in profile.slopes if u > 0]
    assert rise_slopes == pytest.approx([1.0, 1.0])


def test_staircase_rejects_infinite_slope():
    with pytest.raises(ValueError, match="zero width"):
        StaircaseParams(n=1, xi=(0.0, 0.5, 0.5, 1.0), mu=(0.0, 1.0))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "n, xi, mu, message",
    [
        (1, (0.0, 0.5, 1.0), (0.0, 1.0), "xi must have 2n+2 = 4 entries, got 3"),
        (1, (0.0, 0.5, 1.0, 1.0), (0.0, 0.5, 1.0), "mu must have n+1 = 2 entries, got 3"),
        (1, (0.1, 0.5, 1.0, 1.0), (0.0, 1.0), "xi[0] must be 0"),
        (1, (0.0, 0.5, 1.0, 1.0), (0.1, 1.0), "mu[0] must be 0"),
        (1, (0.0, 0.6, 0.5, 1.0), (0.0, 1.0), "xi must be nondecreasing"),
        (2, (0.0, 0.1, 0.2, 0.3, 0.4, 1.0), (0.0, 0.6, 0.5), "mu must be nondecreasing"),
    ],
)
def test_staircase_refuses_bad_lengths_starts_and_orders(n, xi, mu, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        StaircaseParams(n, xi, mu)


@pytest.mark.parametrize(
    "xi, mu",
    [
        ((0.0, _NAN, 1.0, 1.0), (0.0, 1.0)),
        ((0.0, 0.5, _NAN, 1.0), (0.0, 1.0)),
        ((0.0, 0.5, 1.0, 1.0), (0.0, _NAN)),
        ((0.0, 0.5, 1.0, _INF), (0.0, 1.0)),
        ((0.0, 0.5, _INF, _INF), (0.0, 1.0)),
    ],
)
def test_staircase_refuses_non_finite_breakpoints(xi, mu):
    # NaN passes every order test, and make_staircase would drop its point
    # and price another body
    with pytest.raises(ValueError, match="xi and mu must be finite"):
        StaircaseParams(1, xi, mu)


def test_staircase_rejects_endpoint_mismatch():
    spec = ProblemSpec(r=2.0, H=1.0)
    params = StaircaseParams(n=1, xi=(0.0, 0.0, 1.0, 1.0), mu=(0.0, 1.0))
    with pytest.raises(ValueError, match="spec.r"):
        make_staircase(spec, params)


def test_staircase_rejects_height_mismatch():
    spec = ProblemSpec(r=1.0, H=2.0)
    params = StaircaseParams(n=1, xi=(0.0, 0.0, 1.0, 1.0), mu=(0.0, 1.0))
    with pytest.raises(ValueError, match=re.escape("mu[-1] = 1.0 does not match spec.H = 2.0")):
        make_staircase(spec, params)


def test_counterexample_degenerate_boundary_is_triangle():
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    profile = make_counterexample(spec, CounterexampleParams(a=1.0))
    assert profile.breakpoints == ((0.0, 0.0), (1.0, 1.0))


def test_counterexample_switch_point_and_peak():
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    profile = make_counterexample(spec, CounterexampleParams(a=3.0))
    assert profile.breakpoints[1][0] == pytest.approx(2.0 / 3.0)
    # peak height a*(r/2 + H/(2a)) = (a r + H)/2
    assert profile.breakpoints[1][1] == pytest.approx(2.0)

    spec2 = ProblemSpec(r=2.0, H=1.0, variant=Variant.UNRESTRICTED)
    profile2 = make_counterexample(spec2, CounterexampleParams(a=10.0))
    assert profile2.breakpoints[1][0] == pytest.approx(1.05)


def test_counterexample_rejects_restricted_variant():
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.RESTRICTED)
    with pytest.raises(ValueError, match="unrestricted"):
        make_counterexample(spec, CounterexampleParams(a=3.0))


def test_counterexample_rejects_small_slope():
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    with pytest.raises(ValueError, match="switch point"):
        make_counterexample(spec, CounterexampleParams(a=0.5))


def test_counterexample_endpoints_exact_for_random_slopes():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        r = float(rng.uniform(0.2, 3.0))
        H = float(rng.uniform(0.2, 3.0))
        spec = ProblemSpec(r=r, H=H, variant=Variant.UNRESTRICTED)
        a = float(H / r + rng.uniform(0.0, 20.0))
        profile = make_counterexample(spec, CounterexampleParams(a=a))
        assert profile.breakpoints[0] == (0.0, 0.0)
        assert profile.breakpoints[-1] == (r, H)


def test_validate_accepts_triangle():
    spec = ProblemSpec(r=1.0, H=1.0)
    assert validate(make_triangle(spec), spec).ok


def test_validate_flags_negative_slope_for_restricted():
    spec_u = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    profile = make_counterexample(spec_u, CounterexampleParams(a=3.0))
    result = validate(profile, ProblemSpec(r=1.0, H=1.0, variant=Variant.RESTRICTED))
    assert not result.ok
    assert any("negative slope" in issue for issue in result.issues)


def test_validate_flags_endpoint_mismatch():
    spec = ProblemSpec(r=1.0, H=1.0)
    profile = Profile(((0.0, 0.0), (1.0, 0.5)))
    result = validate(profile, spec)
    assert not result.ok
    assert any("endpoint mismatch" in issue for issue in result.issues)


def test_validate_flags_start_and_end_x():
    result = validate(Profile(((0.1, 0.2), (2.0, 1.0))), ProblemSpec(r=1.0, H=1.0))
    assert not result.ok
    assert result.issues == (
        "profile must start at (0, 0), starts at (0.1, 0.2)",
        "profile must end at x = r = 1.0, ends at x = 2.0",
    )


def test_slope_at_is_right_continuous():
    spec = ProblemSpec(r=1.0, H=0.4)
    profile = make_staircase(
        spec, StaircaseParams(n=1, xi=(0.0, 0.6, 1.0, 1.0), mu=(0.0, 0.4))
    )
    assert profile.slope_at(0.3) == 0.0
    assert profile.slope_at(0.6) == 1.0  # right-segment slope at the breakpoint
    assert profile.slope_at(0.8) == 1.0
    assert make_triangle(ProblemSpec(r=1.0, H=2.0)).slope_at(0.5) == 2.0
    with pytest.raises(ValueError):
        profile.slope_at(1.5)


def test_profile_derived_tuples_are_cached_per_instance():
    points = ((0.0, 0.0), (0.25, 0.0), (0.5, 0.5), (1.0, 0.75))
    profile = Profile(points)
    assert profile.slopes is profile.slopes
    assert profile.slopes == (0.0, 2.0, 0.5)
    assert [profile.segment_index(x) for x in (0.0, 0.25, 0.7, 1.0)] == [0, 1, 2, 2]
    assert set(vars(profile)) == {"breakpoints", "slopes"}
    fresh = Profile(points)
    assert profile == fresh and hash(profile) == hash(fresh)
    assert repr(profile) == repr(fresh)


def test_profile_rejects_nonincreasing_x():
    with pytest.raises(ValueError):
        Profile(((0.0, 0.0), (0.5, 0.2), (0.5, 0.4)))


@pytest.mark.parametrize("points", [(), ((0.0, 0.0),)])
def test_profile_needs_two_breakpoints(points):
    with pytest.raises(ValueError, match="at least two breakpoints"):
        Profile(points)


def test_profile_rejects_non_finite_breakpoints():
    with pytest.raises(ValueError, match="not finite"):
        Profile(((0.0, 0.0), (0.5, float("nan")), (1.0, 1.0)))
    with pytest.raises(ValueError, match="not finite"):
        Profile(((0.0, 0.0), (1.0, float("inf"))))


@pytest.mark.parametrize(
    "points, message",
    [
        # slope 1e310: finite breakpoints, an infinite slope
        (((0.0, 0.0), (1e-300, 1e10), (1.0, 1e10)), "segment 0 has non-finite slope inf"),
        (((0.0, -1e308), (1.0, 1e308)), "segment 0 has non-finite slope inf"),
        (((0.0, 0.0), (1.0, 1.0), (2.0, -1.7e308), (3.0, 1.7e308)), "segment 2"),
        # every segment is finite, the whole width is not
        (((-1e308, 0.0), (1e308, 1.0)), "width"),
        (((-1e308, 0.0), (0.0, 0.0), (1e308, 1.0)), "width"),
    ],
)
def test_profile_rejects_an_overflowing_slope_or_width(points, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Profile(points)


def test_profile_accepts_the_largest_finite_width_and_slopes():
    profile = Profile(((-8e307, 0.0), (8e307, 1e300)))
    assert profile.slopes == (1e300 / 1.6e308,)
    assert Profile(((0.0, 0.0), (1e-300, 1e8))).slopes == (1e308,)


def _random_staircase_params(rng, r, H):
    n = int(rng.integers(1, 5))
    rises = rng.dirichlet(np.ones(n)) * H
    flats = rng.dirichlet(np.ones(n + 1)) * (r - min(H, r) * rng.uniform(0.1, 1.0))
    widths = rng.dirichlet(np.ones(n)) * (r - flats.sum())
    xi = [0.0]
    x = 0.0
    mu = [0.0]
    y = 0.0
    for i in range(n):
        x += flats[i]
        xi.append(x)
        x += widths[i]
        xi.append(x)
        y += rises[i]
        mu.append(y)
    xi.append(r)
    xi[-2] = min(xi[-2], r)
    mu[-1] = H
    return StaircaseParams(n=n, xi=tuple(xi), mu=tuple(mu))


def test_random_staircases_validate_against_restricted_spec():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = float(rng.uniform(0.5, 2.0))
        H = float(rng.uniform(0.1, 2.0))
        spec = ProblemSpec(r=r, H=H)
        params = _random_staircase_params(rng, r, H)
        profile = make_staircase(spec, params)
        assert validate(profile, spec).ok


def test_profile_json_round_trip_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = float(rng.uniform(0.5, 2.0))
        H = float(rng.uniform(0.1, 2.0))
        spec = ProblemSpec(r=r, H=H)
        profile = make_staircase(spec, _random_staircase_params(rng, r, H))
        text = jsonio.dumps(profile_to_dict(profile, spec))
        parsed_profile, parsed_spec = profile_from_dict(json.loads(text))
        assert parsed_profile.breakpoints == profile.breakpoints
        assert (parsed_spec.r, parsed_spec.H) == (spec.r, spec.H)
        assert parsed_spec.variant is spec.variant


def _bits(values):
    return [float(v).hex() for v in values]


@st.composite
def _profiles_and_specs(draw):
    # |x| <= 8e307 keeps the width finite; a slope that overflows falls
    # back to a flat contour at height -0.0
    xs = draw(st.lists(st.floats(-8e307, 8e307), min_size=2, max_size=12, unique=True))
    xs.sort()
    finite = st.floats(allow_nan=False, allow_infinity=False)
    ys = draw(st.lists(finite, min_size=len(xs), max_size=len(xs)))
    try:
        profile = Profile(tuple(zip(xs, ys)))
    except ValueError:
        profile = Profile(tuple((x, -0.0) for x in xs))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    spec = ProblemSpec(r=draw(positive), H=draw(positive), variant=draw(st.sampled_from(Variant)))
    return profile, spec


@settings(max_examples=300, deadline=None)
@given(_profiles_and_specs())
def test_profile_json_round_trip_is_bit_exact(case):
    # any finite breakpoints, -0.0 and subnormals included, and any spec
    profile, spec = case
    text = jsonio.dumps(profile_to_dict(profile, spec))
    back, back_spec = profile_from_dict(json.loads(text))
    for (x, y), (bx, by) in zip(profile.breakpoints, back.breakpoints, strict=True):
        assert _bits((bx, by)) == _bits((x, y))
    assert _bits((back_spec.r, back_spec.H)) == _bits((spec.r, spec.H))
    assert back_spec.variant is spec.variant


def test_negative_zero_survives_the_json_round_trip():
    # 17-digit formatting writes -0.0 as "-0", which json reads as the int 0
    assert jsonio.dumps([-0.0, 0.0]) == "[\n  -0.0,\n  0\n]\n"
    assert math.copysign(1.0, json.loads(jsonio.dumps(-0.0))) == -1.0


@pytest.mark.parametrize("value", [_NAN, _INF, -_INF])
def test_json_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="non-finite float not representable in JSON"):
        jsonio.dumps({"x": [value]})


def test_json_writes_empty_containers_inline():
    assert jsonio.dumps({}) == "{}\n"
    assert jsonio.dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'


def test_json_refuses_unsupported_types():
    with pytest.raises(TypeError, match="unsupported type for JSON output"):
        jsonio.dumps({"x": {1, 2}})


# The out-list writer that dumps replaced, kept as it was (with INDENT = 2) as
# the reference for its bytes, errors and messages.
def _reference_format_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float not representable in JSON: {x}")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def _reference_dumps(obj):
    out = []
    _reference_write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _reference_write(obj, out, level):
    pad = " " * (2 * (level + 1))
    close_pad = " " * (2 * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_reference_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _reference_write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{close_pad}}}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(items):
            out.append(pad)
            _reference_write(value, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(f"{close_pad}]")
    else:
        raise TypeError(f"unsupported type for JSON output: {type(obj)!r}")


# The recursive writer that the one-pass dumps replaced, kept as it was, as a
# second reference for the types dumps now dispatches on by exact type.
def _recursive_dumps(obj):
    return _recursive_encode(obj, "\n") + "\n"


def _recursive_encode(obj, newline):
    if isinstance(obj, float):
        return _reference_format_float(obj)
    if obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(key))}: {_recursive_encode(value, inner)}" for key, value in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_recursive_encode(value, inner) for value in obj]
        brackets = "[]"
    else:
        raise TypeError(f"unsupported type for JSON output: {type(obj)!r}")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


class _Text(str):
    # a str subclass whose str() differs from its value
    def __str__(self):
        return "text"


def _json_outcome(dumps, obj):
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
)
_JSON_SCALARS = st.one_of(
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u2603\U0001d11e'),
    st.text(max_size=4).map(_Text),
)
# a NaN, an infinity or an unsupported value somewhere in the tree
_JSON_REFUSED = st.sampled_from(
    [math.nan, math.inf, -math.inf, {1, 2}, frozenset(), b"x", object(), np.float32(1), np.int64(1)]
)
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.text(max_size=4).map(_Text))


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_JSON_KEYS, children, max_size=4),
        ),
        max_leaves=24,
    )


@settings(max_examples=200, deadline=None)
@given(_json_trees(_JSON_SCALARS))
@example({"q\"\\\n\u00e9\U0001d11e": [[], {}, (), -0.0, 5e-324, 2**53 + 1, True, None]})
@example({1: np.float64(-0.0), True: [np.float64(0.1), True, 1], "\u00e9\U0001d11e": _Text("a\u2028"), _Text("k"): ()})
@example(((((), (-0.0,)), [{}]), {"": ((1.5, -0.0),)}))
@example([{}, [], (), np.float64(5e-324), _Text(""), False, 0])
def test_json_writes_the_bytes_of_the_reference_writer(obj):
    assert jsonio.dumps(obj) == _reference_dumps(obj) == _recursive_dumps(obj)


@settings(max_examples=100, deadline=None)
@given(_json_trees(st.one_of(_JSON_SCALARS, _JSON_REFUSED)))
def test_json_refuses_what_the_reference_writer_refuses(obj):
    assert _json_outcome(jsonio.dumps, obj) == _json_outcome(_reference_dumps, obj)


def test_profile_from_dict_rejects_malformed_data():
    with pytest.raises(ValueError, match="malformed"):
        profile_from_dict({"r": 1.0})


@pytest.mark.parametrize("seed", [0, 42, 2**70])
def test_check_seed_accepts_non_negative_ints(seed):
    check_seed(seed)


@pytest.mark.parametrize("seed", [-1, True, False, 1.0, None, "3", np.int64(3)])
def test_check_seed_names_the_seed_it_refuses(seed):
    with pytest.raises(ValueError, match=re.escape(f"rng_seed must be a non-negative int, got {seed!r}")):
        check_seed(seed)


# Every refusal of the two constructors, alone and in pairs of faults in one
# input, with the message it gave when each rule was its own pass over the
# input: the one-pass checks must keep the order of the rules.
_PROFILE_REFUSALS = [
    ((), "profile needs at least two breakpoints"),
    (((0.0, 0.0),), "profile needs at least two breakpoints"),
    (((0.0, 0.0), (_NAN, 1.0)), "breakpoint (nan, 1.0) is not finite"),
    (((0.0, 0.0), (1.0, _INF)), "breakpoint (1.0, inf) is not finite"),
    (((0.0, -_INF), (1.0, 1.0)), "breakpoint (0.0, -inf) is not finite"),
    (((0.0, 0.0), (0.0, 1.0)),
     "breakpoint x-coordinates must be strictly increasing (0.0 -> 0.0)"),
    (((0.0, 0.0), (1.0, 1.0), (0.5, 2.0)),
     "breakpoint x-coordinates must be strictly increasing (1.0 -> 0.5)"),
    (((-1e308, 0.0), (1e308, 0.0)), "profile width -1e+308 -> 1e+308 overflows a float"),
    (((0.0, 0.0), (1e-300, 1e10)), "segment 0 has non-finite slope inf"),
    # pairs of faults
    (((_NAN, 0.0),), "profile needs at least two breakpoints"),
    (((0.0, 0.0), (0.0, 1.0), (2.0, _NAN)), "breakpoint (2.0, nan) is not finite"),
    (((0.0, 0.0), (-1.0, 1.0), (-_INF, 0.0)), "breakpoint (-inf, 0.0) is not finite"),
    (((-1e308, 0.0), (-1e308, 0.0), (1e308, 0.0)),
     "breakpoint x-coordinates must be strictly increasing (-1e+308 -> -1e+308)"),
    (((-1e308, 0.0), (0.0, 0.0), (1e-300, 1e10), (1e308, 1e10)),
     "profile width -1e+308 -> 1e+308 overflows a float"),
    (((0.0, 0.0), (1e-300, 1e10), (1.0, _INF)), "breakpoint (1.0, inf) is not finite"),
    (((0.0, 0.0), (1e-300, 1e10), (2e-300, -1e10)), "segment 0 has non-finite slope inf"),
    (((0.0, _NAN), ("a", 1.0)), "breakpoint 1 x must be a finite number, got 'a'"),
    (((_NAN, 0.0), (1.0, 2.0, 3.0)), "too many values to unpack (expected 2)"),
    # the type rule, the first rule: the real-number rule's message, and no
    # conversion of a str or a bool
    (((0, 0), ("1", True)), "breakpoint 1 x must be a finite number, got '1'"),
    (((0.0, 0.0), (1.0, True)), "breakpoint 1 y must be a finite number, got True"),
    (((0.0, 0.0), (1.0, None)), "breakpoint 1 y must be a finite number, got None"),
    ((("a", 0.0),), "breakpoint 0 x must be a finite number, got 'a'"),
    (((0.0, 0.0), (0.0, 1.0), (2.0, False)), "breakpoint 2 y must be a finite number, got False"),
]

_STAIRCASE_REFUSALS = [
    ((0, (0.0, 1.0), (0.0,)), "n must be an int >= 1, got 0"),
    ((True, (0.0, 0.5, 1.0, 1.0), (0.0, 1.0)), "n must be an int >= 1, got True"),
    ((1.0, (0.0, 0.5, 1.0, 1.0), (0.0, 1.0)), "n must be an int >= 1, got 1.0"),
    ((1, (0.0, _NAN, 1.0, 1.0), (0.0, 1.0)),
     "xi and mu must be finite, got xi=(0.0, nan, 1.0, 1.0), mu=(0.0, 1.0)"),
    ((1, (0.0, 0.5, 1.0, 1.0), (0.0, _INF)),
     "xi and mu must be finite, got xi=(0.0, 0.5, 1.0, 1.0), mu=(0.0, inf)"),
    ((1, (0.0, 0.5, 1.0), (0.0, 1.0)), "xi must have 2n+2 = 4 entries, got 3"),
    ((1, (0.0, 0.5, 1.0, 1.0), (0.0, 0.5, 1.0)), "mu must have n+1 = 2 entries, got 3"),
    ((1, (0.1, 0.5, 1.0, 1.0), (0.0, 1.0)), "xi[0] must be 0"),
    ((1, (0.0, 0.5, 1.0, 1.0), (0.1, 1.0)), "mu[0] must be 0"),
    ((1, (0.0, 0.6, 0.5, 1.0), (0.0, 1.0)), "xi must be nondecreasing"),
    ((1, (0.0, 0.5, 1.0, 0.9), (0.0, 1.0)), "xi must be nondecreasing"),
    ((2, (0.0, 0.1, 0.2, 0.3, 0.4, 1.0), (0.0, 0.6, 0.5)), "mu must be nondecreasing"),
    ((1, (0.0, 0.5, 0.5, 1.0), (0.0, 1.0)),
     "rise 0 has height 1.0 over zero width (infinite slope)"),
    ((2, (0.0, 0.1, 0.2, 0.4, 0.4, 1.0), (0.0, 0.5, 1.0)),
     "rise 1 has height 0.5 over zero width (infinite slope)"),
    # pairs of faults
    ((0, (0.0, _NAN), (0.0,)), "n must be an int >= 1, got 0"),
    ((0, ("a", 1.0), (0.0,)), "xi[0] must be a finite number, got 'a'"),
    ((1, (0.0, _NAN, 1.0), (0.0, 1.0)),
     "xi and mu must be finite, got xi=(0.0, nan, 1.0), mu=(0.0, 1.0)"),
    ((1, (0.0, 0.5, 1.0, _INF), (0.0, 1.0, 0.5)),
     "xi and mu must be finite, got xi=(0.0, 0.5, 1.0, inf), mu=(0.0, 1.0, 0.5)"),
    ((1, (0.0, 0.5, 1.0), (0.0, 0.5, 1.0)), "xi must have 2n+2 = 4 entries, got 3"),
    ((1, (0.1, 0.5, 1.0, 1.0), (0.1, 1.0)), "xi[0] must be 0"),
    ((1, (0.1, 0.6, 0.5, 1.0), (0.0, 1.0)), "xi[0] must be 0"),
    ((2, (0.0, 0.2, 0.1, 0.3, 0.4, 1.0), (0.0, 0.6, 0.5)), "xi must be nondecreasing"),
    ((2, (0.0, 0.1, 0.2, 0.2, 0.4, 1.0), (0.0, 0.6, 0.5)), "mu must be nondecreasing"),
    ((2, (0.0, 0.1, 0.1, 0.2, 0.2, 1.0), (0.0, 0.5, 1.0)),
     "rise 0 has height 0.5 over zero width (infinite slope)"),
    ((1, (0.0, 0.5, 0.5, 0.4), (0.0, 1.0)), "xi must be nondecreasing"),
    # the type rule, the first rule: the real-number rule's message, and no
    # conversion of a str or a bool
    ((1, ("0", "0.5", True, 1.0), (False, "1")), "xi[0] must be a finite number, got '0'"),
    ((1, (0.0, 0.5, 1.0, 1.0), (False, 1.0)), "mu[0] must be a finite number, got False"),
    ((True, (0.0, 0.5, None, 1.0), (0.0, 1.0)), "xi[2] must be a finite number, got None"),
    ((1, (0.0, 0.5, 1.0, 1.0), (0.0, "1")), "mu[1] must be a finite number, got '1'"),
]


@pytest.mark.parametrize("points, message", _PROFILE_REFUSALS)
def test_profile_refusals_keep_their_messages_and_order(points, message):
    with pytest.raises(ValueError) as info:
        Profile(points)
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", _STAIRCASE_REFUSALS)
def test_staircase_refusals_keep_their_messages_and_order(args, message):
    with pytest.raises(ValueError) as info:
        StaircaseParams(*args)
    assert str(info.value) == message


def _profile_rules(points):
    # Profile's rules, each its own pass, in order: the first message or None
    pts = tuple((float(x), float(y)) for x, y in points)
    if len(pts) < 2:
        return "profile needs at least two breakpoints"
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            return f"breakpoint ({x}, {y}) is not finite"
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if not x1 > x0:
            return f"breakpoint x-coordinates must be strictly increasing ({x0} -> {x1})"
    if not math.isfinite(pts[-1][0] - pts[0][0]):
        return f"profile width {pts[0][0]} -> {pts[-1][0]} overflows a float"
    for i, ((x0, y0), (x1, y1)) in enumerate(zip(pts, pts[1:])):
        if not math.isfinite((y1 - y0) / (x1 - x0)):
            return f"segment {i} has non-finite slope {(y1 - y0) / (x1 - x0)}"
    return None


def _staircase_rules(n, xi, mu):
    # StaircaseParams' rules for an int n >= 1, each its own pass, in order
    if not all(map(math.isfinite, xi + mu)):
        return f"xi and mu must be finite, got xi={xi}, mu={mu}"
    if len(xi) != 2 * n + 2:
        return f"xi must have 2n+2 = {2 * n + 2} entries, got {len(xi)}"
    if len(mu) != n + 1:
        return f"mu must have n+1 = {n + 1} entries, got {len(mu)}"
    if xi[0] != 0.0:
        return "xi[0] must be 0"
    if mu[0] != 0.0:
        return "mu[0] must be 0"
    if any(b < a for a, b in zip(xi, xi[1:])):
        return "xi must be nondecreasing"
    if any(b < a for a, b in zip(mu, mu[1:])):
        return "mu must be nondecreasing"
    for i in range(n):
        width, height = xi[2 * i + 2] - xi[2 * i + 1], mu[i + 1] - mu[i]
        if height > 0.0 and width <= 0.0:
            return f"rise {i} has height {height} over zero width (infinite slope)"
    return None


# few distinct values, so that ties, zero widths, overflows and every
# non-finite value come up often
_EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1e-300, 1e10, 1e308, -1e308, _NAN, _INF, -_INF]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_EDGE_VALUES, _EDGE_VALUES), max_size=6), st.booleans())
def test_profile_accepts_and_refuses_as_its_rules_in_order(points, ordered):
    if ordered:
        # mostly valid: finite points, one per x, in order of x
        points = sorted({p[0]: p for p in points if all(map(math.isfinite, p))}.values())
    expected = _profile_rules(points)
    if expected is None:
        Profile(tuple(points))
    else:
        with pytest.raises(ValueError) as info:
            Profile(tuple(points))
        assert str(info.value) == expected


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(_EDGE_VALUES | st.floats(0.0, 2.0), min_size=3, max_size=9),
    st.lists(_EDGE_VALUES | st.floats(0.0, 2.0), min_size=1, max_size=5),
    st.booleans(),
)
def test_staircase_accepts_and_refuses_as_its_rules_in_order(n, xi, mu, ordered):
    if ordered:
        # mostly valid: zero starts, sorted entries, the right lengths
        xi = (0.0, *sorted(v for v in xi[: 2 * n + 1] if v == v))
        mu = (0.0, *sorted(v for v in mu[:n] if v == v))
    xi, mu = tuple(xi), tuple(mu)
    expected = _staircase_rules(n, xi, mu)
    if expected is None:
        StaircaseParams(n, xi, mu)
    else:
        with pytest.raises(ValueError) as info:
            StaircaseParams(n, xi, mu)
        assert str(info.value) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-1e6, 1e6),
    st.lists(st.tuples(st.floats(1e-6, 1e3), st.floats(-1e6, 1e6)), min_size=1, max_size=12),
)
def test_profile_slopes_are_the_quotients_of_the_breakpoints_bit_for_bit(x0, steps):
    # widths of at least 1e-6 against heights of at most 2e6: no slope overflows
    points = [(x0, 0.0)]
    for width, y in steps:
        points.append((points[-1][0] + width, y))
    profile = Profile(tuple(points))
    quotients = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(points, points[1:])]
    assert _bits(profile.slopes) == _bits(quotients)
    assert profile.breakpoints == tuple(points)
