import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_staircase_rejects_endpoint_mismatch():
    spec = ProblemSpec(r=2.0, H=1.0)
    params = StaircaseParams(n=1, xi=(0.0, 0.0, 1.0, 1.0), mu=(0.0, 1.0))
    with pytest.raises(ValueError, match="spec.r"):
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
    assert profile.xs is profile.xs
    assert profile.ys is profile.ys
    assert profile.slopes is profile.slopes
    assert profile.slopes == (0.0, 2.0, 0.5)
    fresh = Profile(points)
    assert profile == fresh and hash(profile) == hash(fresh)
    assert repr(profile) == repr(fresh)


def test_profile_rejects_nonincreasing_x():
    with pytest.raises(ValueError):
        Profile(((0.0, 0.0), (0.5, 0.2), (0.5, 0.4)))


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
