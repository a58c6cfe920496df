import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton2d.functional import (
    branch_resistance_final_flat,
    branch_resistance_initial_flat,
    resistance_2d,
    resistance_3d,
    resistance_difference,
    resistance_difference_closed_form,
    staircase_resistance,
    triangle_resistance,
)
from newton2d.geometry import (
    CounterexampleParams,
    ProblemSpec,
    Profile,
    StaircaseParams,
    Variant,
    make_counterexample,
    make_staircase,
    make_triangle,
)


@pytest.mark.parametrize("r,H,expected", [(1.0, 1.0, 0.5), (1.0, 2.0, 0.2), (2.0, 1.0, 1.6)])
def test_triangle_resistance_golden(r, H, expected):
    spec = ProblemSpec(r=r, H=H)
    assert triangle_resistance(spec) == pytest.approx(expected, rel=1e-12)
    assert resistance_2d(make_triangle(spec)) == pytest.approx(expected, rel=1e-12)


def test_resistance_2d_matches_per_segment_sum():
    # independent evaluation: sample the slope within each segment interior
    profile = Profile(((0.0, 0.0), (0.3, 0.0), (0.5, 0.2), (0.9, 0.3), (1.0, 0.4)))
    total = 0.0
    for (x0, y0), (x1, y1) in zip(profile.breakpoints, profile.breakpoints[1:]):
        u = profile.slope_at((x0 + x1) / 2.0)
        assert u == pytest.approx((y1 - y0) / (x1 - x0))
        total += (x1 - x0) / (1.0 + u * u)
    assert resistance_2d(profile) == pytest.approx(total, rel=1e-15)


def test_staircase_resistance_golden():
    for r, H, expected in [(1.0, 0.4, 0.8), (1.0, 0.5, 0.75)]:
        spec = ProblemSpec(r=r, H=H)
        params = StaircaseParams(
            n=1, xi=(0.0, r - H, r, r), mu=(0.0, H)
        )
        assert staircase_resistance(params, spec) == pytest.approx(expected, rel=1e-12)
        profile = make_staircase(spec, params)
        assert resistance_2d(profile) == pytest.approx(expected, rel=1e-12)


def test_staircase_resistance_agrees_with_profile_evaluation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = float(rng.uniform(0.5, 2.0))
        H = float(rng.uniform(0.1, 0.9)) * r
        spec = ProblemSpec(r=r, H=H)
        n = int(rng.integers(1, 4))
        rises = rng.dirichlet(np.ones(n)) * H
        flats = rng.dirichlet(np.ones(n + 1)) * (r - H)
        xi = [0.0]
        mu = [0.0]
        x = 0.0
        for i in range(n):
            x += flats[i]
            xi.append(x)
            x += rises[i]
            xi.append(x)
            mu.append(mu[-1] + rises[i])
        xi.append(r)
        xi[2 * n] = min(xi[2 * n], r)
        mu[n] = H
        params = StaircaseParams(n=n, xi=tuple(xi), mu=tuple(mu))
        direct = resistance_2d(make_staircase(spec, params))
        assert staircase_resistance(params, spec) == direct


def test_counterexample_resistance_golden():
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    for a, expected in [(3.0, 0.1), (10.0, 1.0 / 101.0)]:
        profile = make_counterexample(spec, CounterexampleParams(a=a))
        assert resistance_2d(profile) == pytest.approx(expected, rel=1e-12)


def test_counterexample_resistance_vanishes_with_slope():
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    values = [
        resistance_2d(make_counterexample(spec, CounterexampleParams(a=a)))
        for a in (2.0, 5.0, 20.0, 100.0)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_resistance_3d_cone_and_flat_disc():
    # straight generatrix of slope H/r: R = r^2 / (2 (1 + (H/r)^2))
    cone = make_triangle(ProblemSpec(r=1.0, H=1.0, dimension=3))
    assert resistance_3d(cone) == pytest.approx(0.25, rel=1e-12)
    flat = Profile(((0.0, 0.0), (2.0, 0.0)))
    assert resistance_3d(flat) == pytest.approx(2.0, rel=1e-12)


def test_resistance_3d_is_x_weighted():
    # same slopes, but segments near the rim weigh more
    inner_rise = Profile(((0.0, 0.0), (0.5, 0.5), (1.0, 0.5)))
    outer_rise = Profile(((0.0, 0.0), (0.5, 0.0), (1.0, 0.5)))
    assert resistance_3d(inner_rise) > resistance_3d(outer_rise)
    assert resistance_2d(inner_rise) == pytest.approx(resistance_2d(outer_rise))


def test_branch_initial_flat_minimum_at_r_minus_H():
    spec = ProblemSpec(r=1.0, H=0.4)
    xs = np.linspace(0.0, 1.0, 2001)[:-1]
    values = [branch_resistance_initial_flat(float(x), spec) for x in xs]
    best = xs[int(np.argmin(values))]
    assert best == pytest.approx(spec.r - spec.H, abs=1e-3)
    assert branch_resistance_initial_flat(spec.r - spec.H, spec) == pytest.approx(
        spec.r - spec.H / 2.0, rel=1e-12
    )


def test_branch_final_flat_minimum_at_H():
    spec = ProblemSpec(r=1.0, H=0.4)
    xs = np.linspace(0.001, 1.0, 2000)
    values = [branch_resistance_final_flat(float(x), spec) for x in xs]
    best = xs[int(np.argmin(values))]
    assert best == pytest.approx(spec.H, abs=1e-3)
    assert branch_resistance_final_flat(spec.H, spec) == pytest.approx(
        spec.r - spec.H / 2.0, rel=1e-12
    )


def test_branch_domain_validation():
    spec = ProblemSpec(r=1.0, H=0.4)
    with pytest.raises(ValueError):
        branch_resistance_initial_flat(1.0, spec)
    with pytest.raises(ValueError):
        branch_resistance_final_flat(0.0, spec)
    with pytest.raises(ValueError):
        resistance_difference(1.5, spec)


def test_difference_matches_closed_form_randomly():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        r = float(rng.uniform(0.2, 3.0))
        H = float(rng.uniform(0.2, 3.0))
        xi = float(rng.uniform(0.0, r))
        spec = ProblemSpec(r=r, H=H)
        direct = resistance_difference(xi, spec)
        closed = resistance_difference_closed_form(xi, spec)
        scale = max(abs(direct), abs(closed), 1e-3)
        assert abs(direct - closed) <= 1e-12 * scale


def test_difference_sign_pattern():
    # triangle wins whenever r < H; rise-then-flat wins at xi = H when r > H
    tall = ProblemSpec(r=1.0, H=2.0)
    for xi in (0.2, 0.5, 0.9):
        assert resistance_difference(xi, tall) < 0.0
    wide = ProblemSpec(r=1.0, H=0.4)
    assert resistance_difference(wide.H, wide) > 0.0


def test_difference_vanishes_at_xi_equal_r():
    spec = ProblemSpec(r=1.3, H=0.7)
    assert resistance_difference(spec.r, spec) == pytest.approx(0.0, abs=1e-15)
    assert resistance_difference_closed_form(spec.r, spec) == 0.0


EPS = np.finfo(float).eps


@st.composite
def _dyadic_contours_with_a_split(draw):
    # widths k/16 and slopes j/4, scaled by 2^e, keep every breakpoint exact,
    # so splitting segment i at m/256 of the way gives two pieces of exactly
    # its slope
    n = draw(st.integers(1, 40))
    widths = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    slopes = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    scale = math.ldexp(1.0, draw(st.integers(-60, 60)))
    pts = [(0.0, 0.0)]
    for w, u in zip(widths, slopes):
        pts.append((pts[-1][0] + scale * w / 16, pts[-1][1] + scale * (w / 16) * (u / 4)))
    i = draw(st.integers(0, n - 1))
    m = draw(st.integers(1, 16 * widths[i] - 1))
    x0, y0 = pts[i]
    split = (x0 + scale * m / 256, y0 + scale * (m / 256) * (slopes[i] / 4))
    return Profile(tuple(pts)), Profile(tuple(pts[: i + 1] + [split] + pts[i + 1 :]))


@settings(max_examples=300, deadline=None)
@given(_dyadic_contours_with_a_split())
def test_resistance_2d_is_unchanged_by_subdividing_a_segment(contours):
    # both sums price the same slopes, so they share their exact value T;
    # each term is one rounded division and the running sum of S or S + 1
    # non-negative terms adds at most (S - 1) or S half-ulps, so the two
    # differ by at most (S + 1/2) eps T, within (S + 1) eps of either
    whole, split = contours
    n_seg = len(whole.slopes)
    assert len(split.slopes) == n_seg + 1
    a, b = resistance_2d(whole), resistance_2d(split)
    assert abs(a - b) <= (n_seg + 1) * EPS * a
