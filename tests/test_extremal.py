import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newton2d import extremal
from newton2d.extremal import (
    LAMBDA_MAX,
    MAX_FAMILY_ELEMENTS,
    SLOPE_THRESHOLD,
    Classification,
    ExtremalCertificate,
    SolutionReport,
    SolutionStatus,
    check_certificate,
    classify_stationary,
    enumerate_minimizers,
    fo_staircase_params,
    hamiltonian,
    hamiltonian_derivatives,
    io_staircase_params,
    lambda_for_slope,
    make_certificate,
    solve,
    staircase_gradient_check,
    stationary_slopes,
)
from newton2d.functional import staircase_resistance, triangle_resistance
from newton2d.geometry import (
    Profile,
    ProblemSpec,
    StaircaseParams,
    Variant,
    make_staircase,
    make_triangle,
    validate,
)


def _bisect_root(f, lo, hi, iters=200):
    # independent root oracle: plain bisection, no scipy
    flo = f(lo)
    assert flo * f(hi) <= 0.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return (lo + hi) / 2.0


def test_constants():
    assert SLOPE_THRESHOLD == pytest.approx(math.sqrt(3.0) / 3.0, rel=1e-15)
    assert LAMBDA_MAX == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, rel=1e-15)
    # the threshold slope is exactly where the first-order response peaks
    assert lambda_for_slope(SLOPE_THRESHOLD) == pytest.approx(LAMBDA_MAX, rel=1e-14)


def test_hamiltonian_derivatives_against_finite_differences():
    lam = 0.37
    h = 1e-5
    for u in (0.1, 0.5, 1.0, 2.5):
        d1, d2, d3 = hamiltonian_derivatives(u, lam)
        fd1 = (hamiltonian(u + h, lam) - hamiltonian(u - h, lam)) / (2 * h)
        fd2 = (
            hamiltonian(u + h, lam) - 2 * hamiltonian(u, lam) + hamiltonian(u - h, lam)
        ) / h**2
        assert d1 == pytest.approx(fd1, abs=1e-8)
        assert d2 == pytest.approx(fd2, abs=1e-5)
        assert d3 == pytest.approx(
            (hamiltonian_derivatives(u + h, lam)[1] - hamiltonian_derivatives(u - h, lam)[1])
            / (2 * h),
            abs=1e-8,
        )


@settings(max_examples=300, derandomize=True)
@given(st.floats(min_value=-3.4e38, max_value=3.4e38), st.floats(0.0, 1.0))
@example(3.4e38, 0.5)
@example(-3.4e38, 0.5)
def test_hamiltonian_derivatives_keep_their_formulas_where_finite(u, lam):
    q = 1.0 + u * u
    assert hamiltonian_derivatives(u, lam) == (
        2.0 * u / q**2 - lam,
        -2.0 * (3.0 * u * u - 1.0) / q**3,
        -24.0 * u * (1.0 - u * u) / q**4,
    )


@pytest.mark.parametrize("u", [3.5e38, 1e60, -1e60, 1.34e154, 1e200, math.inf])
def test_hamiltonian_derivatives_name_a_slope_whose_curvature_overflows(u):
    # (1 + u^2)^4 overflows above about 3.4e38; 1 + u^2 itself above 1.34e154
    with pytest.raises(ValueError, match=re.escape(f"slope {u!r} is too steep")):
        hamiltonian_derivatives(u, 0.5)


def test_third_derivative_at_threshold():
    _, d2, d3 = hamiltonian_derivatives(SLOPE_THRESHOLD, 0.5)
    assert abs(d2) <= 1e-14
    assert d3 == pytest.approx(-27.0 * math.sqrt(3.0) / 16.0, rel=1e-12)


def test_stationary_slopes_structure():
    assert stationary_slopes(0.66) == ()
    assert stationary_slopes(LAMBDA_MAX) == (SLOPE_THRESHOLD,)
    slopes = stationary_slopes(0.5)
    assert len(slopes) == 2
    low, high = slopes
    assert 0.29 < low < 0.30
    assert high == pytest.approx(1.0, abs=1e-12)
    # residuals of the first-order condition
    for u in slopes:
        assert abs(2.0 * u / (1.0 + u * u) ** 2 - 0.5) <= 1e-12


def test_stationary_slopes_match_independent_bisection():
    for lam in (0.1, 0.3, 0.5, 0.6):
        low, high = stationary_slopes(lam)
        f = lambda u: 2.0 * u / (1.0 + u * u) ** 2 - lam
        assert low == pytest.approx(
            _bisect_root(f, 0.0, SLOPE_THRESHOLD), abs=1e-12
        )
        assert high == pytest.approx(
            _bisect_root(f, SLOPE_THRESHOLD, 50.0), abs=1e-12
        )


def _residual(u, lam):
    return u / (1.0 + u * u) ** 2 - lam / 2.0


@settings(max_examples=300, derandomize=True)
@given(st.floats(min_value=1e-200, max_value=LAMBDA_MAX * (1.0 - 1e-12)))
@example(1e-200)
@example(lambda_for_slope(1e10))
@example(LAMBDA_MAX * (1.0 - 1e-12))
def test_stationary_slopes_are_bracketed_by_adjacent_doubles(lam):
    low, high = stationary_slopes(lam)
    assert 0.0 < low < SLOPE_THRESHOLD < high
    for u in (low, high):
        neighbours = (math.nextafter(u, 0.0), math.nextafter(u, math.inf))
        assert any(
            _residual(u, lam) * _residual(v, lam) <= 0.0 for v in neighbours
        ), (lam, u)


@pytest.mark.parametrize("lam", [1e-230, 1e-300, 1e-320])
def test_stationary_slopes_tiny_lambda(lam):
    # g(u) = u for tiny u and 1/u^3 for huge u, so the roots are lam/2 and
    # (2/lam)^(1/3); a subnormal g carries only about 5e-324/(lam/2) of
    # relative precision, which bounds how well the high root is pinned
    low, high = stationary_slopes(lam)
    assert low == lam / 2.0
    tol = 1e-12 + 5e-324 / (lam / 2.0)
    assert high == pytest.approx(2.0 ** (1.0 / 3.0) * lam ** (-1.0 / 3.0), rel=tol)


def test_stationary_slopes_smallest_lambda_underflows_to_zero_low_root():
    low, high = stationary_slopes(5e-324)
    assert low == 0.0
    assert SLOPE_THRESHOLD < high < math.inf


def test_stationary_slopes_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        stationary_slopes(0.0)


def test_lambda_for_slope_round_trip():
    for s in (0.2, 0.9, 1.7):
        lam = lambda_for_slope(s)
        assert min(abs(u - s) for u in stationary_slopes(lam)) <= 1e-12


def test_classify_stationary_trichotomy():
    assert classify_stationary(1.0) is Classification.LOCAL_MAX
    assert classify_stationary(0.3) is Classification.LOCAL_MIN
    assert classify_stationary(SLOPE_THRESHOLD) is Classification.INFLECTION
    assert classify_stationary(SLOPE_THRESHOLD + 5e-10) is Classification.INFLECTION


def test_certificate_invariants():
    cert = make_certificate(0.5)
    assert cert.psi0 == -1.0
    assert cert.psi(0.3) == -0.5
    assert cert.classification == (
        Classification.LOCAL_MIN,
        Classification.LOCAL_MAX,
    )
    with pytest.raises(ValueError):
        ExtremalCertificate(lam=-1.0, stationary=(), classification=())
    with pytest.raises(ValueError):
        ExtremalCertificate(lam=0.5, stationary=(), classification=(), psi0=1.0)


def _exact_excess(profile):
    # drag - (r - H/2) in rationals from the breakpoints, (r, H) the last one
    pts = [(Fraction(x), Fraction(y)) for x, y in profile.breakpoints]
    drag = sum(
        (x1 - x0) ** 3 / ((x1 - x0) ** 2 + (y1 - y0) ** 2)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    )
    r, H = pts[-1]
    return drag - (r - H / 2)


def _gap_bound(profile):
    # check_certificate's pass bound, (S + 4) * 2^-52 * W
    return (len(profile.slopes) + 4) * 2.0**-52 * (profile.xs[-1] - profile.xs[0])


def _assert_gap_is_exact(profile, report):
    assert abs(Fraction(report.gap) - _exact_excess(profile)) <= Fraction(_gap_bound(profile))


def test_check_certificate_accepts_minimizing_staircase():
    spec = ProblemSpec(r=1.0, H=0.4)
    profile = make_staircase(spec, io_staircase_params(spec))
    report = check_certificate(profile, spec, lam=0.5)
    assert report.passed
    # slopes 0 and 1 both attain the Hamiltonian maximum exactly
    assert report.gap == 0.0


def test_check_certificate_accepts_steep_triangle():
    spec = ProblemSpec(r=1.0, H=2.0)
    from newton2d.geometry import make_triangle

    profile = make_triangle(spec)
    report = check_certificate(profile, spec, lam=lambda_for_slope(2.0))
    assert report.passed


def test_check_certificate_is_exact_on_triangles():
    # the slope s is itself the high stationary slope of lambda_for_slope(s),
    # so the exact Hamiltonian maximum leaves no violation either way
    from newton2d.geometry import make_triangle

    for s in (1.5, 2.0, 7.0, 40.0, 1e3, 1e6):
        spec = ProblemSpec(r=1.0, H=s)
        report = check_certificate(make_triangle(spec), spec, lam=lambda_for_slope(s))
        assert report.passed
        assert report.gap == 0.0, (s, report.gap)


def test_check_certificate_rejects_wrong_multiplier():
    spec = ProblemSpec(r=1.0, H=2.0)
    from newton2d.geometry import make_triangle

    report = check_certificate(make_triangle(spec), spec, lam=0.5)
    assert not report.passed
    # drag 0.2 against the bound r - H/2 = 0 of the wrong multiplier
    assert report.gap == pytest.approx(0.2, rel=1e-15)


def test_check_certificate_fails_a_rise_off_slope_one_by_its_width():
    # a rise at slope 1 + 1e-5 over half the width: each slope alone falls
    # only 2.5e-11 below the Hamiltonian maximum, inside a per-slope
    # tolerance such as 1e-9, but the drag exceeds r - H/2 by 1.25e-11 * r,
    # some 10^4 times the drag's own rounding
    r = 3.7
    profile = Profile(((0.0, 0.0), (r / 2, 0.0), (r, (1.0 + 1e-5) * r / 2)))
    spec = ProblemSpec(r=r, H=profile.breakpoints[-1][1])
    report = check_certificate(profile, spec, lam=0.5)
    assert max(report.h_max - v for v in report.segment_values) < 1e-9
    assert not report.passed
    assert report.gap == pytest.approx(1.25e-11 * r, rel=1e-4)
    _assert_gap_is_exact(profile, report)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    r=st.floats(1e-3, 1e3),
    h_over_r=st.one_of(st.just(1.0), st.floats(1e-17, 1.0)),
    cuts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=12),
    member=st.one_of(st.none(), st.tuples(st.integers(1, 6), st.integers(0, 2**32))),
)
def test_certificate_gap_is_the_exact_excess_drag(r, h_over_r, cuts, member):
    # a monotone polyline from (0, 0) to (r, H), H <= r, through the drawn
    # cuts, or a member of the minimizing family: at lambda = 1/2 the gap is
    # drag - (r - H/2), computed in rationals, to within the pass bound
    spec = ProblemSpec(r=r, H=h_over_r * r)
    try:
        if member is None:
            xs = sorted({r * a for a, _ in cuts} - {0.0, r})
            ys = sorted(spec.H * b for _, b in cuts)[: len(xs)]
            profile = Profile(((0.0, 0.0), *zip(xs, ys), (r, spec.H)))
        else:
            (params,) = enumerate_minimizers(spec, member[0], 1, member[1])
            profile = make_staircase(spec, params)
    except ValueError:
        # a slope that overflows, or a thin member's rise of zero width
        return
    report = check_certificate(profile, spec, lam=0.5)
    _assert_gap_is_exact(profile, report)
    if member is not None:
        assert report.passed


def test_check_certificate_fails_a_gap_beyond_the_doubles():
    # lam * u overflows: terms of both infinite signs have no sum, and four
    # terms of 1e308 sum beyond the doubles; either way the profile fails
    wedge = Profile(((0.0, 0.0), (0.5, -5e299), (1.0, 1.0)))
    report = check_certificate(wedge, ProblemSpec(1.0, 1.0, Variant.UNRESTRICTED), 1e300)
    assert math.isnan(report.gap) and not report.passed
    steep = Profile(tuple((float(i), i * 1e307) for i in range(5)))
    report = check_certificate(steep, ProblemSpec(4.0, 4e307), 10.0)
    assert report.gap == math.inf and not report.passed


def test_check_certificate_notes_unrestricted_one_sidedness():
    spec = ProblemSpec(r=1.0, H=2.0, variant=Variant.UNRESTRICTED)
    from newton2d.geometry import make_triangle

    report = check_certificate(make_triangle(spec), spec, lam=lambda_for_slope(2.0))
    assert report.passed
    assert any("one-sided" in note for note in report.notes)


def test_solve_restricted_tall_unique_triangle():
    report = solve(ProblemSpec(r=1.0, H=2.0))
    assert report.status is SolutionStatus.UNIQUE_MINIMIZER
    assert report.minimal_resistance == pytest.approx(0.2, rel=1e-12)
    assert len(report.representative_profiles) == 1
    assert report.certificate is not None


def test_solve_restricted_wide_infinite_family():
    spec = ProblemSpec(r=1.0, H=0.4)
    report = solve(spec)
    assert report.status is SolutionStatus.INFINITE_FAMILY
    assert report.minimal_resistance == pytest.approx(0.8, rel=1e-12)
    assert len(report.representative_profiles) >= 2
    from newton2d.functional import resistance_2d

    for profile in report.representative_profiles:
        assert validate(profile, spec).ok
        assert resistance_2d(profile) == pytest.approx(0.8, rel=1e-12)
        assert check_certificate(profile, spec, report.certificate.lam).passed


def test_solve_restricted_crossover_is_unique_with_note():
    report = solve(ProblemSpec(r=1.0, H=1.0))
    assert report.status is SolutionStatus.UNIQUE_MINIMIZER
    assert report.minimal_resistance == pytest.approx(0.5, rel=1e-12)
    assert any("collapses" in note for note in report.notes)


def test_solve_unrestricted_above_threshold():
    report = solve(ProblemSpec(r=1.0, H=2.0, variant=Variant.UNRESTRICTED))
    assert report.status is SolutionStatus.LOCAL_MINIMIZER_ONLY
    assert report.minimal_resistance == pytest.approx(0.2, rel=1e-12)


def test_solve_unrestricted_below_and_at_threshold():
    report = solve(ProblemSpec(r=1.0, H=0.5, variant=Variant.UNRESTRICTED))
    assert report.status is SolutionStatus.NO_SOLUTION
    assert report.minimal_resistance is None
    at = solve(
        ProblemSpec(r=1.0, H=SLOPE_THRESHOLD, variant=Variant.UNRESTRICTED)
    )
    assert at.status is SolutionStatus.NO_SOLUTION


@settings(max_examples=200, derandomize=True)
@given(
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.05, max_value=20.0),
    st.integers(min_value=-1000, max_value=1000),
)
@example(1.0, 1.0, -1000)
@example(1.0, 2.0, 1000)
def test_closed_forms_scale_exactly(r, H, k):
    # the values stay normal doubles at every k drawn, so a power-of-two
    # scale of the body must scale its drag without any rounding
    spec = ProblemSpec(r=r, H=H)
    scaled = ProblemSpec(r=math.ldexp(r, k), H=math.ldexp(H, k))
    assert triangle_resistance(scaled) == math.ldexp(triangle_resistance(spec), k)
    assert solve(scaled).minimal_resistance == math.ldexp(
        solve(spec).minimal_resistance, k
    )


def test_solve_rejects_dimension_3():
    with pytest.raises(ValueError):
        solve(ProblemSpec(r=1.0, H=1.0, dimension=3))


@pytest.mark.parametrize(
    "r, H, variant",
    [(1e-310, 1.0, "restricted"), (1e-300, 1e10, "unrestricted"), (1e-300, 1e10, "restricted")],
)
def test_solve_refuses_an_overflowing_h_over_r_before_any_profile(monkeypatch, r, H, variant):
    # H/r is +inf: refused by name, not as a non-finite segment slope
    def no_profile(*args):
        raise AssertionError("a profile was built")

    monkeypatch.setattr(extremal, "make_triangle", no_profile)
    monkeypatch.setattr(extremal, "make_staircase", no_profile)
    with pytest.raises(ValueError, match=re.escape(f"H/r = {H!r} / {r!r} overflows a double")):
        solve(ProblemSpec(r=r, H=H, variant=variant))


def test_solve_to_dict_shape():
    spec = ProblemSpec(r=1.0, H=0.4)
    payload = solve(spec).to_dict(spec)
    assert payload["status"] == "InfiniteFamily"
    assert payload["resistance"] == pytest.approx(0.8)
    assert payload["lambda"] == pytest.approx(0.5)
    assert len(payload["profiles"]) >= 2


def test_canonical_staircase_params():
    spec = ProblemSpec(r=1.0, H=0.4)
    io = io_staircase_params(spec)
    fo = fo_staircase_params(spec)
    assert staircase_resistance(io, spec) == pytest.approx(0.8, rel=1e-12)
    assert staircase_resistance(fo, spec) == pytest.approx(0.8, rel=1e-12)
    with pytest.raises(ValueError, match="flat-then-rise optimum requires H <= r"):
        io_staircase_params(ProblemSpec(r=1.0, H=2.0))
    with pytest.raises(ValueError, match="rise-then-flat optimum requires H <= r"):
        fo_staircase_params(ProblemSpec(r=1.0, H=2.0))


def test_solution_report_refuses_an_inconsistent_status():
    spec = ProblemSpec(r=1.0, H=0.4)
    with pytest.raises(ValueError, match="no-solution reports carry no resistance value"):
        SolutionReport(Variant.UNRESTRICTED, SolutionStatus.NO_SOLUTION, 0.5, (), None)
    with pytest.raises(ValueError, match="infinite-family reports need >= 2 representatives"):
        SolutionReport(
            Variant.RESTRICTED, SolutionStatus.INFINITE_FAMILY, 0.8, (make_triangle(spec),), None
        )


def test_enumerate_minimizers_family_invariance():
    spec = ProblemSpec(r=1.0, H=0.4)
    members = []
    for n in (1, 2, 3, 5):
        members.extend(enumerate_minimizers(spec, n=n, count=5, rng_seed=100 + n))
    expected = spec.r - spec.H / 2.0
    for params in members:
        value = staircase_resistance(params, spec)
        assert value == pytest.approx(expected, rel=1e-12)
        profile = make_staircase(spec, params)
        assert validate(profile, spec).ok
        assert check_certificate(profile, spec, lam=0.5).passed


def test_enumerate_minimizers_is_seeded():
    spec = ProblemSpec(r=1.0, H=0.4)
    a = enumerate_minimizers(spec, n=3, count=4, rng_seed=9)
    b = enumerate_minimizers(spec, n=3, count=4, rng_seed=9)
    assert a == b
    c = enumerate_minimizers(spec, n=3, count=4, rng_seed=10)
    assert a != c


def test_enumerate_minimizers_rejects_bad_inputs():
    with pytest.raises(ValueError):
        enumerate_minimizers(ProblemSpec(r=1.0, H=2.0), n=1, count=1, rng_seed=0)
    with pytest.raises(ValueError):
        enumerate_minimizers(
            ProblemSpec(r=1.0, H=0.4, variant=Variant.UNRESTRICTED),
            n=1,
            count=1,
            rng_seed=0,
        )


def test_gradient_vanishes_at_family_points():
    spec = ProblemSpec(r=1.0, H=0.4)
    for n in (1, 2, 3):
        members = enumerate_minimizers(spec, n=n, count=3, rng_seed=21 + n)
        for params in members:
            if any(w <= 0.0 for w in params.flat_widths):
                continue  # boundary member: reduced gradient needs interiority
            report = staircase_gradient_check(params, spec)
            assert report.analytic_norm <= 1e-8
            assert report.finite_difference_norm <= 1e-6


def test_gradient_nonzero_off_family_and_matches_fd():
    spec = ProblemSpec(r=1.0, H=0.4)
    # rise slope 2, not 1: not a stationary point of the reduced drag
    params = StaircaseParams(n=1, xi=(0.0, 0.5, 0.7, 1.0), mu=(0.0, 0.4))
    report = staircase_gradient_check(params, spec)
    assert report.analytic_norm > 0.05
    assert np.allclose(
        report.analytic, report.finite_difference, atol=1e-6, rtol=1e-6
    )


def test_gradient_check_rejects_boundary_points():
    spec = ProblemSpec(r=1.0, H=0.4)
    params = StaircaseParams(n=1, xi=(0.0, 0.0, 0.4, 1.0), mu=(0.0, 0.4))
    with pytest.raises(ValueError, match="boundary"):
        staircase_gradient_check(params, spec)


@pytest.mark.parametrize("r, H", [(2.0, 0.4), (1.0, 0.5)])
def test_gradient_check_rejects_parameters_of_another_spec(r, H):
    params = StaircaseParams(n=1, xi=(0.0, 0.3, 0.7, 1.0), mu=(0.0, 0.4))
    with pytest.raises(ValueError, match="staircase parameters inconsistent with problem spec"):
        staircase_gradient_check(params, ProblemSpec(r=r, H=H))


@pytest.mark.parametrize("seed", [-1, True, 2.0, None])
def test_enumerate_minimizers_rejects_bad_seeds(seed):
    with pytest.raises(ValueError, match="rng_seed must be a non-negative int"):
        enumerate_minimizers(ProblemSpec(r=1.0, H=0.4), n=2, count=1, rng_seed=seed)


def _reference_minimizers(spec, n, count, rng_seed):
    # the per-member loop enumerate_minimizers replaced: one rng.dirichlet
    # call per budget and member, breakpoints summed one width at a time
    rng = np.random.default_rng(rng_seed)
    flat_budget = spec.r - spec.H
    members = []
    for _ in range(count):
        rises = rng.dirichlet(np.ones(n)) * spec.H if n > 1 else np.array([spec.H])
        if flat_budget > 0.0:
            flats = rng.dirichlet(np.ones(n + 1)) * flat_budget
        else:
            flats = np.zeros(n + 1)
        xi = [0.0]
        mu = [0.0]
        x = 0.0
        y = 0.0
        for i in range(n):
            x += float(flats[i])
            xi.append(x)
            x += float(rises[i])
            xi.append(x)
            y += float(rises[i])
            mu.append(y)
        xi.append(spec.r)
        xi[2 * n] = min(xi[2 * n], spec.r)
        mu[n] = spec.H
        members.append(StaircaseParams(n=n, xi=tuple(xi), mu=tuple(mu)))
    return members


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 12),
    count=st.integers(1, 50),
    r=st.floats(1e-3, 1e3),
    # below about 1e-15 a rise rounds to zero width next to the flats, and
    # StaircaseParams refuses the member in both versions alike
    h_over_r=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
    seed=st.integers(0, 2**64 - 1),
)
@example(n=1, count=1, r=1.0, h_over_r=1.0, seed=0)
@example(n=1, count=50, r=1.0, h_over_r=0.4, seed=1)
@example(n=12, count=50, r=1.0, h_over_r=1.0, seed=2)
def test_enumerate_minimizers_matches_per_member_dirichlet(n, count, r, h_over_r, seed):
    spec = ProblemSpec(r=r, H=h_over_r * r)
    members = enumerate_minimizers(spec, n=n, count=count, rng_seed=seed)
    assert members == _reference_minimizers(spec, n, count, seed)
    for params in members:
        assert all(type(v) is float for v in params.xi + params.mu)


def test_enumerate_minimizers_refuses_a_family_above_the_cap_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a refused family must not open a stream")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    spec = ProblemSpec(r=1.0, H=0.4)
    n = 7
    count = MAX_FAMILY_ELEMENTS // (2 * n + 1) + 1
    with pytest.raises(ValueError, match="family too large"):
        enumerate_minimizers(spec, n=n, count=count, rng_seed=0)
    with pytest.raises(ValueError, match="family too large"):
        enumerate_minimizers(spec, n=MAX_FAMILY_ELEMENTS, count=1, rng_seed=0)


def test_certifying_a_family_bisects_once_per_multiplier():
    spec = ProblemSpec(r=1.0, H=0.4)
    members = enumerate_minimizers(spec, n=4, count=100, rng_seed=11)
    profiles = [make_staircase(spec, params) for params in members]
    stationary_slopes.cache_clear()
    assert all(check_certificate(p, spec, lam=0.5).passed for p in profiles)
    info = stationary_slopes.cache_info()
    assert (info.misses, info.hits) == (1, 99)


@pytest.mark.parametrize(
    "lam",
    [5e-324, 1e-300, 1e-12, 0.1, 0.5, lambda_for_slope(3.0), LAMBDA_MAX * (1.0 - 1e-12),
     LAMBDA_MAX, 0.66, 1.0, 1e300],
)
def test_cached_slopes_equal_a_fresh_bisection(lam):
    first = stationary_slopes(lam)
    assert stationary_slopes(lam) is first
    assert first == stationary_slopes.__wrapped__(lam)
    assert type(first) is tuple


@pytest.mark.parametrize("lam", [0.0, -0.0, -0.5, math.nan, math.inf, -math.inf])
def test_bad_multiplier_raises_on_every_call(lam):
    spec = ProblemSpec(r=1.0, H=0.4)
    profile = make_staircase(spec, io_staircase_params(spec))
    size = stationary_slopes.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            stationary_slopes(lam)
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            check_certificate(profile, spec, lam)
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            make_certificate(lam)
    assert stationary_slopes.cache_info().currsize == size


@settings(max_examples=300, derandomize=True)
@given(st.floats(min_value=5e-324, max_value=1.1e77))
@example(5e-324)
@example(1.1e77)
def test_lambda_for_slope_keeps_its_formula_where_finite(s):
    lam = lambda_for_slope(s)
    assert lam == 2.0 * s / (1.0 + s * s) ** 2
    assert 0.0 < lam < math.inf


@pytest.mark.parametrize("s", [1.2e77, 1e100, 1.34e154, 1e160, 1e308])
def test_lambda_for_slope_names_a_slope_whose_denominator_overflows(s):
    with pytest.raises(ValueError, match=re.escape(f"slope {s!r} is too steep")):
        lambda_for_slope(s)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_lambda_for_slope_rejects_non_positive_or_non_finite(s):
    with pytest.raises(ValueError, match="slope must be positive and finite"):
        lambda_for_slope(s)


@pytest.mark.parametrize("H", [1e-17, 1e-300, 2.0**-53])
def test_solve_refuses_a_body_whose_staircase_cannot_be_written_in_doubles(H):
    # r - H rounds to r below H = 2^-54, and the two-rise representative's
    # second rise rounds to zero width at H = 2^-53
    with pytest.raises(ValueError, match=re.escape(f"H/r = {H!r} is too small")):
        solve(ProblemSpec(r=1.0, H=H))


def test_enumerate_refuses_a_family_whose_rises_round_to_zero_width():
    with pytest.raises(ValueError, match=re.escape("H/r = 1e-15 is too small")):
        enumerate_minimizers(ProblemSpec(r=1.0, H=1e-15), 3, 20, 1)
    # the only rise rounds to zero width, so no rise slope is left to check
    with pytest.raises(ValueError, match=re.escape("H/r = 1e-17 is too small")):
        enumerate_minimizers(ProblemSpec(r=1.0, H=1e-17), 1, 1, 0)


# the largest exact excess drag of the 50 members of each thin family
_THIN_FAMILY_EXCESS = {1e-13: 7.445026029370274e-19, 1e-11: 2.6915289794992978e-20, 1e-10: 1.5464072590075722e-21}


@pytest.mark.parametrize("H", list(_THIN_FAMILY_EXCESS))
def test_enumerate_answers_a_thin_family_with_its_exact_gaps(H):
    # r - H and the sums of widths round, so a rise misses slope 1, but over
    # so small a width that each member's drag exceeds r - H/2 by far less
    # than its own rounding: the largest exact excess of the 50 is pinned
    spec = ProblemSpec(r=1.0, H=H)
    members = enumerate_minimizers(spec, 3, 50, 1)
    assert members == _reference_minimizers(spec, 3, 50, 1)
    profiles = [make_staircase(spec, params) for params in members]
    assert float(max(map(_exact_excess, profiles))) == _THIN_FAMILY_EXCESS[H]
    for profile in profiles:
        report = check_certificate(profile, spec, 0.5)
        assert report.passed
        _assert_gap_is_exact(profile, report)


@pytest.mark.parametrize("r", [1.0, 3.7, 1e-3])
def test_thin_families_are_refused_or_certified(r):
    # H/r on a log grid from 1e-15 to 1, five points a decade: the family is
    # refused by name or every member passes its certificate, and a family
    # that is drawn keeps the bits of the per-member reference
    for k in range(-75, 1):
        spec = ProblemSpec(r=r, H=r * 10.0 ** (k / 5))
        for n in (1, 3):
            try:
                members = enumerate_minimizers(spec, n, 50, 1)
            except ValueError as exc:
                assert f"H/r = {spec.H / spec.r!r} is too small" in str(exc)
                assert "over zero width" in str(exc)
                continue
            assert members == _reference_minimizers(spec, n, 50, 1)
            for params in members:
                assert check_certificate(make_staircase(spec, params), spec, 0.5).passed, spec


# the exact excess drag of solve's three representatives of each thin body
_THIN_BODY_EXCESS = {
    1e-16: (2.720850459411498e-19, 0.0, 6.415102186762966e-18),
    1e-14: (1.5983897001347472e-21, 0.0, 1.5983897001347472e-21),
    1e-12: (1.223453317425676e-22, 0.0, 2.2773840652592124e-21),
}


@pytest.mark.parametrize("H", list(_THIN_BODY_EXCESS))
def test_solve_answers_a_thin_body_with_its_exact_gap(H):
    # r - H rounds, so the flat-then-rise rise (and the two-rise member's)
    # misses slope 1, but over so small a width that the drag exceeds
    # r - H/2 by far less than its own rounding: each excess is pinned
    spec = ProblemSpec(r=1.0, H=H)
    report = solve(spec)
    assert report.status is SolutionStatus.INFINITE_FAMILY
    assert report.minimal_resistance == 1.0 - H / 2.0
    excess = tuple(float(_exact_excess(p)) for p in report.representative_profiles)
    assert excess == _THIN_BODY_EXCESS[H]
    for profile in report.representative_profiles:
        certificate = check_certificate(profile, spec, report.certificate.lam)
        assert certificate.passed
        _assert_gap_is_exact(profile, certificate)


def test_solve_still_writes_the_smallest_staircases_that_fit_in_doubles():
    spec = ProblemSpec(r=1.0, H=1e-11)
    report = solve(spec)
    assert report.status is SolutionStatus.INFINITE_FAMILY
    assert len(report.representative_profiles) == 3
    assert all(check_certificate(p, spec, 0.5).passed for p in report.representative_profiles)


@pytest.mark.parametrize("r", [1.0, 3.7, 1e-3])
def test_thin_bodies_are_refused_or_certified(r):
    # H/r on a log grid from 1e-17 to 1, ten points a decade: solve either
    # refuses the body by name or prints representatives that all pass
    for k in range(-170, 1):
        spec = ProblemSpec(r=r, H=r * 10.0 ** (k / 10))
        try:
            report = solve(spec)
        except ValueError as exc:
            assert f"H/r = {spec.H / spec.r!r} is too small" in str(exc)
            assert "over zero width" in str(exc)
            continue
        for profile in report.representative_profiles:
            assert check_certificate(profile, spec, report.certificate.lam).passed, spec
