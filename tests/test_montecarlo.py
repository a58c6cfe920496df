import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton2d import montecarlo
from newton2d.extremal import io_staircase_params
from newton2d.functional import resistance_2d
from newton2d.geometry import (
    CounterexampleParams,
    ProblemSpec,
    Profile,
    Variant,
    make_counterexample,
    make_staircase,
    make_triangle,
)
from newton2d.montecarlo import (
    MAX_SAMPLES,
    estimate_resistance,
    impact_at,
    reflect,
    single_collision_check,
)


def test_reflect_flat_and_unit_slope():
    assert reflect((0.0, -1.0), 0.0) == pytest.approx([0.0, 1.0])
    assert reflect((0.0, -1.0), 1.0) == pytest.approx([-1.0, 0.0])


def test_reflect_preserves_unit_norm():
    rng = np.random.default_rng(99)
    angles = rng.uniform(0.0, 2.0 * np.pi, 10_000)
    slopes = rng.uniform(-5.0, 5.0, 10_000)
    for theta, u in zip(angles, slopes):
        v = (float(np.cos(theta)), float(np.sin(theta)))
        out = reflect(v, float(u))
        assert abs(float(np.hypot(out[0], out[1])) - 1.0) <= 1e-14


def test_reflect_rejects_non_unit_velocity():
    with pytest.raises(ValueError, match="unit vector"):
        reflect((0.0, -2.0), 1.0)


def test_axial_impulse_closed_form():
    # momentum transfer of a vertical particle: 2/(1+u^2)
    rng = np.random.default_rng(17)
    profile = make_triangle(ProblemSpec(r=1.0, H=0.7))
    for u in rng.uniform(-4.0, 4.0, 10_000):
        out = reflect((0.0, -1.0), float(u))
        impulse = float(out[1]) + 1.0
        assert impulse == pytest.approx(2.0 / (1.0 + u * u), abs=1e-14)
    record = impact_at(profile, 0.5)
    assert record.slope == 0.7
    assert record.axial_impulse == pytest.approx(2.0 / 1.49, abs=1e-14)


def test_estimate_on_triangle_has_zero_variance():
    # single segment: every sample transfers the same momentum
    profile = make_triangle(ProblemSpec(r=1.0, H=1.0))
    est = estimate_resistance(profile, n_samples=1000, rng_seed=0)
    assert est.estimate == pytest.approx(0.5, rel=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-15)


def test_estimate_matches_exact_drag_on_staircase():
    spec = ProblemSpec(r=1.0, H=0.4)
    profile = make_staircase(spec, io_staircase_params(spec))
    est = estimate_resistance(profile, n_samples=1_000_000, rng_seed=42)
    assert abs(est.estimate - 0.8) <= 3.0 * est.std_error
    assert abs(est.estimate - 0.8) / 0.8 <= 0.01
    assert est.std_error < 5e-4


def test_estimate_matches_exact_drag_on_random_profiles():
    rng = np.random.default_rng(31)
    for _ in range(10):
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 4)), [1.0]])
        xs = np.unique(xs)
        ys = np.concatenate([[0.0], rng.uniform(0.0, 1.0, xs.size - 1)])
        profile = Profile(tuple(zip(xs.tolist(), ys.tolist())))
        exact = resistance_2d(profile)
        est = estimate_resistance(profile, n_samples=200_000, rng_seed=7)
        assert abs(est.estimate - exact) <= 4.0 * max(est.std_error, 1e-12)


def test_estimate_is_deterministic_per_seed():
    spec = ProblemSpec(r=1.0, H=0.4)
    profile = make_staircase(spec, io_staircase_params(spec))
    a = estimate_resistance(profile, n_samples=10_000, rng_seed=5)
    b = estimate_resistance(profile, n_samples=10_000, rng_seed=5)
    c = estimate_resistance(profile, n_samples=10_000, rng_seed=6)
    assert a.estimate == b.estimate
    assert a.estimate != c.estimate


def test_estimate_rejects_empty_sample():
    profile = make_triangle(ProblemSpec(r=1.0, H=1.0))
    with pytest.raises(ValueError):
        estimate_resistance(profile, n_samples=0, rng_seed=0)


def test_estimate_fields_are_python_scalars():
    # JSON output takes them as they are, with no numpy conversion
    spec = ProblemSpec(r=1.0, H=0.4)
    est = estimate_resistance(make_staircase(spec, io_staircase_params(spec)), 1000, 3)
    assert type(est.estimate) is float
    assert type(est.std_error) is float
    assert est.std_error > 0.0


def test_estimate_to_dict_round_trip_keys():
    profile = make_triangle(ProblemSpec(r=1.0, H=1.0))
    payload = estimate_resistance(profile, n_samples=10, rng_seed=1).to_dict()
    assert set(payload) == {"estimate", "std_error", "n_samples", "seed"}


def test_single_collision_passes_for_monotone_staircase():
    spec = ProblemSpec(r=1.0, H=0.4)
    profile = make_staircase(spec, io_staircase_params(spec))
    report = single_collision_check(profile)
    assert report.passed
    assert report.reintersections == ()
    assert report.notes == ()


def test_single_collision_wedge_has_no_reintersection_but_is_flagged():
    # the descending face reflects rays with slope (a^2-1)/(2a) < a, so they
    # escape over the peak; the negative-slope face is still noted
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    report = single_collision_check(
        make_counterexample(spec, CounterexampleParams(a=3.0))
    )
    assert report.passed
    assert any("negative-slope" in note for note in report.notes)


def test_single_collision_detects_reintersection_in_a_valley():
    profile = Profile(((0.0, 0.0), (0.4, 2.0), (0.6, 0.5), (1.0, 2.0)))
    report = single_collision_check(profile)
    assert not report.passed
    assert (1, 2) in report.reintersections


def test_single_collision_detects_steep_face_over_a_concave_corner():
    # segment 2 (slope 3.11) sends its rays down and to the left, into the
    # two faces before it; the ray from its midpoint alone misses them
    profile = Profile(
        ((0.0, 0.0), (0.47, 0.668), (0.66, 0.840), (0.87, 1.493), (1.0, 1.5))
    )
    report = single_collision_check(profile)
    assert report.reintersections == ((2, 0), (2, 1))
    assert not report.passed
    assert report.notes == ()


@pytest.mark.parametrize("k", [-1000, 1000])
def test_single_collision_report_is_scale_free(k):
    # scaling by a power of two is exact, so the report must not move
    for pts in (
        ((0.0, 0.0), (0.47, 0.668), (0.66, 0.840), (0.87, 1.493), (1.0, 1.5)),
        ((0.0, 0.0), (0.4, 2.0), (0.6, 0.5), (1.0, 2.0)),
    ):
        scaled = Profile(tuple((math.ldexp(x, k), math.ldexp(y, k)) for x, y in pts))
        assert single_collision_check(scaled) == single_collision_check(Profile(pts))


def _dense_ray_counts(profile: Profile, n_rays: int) -> np.ndarray:
    # counts[i, j]: how many of n_rays reflected rays, one from the middle of
    # each of n_rays equal parts of segment i, meet segment j; the reflected
    # direction of a downward particle is (-2u, 1 - u^2) / (1 + u^2)
    pts = np.array(profile.breakpoints)
    start, edge = pts[:-1], np.diff(pts, axis=0)
    u = edge[:, 1] / edge[:, 0]
    direction = np.stack([-2.0 * u, 1.0 - u * u], axis=1) / (1.0 + u * u)[:, None]
    t = (np.arange(n_rays) + 0.5) / n_rays
    n_seg = len(edge)
    counts = np.zeros((n_seg, n_seg), dtype=int)
    for i in range(n_seg):
        dx, dy = direction[i]
        origin = start[i] + t[:, None] * edge[i]
        for j in range(n_seg):
            bx, by = edge[j]
            den = dx * by - dy * bx
            if j == i or den == 0.0:
                continue
            qx, qy = (start[j] - origin).T
            # a ray nearly parallel to segment j overflows tau, and misses
            with np.errstate(over="ignore"):
                along = (qx * by - qy * bx) / den
                tau = (qx * dy - qy * dx) / den
            counts[i, j] = np.count_nonzero((along > 1e-12) & (tau >= 0.0) & (tau <= 1.0))
    return counts


@st.composite
def _contours(draw):
    n = draw(st.integers(2, 6))
    low = draw(st.sampled_from([0.0, -3.0]))  # monotone or not
    # dyadic widths keep slopes of exactly 0 and +-1 exact, and repeated
    # zeros make plateaus
    widths = draw(
        st.lists(st.floats(0.05, 1.0) | st.sampled_from([0.125, 0.25, 0.5]), min_size=n, max_size=n)
    )
    exact = st.sampled_from([0.0, 1.0] if low == 0.0 else [0.0, 1.0, -1.0])
    slopes = draw(st.lists(st.floats(low, 3.0) | exact, min_size=n, max_size=n))
    pts = [(0.0, 0.0)]
    for w, u in zip(widths, slopes):
        pts.append((pts[-1][0] + w, pts[-1][1] + w * u))
    return Profile(tuple(pts))


N_RAYS = 2001


@settings(max_examples=200, deadline=None)
@given(_contours())
def test_single_collision_agrees_with_dense_rays(profile):
    # a pair's t-measure and its ray count agree to about one ray spacing,
    # so only pairs clearly above it are compared: three rays confirm a
    # measure of at least 2/N_RAYS, far above ray_tol, and a measure above
    # 3/N_RAYS holds at least three rays
    counts = _dense_ray_counts(profile, N_RAYS)
    report = single_collision_check(profile)
    assert report.reintersections == tuple(sorted(report.reintersections))
    assert report.passed == (not report.reintersections)
    confirmed = set(zip(*(idx.tolist() for idx in np.nonzero(counts >= 3))))
    assert confirmed <= set(report.reintersections)
    wide = single_collision_check(profile, ray_tol=3.0 / N_RAYS).reintersections
    assert all(counts[i, j] >= 3 for i, j in wide)


def _all_pairs_reference(profile: Profile, ray_tol: float) -> tuple[tuple[int, int], ...]:
    # single_collision_check's evaluation over every row, without the bound:
    # each segment i against all S + 1 breakpoints in one dense table
    x, y = np.array(profile.breakpoints).T
    u = np.array(profile.slopes)
    dx, dy = reflect((0.0, -1.0), u)
    width = x[1:] - x[:-1]
    rx = x - x[:-1, None]
    ry = y - y[:-1, None]
    t = rx * (dy / width)[:, None] - ry * (dx / width)[:, None]
    s = ry - rx * u[:, None]
    inside = s > 0.0
    t0, t1, s0, s1 = t[:, :-1], t[:, 1:], s[:, :-1], s[:, 1:]
    in0, in1 = inside[:, :-1], inside[:, 1:]
    t_cross = s0 * t1 - s1 * t0
    np.divide(t_cross, s0 - s1, out=t_cross, where=in0 != in1)
    ta = np.where(in0, t0, t_cross)
    tb = np.where(in1, t1, t_cross)
    extent = np.minimum(np.maximum(ta, tb), 1.0) - np.maximum(np.minimum(ta, tb), 0.0)
    np.fill_diagonal(extent, 0.0)
    return tuple(zip(*(idx.tolist() for idx in np.nonzero(extent > ray_tol))))


@settings(max_examples=300, deadline=None)
@given(_contours())
def test_single_collision_equals_the_all_pairs_evaluation(profile):
    # the bound drops only rows whose pairs have exact extent 0
    for tol in (1e-9, 3.0 / N_RAYS):
        report = single_collision_check(profile, ray_tol=tol)
        assert report.reintersections == _all_pairs_reference(profile, tol)


def _rows_evaluated(monkeypatch, profile: Profile) -> int:
    # every evaluated row reflects its slope once, in one call
    seen = []

    def counting(velocity, slope):
        seen.append(np.size(slope))
        return reflect(velocity, slope)

    monkeypatch.setattr(montecarlo, "reflect", counting)
    single_collision_check(profile)
    return sum(seen)


def _sawtooth(teeth: int, a: float) -> Profile:
    # up/down teeth of slope +-a rising to (1, 1): each down face's rays run
    # right into the next up face
    w, dy = 1.0 / teeth, 1.0 / teeth
    up = (w + dy / a) / 2.0
    pts = [(0.0, 0.0)]
    for i in range(teeth):
        pts += [(i * w + up, i * dy + a * up), ((i + 1) * w, (i + 1) * dy)]
    return Profile(tuple(pts))


@pytest.mark.parametrize("rise", [1.0, -1.0])
def test_single_collision_evaluates_no_row_of_an_exact_staircase(monkeypatch, rise):
    # dyadic widths: every rise has slope exactly 1 (or -1, the mirror image,
    # whose rays travel right), every flat 0
    widths = np.random.default_rng(3).integers(1, 64, 200) / 64.0
    xs = np.cumsum(np.r_[0.0, widths])
    ys = np.cumsum(np.r_[0.0, widths * np.tile([rise, 0.0], 100)])
    profile = Profile(tuple(zip(xs.tolist(), ys.tolist())))
    assert set(profile.slopes) == {0.0, rise}
    assert _rows_evaluated(monkeypatch, profile) == 0
    assert single_collision_check(profile).passed


def test_single_collision_evaluates_every_row_of_the_sawtooth(monkeypatch):
    profile = _sawtooth(4, 3.0)
    assert _rows_evaluated(monkeypatch, profile) == 8
    assert single_collision_check(profile).reintersections == _all_pairs_reference(profile, 1e-9)
    assert {(1, 2), (3, 4), (5, 6)} <= set(single_collision_check(profile).reintersections)


def test_single_collision_drops_a_flat_valley_floor(monkeypatch):
    # both walls rise above the floor, yet its rays are vertical
    profile = Profile(((0.0, 2.0), (1.0, 0.0), (2.0, 0.0), (3.0, 2.0)))
    assert _rows_evaluated(monkeypatch, profile) == 2
    assert single_collision_check(profile).reintersections == _all_pairs_reference(profile, 1e-9)


def test_single_collision_passes_a_grazing_convex_contour_at_zero_tolerance():
    # slopes 0.22, 0.35 and 0.74: evaluated, rounding at the shared vertices
    # reports (0, 1) and (1, 2) at ray_tol = 0; the bound drops every row
    profile = Profile(
        (
            (0.0, 0.0),
            (0.1665525504275246, 0.036019887911024284),
            (0.5382087395561351, 0.16446695626093177),
            (1.0, 0.5058884832347348),
        )
    )
    assert _all_pairs_reference(profile, 0.0) == ((0, 1), (1, 2))
    report = single_collision_check(profile, ray_tol=0.0)
    assert report.passed and report.reintersections == ()


@pytest.mark.parametrize("n_seg, block", [(2000, None), (400, 64), (300, 1)])
def test_single_collision_memory_is_bounded_by_the_block(monkeypatch, n_seg, block):
    # convex, slopes in [1.001, 1.5): every row is evaluated (its rays descend),
    # yet none descends as fast as the contour before it, so there are no
    # hits and the report adds nothing to the peak
    if block is not None:
        monkeypatch.setattr(montecarlo, "COLLISION_BLOCK", block)
    rng = np.random.default_rng(n_seg)
    widths = rng.uniform(0.5, 1.0, n_seg)
    ys = np.cumsum(widths * np.sort(rng.uniform(1.001, 1.5, n_seg)))
    xs = np.cumsum(widths)
    profile = Profile(((0.0, 0.0),) + tuple(zip(xs.tolist(), ys.tolist())))
    profile.slopes
    tracemalloc.start()
    try:
        report = single_collision_check(profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    # a block keeps about a dozen temporaries of max(block, S + 1) float64,
    # next to a few (S + 1)-element arrays; the dense table needs 8 S^2 bytes
    largest = max(montecarlo.COLLISION_BLOCK, n_seg + 1)
    bound = 8 * (16 * largest + 32 * (n_seg + 1))
    assert peak <= bound < 8 * n_seg**2


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_single_collision_report_does_not_depend_on_the_block(monkeypatch, rows):
    # 40 segments, 41 breakpoints: blocks of 1, 3 or 7 rows, the last one
    # short, must each skip exactly their own diagonal
    rng = np.random.default_rng(rows)
    widths = rng.uniform(0.05, 1.0, 40)
    pts = np.column_stack(
        [np.cumsum(np.r_[0.0, widths]), np.cumsum(np.r_[0.0, widths * rng.uniform(-3, 3, 40)])]
    )
    profile = Profile(tuple(map(tuple, pts.tolist())))
    expected = single_collision_check(profile)
    assert len(expected.reintersections) > 40
    monkeypatch.setattr(montecarlo, "COLLISION_BLOCK", rows * 41)
    assert single_collision_check(profile) == expected


def test_single_collision_rejects_a_tolerance_outside_the_unit_measure():
    profile = make_triangle(ProblemSpec(r=1.0, H=1.0))
    for tol in (-1e-9, 1.0, float("nan")):
        with pytest.raises(ValueError, match="ray_tol"):
            single_collision_check(profile, ray_tol=tol)


@pytest.mark.parametrize("tol", ["a", True, None, float("nan")])
def test_single_collision_refuses_a_non_number_tolerance_by_name(tol):
    profile = make_triangle(ProblemSpec(r=1.0, H=1.0))
    with pytest.raises(ValueError, match="^ray_tol must be a finite number"):
        single_collision_check(profile, ray_tol=tol)


@pytest.mark.parametrize("n_samples", [True, 1000.0, -1, 1, MAX_SAMPLES + 1])
def test_estimate_rejects_bad_sample_counts(n_samples):
    profile = make_triangle(ProblemSpec(r=1.0, H=1.0))
    with pytest.raises(ValueError, match="n_samples"):
        estimate_resistance(profile, n_samples, rng_seed=0)


def test_estimate_caps_the_sample_count_before_allocating():
    # 2^40 samples would take 32 TiB; the cap refuses them by arithmetic
    profile = make_triangle(ProblemSpec(r=1.0, H=1.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            estimate_resistance(profile, 2**40, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert MAX_SAMPLES == 2**25
    assert peak < 2**16


EPS = np.finfo(float).eps


def _per_sample_reference(profile: Profile, counts: np.ndarray):
    # the estimator summed one impulse per sample: each segment's impulse
    # repeated as often as it is struck, then their mean and standard deviation
    g = np.repeat((reflect((0.0, -1.0), np.array(profile.slopes))[1] + 1.0) / 2.0, counts)
    width = profile.xs[-1] - profile.xs[0]
    return width * float(np.mean(g)), width * float(np.std(g, ddof=1)) / math.sqrt(g.size)


def _summation_bound(n_seg: int, n_samples: int) -> float:
    # relative: (S + 2) eps for the count-weighted sum (its docstring), and
    # (log2 n + 16) eps for numpy's pairwise sum of the n reference impulses
    return (n_seg + 2 + math.log2(n_samples) + 16) * EPS


def _random_profile(rng, n_seg: int) -> Profile:
    widths = rng.uniform(0.05, 1.0, n_seg)
    xs = np.cumsum(np.r_[0.0, widths])
    ys = np.cumsum(np.r_[0.0, widths * rng.uniform(-3.0, 3.0, n_seg)])
    return Profile(tuple(zip(xs.tolist(), ys.tolist())))


def _staircase_200() -> Profile:
    rng = np.random.default_rng(200)
    widths = rng.uniform(0.5, 1.0, 200)
    xs = np.cumsum(np.r_[0.0, widths])
    ys = np.cumsum(np.r_[0.0, widths * np.tile([0.0, 1.0], 100)])
    return Profile(tuple(zip(xs.tolist(), ys.tolist())))


@pytest.mark.parametrize(
    "profile, n_samples, rng_seed",
    [(_random_profile(np.random.default_rng(s), 1 + 3 * s), 40_000 + s, s) for s in range(6)]
    + [
        (_staircase_200(), 300_001, 4),
        (make_triangle(ProblemSpec(r=1.0, H=0.3)), 1000, 0),
    ],
)
def test_counts_and_estimate_match_the_per_sample_reference(profile, n_samples, rng_seed):
    counts = montecarlo.segment_counts(profile, n_samples, rng_seed)
    assert counts.dtype == np.int64
    assert counts.sum() == n_samples
    mean, std_error = _per_sample_reference(profile, counts)
    est = estimate_resistance(profile, n_samples, rng_seed)
    bound = _summation_bound(len(profile.slopes), n_samples)
    assert abs(est.estimate - mean) <= bound * mean
    # the deviations g - mean inherit the mean's rounding, bound * mean
    assert est.std_error == pytest.approx(std_error, rel=bound, abs=bound * mean)


_FIVE_SEGMENTS = Profile(((0.0, 0.0), (0.15, 0.05), (0.4, 0.05), (0.55, 0.3), (0.8, 0.35), (1.0, 0.6)))
_FORTY_SEGMENTS = Profile(tuple((i / 40, 0.25 * (i % 2) + i / 80) for i in range(41)))


@pytest.mark.parametrize(
    "profile, n_samples, rng_seed, estimate, std_error",
    [
        (_FIVE_SEGMENTS, 5000, 43, 0.7376159805760953, 0.0042914290721848556),
        (_FORTY_SEGMENTS, 5000, 31, 0.009985654917654296, 1.3931384136377488e-05),
        (_FIVE_SEGMENTS, 100_000, 10, 0.742628921973292, 0.0009560241557713549),
        (_FORTY_SEGMENTS, 100_000, 44, 0.009973046021240566, 3.115079535530808e-06),
    ],
    ids=["five-segments", "forty-segments", "five-segments-1e5", "forty-segments-1e5"],
)
def test_estimate_keeps_its_bits(profile, n_samples, rng_seed, estimate, std_error):
    # literals recorded from the estimator's np.sum of S products on numpy
    # 2.4's multinomial stream, at seeds where a different summation
    # (math.fsum, say) moves the last bit of both
    got = estimate_resistance(profile, n_samples, rng_seed)
    assert (got.estimate, got.std_error) == (estimate, std_error)


def test_counts_have_the_multinomial_mean():
    # each count is binomial(n, p_k): over 2000 seeds its mean lies within
    # 5 standard errors of n p_k (counts given to the wrong segments miss by
    # about 180)
    n, runs = 1000, 2000
    widths = np.diff(_FIVE_SEGMENTS.xs)
    p = widths / widths.sum()
    total = sum(montecarlo.segment_counts(_FIVE_SEGMENTS, n, seed) for seed in range(runs))
    z = (total / runs - n * p) / np.sqrt(n * p * (1.0 - p) / runs)
    assert np.all(np.abs(z) <= 5.0)


@st.composite
def _profiles(draw):
    # 1 to 40 segments of any width, any slope
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=39))
    xs = [0.0] + sorted(set(inner)) + [1.0]
    slopes = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(xs) - 1, max_size=len(xs) - 1))
    ys = np.cumsum(np.r_[0.0, np.diff(xs) * np.array(slopes)])
    return Profile(tuple(zip(xs, ys.tolist())))


@settings(max_examples=200, deadline=None)
@given(_profiles(), st.integers(2, MAX_SAMPLES), st.integers(0, 2**32 - 1))
def test_counts_are_non_negative_int64_summing_to_n(profile, n_samples, seed):
    counts = montecarlo.segment_counts(profile, n_samples, seed)
    assert counts.dtype == np.int64
    assert counts.shape == (len(profile.slopes),)
    assert np.all(counts >= 0)
    assert counts.sum() == n_samples


def test_counts_take_the_shares_of_a_hundred_thousand_segments():
    # numpy refuses probabilities whose leading S - 1 sum above 1 + 1e-12;
    # with the last segment one ulp wide their exact sum is 1 - 2e-16, so
    # the rounded quotients w_k / W must stay within that tolerance
    widths = np.random.default_rng(5).uniform(0.5, 1.0, 10**5 - 1)
    xs = np.cumsum(np.r_[0.0, widths])
    xs = np.r_[xs, np.nextafter(xs[-1], np.inf)]
    profile = Profile(tuple(zip(xs.tolist(), (0.5 * xs).tolist())))
    assert np.argmin(np.diff(profile.xs)) == 10**5 - 1
    counts = montecarlo.segment_counts(profile, MAX_SAMPLES, 6)
    assert counts.sum() == MAX_SAMPLES
    assert counts[-1] == 0


def _estimate_peak_bytes(profile, n_samples):
    tracemalloc.start()
    try:
        estimate_resistance(profile, n_samples, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_estimate_memory_is_bounded_by_the_chunk():
    # 2^22 samples held at once would take 32 MiB and one 2^15-sample chunk
    # 256 KiB; the counts take O(S), so the peak stays below a quarter chunk
    assert _estimate_peak_bytes(_staircase_200(), 2**22) < 2**16


def test_estimate_memory_is_bounded_by_the_chunk_on_the_direct_rule():
    # two segments, which the deleted comparison rule once counted directly
    profile = Profile(((0.0, 0.0), (0.6, 0.0), (1.0, 0.4)))
    assert _estimate_peak_bytes(profile, 2**22) < 2**16


@pytest.mark.parametrize("seed", [-1, True, 1.0, None, "1"])
def test_estimate_rejects_bad_seeds(seed):
    profile = make_triangle(ProblemSpec(r=1.0, H=1.0))
    with pytest.raises(ValueError, match="rng_seed must be a non-negative int"):
        estimate_resistance(profile, 1000, seed)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 2.0 * math.pi),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_reflect_preserves_the_norm_for_any_finite_slope(theta, slope):
    v = (math.cos(theta), math.sin(theta))
    out = reflect(v, slope)
    assert np.all(np.isfinite(out))
    assert abs(math.hypot(out[0], out[1]) - math.hypot(*v)) <= 4 * EPS


@st.composite
def _dyadic_contours_with_a_split(draw):
    # widths k/16 and slopes j/4 keep every breakpoint exact, so splitting
    # segment i at x0 + m/256 gives two pieces of exactly its slope
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
    slopes = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    pts = [(0.0, 0.0)]
    for w, u in zip(widths, slopes):
        pts.append((pts[-1][0] + w / 16, pts[-1][1] + (w / 16) * (u / 4)))
    i = draw(st.integers(0, n - 1))
    m = draw(st.integers(1, 16 * widths[i] - 1))
    (x0, y0) = pts[i]
    split = (x0 + m / 256, y0 + (m / 256) * (slopes[i] / 4))
    return i, Profile(tuple(pts)), Profile(tuple(pts[: i + 1] + [split] + pts[i + 1 :]))


@settings(max_examples=100, deadline=None)
@given(_dyadic_contours_with_a_split(), st.integers(0, 2**32 - 1), st.data())
def test_estimate_is_unchanged_by_a_collinear_split(contours, seed, data):
    i, whole, split = contours
    assert split.slopes == whole.slopes[: i + 1] + whole.slopes[i:]
    counts = montecarlo.segment_counts(whole, 5000, seed)
    # the whole contour's counts, the split segment's count shared in any
    # way by its two pieces
    left = data.draw(st.integers(0, int(counts[i])))
    shared = np.insert(counts, i, left)
    shared[i + 1] -= left
    a = estimate_resistance(whole, 5000, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "segment_counts", lambda *args: shared)
        b = estimate_resistance(split, 5000, seed)
    # the pieces have the segment's impulse, so the sums differ by rounding
    # alone, and so does the mean that the standard error's deviations are
    # taken from
    bound = 2 * (len(split.slopes) + 2) * EPS * a.estimate
    assert abs(a.estimate - b.estimate) <= bound
    assert b.std_error == pytest.approx(a.std_error, rel=1e-12, abs=bound)


def test_an_overflowing_width_is_refused_before_any_draw(monkeypatch):
    # an overflowing width W would make every share w_k / W zero or nan;
    # Profile refuses it
    def no_stream(*args):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(montecarlo.np.random, "default_rng", no_stream)
    with pytest.raises(ValueError, match="width"):
        estimate_resistance(Profile(((-1e308, 0.0), (1e308, 1.0))), 1000, 0)
    with pytest.raises(ValueError, match="width"):
        montecarlo.segment_counts(Profile(((-1e308, 0.0), (0.0, 0.0), (1e308, 1.0))), 1000, 0)


def _reflect_as_before(v, slope):
    # reflect's arithmetic wherever 1 + u^2 is finite
    den = np.sqrt(1.0 + slope * slope)
    nx, ny = -slope / den, 1.0 / den
    twice_vdotn = 2.0 * (v[0] * nx + v[1] * ny)
    return np.array([v[0] - twice_vdotn * nx, v[1] - twice_vdotn * ny])


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi), st.floats(-1.3e154, 1.3e154))
def test_reflect_keeps_its_bits_where_one_plus_u_squared_is_finite(theta, slope):
    v = (math.cos(theta), math.sin(theta))
    expected = _reflect_as_before(v, slope)
    assert np.array_equal(reflect(v, slope), expected)
    twice = reflect(v, np.array([slope, -slope]))
    assert np.array_equal(twice[:, 0], expected)
    assert np.array_equal(twice[:, 1], _reflect_as_before(v, -slope))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 2.0 * math.pi),
    st.floats(1e8, 1.7e308),
    st.sampled_from([1.0, -1.0]),
)
def test_reflect_off_a_steep_face_mirrors_the_horizontal_component(theta, size, sign):
    # the normal is within |dn| <= 1/|u| + 1/(2 u^2) of (-sign u, 0), and
    # v' = v - 2 (v . n) n moves by at most 2 (2 |dn| + |dn|^2) <= 4.01/|u|
    # with it; the arithmetic adds a few eps
    v = (math.cos(theta), math.sin(theta))
    out = reflect(v, sign * size)
    limit = np.array([-v[0], v[1]])
    assert np.max(np.abs(out - limit)) <= 4.01 / size + 8 * EPS


def test_reflect_past_the_overflow_of_one_plus_u_squared():
    # sqrt(1 + u^2) is inf beyond about 1.34e154; the velocity used to come
    # back unchanged there
    h = math.sqrt(0.5)
    for u in (1e154, 1e155, 1e300, -1e155):
        out = reflect((h, -h), u)
        assert out.tolist() == pytest.approx([-h, -h], abs=1e-15)
    slopes = np.array([0.0, 1e155, -1e300])
    assert np.array_equal(
        reflect((h, -h), slopes), np.stack([reflect((h, -h), u) for u in slopes], axis=1)
    )
