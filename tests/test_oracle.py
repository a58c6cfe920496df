import math
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton2d import oracle
from newton2d.functional import resistance_2d, triangle_resistance
from newton2d.geometry import ProblemSpec, Variant, make_triangle, validate
from newton2d.oracle import (
    MAX_PERTURB_ELEMENTS,
    MAX_TABLE_ELEMENTS,
    DpConfig,
    PerturbationConfig,
    _backtrack,
    _grid_extent,
    dp_min_resistance,
    finite_difference_gradient,
    second_variation_test,
)

EPS = sys.float_info.epsilon


def test_dp_config_validation():
    with pytest.raises(ValueError):
        DpConfig(n_cells=1, n_levels=10)
    with pytest.raises(ValueError):
        DpConfig(n_cells=10, n_levels=10, slope_bound=-1.0)
    with pytest.raises(ValueError):
        dp_min_resistance(
            ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED),
            DpConfig(n_cells=10, n_levels=10),  # bound required
        )


@pytest.mark.parametrize(
    "n_cells, n_levels",
    [(200.0, 200), (200, 200.0), (True, 200), (200, False), (np.int64(200), 200)],
)
def test_dp_config_rejects_non_int_sizes(n_cells, n_levels):
    # the first size that is not a Python int is named, with its value
    name, bad = ("n_cells", n_cells) if type(n_cells) is not int else ("n_levels", n_levels)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int >= 2, got {bad!r}")):
        DpConfig(n_cells, n_levels)


def test_dp_restricted_tall_matches_triangle():
    spec = ProblemSpec(r=1.0, H=2.0)
    value, profile = dp_min_resistance(spec, DpConfig(n_cells=200, n_levels=200))
    assert value == pytest.approx(0.2, abs=1e-9)
    # the grid contains the straight contour, so the DP finds it exactly
    assert profile.breakpoints == ((0.0, 0.0), (1.0, 2.0))


def test_dp_restricted_wide_matches_staircase_value():
    spec = ProblemSpec(r=1.0, H=0.4)
    value, profile = dp_min_resistance(spec, DpConfig(n_cells=200, n_levels=200))
    assert value == pytest.approx(0.8, abs=0.01)
    assert validate(profile, spec).ok
    # argmin profile drag agrees with the reported value
    assert resistance_2d(profile) == pytest.approx(value, rel=1e-12)


def test_dp_argmin_slopes_cluster_at_zero_and_one():
    # n_levels = 4 * n_cells makes the per-cell slope quantum
    # H * n_cells / n_levels = 0.1, so slopes 0 and 1 are representable
    spec = ProblemSpec(r=1.0, H=0.4)
    _, profile = dp_min_resistance(spec, DpConfig(n_cells=100, n_levels=400))
    for u in profile.slopes:
        assert min(abs(u), abs(u - 1.0)) < 0.1


def test_dp_value_never_beats_the_true_minimum():
    # grid contours are admissible, so the DP value is an upper bound
    for r, H in [(1.0, 0.4), (1.0, 1.0), (1.0, 2.0), (2.0, 0.6)]:
        spec = ProblemSpec(r=r, H=H)
        exact = min(triangle_resistance(spec), r - H / 2.0) if H <= r else triangle_resistance(spec)
        value, _ = dp_min_resistance(spec, DpConfig(n_cells=120, n_levels=120))
        assert value >= exact - 1e-12


@pytest.mark.xfail(
    reason=(
        "with n_cells == n_levels the per-cell slope quantum k*(H dx)/(r dh) "
        "is invariant under doubling both, so the grid minimum is the same "
        "number at 200 and 400 in exact arithmetic; the discretization error "
        "cannot strictly decrease (it changes only by rounding noise)"
    ),
    strict=False,
)
def test_dp_doubling_resolution_strictly_reduces_error():
    for r, H in [(1.0, 0.4), (1.0, 2.0)]:
        spec = ProblemSpec(r=r, H=H)
        exact = min(triangle_resistance(spec), r - H / 2.0) if H <= r else triangle_resistance(spec)
        coarse, _ = dp_min_resistance(spec, DpConfig(n_cells=200, n_levels=200))
        fine, _ = dp_min_resistance(spec, DpConfig(n_cells=400, n_levels=400))
        assert abs(fine - exact) < abs(coarse - exact)


def test_dp_unequal_grid_refinement_reduces_error():
    # refining levels relative to cells does change the slope quantum
    spec = ProblemSpec(r=1.0, H=0.7)
    exact = spec.r - spec.H / 2.0
    coarse, _ = dp_min_resistance(spec, DpConfig(n_cells=50, n_levels=50))
    fine, _ = dp_min_resistance(spec, DpConfig(n_cells=50, n_levels=350))
    assert abs(fine - exact) < abs(coarse - exact)


def test_dp_unrestricted_tracks_slope_bound():
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    values = []
    for b in (2.0, 5.0, 10.0):
        value, profile = dp_min_resistance(
            spec, DpConfig(n_cells=400, n_levels=400, slope_bound=b)
        )
        assert value == pytest.approx(spec.r / (1.0 + b * b), abs=0.01)
        values.append(value)
        assert profile.breakpoints[0] == (0.0, 0.0)
        assert profile.breakpoints[-1] == (1.0, 1.0)
    assert values[0] > values[1] > values[2]


def test_dp_unrestricted_infeasible_bound_raises():
    spec = ProblemSpec(r=1.0, H=2.0, variant=Variant.UNRESTRICTED)
    with pytest.raises(ValueError, match="infeasible"):
        dp_min_resistance(spec, DpConfig(n_cells=10, n_levels=100, slope_bound=1.0))


@pytest.mark.parametrize(
    "spec, config, elements",
    [
        # verify --cells 100000 --levels 100000: one (M+1)^2 product table
        (ProblemSpec(r=1.0, H=1.0), DpConfig(100_000, 100_000), 100_001**2),
        # verify --variant unrestricted --slope-bound 1e6: k_max = 10^6 and
        # the target level T = 200 + 200 * 10^6 = 200000200, so (T+1)^2
        (
            ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED),
            DpConfig(200, 200, 1e6),
            200_000_201**2,
        ),
    ],
    ids=["restricted-1e5", "bounded-B1e6"],
)
def test_dp_table_count_of_huge_grids_exceeds_cap(spec, config, elements):
    # arithmetic only: these grids are never run
    assert _grid_extent(spec, config)[2] == elements > MAX_TABLE_ELEMENTS


def test_dp_table_count_of_bounded_grid():
    # 400 x 400 at B = 10: k_max = 10 and the target level
    # T = 400 + 400 * 10 = 4400, so one product forms at most (T+1)^2 sums
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    assert _grid_extent(spec, DpConfig(400, 400, 10.0)) == (10, 4400, 4401**2)


@pytest.mark.parametrize("n, k_max", [(4, 1), (4, 127), (4, 128), (2, 1000)])
def test_dp_bounded_steepest_contour_at_large_k_max(n, k_max):
    # M = N k_max at slope_bound 1 = k_max dh/dx: the only 0 -> M contour
    # rises +k_max in every cell, the top of the shifted slope set, whose
    # level 2 k_max is the highest share a product reads.  N = 4 at
    # k_max = 1000 would need T = 8000, above the table cap
    spec = ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED)
    value, profile = dp_min_resistance(spec, DpConfig(n, n * k_max, 1.0))
    assert value == 0.5
    assert profile.breakpoints == ((0.0, 0.0), (1.0, 1.0))


def _unrestricted(r, H):
    return ProblemSpec(r=r, H=H, variant=Variant.UNRESTRICTED)


@pytest.mark.parametrize(
    "spec, config, name",
    [
        # dh/dx = 5e199 / 5e-201 overflows, or r / 2 or H / 2 underflows to 0
        (ProblemSpec(r=1e-200, H=1e200), DpConfig(2, 2), "dh/dx"),
        (ProblemSpec(r=5e-324, H=1.0), DpConfig(2, 2), "dh/dx"),
        (_unrestricted(r=1e-200, H=1e200), DpConfig(2, 2, 1.0), "dh/dx"),
        (_unrestricted(r=1.0, H=5e-324), DpConfig(2, 2, 1.0), "dh/dx"),
        # B dx/dh = 1e10 * 5e-3 / 5e-303 overflows
        (_unrestricted(r=1.0, H=1e-300), DpConfig(200, 200, 1e10), "slope_bound * dx/dh"),
    ],
)
def test_dp_refuses_a_grid_whose_slope_quantum_is_not_a_double(spec, config, name):
    # arithmetic only: refused before any table is built
    with pytest.raises(ValueError, match=re.escape(name) + ".* is out of double range"):
        _grid_extent(spec, config)
    with pytest.raises(ValueError, match=re.escape(name)):
        dp_min_resistance(spec, config)


@pytest.mark.parametrize(
    "spec, config, value, breakpoints",
    [
        # k dh/dx = k * 1e152 squares past the largest double from k = 134
        (ProblemSpec(r=1.0, H=1e152), DpConfig(200, 200), 1.0000000000000002e-304,
         ((0.0, 0.0), (1.0, 1e152))),
        # every slope 0 < |k| * 1e155 <= 1e156 squares to inf, so every
        # contour of two nonzero rises ties at 0; the tie rule takes the
        # second cell's smallest shifted level, rise -8, beside +10
        (_unrestricted(r=1.0, H=1e155), DpConfig(2, 2, 1e156), 0.0,
         ((0.0, 0.0), (0.5, 5e155), (1.0, 1e155))),
    ],
)
def test_dp_cell_cost_of_an_overflowing_slope_is_its_limit(spec, config, value, breakpoints):
    # no RuntimeWarning (the suite makes one an error); outputs as before
    got, profile = dp_min_resistance(spec, config)
    assert got == value
    assert profile.breakpoints == breakpoints


def test_dp_refuses_grid_above_table_cap():
    # (6000 + 1)^2 = 3.6e7 sums per product > 2^25: refused before the first
    # product
    with pytest.raises(ValueError, match="DP grid too large"):
        dp_min_resistance(ProblemSpec(r=1.0, H=0.4), DpConfig(2, 6000))


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_dp_output_does_not_depend_on_the_block_size(monkeypatch, block):
    # blocks of 1, 7 // |K| = 0 (one row) and a few rows split every product
    cases = [
        (ProblemSpec(r=1.0, H=0.4), DpConfig(30, 40)),
        (ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED), DpConfig(20, 20, 3.0)),
    ]
    expected = [dp_min_resistance(spec, config) for spec, config in cases]
    monkeypatch.setattr(oracle, "DP_BLOCK", block)
    for (spec, config), (value, profile) in zip(cases, expected):
        got, got_profile = dp_min_resistance(spec, config)
        assert got == value
        assert got_profile.breakpoints == profile.breakpoints


def test_dp_product_memory_is_bounded_by_the_block():
    # at N = 3 the square over 4001 levels forms about 4001^2 / 4 sums
    # (32 MB) in all; row blocks hold at most DP_BLOCK of them (512 KiB)
    # besides O(M) vectors.  At N = 2 the only product is the last, one row
    for n in (2, 3):
        tracemalloc.start()
        try:
            dp_min_resistance(ProblemSpec(r=1.0, H=0.4), DpConfig(n, 4000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
    assert oracle.DP_BLOCK == 2**16


def test_dp_backtrack_refuses_an_unreached_level():
    # a fault check: every grid dp_min_resistance accepts reaches level M
    with pytest.raises(RuntimeError, match="no contour reaching level 2"):
        _backtrack(None, np.array([0.0, 1.0, np.inf]), 2)


def test_dp_is_deterministic():
    spec = ProblemSpec(r=1.0, H=0.4)
    a = dp_min_resistance(spec, DpConfig(n_cells=80, n_levels=80))
    b = dp_min_resistance(spec, DpConfig(n_cells=80, n_levels=80))
    assert a[0] == b[0]
    assert a[1].breakpoints == b[1].breakpoints


def _tree_sum_bound(n, reference):
    # a cell-by-cell sum of n positive costs against a summation tree
    return (n + math.ceil(math.log2(n))) * EPS * reference


# Pinned DP outputs.  Bounded: value and breakpoints bit-exact, guarding the
# squaring's float arithmetic and its tie order (the smallest shifted share
# of each product's right factor); each value is r / (1 + B^2) correctly
# rounded, and the cell-by-cell recurrence's (0.20000000000000015,
# 0.038461538461538325, 0.009900990099009908) lie within _tree_sum_bound.
# Restricted: `value` is the cell-by-cell recurrence's 17-digit value, kept
# as the reference; (min,+) squaring sums along a product tree, so the value
# is asserted within _tree_sum_bound of it, the multiset of rises exactly,
# and the canonical flattest-first breakpoints exactly.
@pytest.mark.parametrize(
    "r, H, variant, n, m, bound, value, rises, breakpoints",
    [
        (1.0, 0.4, "restricted", 200, 200, 0.0, 0.80329468212714794,
         {0: 133, 2: 1, 3: 66},
         ((0.0, 0.0), (0.665, 0.0), (0.67, 0.004), (1.0, 0.4))),
        (1.0, 2.0, "restricted", 120, 120, 0.0, 0.20000000000000032,
         {1: 120},
         ((0.0, 0.0), (1.0, 2.0))),
        (1.0, 0.25, "restricted", 100, 400, 0.0, 0.87500000000000067,
         {0: 75, 16: 25},
         ((0.0, 0.0), (0.75, 0.0), (1.0, 0.25))),
        (1.0, 1.0, "unrestricted", 400, 400, 2.0, 0.2, None,
         ((0.0, 0.0), (0.75, 1.5), (1.0, 1.0))),
        (1.0, 1.0, "unrestricted", 400, 400, 5.0, 0.038461538461538464, None,
         ((0.0, 0.0), (0.6, 3.0), (1.0, 1.0))),
        (1.0, 1.0, "unrestricted", 400, 400, 10.0, 0.009900990099009901, None,
         ((0.0, 0.0), (0.55, 5.5), (1.0, 1.0))),
    ],
    ids=["wide-200", "tall-120", "100x400", "bounded-B2", "bounded-B5", "bounded-B10"],
)
def test_dp_golden_outputs(r, H, variant, n, m, bound, value, rises, breakpoints):
    spec = ProblemSpec(r=r, H=H, variant=variant)
    got, profile = dp_min_resistance(spec, DpConfig(n, m, bound))
    if rises is None:
        assert got == value
    else:
        assert abs(got - value) <= _tree_sum_bound(n, value)
        assert _rise_histogram(profile, spec, n, m) == rises
    assert profile.breakpoints == breakpoints


def _gather_reference(spec, n, m, ks, top):
    # cell-by-cell recurrence cost'[j] = min_k c(k) + cost[j - k] over the
    # slope set ks, taken in its tie order, within the levels 0..top; the
    # value at level m and the rises in cell order
    dx, dh = spec.r / n, spec.H / m
    slope = ks * (dh / dx)
    c = dx / (1.0 + slope * slope)
    levels = np.arange(top + 1)
    prev = levels[:, None] - ks
    valid = (prev >= 0) & (prev <= top)
    prev = np.where(valid, prev, 0)
    cost = np.full(top + 1, np.inf)
    cost[0] = 0.0
    choices = []
    for _ in range(n):
        total = np.where(valid, c + cost[prev], np.inf)
        arg = np.argmin(total, axis=1)
        choices.append(ks[arg])
        cost = total[levels, arg]
    rises, j = [], m
    for choice in reversed(choices):
        rises.append(int(choice[j]))
        j -= rises[-1]
    assert j == 0
    return float(cost[m]), rises[::-1]


def _cell_rises(profile, spec, n, m):
    # the rise of every cell, in cell order, read back from the merged profile
    rises = []
    for (x0, y0), (x1, y1) in zip(profile.breakpoints, profile.breakpoints[1:]):
        cells = round((x1 - x0) * n / spec.r)
        rises += [round((y1 - y0) * m / spec.H) // cells] * cells
    return rises


def _rise_histogram(profile, spec, n, m):
    # {k: cells rising k levels}
    return Counter(_cell_rises(profile, spec, n, m))


def _relaxation_bound(spec, n, m):
    # lower convex envelope of f(u) = 1/(1+u^2) over the representable
    # slopes u_k = k dh/dx, at the mean slope H/r: the DP value averages f
    # over N slopes whose mean is H/r, so r times this bounds it below
    u = np.arange(m + 1) * (spec.H / m) / (spec.r / n)
    f = 1.0 / (1.0 + u * u)
    x = spec.H / spec.r
    lo, hi = u <= x, u >= x
    ul, fl = u[lo][:, None], f[lo][:, None]
    uh, fh = u[hi][None, :], f[hi][None, :]
    span = np.where(uh > ul, uh - ul, 1.0)
    return float(np.min(fl + (fh - fl) * (x - ul) / span))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 60),
    st.integers(2, 60),
    st.floats(0.5, 2.0),
    st.floats(0.01, 3.0),
)
def test_dp_restricted_squaring_matches_gather_reference(n, m, r, h_over_r):
    spec = ProblemSpec(r=r, H=h_over_r * r)
    value, profile = dp_min_resistance(spec, DpConfig(n, m))
    ref_value, ref_rises = _gather_reference(spec, n, m, np.arange(m + 1), m)
    assert _rise_histogram(profile, spec, n, m) == Counter(ref_rises)
    assert abs(value - ref_value) <= _tree_sum_bound(n, ref_value)
    assert value >= r * _relaxation_bound(spec, n, m) - n * EPS * r


def _exact_cost(spec, n, m, rises):
    # the exact sum, in rationals, of the double cell costs the DP adds up
    dx, dh = spec.r / n, spec.H / m
    return sum(Fraction(dx / (1.0 + (k * (dh / dx)) ** 2)) for k in rises)


def _assert_bounded_argmin(spec, config, k_max, value, profile, ref_value, ref_rises):
    # the DP's value within the rounding of a summation tree of the
    # cell-by-cell reference's, the same exact cost at both argmins, and an
    # admissible contour: |k| <= k_max, every prefix at or above level 0, and
    # the rises summing to M
    n, m = config.n_cells, config.n_levels
    assert abs(value - ref_value) <= _tree_sum_bound(n, ref_value)
    rises = _cell_rises(profile, spec, n, m)
    assert _exact_cost(spec, n, m, rises) == _exact_cost(spec, n, m, ref_rises)
    assert max(map(abs, rises)) <= k_max
    assert min(accumulate(rises)) >= 0
    assert sum(rises) == m


def _bounded_reference(spec, n, m, k_max):
    # the cell-by-cell recurrence over K in the tie order (|k|, k), within
    # the levels up to floor((M + N k_max) / 2), the highest a 0 -> M contour
    # of N rises |k| <= k_max can reach
    ks = np.array(sorted(range(-k_max, k_max + 1), key=lambda kv: (abs(kv), kv)))
    return _gather_reference(spec, n, m, ks, (m + n * k_max) // 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 40),
    st.integers(2, 40),
    st.floats(0.5, 2.0),
    st.floats(0.05, 3.0),
    st.integers(1, 8),
    st.floats(1.0, 1.9),
)
def test_dp_bounded_squaring_matches_gather_reference(n, m, r, h_over_r, k, stretch):
    # B puts the largest rise k_max between k and 1.9 k, so |K| and the
    # levels stay small.  Squaring sums along a product tree, the reference
    # cell by cell, so their values agree within the rounding of the two
    # orders, and their argmins have one exact cost
    spec = ProblemSpec(r=r, H=h_over_r * r, variant=Variant.UNRESTRICTED)
    config = DpConfig(n, m, k * stretch * (spec.H / m) / (spec.r / n))
    try:
        k_max, _, _ = _grid_extent(spec, config)
    except ValueError as exc:
        assert "infeasible" in str(exc)
        return
    value, profile = dp_min_resistance(spec, config)
    ref_value, ref_rises = _bounded_reference(spec, n, m, k_max)
    _assert_bounded_argmin(spec, config, k_max, value, profile, ref_value, ref_rises)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 40),
    st.integers(1, 8),
    st.integers(0, 24),
    st.floats(0.5, 2.0),
    st.floats(0.05, 3.0),
    st.floats(0.0, 0.5),
)
def test_dp_bounded_tight_grid_matches_gather_reference(n, k, slack, r, h_over_r, extra):
    # M within three k_max of N k_max: nearly every rise is +k_max, so the
    # argmin reads levels at or next to each factor's top, the edge of the
    # row trim
    m = max(2, n * k - min(slack, 3 * k))
    spec = ProblemSpec(r=r, H=h_over_r * r, variant=Variant.UNRESTRICTED)
    config = DpConfig(n, m, (k + extra) * (spec.H / m) / (spec.r / n))
    assert _grid_extent(spec, config)[:2] == (k, m + n * k)
    value, profile = dp_min_resistance(spec, config)
    ref_value, ref_rises = _bounded_reference(spec, n, m, k)
    _assert_bounded_argmin(spec, config, k, value, profile, ref_value, ref_rises)


def _admissible_rises(n, m, k_max):
    # every sequence of n rises |k| <= k_max from level 0 to level m whose
    # prefixes stay at or above level 0
    def extend(prefix, level):
        left = n - len(prefix)
        if not left:
            yield prefix
            return
        for k in range(-k_max, k_max + 1):
            if level + k >= 0 and abs(m - level - k) <= (left - 1) * k_max:
                yield from extend(prefix + (k,), level + k)

    return extend((), 0)


@pytest.mark.parametrize("k_max", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dp_bounded_reaches_the_exhaustive_minimum(n, k_max):
    # tiny grids, every admissible contour enumerated and costed in exact
    # rationals: the DP's argmin reaches their minimum, though the DP
    # itself never sees the prefix rule
    for m in range(2, min(8, n * k_max) + 1):
        for h in (0.5, 1.0, 1.7):
            spec = ProblemSpec(r=1.0, H=h, variant=Variant.UNRESTRICTED)
            config = DpConfig(n, m, k_max * (h / m) / (1.0 / n))
            assert _grid_extent(spec, config)[0] == k_max
            dx, dh = Fraction(spec.r) / n, Fraction(h) / m
            cost = {k: dx / (1 + (k * dh / dx) ** 2) for k in range(-k_max, k_max + 1)}
            contours = set(_admissible_rises(n, m, k_max))
            best = min(sum(map(cost.get, rises)) for rises in contours)
            value, profile = dp_min_resistance(spec, config)
            rises = _cell_rises(profile, spec, n, m)
            assert tuple(rises) in contours
            assert sum(map(cost.get, rises)) == best
            assert abs(value - best) <= _tree_sum_bound(n, float(best))


@pytest.mark.parametrize(
    "bound, rows",
    [
        (2.0, [9, 17, 33, 65, 129, 257, 513, 577, 1025, 1]),
        (5.0, [21, 41, 81, 161, 321, 641, 1281, 1441, 2401, 1]),
        (10.0, [41, 81, 161, 321, 641, 1281, 2561, 2881, 4401, 1]),
    ],
    ids=["B2", "B5", "B10"],
)
def test_dp_bounded_forms_only_the_rows_below_each_top(monkeypatch, bound, rows):
    # 400^2 at H = r: k_max = B, a cell's top w = 2 B and T = 400 + 400 B.
    # The squares of p = 1, ..., 64 cells form the rows up to 2 p w, the
    # product of the powers of 128 and 16 cells those up to 144 w, the
    # square of 128 cells those up to min(256 w, T), and the last product
    # row T alone, against 10 (T+1) = 12010, 24010 and 44010 full rows
    products = []
    product = oracle._product

    def counting(window, b, values, rises):
        # values is a row block of one product's values; products run one
        # after another, and each array is kept, so no two share an identity
        if not products or products[-1][0] is not values.base:
            products.append([values.base, 0])
        products[-1][1] += values.size
        assert values.size * b.size <= oracle.DP_BLOCK
        product(window, b, values, rises)

    monkeypatch.setattr(oracle, "_product", counting)
    dp_min_resistance(
        ProblemSpec(r=1.0, H=1.0, variant=Variant.UNRESTRICTED), DpConfig(400, 400, bound)
    )
    assert [count for _, count in products] == rows


def _full_row_square(cell_cost, n):
    # the restricted schedule with full rows: every product forms all
    # (M+1)^2 sums a[j - k] + b[k], the shares k > j reading an +inf pad,
    # with b's share in the tie order M..0; its tree is (a, b, b's shares)
    m = cell_cost.size - 1
    ks = np.arange(m, -1, -1)
    pad = np.full(m, np.inf)

    def multiply(x, y):
        window = sliding_window_view(np.concatenate((pad, x[0])), m + 1)
        total = window + y[0][::-1]
        t = total.argmin(axis=1)
        return total[np.arange(m + 1), t], (x[1], y[1], ks[t])

    power = (cell_cost, None)
    result = None
    while True:
        if n & 1:
            result = power if result is None else multiply(result, power)
        n >>= 1
        if not n:
            return result
        power = multiply(power, power)


def _restricted_costs(spec, n, m):
    dx, dh = spec.r / n, spec.H / m
    slope = np.arange(m + 1) * (dh / dx)
    return dx / (1.0 + slope * slope)


def _assert_square_matches_full_rows(cell_cost, n):
    m = cell_cost.size - 1
    values, tree = oracle._square(cell_cost, n, m)
    ref_values, ref_tree = _full_row_square(cell_cost, n)
    assert values[m] == ref_values[m]
    rises = sorted(_backtrack(tree, values, m))
    assert rises == sorted(_backtrack(ref_tree, ref_values, m))
    return float(values[m]), rises


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.sampled_from([2, 3]), st.sampled_from([2**e for e in range(2, 10)]),
                st.integers(2, 600)),
    m=st.integers(2, 150),
    r=st.floats(0.5, 2.0),
    h_over_r=st.floats(0.01, 3.0),
)
def test_dp_restricted_product_matches_full_rows_bit_for_bit(n, m, r, h_over_r):
    # the triangle, the folded squares and the one-row last product give the
    # value, the rise multiset and the breakpoints of full-row products
    spec = ProblemSpec(r=r, H=h_over_r * r)
    ref_value, rises = _assert_square_matches_full_rows(_restricted_costs(spec, n, m), n)
    value, profile = dp_min_resistance(spec, DpConfig(n, m))
    assert value == ref_value
    assert profile.breakpoints == oracle._grid_profile(spec, n, m, rises).breakpoints


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 13, 64, 100])
@pytest.mark.parametrize("m", [2, 6, 7, 40, 121])
def test_dp_restricted_ties_go_where_full_rows_send_them(n, m):
    # every slope costs exactly dx at H/r = 1e-12 (u^2 rounds off 1 + u^2),
    # so every split of every level ties; on small integer costs sums are
    # exact, so shares k and j - k tie wherever their costs mirror, and
    # splits into different multisets tie too, which only the tie rule
    # (the result's smallest share, the power's largest) separates
    spec = ProblemSpec(r=1.0, H=1e-12)
    costs = _restricted_costs(spec, n, m)
    assert len(set(costs.tolist())) == 1
    _assert_square_matches_full_rows(costs, n)
    _assert_square_matches_full_rows((np.arange(m + 1) - m // 2) ** 2.0, n)
    _assert_square_matches_full_rows(np.abs(np.arange(m + 1) - m / 2.0), n)
    rng = np.random.default_rng(1000 * n + m)
    for _ in range(25):
        _assert_square_matches_full_rows(rng.integers(0, 4, m + 1).astype(float), n)


def test_dp_restricted_tie_between_multisets():
    # level 6 in three cells: {0, 3, 3} and {1, 1, 4} both cost 0; the last
    # product gives the result, one cell, its smallest share, so the power
    # c*c takes level 6 as 3 + 3, not level 2 beside a cell at 4
    costs = np.array([0.0, 0.0, 2.0, 0.0, 0.0, 2.0, 2.0])
    assert _assert_square_matches_full_rows(costs, 3) == (0.0, [0, 3, 3])


def test_dp_restricted_forms_only_the_sums_it_can_use(monkeypatch):
    # 400^2: eight squares over k <= j // 2 and one product over k <= j,
    # each in row blocks of the columns their last row reaches, and the last
    # product's row M alone: 655887 sums, against 10 * 401^2 = 1608010 over
    # full rows; no block holds more than DP_BLOCK of them
    counted = []
    product = oracle._product

    def counting(window, b, values, rises):
        counted.append(values.size * b.size)
        product(window, b, values, rises)

    monkeypatch.setattr(oracle, "_product", counting)
    dp_min_resistance(ProblemSpec(r=1.0, H=0.4), DpConfig(400, 400))
    assert sum(counted) == 655_887
    assert len(counted) == 20
    assert counted[-1] == 401
    assert max(counted) <= oracle.DP_BLOCK


def test_perturbation_config_validation():
    with pytest.raises(ValueError):
        PerturbationConfig(epsilon=0.0, trials=10, rng_seed=0)
    with pytest.raises(ValueError):
        PerturbationConfig(epsilon=0.1, trials=0, rng_seed=0)
    with pytest.raises(ValueError):
        PerturbationConfig(epsilon=0.1, trials=10, rng_seed=0, mesh=1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"epsilon": math.inf}, "epsilon must be positive and finite"),
        ({"epsilon": math.nan}, "epsilon must be positive and finite"),
        ({"trials": 2.5}, "trials must be an int >= 1, got 2.5"),
        ({"trials": True}, "trials must be an int >= 1, got True"),
        ({"mesh": 16.0}, "mesh must be an int >= 2, got 16.0"),
        ({"rng_seed": -1}, "rng_seed must be a non-negative int, got -1"),
        ({"rng_seed": True}, "rng_seed must be a non-negative int, got True"),
        ({"rng_seed": 1.0}, "rng_seed must be a non-negative int, got 1.0"),
        ({"rng_seed": None}, "rng_seed must be a non-negative int, got None"),
    ],
)
def test_perturbation_config_rejects_non_finite_and_non_int(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PerturbationConfig(**{"epsilon": 0.01, "trials": 1, "rng_seed": 0, **kwargs})


def _triangle(s):
    return make_triangle(ProblemSpec(r=1.0, H=s)), ProblemSpec(r=1.0, H=s)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0])
def test_second_variation_ratio_matches_curvature(s):
    profile, spec = _triangle(s)
    config = PerturbationConfig(epsilon=0.005, trials=64, rng_seed=42)
    report = second_variation_test(profile, spec, config)
    expected = (6.0 * s * s - 2.0) / (1.0 + s * s) ** 3
    assert report.expected_ratio == pytest.approx(expected, rel=1e-12)
    assert report.mean_ratio == pytest.approx(expected, rel=0.05)


def test_second_variation_names_a_slope_whose_curvature_overflows():
    # (1 + s^2)^3 overflows above s = 2.3757e51, before anything is drawn
    config = PerturbationConfig(epsilon=0.01, trials=4, rng_seed=0)
    for s in (2.4e51, 1e120):
        spec = ProblemSpec(r=1.0, H=s, variant=Variant.UNRESTRICTED)
        with pytest.raises(ValueError, match=re.escape(f"slope {s!r} is too steep")):
            second_variation_test(make_triangle(spec), spec, config)
    s = 2.3e51
    spec = ProblemSpec(r=1.0, H=s, variant=Variant.UNRESTRICTED)
    report = second_variation_test(make_triangle(spec), spec, config)
    assert report.expected_ratio == (6.0 * s * s - 2.0) / (1.0 + s * s) ** 3


def test_second_variation_refuses_a_profile_of_more_than_one_segment():
    # it perturbs one slope: the restricted minimizers at H/r = 0.4 would
    # otherwise be tested as the triangle through their end points
    from newton2d.extremal import solve

    spec = ProblemSpec(r=1.0, H=0.4)
    config = PerturbationConfig(epsilon=0.01, trials=4, rng_seed=0)
    counts = []
    for profile in solve(spec).representative_profiles:
        counts.append(len(profile.slopes))
        with pytest.raises(ValueError, match=f"got a profile of {counts[-1]} segments"):
            second_variation_test(profile, spec, config)
    assert counts == [2, 2, 5]


def test_second_variation_sign_classifies_the_straight_contour():
    config = PerturbationConfig(epsilon=0.005, trials=64, rng_seed=42)
    below = second_variation_test(*_triangle(0.3), config)
    assert below.min_delta < 0.0  # drag-decreasing perturbations exist
    for s in (1.0, 2.0):
        above = second_variation_test(*_triangle(s), config)
        assert above.min_delta > 0.0  # weak local minimum


def test_second_variation_error_shrinks_with_epsilon():
    # first-order convergence of the ratio: halving epsilon should roughly
    # halve each trial's error (asserted via the per-trial median, which is
    # robust to the sign cancellation that makes the mean non-monotone)
    for s in (0.3, 1.0, 2.0):
        profile, spec = _triangle(s)
        coarse = second_variation_test(
            profile, spec, PerturbationConfig(epsilon=0.02, trials=64, rng_seed=7)
        )
        fine = second_variation_test(
            profile, spec, PerturbationConfig(epsilon=0.01, trials=64, rng_seed=7)
        )
        e_coarse = np.abs(np.array(coarse.ratios) - coarse.expected_ratio)
        e_fine = np.abs(np.array(fine.ratios) - fine.expected_ratio)
        assert float(np.median(e_coarse / e_fine)) >= 1.5


def test_second_variation_is_seeded():
    profile, spec = _triangle(0.8)
    config = PerturbationConfig(epsilon=0.01, trials=16, rng_seed=3)
    a = second_variation_test(profile, spec, config)
    b = second_variation_test(profile, spec, config)
    assert a.ratios == b.ratios


def test_finite_difference_gradient_on_polynomial():
    def f(v):
        return v[0] ** 2 * v[1] + 3.0 * v[1]

    point = np.array([1.5, -2.0])
    grad = finite_difference_gradient(f, point, 1e-6)
    assert grad == pytest.approx([2.0 * 1.5 * -2.0, 1.5**2 + 3.0], abs=1e-8)
    with pytest.raises(ValueError):
        finite_difference_gradient(f, point, 0.0)


def _reference_second_variation(profile, spec, config):
    # the trial-by-trial loop second_variation_test replaced, with each sum
    # correctly rounded by math.fsum (the loop summed with np.dot, whose bits
    # depend on the BLAS kernel)
    r = profile.breakpoints[-1][0]
    s = (profile.breakpoints[-1][1] - profile.breakpoints[0][1]) / (
        r - profile.breakpoints[0][0]
    )
    eps = config.epsilon
    base = 1.0 / (1.0 + s * s)
    deltas = np.empty(config.trials)
    ratios = np.empty(config.trials)
    for t, seed in enumerate(np.random.SeedSequence(config.rng_seed).spawn(config.trials)):
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.uniform(0.0, r, config.mesh - 1))
        edges = np.concatenate([[0.0], cuts, [r]])
        widths = np.diff(edges)
        phi = rng.uniform(-1.0, 1.0, config.mesh)
        phi -= math.fsum((phi * widths).tolist()) / r
        perturbed = s + eps * phi
        delta = math.fsum((widths * (1.0 / (1.0 + perturbed * perturbed) - base)).tolist())
        quad = 0.5 * eps * eps * math.fsum((widths * (phi * phi)).tolist())
        deltas[t] = delta
        ratios[t] = delta / quad
    expected = (6.0 * s * s - 2.0) / (1.0 + s * s) ** 3
    return oracle.PerturbationReport(
        base_slope=s,
        epsilon=eps,
        min_delta=float(deltas.min()),
        max_delta=float(deltas.max()),
        mean_ratio=float(ratios.mean()),
        expected_ratio=expected,
        ratios=tuple(ratios),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    trials=st.integers(1, 100),
    mesh=st.integers(2, 40),
    r=st.floats(1e-3, 1e3),
    s=st.one_of(st.floats(0.05, 0.577), st.floats(0.578, 3.0)),
    eps=st.floats(1e-4, 0.1),
    seed=st.integers(0, 2**64 - 1),
)
def test_second_variation_matches_the_trial_by_trial_loop(trials, mesh, r, s, eps, seed):
    spec = ProblemSpec(r=r, H=s * r)
    profile = make_triangle(spec)
    config = PerturbationConfig(epsilon=eps, trials=trials, rng_seed=seed, mesh=mesh)
    report = second_variation_test(profile, spec, config)
    reference = _reference_second_variation(profile, spec, config)
    for field in ("base_slope", "epsilon", "min_delta", "max_delta", "mean_ratio",
                  "expected_ratio", "ratios"):
        assert getattr(report, field) == getattr(reference, field), field
    assert report == reference


@pytest.mark.parametrize(
    "trials, mesh",
    [(MAX_PERTURB_ELEMENTS // 17 + 1, 16), (MAX_PERTURB_ELEMENTS, 2),
     (1, MAX_PERTURB_ELEMENTS), (2**40, 2**40)],
)
def test_perturbation_config_refuses_arrays_above_the_cap(trials, mesh):
    with pytest.raises(ValueError, match=f"exceeds the cap of {MAX_PERTURB_ELEMENTS}"):
        PerturbationConfig(epsilon=0.01, trials=trials, rng_seed=0, mesh=mesh)


def test_perturbation_config_accepts_the_cap_without_running():
    # building a config allocates nothing; only the oracle fills the arrays
    config = PerturbationConfig(epsilon=0.01, trials=MAX_PERTURB_ELEMENTS // 17, rng_seed=0)
    assert config.trials * (config.mesh + 1) <= MAX_PERTURB_ELEMENTS
