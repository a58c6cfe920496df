"""Independent numerical verification of the closed-form results.

Three oracles, none of which reuses the closed-form solution path:

* exhaustive dynamic programming over grid-discretized contours,
* second-variation perturbation of the straight contour,
* central finite differences for gradient cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (
    Profile, ProblemSpec, Variant, check_int, check_real, check_seed, slope_power
)

#: Most elements dp_min_resistance lets one of its tables hold: the sums of
#: one (min,+) product, or the unrestricted DP's rise table (2^25 int8 are
#: 32 MiB, int16 64 MiB, int32 128 MiB).  A restricted product counts as
#: (M+1)^2 sums, an upper bound on the triangle it forms.  A larger grid is
#: refused before anything is built.
MAX_TABLE_ELEMENTS = 2**25

#: Most sums one row block of a DP (min,+) product holds (512 KiB of
#: float64); a product over more levels or rises is evaluated block by block.
DP_BLOCK = 2**16

#: Most elements of the edge array second_variation_test fills,
#: trials * (mesh + 1) float64 (8 MiB); PerturbationConfig refuses more.
MAX_PERTURB_ELEMENTS = 2**20


@dataclass(frozen=True)
class DpConfig:
    """Grid resolution for the dynamic-programming minimization.

    n_cells (N) and n_levels (M) pass the integer rule with N, M >= 2 (the
    restricted DP does bit arithmetic on N), slope_bound the real-number
    rule with slope_bound >= 0.  slope_bound is ignored by the restricted
    variant and must be positive for the unrestricted one, whose drag
    infimum is zero without a slope bound.  dp_min_resistance states the
    DP's design: its slope sets, schedules, tie rules, cost and size cap.
    """

    n_cells: int
    n_levels: int
    slope_bound: float = 0.0

    def __post_init__(self) -> None:
        check_int("n_cells", self.n_cells, 2)
        check_int("n_levels", self.n_levels, 2)
        check_real("slope_bound", self.slope_bound, 0.0)


@dataclass(frozen=True)
class PerturbationConfig:
    """Scale, trial count, seed and mesh size for perturbation tests.

    epsilon passes the real-number rule (positive), trials (>= 1) and mesh
    (>= 2) the integer rule, and rng_seed geometry.check_seed, so that a
    bad value is refused when the config is built, before any oracle runs.
    trials * (mesh + 1) may not exceed MAX_PERTURB_ELEMENTS = 2^20, since
    second_variation_test draws every trial into one array; at the default
    mesh of 16 that allows up to 61680 trials.
    """

    epsilon: float
    trials: int
    rng_seed: int
    mesh: int = 16

    def __post_init__(self) -> None:
        check_real("epsilon", self.epsilon, positive=True)
        check_int("trials", self.trials, 1)
        check_int("mesh", self.mesh, 2)
        if self.trials * (self.mesh + 1) > MAX_PERTURB_ELEMENTS:
            raise ValueError(
                f"trials * (mesh + 1) = {self.trials * (self.mesh + 1)} exceeds "
                f"the cap of {MAX_PERTURB_ELEMENTS}: at mesh {self.mesh} at most "
                f"{MAX_PERTURB_ELEMENTS // (self.mesh + 1)} trials"
            )
        check_seed(self.rng_seed)


@dataclass(frozen=True)
class PerturbationReport:
    """Drag changes under random admissible perturbations of a slope s."""

    base_slope: float
    epsilon: float
    min_delta: float
    max_delta: float
    mean_ratio: float
    expected_ratio: float
    ratios: tuple[float, ...]


def dp_min_resistance(spec: ProblemSpec, config: DpConfig) -> tuple[float, Profile]:
    """Exact drag minimum over contours on an (n_cells, n_levels) grid.

    Contours are piecewise linear with breakpoints on the grid
    x_i = i*r/N, y = j*H/M.  Each cell rises k levels, k in a slope set K,
    at exact cost c(k) = dx / (1 + u^2) with u = k (dh / dx), a form that
    scales with the body (dx^3 would underflow or overflow at extreme r).

    Both variants run one (min,+) product over levels within 0..top,
    (a * b)[j] = min_k a[j - k] + b[k] with k in K, whose ties go to the
    first minimum in K's tie order, and one backtrack through the tree of
    products; the variant alone picks the schedule.  A product forms its
    sums in row blocks of at most DP_BLOCK.

    Restricted, K = 0..M, top = M: the drag is a sum of per-cell costs that
    does not depend on the order of the cells, so the grid optimum is the
    N-th (min,+) power of c.  It is computed by exponentiation by squaring:
    at most 2 floor(log2 N) products, O(M^2 log N) time, and one (M+1) rise
    array per product, O(M log N) storage.  Each product multiplies a power
    a of the cell into the result b so far, or squares a (b = a).  K's tie
    order is 0..M, so a tie gives b its smallest share and a its largest.
    A product forms only the sums that can win:

    * row j reads shares k <= j, since level j - k < 0 is unreachable: the
      triangle of (M+1)(M+2)/2 sums, not the (M+1)^2 of full rows;
    * a square (a = b) reads only b's shares k <= floor(j/2).  Its sums
      a[j-k] + a[k] and a[k] + a[j-k] are one double (IEEE addition
      commutes), so a minimum at k is also one at j - k, and the smallest
      minimizing share, the one the tie rule picks, is at most j/2: value
      and share are those of the full row, over about (M+1)^2/4 sums;
    * the last product forms row M only, the one row the backtrack reads.

    A row block takes the columns its last row reaches, a rectangle over its
    part of the triangle, so each product stays within DP_BLOCK sums a
    block.  At N = M = 400 (eight squares and two other products) that is
    655887 sums, against 10 * 401^2 = 1608010 over full rows.  The
    backtrack yields the multiset of N rises; the profile takes them
    flattest first (canonical and optimal, as any order is), which gives at
    most one segment per distinct slope.  The value is summed along the
    product tree, so it differs from a cell-by-cell sum only by rounding.

    Unrestricted, K = {k : |k * dh / dx| <= slope_bound}: rises may be
    negative, and the contour must stay at or above level 0 at every
    prefix.  The order of the rises then matters and the squaring argument
    fails, so this variant chains the product cell by cell,
    cost'[j] = min_k cost[j - k] + c(k), with an N x (top+1) rise table in
    the narrowest signed integer that holds +-k_max: one byte a rise up to
    k_max = 127 (400 x 2201 at B = 10 is 0.88 MB), two up to 32767, four
    beyond.
    K's tie order is (|k|, k): ties go to the smallest |k|, then the
    downward rise.  Cell i+1 (0-based step i) evaluates only the band of
    levels that lie on some contour from level 0 to level M,

        lo_i = max(0, M - (N-i-1) k_max),
        hi_i = min((i+1) k_max, M + (N-i-1) k_max),

    since i+1 cells rise at most (i+1) k_max and the N-i-1 cells left
    move at most (N-i-1) k_max.  This is exact: a banded level reads its
    predecessors j - k, |k| <= k_max, and each lies in the previous band or
    is a level no step ever wrote, which holds +inf, as it does when every
    level is evaluated.  So every sum, argmin and tie on a 0 -> M contour
    is the same, and value and profile are bit for bit those of the full
    recurrence.  The cost is sum_i (hi_i - lo_i + 1) |K| sums, against
    N (top+1) |K| over every level up to top = floor((M + N k_max) / 2),
    the band's peak: hi_i is the smaller of two bounds that sum to
    M + N k_max.

    Both schedules are deterministic, so the reported argmin profile is
    reproducible.

    A grid is refused by arithmetic, before anything is allocated, where
    dh/dx or slope_bound * dx/dh is out of the positive doubles (the
    message names it), or where its largest table would exceed
    MAX_TABLE_ELEMENTS: the (M+1)^2 sums of full rows, an upper bound on
    one restricted product, or the larger of the unrestricted N x (top+1)
    rise table and the (top+1) x |K| sums of one product.  Where k dh/dx or
    its square overflows, the cell cost is its limit 0.
    """
    n, m = config.n_cells, config.n_levels
    dx = spec.r / n
    dh = spec.H / m
    restricted = spec.variant is Variant.RESTRICTED
    k_max, top = check_grid(spec, config)
    if restricted:
        # the rise of each cell cost, and each product's shares (see _square)
        ks = np.arange(m + 1)
    else:
        ks = np.array(sorted(range(-k_max, k_max + 1), key=lambda kv: (abs(kv), kv)))
    with np.errstate(over="ignore"):
        # where u or u^2 overflows, the cost is its limit 0 (off by < dx/1.7e308)
        slope = ks * (dh / dx)
        cell_cost = dx / (1.0 + slope * slope)
    if restricted:
        values, tree = _square(cell_cost, ks, n)
    else:
        values, tree = _chain(cell_cost, ks, n, m, top)
    rises = _backtrack(tree, values, m)
    if restricted:
        rises.sort()
    return float(values[m]), _grid_profile(spec, n, m, rises)


def check_grid(spec: ProblemSpec, config: DpConfig) -> tuple[int, int]:
    """(k_max, top) of the grid dp_min_resistance would run, or ValueError.

    The grid rules of dp_min_resistance, by arithmetic alone: nothing is
    allocated, so a caller can refuse a grid before it does other work.
    """
    k_max, top, elements = _grid_extent(spec, config)
    if elements > MAX_TABLE_ELEMENTS:
        raise ValueError(
            f"DP grid too large: its largest table would hold {elements} "
            f"elements, above the cap of {MAX_TABLE_ELEMENTS}; use a smaller "
            "n_cells or n_levels, or a smaller slope_bound"
        )
    return k_max, top


def _grid_extent(spec: ProblemSpec, config: DpConfig) -> tuple[int, int, int]:
    # (k_max, top, elements): the largest rise, the top level and the size of
    # the largest table dp_min_resistance would build, by arithmetic alone
    n, m = config.n_cells, config.n_levels
    dx = spec.r / n
    dh = spec.H / m
    # every cell cost is formed from dh/dx: dx and dh must not underflow to 0
    if not (dx > 0.0 and 0.0 < dh / dx < math.inf):
        raise ValueError(f"DP slope quantum dh/dx = {dh!r} / {dx!r} is out of double range")
    if spec.variant is Variant.RESTRICTED:
        # a product forms at most the triangle of (M+1)(M+2)/2 sums; the cap
        # counts the (M+1) x (M+1) full rows above it, an upper bound
        return m, m, (m + 1) ** 2
    if config.slope_bound <= 0.0:
        raise ValueError("unrestricted DP requires a positive slope_bound")
    levels = config.slope_bound * dx / dh
    if levels == math.inf:
        raise ValueError(f"DP slope_bound * dx/dh = {levels} is out of double range")
    k_max = int(math.floor(levels + 1e-12))
    if k_max < 1 or n * k_max < m:
        raise ValueError(
            "infeasible grid: required total rise unreachable under slope bound"
        )
    # the band's peak: no 0 -> M contour rises above it (see dp_min_resistance)
    top = (m + n * k_max) // 2
    # the N x (top+1) rise table, or the (top+1) x |K| sums of one product
    return k_max, top, (top + 1) * max(n, 2 * k_max + 1)


def _product(window, b, ks, cols, values, rises) -> None:
    # values[j] = (a * b)[j] = min_t a[j - ks[t]] + b[t] over the levels j of
    # a, and rises[j] = ks[t] for the first minimum: t runs over K in its tie
    # order, so np.argmin's first minimum is the tie rule.  window is the
    # sliding_window_view of a padded with +inf; its column cols[t] holds
    # a[j - ks[t]], or +inf where j - ks[t] leaves the levels, so no index
    # table and no mask are built.  Rows go in blocks of at most DP_BLOCK
    # sums, so a product's temporaries stay small on any grid.
    step = max(1, DP_BLOCK // ks.size)
    for lo in range(0, values.size, step):
        total = window[lo : lo + step, cols] + b
        t = total.argmin(axis=1)
        values[lo : lo + step] = total[np.arange(t.size), t]
        rises[lo : lo + step] = ks[t]


def _square(cell_cost, ks, n):
    # restricted schedule: the N-th power of one cell by squaring, since the
    # order of the rises does not matter.  A factor is (values, tree), and
    # ks = 0..M.  multiply(a, b) sends its rows through _product with a
    # window over a, reversed and padded with +inf above, whose row j holds
    # a[j - k] at column k, with b as the vector and ks as b's shares; so
    # np.argmin's first minimum is b's smallest share.  Row j reads the
    # shares k <= j, or k <= j // 2 in a square (see dp_min_resistance),
    # and a row block only the columns its last row reaches.  The last
    # product forms row M alone; rows left out hold +inf.
    m = ks.size - 1
    pad = np.full(m, np.inf)

    def multiply(a, b, last):
        square = a is b
        values = np.full(m + 1, np.inf)
        rises = np.zeros(m + 1, dtype=np.int32)
        window = sliding_window_view(np.concatenate((a[0][::-1], pad)), m + 1)[::-1]
        step = max(1, DP_BLOCK // (m // 2 + 1 if square else m + 1))
        for lo in range(m if last else 0, m + 1, step):
            hi = min(lo + step, m + 1)
            width = (hi - 1) // 2 + 1 if square else hi
            _product(
                window[lo:hi], b[0][:width], ks[:width], slice(width),
                values[lo:hi], rises[lo:hi],
            )
        return values, (a[1], b[1], rises)

    power = (cell_cost, None)
    result = None
    while True:
        if n & 1:
            result = power if result is None else multiply(power, result, n == 1)
        n >>= 1
        if not n:
            return result
        # with no result yet, the square before the top bit is the last product
        power = multiply(power, power, n == 1 and result is None)


def _chain(cell_cost, ks, n, m, top):
    # slope-bounded schedule: one cell at a time, since every prefix must stay
    # at or above level 0; top, the band's peak, bounds the levels any band
    # holds.  The levels alternate between two buffers
    # padded with k_max +inf on each side, each with one window; the rises go
    # into one contiguous table.  Cell i + 1 evaluates only its band
    # lo..stop - 1, the levels some 0 -> m contour can pass there (see
    # dp_min_resistance); a level outside it is either never read again or
    # never written, so +inf, and its rise stays unset.  The first product
    # places one cell on the levels, so its tree is a leaf and its row is
    # never read.
    k_max = int(ks.max())
    cols = k_max - ks
    buffers = np.full((2, top + 1 + 2 * k_max), np.inf)
    windows = [sliding_window_view(buffer, 2 * k_max + 1) for buffer in buffers]
    levels = buffers[:, k_max : k_max + top + 1]
    levels[0, 0] = 0.0
    # the narrowest signed type that holds +k_max: -k_max alone would pick
    # int8 at k_max = 128, where +128 wraps
    rises = np.empty((n, top + 1), dtype=np.min_scalar_type(-k_max - 1))
    tree = None
    for i in range(n):
        left = (n - i - 1) * k_max
        lo = max(0, m - left)
        stop = min((i + 1) * k_max, m + left) + 1
        _product(
            windows[i % 2][lo:stop], cell_cost, ks, cols,
            levels[1 - i % 2, lo:stop], rises[i, lo:stop],
        )
        if i:
            tree = (tree, None, rises[i])
    return levels[n % 2], tree


def _backtrack(tree, values, level: int) -> list[int]:
    # the rises of a contour attaining values[level], left factor first.  A
    # tree is None for one cell, which rises by the level asked of it, or
    # (left, right, rises) for a product, whose rises[j] is the right
    # factor's share of level j.
    if not math.isfinite(values[level]):
        raise RuntimeError(f"DP found no contour reaching level {level}")
    rises: list[int] = []
    stack = [(tree, level)]
    while stack:
        node, j = stack.pop()
        if node is None:
            rises.append(j)
        else:
            left, right, shares = node
            k = int(shares[j])
            stack.append((right, k))
            stack.append((left, j - k))
    return rises


def _grid_profile(
    spec: ProblemSpec, n: int, m: int, rises: list[int]
) -> Profile:
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    level = 0
    for i, k in enumerate(rises):
        level += k
        # merge runs of identical rises to keep the profile compact
        if i + 1 < n and rises[i + 1] == k:
            continue
        points.append(((i + 1) / n * spec.r, level / m * spec.H))
    return Profile(tuple(points))


def second_variation_test(
    profile: Profile, spec: ProblemSpec, config: PerturbationConfig
) -> PerturbationReport:
    """Random zero-mean slope perturbations of the straight contour.

    Each trial draws a piecewise-constant slope field phi on a random mesh,
    recentered so the endpoint constraint is preserved exactly, and
    evaluates dR = R[s + eps*phi] - R[s].  The ratio
    dR / ((eps^2/2) * int phi^2) converges to the integrand curvature
    f''(s) = (6 s^2 - 2) / (1 + s^2)^3 as eps -> 0, which classifies the
    straight contour: positive for s above sqrt(3)/3 (weak local minimum),
    negative below (not a minimum).  Classification is asserted only for
    the straight contour; the weak (derivative sup-norm) neighborhood
    notion is what is being tested.  A slope s above about 2.4e51, where
    (1+s^2)^3 overflows, is refused by name before anything is drawn.

    Each trial keeps its own stream, spawned from rng_seed by
    SeedSequence, and its draws fill one row of a trials x (mesh + 1) edge
    array and a trials x mesh phi array; sorting, differencing and the
    element-wise arithmetic then run once over all rows.  The three sums of
    a trial (the recentering, dR and int phi^2) are math.fsum of the
    element-wise products, correctly rounded, so their bits depend on IEEE
    products alone: not on the BLAS kernel the CPU selects, nor on the order
    of the terms.
    """
    r = profile.breakpoints[-1][0]
    s = (profile.breakpoints[-1][1] - profile.breakpoints[0][1]) / (
        r - profile.breakpoints[0][0]
    )
    expected = (6.0 * s * s - 2.0) / slope_power(s, 3, "the second variation")
    eps = config.epsilon
    trials, mesh = config.trials, config.mesh
    base = 1.0 / (1.0 + s * s)
    # trial t draws from its own spawned stream: mesh - 1 cuts uniform on
    # [0, r), then mesh values of phi uniform on [-1, 1).  Row t of each
    # array takes them as rng.random doubles, scaled in place below exactly
    # as Generator.uniform scales them
    edges = np.empty((trials, mesh + 1))
    phi = np.empty((trials, mesh))
    for t, seed in enumerate(np.random.SeedSequence(config.rng_seed).spawn(trials)):
        rng = np.random.default_rng(seed)
        rng.random(out=edges[t, 1:mesh])
        rng.random(out=phi[t])
    cuts = edges[:, 1:mesh]
    cuts *= r
    cuts.sort(axis=1)
    edges[:, 0] = 0.0
    edges[:, mesh] = r
    widths = np.diff(edges, axis=1)
    phi *= 2.0
    phi -= 1.0

    def row_sums(a, b):
        # each row's sum of a * b, correctly rounded
        return np.array([math.fsum(row) for row in (a * b).tolist()])

    phi -= (row_sums(phi, widths) / r)[:, None]
    perturbed = s + eps * phi
    deltas = row_sums(widths, 1.0 / (1.0 + perturbed * perturbed) - base)
    ratios = deltas / (0.5 * eps * eps * row_sums(widths, phi * phi))
    return PerturbationReport(
        base_slope=s,
        epsilon=eps,
        min_delta=float(deltas.min()),
        max_delta=float(deltas.max()),
        mean_ratio=float(ratios.mean()),
        expected_ratio=expected,
        ratios=tuple(ratios),
    )


def finite_difference_gradient(
    evaluator: Callable[[np.ndarray], float],
    point: np.ndarray,
    step: float,
) -> np.ndarray:
    """Central-difference gradient, O(step^2) accurate.

    Cross-check utility only; never a substitute for analytic gradients.
    """
    check_real("step", step, positive=True)
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.size):
        lo = point.copy()
        hi = point.copy()
        lo[i] -= step
        hi[i] += step
        grad[i] = (evaluator(hi) - evaluator(lo)) / (2.0 * step)
    return grad
