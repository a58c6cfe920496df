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

from .geometry import Profile, ProblemSpec, Variant, check_seed

#: Most elements dp_min_resistance lets one of its tables hold: the sums of
#: one (min,+) product, or the unrestricted DP's rise table (2^25 int32 are
#: 128 MiB).  A larger grid is refused before anything is built.
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

    n_cells (N) and n_levels (M) must be Python ints >= 2; bool and float
    are rejected, since the restricted DP does bit arithmetic on N.
    slope_bound sets the DP's slope set K: it is ignored for the restricted
    variant, whose K = 0..n_levels (monotone contours already keep the DP
    finite), and must be positive for the unrestricted variant, whose K
    holds every rise k with |k| * (H/n_levels) / (r/n_cells) <= slope_bound
    (its drag infimum is zero without a slope bound).

    Both variants run the same (min,+) product over K; the variant picks
    the schedule.  The restricted DP is free to order its rises, so it
    squares, in O(M^2 log N) time and O(M log N) rise storage, and reports
    the rises flattest first.  The unrestricted contour must stay within
    its level band at every prefix, so its DP chains the product cell by
    cell, in O(N top |K|) time.  dp_min_resistance states the tie rules.

    Size is capped: dp_min_resistance raises ValueError, before it
    allocates anything, when its largest table would exceed
    MAX_TABLE_ELEMENTS = 2^25 elements.  That table is the (M+1)^2 sums of
    one restricted product, or for the unrestricted variant the larger of
    the N x (top+1) rise table and the (top+1) x |K| sums of one product.
    A product forms its sums in row blocks of at most DP_BLOCK = 2^16, so
    they bound its work, not its memory.  The cap is fixed, not a setting.
    """

    n_cells: int
    n_levels: int
    slope_bound: float = 0.0

    def __post_init__(self) -> None:
        for v in (self.n_cells, self.n_levels):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(
                    f"n_cells and n_levels must be ints, got {type(v).__name__}"
                )
        if self.n_cells < 2 or self.n_levels < 2:
            raise ValueError("n_cells and n_levels must both be >= 2")
        if not 0.0 <= self.slope_bound < math.inf:
            raise ValueError("slope_bound must be finite and nonnegative")


@dataclass(frozen=True)
class PerturbationConfig:
    """Scale, trial count, seed and mesh size for perturbation tests.

    epsilon must be finite and positive; trials (>= 1) and mesh (>= 2) must
    be Python ints, not bool, and rng_seed passes geometry.check_seed, so
    that a bad value is refused when the config is built, before any oracle
    runs.  trials * (mesh + 1) may not exceed MAX_PERTURB_ELEMENTS = 2^20,
    since second_variation_test draws every trial into one array; at the
    default mesh of 16 that allows up to 61680 trials.
    """

    epsilon: float
    trials: int
    rng_seed: int
    mesh: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        for v in (self.trials, self.mesh):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(
                    f"trials and mesh must be ints, got {type(v).__name__}"
                )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mesh < 2:
            raise ValueError("mesh must be >= 2")
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

    Both variants run one (min,+) product over the levels 0..top,
    (a * b)[j] = min_k a[j - k] + b[k] with k in K, whose ties go to the
    first minimum in K's tie order, and one backtrack through the tree of
    products; the variant alone picks the schedule.  A product forms its
    sums in row blocks of at most DP_BLOCK.

    Restricted, K = 0..M, top = M: the drag is a sum of per-cell costs that
    does not depend on the order of the cells, so the grid optimum is the
    N-th (min,+) power of c.  It is computed by exponentiation by squaring:
    at most 2 floor(log2 N) products, O(M^2 log N) time, and one (M+1) rise
    array per product, O(M log N) storage.  K's tie order is M..0, so a tie
    goes to the right factor's largest share, i.e. the smallest share of
    the left factor.  The backtrack yields the multiset of N rises; the
    profile takes them flattest first (canonical and optimal, as any order
    is), which gives at most one segment per distinct slope.  The value is
    summed along the product tree, so it differs from a cell-by-cell sum
    only by rounding.

    Unrestricted, K = {k : |k * dh / dx| <= slope_bound}: rises may be
    negative, and the contour must stay within the levels 0..top at every
    prefix, with top capped above the bang-bang peak (B r + H) / 2.  The
    order of the rises then matters and the squaring argument fails, so
    this variant chains the product cell by cell,
    cost'[j] = min_k cost[j - k] + c(k), in O(N top |K|) time with an
    N x (top+1) rise table.  K's tie order is (|k|, k): ties go to the
    smallest |k|, then the downward rise.

    Both schedules are deterministic, so the reported argmin profile is
    reproducible.
    """
    n, m = config.n_cells, config.n_levels
    dx = spec.r / n
    dh = spec.H / m
    restricted = spec.variant is Variant.RESTRICTED
    k_max, top, elements = _grid_extent(spec, config)
    if elements > MAX_TABLE_ELEMENTS:
        raise ValueError(
            f"DP grid too large: its largest table would hold {elements} "
            f"elements, above the cap of {MAX_TABLE_ELEMENTS}; use fewer "
            "cells or levels, or a smaller slope_bound"
        )
    if restricted:
        # tie order M..0: the right factor's largest share first, so a tie
        # gives the left factor its smallest share
        ks = np.arange(m, -1, -1)
    else:
        ks = np.array(sorted(range(-k_max, k_max + 1), key=lambda kv: (abs(kv), kv)))
    slope = ks * (dh / dx)
    cell_cost = dx / (1.0 + slope * slope)
    if restricted:
        values, tree = _square(cell_cost, ks, n)
    else:
        values, tree = _chain(cell_cost, ks, n, top)
    rises = _backtrack(tree, values, m)
    if restricted:
        rises.sort()
    return float(values[m]), _grid_profile(spec, n, m, rises)


def _grid_extent(spec: ProblemSpec, config: DpConfig) -> tuple[int, int, int]:
    # (k_max, top, elements): the largest rise, the top level and the size of
    # the largest table dp_min_resistance would build, by arithmetic alone
    n, m = config.n_cells, config.n_levels
    if spec.variant is Variant.RESTRICTED:
        # squaring forms (M+1) x (M+1) sums per product
        return m, m, (m + 1) ** 2
    if config.slope_bound <= 0.0:
        raise ValueError("unrestricted DP requires a positive slope_bound")
    dx = spec.r / n
    dh = spec.H / m
    k_max = int(math.floor(config.slope_bound * dx / dh + 1e-12))
    if k_max < 1 or n * k_max < m:
        raise ValueError(
            "infeasible grid: required total rise unreachable under slope bound"
        )
    # level cap: generous room above the bang-bang peak (B r + H) / 2
    top = max(
        m,
        math.ceil(((config.slope_bound * spec.r + spec.H) / 2.0) / dh) + k_max,
    )
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
    # order of the rises does not matter.  K = M..0, so the window over the
    # left factor, padded with M below, takes its columns as a plain slice
    # and the right factor enters reversed (copied, so that the sums run
    # over contiguous memory).  A factor is (values, tree).
    m = ks.size - 1
    pad = np.full(m, np.inf)

    def multiply(x, y):
        values = np.empty(m + 1)
        rises = np.empty(m + 1, dtype=np.int32)
        window = sliding_window_view(np.concatenate((pad, x[0])), m + 1)
        _product(window, y[0][::-1].copy(), ks, slice(None), values, rises)
        return values, (x[1], y[1], rises)

    power = (cell_cost[::-1], None)
    result = None
    while True:
        if n & 1:
            result = power if result is None else multiply(result, power)
        n >>= 1
        if not n:
            return result
        power = multiply(power, power)


def _chain(cell_cost, ks, n, top):
    # slope-bounded schedule: one cell at a time, since every prefix must stay
    # within the levels 0..top.  The levels alternate between two buffers
    # padded with k_max +inf on each side, each with one window; the rises go
    # into one contiguous table.  The first product places one cell on the
    # levels, so its tree is a leaf and its row is never read.
    k_max = int(ks.max())
    cols = k_max - ks
    buffers = np.full((2, top + 1 + 2 * k_max), np.inf)
    windows = [sliding_window_view(buffer, 2 * k_max + 1) for buffer in buffers]
    levels = buffers[:, k_max : k_max + top + 1]
    levels[0, 0] = 0.0
    rises = np.empty((n, top + 1), dtype=np.int32)
    tree = None
    for i in range(n):
        _product(windows[i % 2], cell_cost, ks, cols, levels[1 - i % 2], rises[i])
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
    notion is what is being tested.

    Each trial keeps its own stream, spawned from rng_seed by
    SeedSequence, and its draws fill one row of a trials x (mesh + 1) edge
    array and a trials x mesh phi array; sorting, differencing and the
    element-wise arithmetic then run once over all rows.  The three sums of
    a trial (the recentering, dR and int phi^2) stay one np.dot per row, so
    the report is bit for bit that of a trial-by-trial loop.
    """
    r = profile.breakpoints[-1][0]
    s = (profile.breakpoints[-1][1] - profile.breakpoints[0][1]) / (
        r - profile.breakpoints[0][0]
    )
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

    def row_dots(a, b):
        # one np.dot per row, as for a single trial, so every sum keeps its order
        return np.array([np.dot(x, y) for x, y in zip(a, b)])

    phi -= (row_dots(phi, widths) / r)[:, None]
    perturbed = s + eps * phi
    deltas = row_dots(widths, 1.0 / (1.0 + perturbed * perturbed) - base)
    ratios = deltas / (0.5 * eps * eps * row_dots(widths, phi * phi))
    expected = (6.0 * s * s - 2.0) / (1.0 + s * s) ** 3
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
    if step <= 0.0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.size):
        lo = point.copy()
        hi = point.copy()
        lo[i] -= step
        hi[i] += step
        grad[i] = (evaluator(hi) - evaluator(lo)) / (2.0 * step)
    return grad
