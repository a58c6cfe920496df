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

from .geometry import Profile, ProblemSpec, Variant

#: Most elements dp_min_resistance lets one of its tables hold.  2^25
#: float64 are 256 MiB, and a DP step holds a few such arrays at once; a
#: larger grid is refused before anything is built.
MAX_TABLE_ELEMENTS = 2**25


@dataclass(frozen=True)
class DpConfig:
    """Grid resolution for the dynamic-programming minimization.

    n_cells (N) and n_levels (M) must be Python ints >= 2; bool and float
    are rejected, since the restricted kernel does bit arithmetic on N.
    slope_bound sets the DP's slope set K: it is ignored for the restricted
    variant, whose K = 0..n_levels (monotone contours already keep the DP
    finite), and must be positive for the unrestricted variant, whose K
    holds every rise k with |k| * (H/n_levels) / (r/n_cells) <= slope_bound
    (its drag infimum is zero without a slope bound).

    The restricted DP is free to order its rises, so it runs (min,+)
    squaring in O(M^2 log N) time and O(M log N) split storage and reports
    the rises flattest first.  The unrestricted contour must stay within
    its level band at every prefix, so its DP runs the cell-by-cell
    recurrence in O(N top |K|) time.  dp_min_resistance states the tie
    rules.

    Memory is capped: dp_min_resistance raises ValueError, before it
    allocates any table, when its largest one would exceed
    MAX_TABLE_ELEMENTS = 2^25 elements.  That table is the (M+1)^2 product
    of the restricted squaring, or for the unrestricted variant the larger
    of the N x (top+1) choice table and the (top+1) x |K| predecessor
    table.  The cap is fixed, not a setting.
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
    """Scale, trial count, seed and mesh size for perturbation tests."""

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

    Restricted, K = 0..M: the drag is a sum of per-cell costs that does not
    depend on the order of the cells, so the grid optimum is the N-th
    (min,+) power of c truncated to the levels 0..M.  It is computed by
    exponentiation by squaring: at most 2 floor(log2 N) products
    (a * b)[j] = min_s a[s] + b[j - s], O(M^2 log N) time, and one (M+1)
    split array per product, O(M log N) storage.  np.argmin takes the first
    minimum, so a tie goes to the smallest split s, i.e. the smallest share
    of the left factor.  The backtrack through the products yields the
    multiset of N rises; the profile takes them flattest first (canonical
    and optimal, as any order is), which gives at most one segment per
    distinct slope.  The value is summed along the product tree, so it
    differs from a cell-by-cell sum only by rounding.

    Unrestricted, K = {k : |k * dh / dx| <= slope_bound}: rises may be
    negative, and the contour must stay within the levels 0..top at every
    prefix, with top capped above the bang-bang peak (B r + H) / 2.  The
    order of the rises then matters and the squaring argument fails, so
    this variant runs the cell-by-cell recurrence
    cost'[j] = min_k c(k) + cost[j - k], O(N top |K|) time, with ties going
    to the smallest |k|, then the downward rise.

    Both kernels are deterministic, so the reported argmin profile is
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
        ks = np.arange(m + 1)
    else:
        ks = np.array(sorted(range(-k_max, k_max + 1), key=lambda kv: (abs(kv), kv)))
    slope = ks * (dh / dx)
    cell_cost = dx / (1.0 + slope * slope)
    if restricted:
        value, rises = _min_plus_power(cell_cost, n)
    else:
        value, rises = _gather(cell_cost, ks, n, m, top)
    return value, _grid_profile(spec, n, m, rises)


def _grid_extent(spec: ProblemSpec, config: DpConfig) -> tuple[int, int, int]:
    # (k_max, top, elements): the largest rise, the top level and the size of
    # the largest table dp_min_resistance would build, by arithmetic alone
    n, m = config.n_cells, config.n_levels
    if spec.variant is Variant.RESTRICTED:
        # squaring builds one (M+1) x (M+1) sum table per product
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
    # the N x (top+1) choice table, or the (top+1) x |K| predecessor table
    return k_max, top, (top + 1) * max(n, 2 * k_max + 1)


def _min_plus_power(cell_cost: np.ndarray, n: int) -> tuple[float, list[int]]:
    # N-th (min,+) power of cell_cost over the levels 0..M = cell_cost.size-1,
    # and the rises of one contour attaining it at level M
    m = cell_cost.size - 1
    pad = np.full(m, np.inf)
    rows = np.arange(m + 1)

    def times(a, b):
        # a node is (values, None) for one cell or (values, (left, right, split));
        # row j of the window view over b reversed and padded with +inf is
        # b[j - s] for s <= j and +inf for s > j: a lower-triangular table
        # without an index array
        window = sliding_window_view(np.concatenate((b[0][::-1], pad)), m + 1)
        total = a[0] + window[::-1]
        split = np.argmin(total, axis=1)
        return total[rows, split], (a, b, split)

    power = (cell_cost, None)
    result = None
    while True:
        if n & 1:
            result = power if result is None else times(result, power)
        n >>= 1
        if not n:
            break
        power = times(power, power)

    rises: list[int] = []
    stack = [(result, m)]
    while stack:
        (_, node), j = stack.pop()
        if node is None:
            rises.append(j)
        else:
            left, right, split = node
            s = int(split[j])
            stack.append((left, s))
            stack.append((right, j - s))
    rises.sort()
    return float(result[0][m]), rises


def _gather(
    cell_cost: np.ndarray, ks: np.ndarray, n: int, m: int, top: int
) -> tuple[float, list[int]]:
    rows = np.arange(top + 1)
    prev = rows[:, None] - ks
    valid = (prev >= 0) & (prev <= top)
    prev = np.where(valid, prev, 0)
    cost = np.full(top + 1, np.inf)
    cost[0] = 0.0
    choice = np.empty((n, top + 1), dtype=np.int32)
    for i in range(n):
        total = np.where(valid, cell_cost[None, :] + cost[prev], np.inf)
        # argmin takes the first minimum in K's order, flattest rise first
        arg = np.argmin(total, axis=1)
        cost = total[rows, arg]
        choice[i] = ks[arg]
    return float(cost[m]), _backtrack(choice, m)


def _backtrack(choice: np.ndarray, target_level: int) -> list[int]:
    n = choice.shape[0]
    j = target_level
    rises: list[int] = []
    for i in range(n - 1, -1, -1):
        k = int(choice[i, j])
        rises.append(k)
        j -= k
    if j != 0:
        raise RuntimeError("DP backtrack failed to reach level 0")
    rises.reverse()
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
    """
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
        phi -= float(np.dot(phi, widths)) / r
        perturbed = s + eps * phi
        delta = float(np.dot(widths, 1.0 / (1.0 + perturbed * perturbed) - base))
        quad = 0.5 * eps * eps * float(np.dot(widths, phi * phi))
        deltas[t] = delta
        ratios[t] = delta / quad
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
