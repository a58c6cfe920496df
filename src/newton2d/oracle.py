"""Independent numerical verification of the closed-form results.

Three oracles, none of which reuses the closed-form solution path:

* exhaustive dynamic programming over grid-discretized contours,
* second-variation perturbation of the straight contour,
* central finite differences for gradient cross-checks.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (
    Profile, ProblemSpec, Record, Variant, check_int, check_real, check_seed, slope_power
)

#: Most sums dp_min_resistance lets one (min,+) product hold, counted as
#: (T+1)^2 for its target level T (M, or M + N k_max when slope-bounded), an
#: upper bound on the triangle a product forms.  A larger grid is refused
#: before anything is built.
MAX_TABLE_ELEMENTS = 2**25

#: Most sums one row block of a DP (min,+) product holds (512 KiB of
#: float64); a product over more levels or rises is evaluated block by block.
DP_BLOCK = 2**16

#: Most elements of the edge array second_variation_test fills,
#: trials * (mesh + 1) float64 (8 MiB); PerturbationConfig refuses more.
MAX_PERTURB_ELEMENTS = 2**20


class DpConfig(Record):
    """Grid resolution for the dynamic-programming minimization.

    n_cells (N) and n_levels (M) pass the integer rule with N, M >= 2 (the
    restricted DP does bit arithmetic on N), slope_bound the real-number
    rule with slope_bound >= 0.  slope_bound is ignored by the restricted
    variant and must be positive for the unrestricted one, whose drag
    infimum is zero without a slope bound.  dp_min_resistance states the
    DP's design: its slope sets, schedule, tie rule, cost and size cap.
    """

    def __init__(self, n_cells: int, n_levels: int, slope_bound: float = 0.0) -> None:
        check_int("n_cells", n_cells, 2)
        check_int("n_levels", n_levels, 2)
        check_real("slope_bound", slope_bound, 0.0)
        self._init(n_cells, n_levels, slope_bound)


class PerturbationConfig(Record):
    """Scale, trial count, seed and mesh size for perturbation tests.

    epsilon passes the real-number rule (positive), trials (>= 1) and mesh
    (>= 2) the integer rule, and rng_seed geometry.check_seed, so that a
    bad value is refused when the config is built, before any oracle runs.
    trials * (mesh + 1) may not exceed MAX_PERTURB_ELEMENTS = 2^20, since
    second_variation_test draws every trial into one array; at the default
    mesh of 16 that allows up to 61680 trials.
    """

    def __init__(self, epsilon: float, trials: int, rng_seed: int, mesh: int = 16) -> None:
        check_real("epsilon", epsilon, positive=True)
        check_int("trials", trials, 1)
        check_int("mesh", mesh, 2)
        if trials * (mesh + 1) > MAX_PERTURB_ELEMENTS:
            raise ValueError(
                f"trials * (mesh + 1) = {trials * (mesh + 1)} exceeds "
                f"the cap of {MAX_PERTURB_ELEMENTS}: at mesh {mesh} at most "
                f"{MAX_PERTURB_ELEMENTS // (mesh + 1)} trials"
            )
        check_seed(rng_seed)
        self._init(epsilon, trials, rng_seed, mesh)


class PerturbationReport(Record):
    """Drag changes under random admissible perturbations of a slope s."""

    def __init__(
        self,
        base_slope: float,
        epsilon: float,
        min_delta: float,
        max_delta: float,
        mean_ratio: float,
        expected_ratio: float,
        ratios: tuple[float, ...],
    ) -> None:
        self._init(base_slope, epsilon, min_delta, max_delta, mean_ratio, expected_ratio, ratios)


def dp_min_resistance(spec: ProblemSpec, config: DpConfig) -> tuple[float, Profile]:
    """Exact drag minimum over contours on an (n_cells, n_levels) grid.

    Contours are piecewise linear with breakpoints on the grid
    x_i = i*r/N, y = j*H/M.  Each cell rises k levels, k in a slope set K,
    at exact cost c(k) = dx / (1 + u^2) with u = k (dh / dx), a form that
    scales with the body (dx^3 would underflow or overflow at extreme r).
    Restricted, K = 0..M; unrestricted, K = -k_max..k_max with
    k_max = floor(slope_bound * dx/dh), and the contour must also stay at or
    above level 0 at every prefix.

    Both variants run one schedule.  The drag is a sum of per-cell costs
    that does not depend on the order of the cells, so the grid optimum over
    multisets of N rises is the N-th (min,+) power of c,
    (a * b)[j] = min_k a[j - k] + b[k], at the target level T:

    * restricted, T = M;
    * unrestricted, rise k is shifted to level k + k_max in 0..2 k_max of
      one cell, and the target to T = M' = M + N k_max, so that every level
      is >= 0 as in the restricted case.  This is exact, since the prefix
      rule does not bind: take any multiset of rises with sum M >= 0 and
      order it steepest first.  Its prefixes rise to the sum P of its
      positive rises, then fall monotonically to M, so they never leave
      [0, P].

    The profile takes the rises of the argmin steepest first when
    unrestricted, so it is admissible, and flattest first when restricted,
    where any order is; either way it has one segment per distinct slope.

    The power is computed by exponentiation by squaring: at most
    2 floor(log2 N) products, each multiplying a power a of the cell into
    the result b so far, or squaring a (b = a), and one rise array per
    product for the backtrack, O(T log N) storage.  A factor of p cells
    carries its top, min(p w, T) for a cell of top w (M, or 2 k_max): no
    level above it is reachable.  Ties go to the first minimum in b's
    shares 0, 1, ...: b's smallest share and a's largest.  A product forms
    only the sums that can win:

    * rows j <= min(top_a + top_b, T), the row trim: a higher level is
      unreachable or above the target.  In the restricted variant every top
      is M, so the trim leaves every product as it was;
    * row j reads the shares k <= j, since level j - k < 0 is unreachable:
      at most the triangle of (T+1)(T+2)/2 sums, not the (T+1)^2 of full
      rows;
    * a square (a = b) reads only shares k <= floor(j/2).  Its sums
      a[j-k] + a[k] and a[k] + a[j-k] are one double (IEEE addition
      commutes), so a minimum at k is also one at j - k, and the smallest
      minimizing share, the one the tie rule picks, is at most j/2: value
      and share are those of the full row, over about a quarter of the
      square's sums;
    * the last product forms row T only, the one row the backtrack reads.

    A product forms its sums in row blocks of at most DP_BLOCK; a row block
    takes the columns its last row reaches, a rectangle over its part of
    the triangle.  At N = M = 400 restricted (eight squares and two other
    products) that is 655887 sums, against 10 * 401^2 = 1608010 over full
    rows.  The value is summed along the product tree, so it differs from a
    cell-by-cell sum only by rounding, within (N + ceil(log2 N)) eps
    relative.  The schedule is deterministic, so the reported argmin
    profile is reproducible.

    A grid is refused by arithmetic, before anything is allocated, where
    dh/dx or slope_bound * dx/dh is out of the positive doubles (the
    message names it), or where (T+1)^2, an upper bound on the sums of one
    product, exceeds MAX_TABLE_ELEMENTS: T >= 5792, such as M = 6000 or
    400^2 at slope_bound >= 14.  Where k dh/dx or its square overflows, the
    cell cost is its limit 0.
    """
    n, m = config.n_cells, config.n_levels
    dx = spec.r / n
    dh = spec.H / m
    k_max, top = check_grid(spec, config)
    # rise k is level k + shift of one cell
    shift = 0 if spec.variant is Variant.RESTRICTED else k_max
    ks = np.arange(-shift, k_max + 1)
    with np.errstate(over="ignore"):
        # where u or u^2 overflows, the cost is its limit 0 (off by < dx/1.7e308)
        slope = ks * (dh / dx)
        cell_cost = dx / (1.0 + slope * slope)
    values, tree = _square(cell_cost, n, top)
    rises = [k - shift for k in _backtrack(tree, values, top)]
    # steepest first keeps every unrestricted prefix at or above level 0
    rises.sort(reverse=shift > 0)
    return float(values[top]), _grid_profile(spec, n, m, rises)


def check_grid(spec: ProblemSpec, config: DpConfig) -> tuple[int, int]:
    """(k_max, T) of the grid dp_min_resistance would run, or ValueError.

    k_max is the largest rise (M when restricted) and T the target level.
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
    # (k_max, T, elements): the largest rise, the target level and (T+1)^2,
    # the bound on one product's sums, by arithmetic alone
    n, m = config.n_cells, config.n_levels
    dx = spec.r / n
    dh = spec.H / m
    # every cell cost is formed from dh/dx: dx and dh must not underflow to 0
    if not (dx > 0.0 and 0.0 < dh / dx < math.inf):
        raise ValueError(f"DP slope quantum dh/dx = {dh!r} / {dx!r} is out of double range")
    if spec.variant is Variant.RESTRICTED:
        k_max = top = m
    else:
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
        top = m + n * k_max
    return k_max, top, (top + 1) ** 2


def _product(window, b, values, rises) -> None:
    # values[j] = min_k window[j, k] + b[k] and rises[j] = the first
    # minimizing k, so np.argmin's first minimum is the tie rule
    total = window + b
    t = total.argmin(axis=1)
    values[:] = total[np.arange(t.size), t]
    rises[:] = t


def _square(cell_cost, n, top):
    # the n-th (min,+) power of one cell by squaring, over the levels
    # 0..top.  A factor is (values, tree, its top), values over all of
    # 0..top and +inf above the factor's top (see dp_min_resistance); the
    # cell's top is the last level cell_cost gives.  multiply(a, b) forms
    # the rows up to min(top_a + top_b, top) and sends them through _product
    # with a window over a, reversed and padded with +inf above, whose row j
    # holds a[j - k] at column k, and with b as the vector; so np.argmin's
    # first minimum is b's smallest share.  Row j reads the shares k <= j,
    # or k <= j // 2 in a square, and a row block only the columns its last
    # row reaches.  The last product forms row top alone; rows left out
    # hold +inf.
    pad = np.full(top, np.inf)

    def multiply(a, b, last):
        square = a is b
        rows = min(a[2] + b[2], top) + 1
        values = np.full(top + 1, np.inf)
        rises = np.zeros(top + 1, dtype=np.int32)
        window = sliding_window_view(np.concatenate((a[0][::-1], pad)), top + 1)[::-1]
        step = max(1, DP_BLOCK // ((rows - 1) // 2 + 1 if square else rows))
        for lo in range(rows - 1 if last else 0, rows, step):
            hi = min(lo + step, rows)
            width = (hi - 1) // 2 + 1 if square else hi
            _product(window[lo:hi, :width], b[0][:width], values[lo:hi], rises[lo:hi])
        return values, (a[1], b[1], rises), rows - 1

    cell = np.concatenate((cell_cost, pad[: top + 1 - cell_cost.size]))
    power = (cell, None, cell_cost.size - 1)
    result = None
    while True:
        if n & 1:
            result = power if result is None else multiply(power, result, n == 1)
        n >>= 1
        if not n:
            return result[:2]
        # with no result yet, the square before the top bit is the last product
        power = multiply(power, power, n == 1 and result is None)


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
    notion is what is being tested.  A profile of more than one segment is
    refused, naming its segment count, and so is a slope s above about
    2.4e51, where (1+s^2)^3 overflows, both before anything is drawn.

    Each trial keeps its own stream, spawned from rng_seed by
    SeedSequence, and its draws fill one row of a trials x (mesh + 1) edge
    array and a trials x mesh phi array; sorting, differencing and the
    element-wise arithmetic then run once over all rows.  The three sums of
    a trial (the recentering, dR and int phi^2) are math.fsum of the
    element-wise products, correctly rounded, so their bits depend on IEEE
    products alone: not on the BLAS kernel the CPU selects, nor on the order
    of the terms.
    """
    if len(profile.slopes) != 1:
        raise ValueError(
            "the second variation perturbs a straight contour, "
            f"got a profile of {len(profile.slopes)} segments"
        )
    (s,) = profile.slopes
    r = profile.breakpoints[-1][0]
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
    """Central-difference gradient, O(step^2) accurate, for cross-checks only.

    point must be one-dimensional, else ValueError names it; its values go
    to evaluator unchecked, since their domain is the evaluator's.
    """
    check_real("step", step, positive=True)
    if np.ndim(point) != 1:
        raise ValueError(f"point must be a one-dimensional array, got {point!r}")
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.size):
        lo = point.copy()
        hi = point.copy()
        lo[i] -= step
        hi[i] += step
        grad[i] = (evaluator(hi) - evaluator(lo)) / (2.0 * step)
    return grad
