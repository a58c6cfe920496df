"""Closed forms and the per-operation correctness gate.

Every expected value here is computed by the benchmark itself from the
paper's closed forms (r - H/2, r^3/(r^2+H^2), r/(1+B^2)) or by its own
per-segment arithmetic; the program under test is only ever the thing
being checked.  Pure Python, so the CLI workload needs no numpy.

The gate deliberately has no clause about DP error shrinking when the
grid is doubled: with n_cells == n_levels the representable slope set
does not depend on resolution, so that property is false for this
oracle and is tracked as a standing red in the repository's tests.
"""

from __future__ import annotations

import math
import sys

EPS = sys.float_info.epsilon

#: Slope where the straight contour stops being a local minimizer.
SLOPE_THRESHOLD = math.sqrt(3.0) / 3.0

#: Relative agreement required between two evaluations of one exact
#: per-segment sum (only the summation order may differ).
EXACT_REL = 1e-12

#: Absolute DP tolerance as a share of r, as in ``newton2d verify``.
DP_TOL_R = 0.01

#: Monte Carlo estimates must lie within this many standard errors.
MC_SIGMAS = 4.0

#: Relative tolerance of the second-variation ratio, as in ``newton2d verify``.
PERTURB_REL = 0.05


def staircase_min(r: float, H: float) -> float:
    return r - H / 2.0


def triangle(r: float, H: float) -> float:
    return r**3 / (r * r + H * H)


def restricted_min(r: float, H: float) -> float:
    """Continuum minimum of the monotone problem."""
    return staircase_min(r, H) if H <= r else triangle(r, H)


def expected_solve(r: float, H: float, variant: str) -> tuple[str, float | None, float | None]:
    """(status, minimal drag, optimal slope) that ``solve`` must report for
    ``variant`` "restricted" or "unrestricted"; the staircase family's
    optimal slope is 1."""
    if variant == "unrestricted" and H / r <= SLOPE_THRESHOLD:
        return "NoSolution", None, None
    if variant == "unrestricted":
        return "LocalMinimizerOnly", triangle(r, H), H / r
    if H < r:
        return "InfiniteFamily", staircase_min(r, H), 1.0
    return "UniqueMinimizer", triangle(r, H), H / r


def bounded_min(r: float, B: float) -> float:
    """Infimum of the slope-bounded problem: the +-B bang-bang wedge."""
    return r / (1.0 + B * B)


def curvature(s: float) -> float:
    """f''(s) for f(u) = 1/(1+u^2)."""
    return (6.0 * s * s - 2.0) / (1.0 + s * s) ** 3


def slope_response(u: float) -> float:
    return u / (1.0 + u * u) ** 2


def drag_2d(points) -> float:
    return math.fsum(
        (x1 - x0) / (1.0 + ((y1 - y0) / (x1 - x0)) ** 2)
        for (x0, y0), (x1, y1) in zip(points, points[1:])
    )


def drag_3d(points) -> float:
    return math.fsum(
        (x1 * x1 - x0 * x0) / (2.0 * (1.0 + ((y1 - y0) / (x1 - x0)) ** 2))
        for (x0, y0), (x1, y1) in zip(points, points[1:])
    )


def slopes(points) -> list[float]:
    return [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(points, points[1:])]


def close(a: float, b: float, rel: float = EXACT_REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def sum_floor(n_terms: int, scale: float) -> float:
    """Rounding allowance of a sum of n positive terms bounded by scale."""
    return 4.0 * n_terms * EPS * scale


class Gate:
    """Collects the failures found while checking one operation.

    Each failure names the layer whose output was wrong, so the traced run
    can count failures per layer.  ``notes`` carries measured quantities,
    such as the DP error, that the report takes the maximum of.
    """

    def __init__(self) -> None:
        self.failures: list[tuple[str, str]] = []
        self.notes: dict[str, float] = {}

    def expect(self, ok: bool, layer: str, message: str) -> None:
        if not ok:
            self.failures.append((layer, message))

    def fail(self, layer: str, message: str) -> None:
        self.failures.append((layer, message))

    @property
    def ok(self) -> bool:
        return not self.failures


def check_profile_ends(gate: Gate, layer: str, points, r: float, H: float) -> None:
    gate.expect(
        tuple(points[0]) == (0.0, 0.0)
        and points[-1][0] == r
        and close(points[-1][1], H),
        layer,
        f"profile does not run from (0, 0) to (r, H) = ({r}, {H}): "
        f"{points[0]} .. {points[-1]}",
    )


def check_dp(
    gate: Gate,
    value: float,
    points,
    r: float,
    H: float,
    n_cells: int,
    slope_bound: float | None,
) -> None:
    """DP value near the closed form, never below the continuum minimum,
    and equal to the drag of the argmin profile it returned."""
    if slope_bound is None:
        expected = restricted_min(r, H)
    else:
        expected = bounded_min(r, slope_bound)
    gate.expect(
        abs(value - expected) <= DP_TOL_R * r,
        "oracle",
        f"DP value {value!r} is not within {DP_TOL_R}*r of {expected!r}",
    )
    gate.expect(
        value >= expected - sum_floor(n_cells, r),
        "oracle",
        f"DP value {value!r} lies below the continuum minimum {expected!r}",
    )
    check_profile_ends(gate, "oracle", points, r, H)
    own = drag_2d(points)
    gate.expect(
        close(own, value),
        "oracle",
        f"argmin profile drag {own!r} differs from the DP value {value!r}",
    )
    gate.notes["dp_max_abs_err"] = abs(value - expected) / r
    us = slopes(points)
    if slope_bound is None:
        gate.expect(min(us) >= 0.0, "oracle", f"negative slope {min(us)} in restricted argmin")
    else:
        steepest = max(abs(u) for u in us)
        gate.expect(
            steepest <= slope_bound * (1.0 + EXACT_REL),
            "oracle",
            f"argmin slope {steepest} exceeds the bound {slope_bound}",
        )


def check_mc(gate: Gate, estimate: float, std_error: float, expected: float) -> None:
    gate.expect(
        math.isfinite(std_error) and std_error > 0.0,
        "montecarlo",
        f"MC standard error {std_error!r} is not a positive number",
    )
    gate.expect(
        abs(estimate - expected) <= MC_SIGMAS * std_error,
        "montecarlo",
        f"MC estimate {estimate!r} is more than {MC_SIGMAS} standard errors "
        f"({std_error!r}) from {expected!r}",
    )


def check_perturbation(gate: Gate, s: float, mean_ratio: float, expected_ratio: float, min_delta: float) -> None:
    own = curvature(s)
    gate.expect(
        close(expected_ratio, own),
        "oracle",
        f"second-variation expected ratio {expected_ratio!r} is not f''({s}) = {own!r}",
    )
    gate.expect(
        abs(mean_ratio - own) <= PERTURB_REL * abs(own),
        "oracle",
        f"mean perturbation ratio {mean_ratio!r} is not within {PERTURB_REL:.0%} of {own!r}",
    )
    gate.expect(
        (min_delta > 0.0) == (s > SLOPE_THRESHOLD),
        "oracle",
        f"smallest drag change {min_delta!r} has the wrong sign for slope {s}",
    )
