"""Command-line interface: solve / eval / verify / sweep / export-svg.

JSON goes to standard output; file artifacts go to --out paths.  Every
command is deterministic given its flags, with floats formatted at 17
significant digits.  Exit codes: 0 success, 1 usage or input error,
2 no-solution (mathematically meaningful), 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, Sequence

from . import extremal, functional, jsonio
from .geometry import (
    Profile,
    ProblemSpec,
    Variant,
    check_real,
    check_seed,
    make_triangle,
    profile_from_dict,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_SOLUTION = 2
EXIT_VERIFY_FAILED = 3

#: Most rows sweep tabulates.  Each row runs one restricted DP, about 1 ms
#: at the default 200x200 grid (2-vCPU Xeon, numpy 2.4), so a sweep at the
#: cap took 14 s there; the count is checked before the list of heights is
#: built.
MAX_SWEEP_STEPS = 10_000

#: Blank border of an exported SVG, in px; width and height must exceed
#: twice it.
SVG_MARGIN = 50.0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="newton2d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="closed-form solution report")
    _add_problem_flags(p_solve)
    p_solve.add_argument("--out", help="also write the JSON report to this path")

    p_eval = sub.add_parser("eval", help="evaluate the drag of a profile file")
    p_eval.add_argument("--profile", required=True, help="profile JSON path")
    p_eval.add_argument("--dim", type=int, choices=(2, 3), default=2)

    p_verify = sub.add_parser("verify", help="run numerical oracles against the closed form")
    _add_problem_flags(p_verify)
    p_verify.add_argument(
        "--oracle", choices=("dp", "perturb", "mc", "all"), default="all"
    )
    p_verify.add_argument("--cells", type=int, default=200)
    p_verify.add_argument("--levels", type=int, default=200)
    p_verify.add_argument("--trials", type=int, default=64)
    p_verify.add_argument("--eps", type=float, default=0.01)
    p_verify.add_argument("--samples", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument(
        "--slope-bound",
        type=float,
        default=5.0,
        help="slope bound for the unrestricted DP oracle",
    )

    p_sweep = sub.add_parser("sweep", help="tabulate solutions across H/r to CSV")
    p_sweep.add_argument("--r", type=float, default=1.0)
    p_sweep.add_argument("--H-min", type=float, required=True, dest="h_min")
    p_sweep.add_argument("--H-max", type=float, required=True, dest="h_max")
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--cells", type=int, default=200)
    p_sweep.add_argument("--levels", type=int, default=200)

    p_svg = sub.add_parser("export-svg", help="render a profile (and its mirror) to SVG")
    p_svg.add_argument("--profile", required=True, help="profile JSON path")
    p_svg.add_argument("--out", required=True, help="SVG output path")
    p_svg.add_argument("--width", type=int, default=800)
    p_svg.add_argument("--height", type=int, default=600)
    return parser


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=float, required=True)
    parser.add_argument("--H", type=float, required=True, dest="H")
    parser.add_argument(
        "--variant", choices=("restricted", "unrestricted"), required=True
    )


def _problem_spec(args: argparse.Namespace) -> ProblemSpec:
    return ProblemSpec(r=args.r, H=args.H, variant=args.variant)


def _load_profile(path: str) -> tuple[Profile, ProblemSpec]:
    """Read a profile JSON file and check that it is admissible for its spec.

    A file that cannot be opened or parsed as JSON "cannot be read"; data
    that Profile, ProblemSpec or validate refuses is an "invalid profile".
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # json refuses nesting deeper than the recursion limit this way
        raise _UsageError(f"cannot read profile: {exc}") from exc
    try:
        profile, spec = profile_from_dict(data)
    except ValueError as exc:
        raise _UsageError(f"invalid profile: {exc}") from exc
    result = validate(profile, spec)
    if not result.ok:
        raise _UsageError("invalid profile: " + "; ".join(result.issues))
    return profile, spec


def cmd_solve(args: argparse.Namespace) -> int:
    spec = _problem_spec(args)
    report = extremal.solve(spec)
    text = jsonio.dumps(report.to_dict(spec))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    if report.status is extremal.SolutionStatus.NO_SOLUTION:
        return EXIT_NO_SOLUTION
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    profile, _ = _load_profile(args.profile)
    payload = {"resistance_2d": functional.resistance_2d(profile)}
    if args.dim == 3:
        payload["resistance_3d"] = functional.resistance_3d(profile)
    sys.stdout.write(jsonio.dumps(payload))
    return EXIT_OK


#: A verifier's run: its oracle's checks, formed once every flag has passed.
_Run = Callable[[], list[dict]]


def _check(claim: str, expected, observed, tolerance: float) -> dict:
    # one verify check; a bool compares as 0 or 1, so tolerance 0 asks for equality
    return {
        "claim": claim,
        "expected": expected,
        "observed": observed,
        "tolerance": tolerance,
        "pass": abs(observed - expected) <= tolerance,
    }


def _verify_dp(spec: ProblemSpec, args: argparse.Namespace, solved: Callable) -> _Run:
    from . import oracle

    if spec.variant is Variant.RESTRICTED:
        b = 0.0
        expected = solved().minimal_resistance
        claim = "restricted DP minimum matches the closed-form minimum of solve"
    else:
        b = args.slope_bound
        expected = spec.r / (1.0 + b * b)
        claim = f"slope-bounded (B={b}) unrestricted DP minimum matches r/(1+B^2)"
    config = oracle.DpConfig(n_cells=args.cells, n_levels=args.levels, slope_bound=b)

    def run() -> list[dict]:
        value, _ = oracle.dp_min_resistance(spec, config)
        return [_check(claim, expected, value, 0.01 * spec.r)]

    return run


def _verify_perturb(spec: ProblemSpec, args: argparse.Namespace, solved: Callable) -> _Run:
    from . import oracle

    config = oracle.PerturbationConfig(
        epsilon=args.eps, trials=args.trials, rng_seed=args.seed
    )

    def run() -> list[dict]:
        report = oracle.second_variation_test(make_triangle(spec), spec, config)
        expected = report.expected_ratio
        checks = [
            _check(
                "perturbation ratio matches integrand curvature f''(H/r)",
                expected, report.mean_ratio, 0.05 * abs(expected),
            )
        ]
        # a local maximum of the Hamiltonian at s = H/r is a weak local
        # minimum of the drag; at the inflection the sign is not asserted
        kind = extremal.classify_stationary(spec.H / spec.r)
        if kind is not extremal.Classification.INFLECTION:
            expect_min = kind is extremal.Classification.LOCAL_MAX
            claim = (
                "straight contour is a weak local minimum"
                if expect_min
                else "straight contour admits drag-decreasing perturbations"
            )
            checks.append(_check(claim, expect_min, report.min_delta > 0.0, 0.0))
        return checks

    return run


def _verify_mc(spec: ProblemSpec, args: argparse.Namespace, solved: Callable) -> _Run:
    from . import montecarlo

    montecarlo.check_sample_count(args.samples)
    check_seed(args.seed)

    def run() -> list[dict]:
        report = solved()
        if report.status is extremal.SolutionStatus.NO_SOLUTION:
            profile = make_triangle(spec)
            expected = functional.triangle_resistance(spec)
            claim = "MC drag of the straight contour matches r^3/(r^2+H^2)"
        else:
            profile = report.representative_profiles[0]
            expected = report.minimal_resistance
            claim = "MC drag of the solution profile matches the closed form"
        estimate = montecarlo.estimate_resistance(profile, args.samples, args.seed)
        # a floor relative to r, so that a tiny body is still checked
        tol = max(3.0 * estimate.std_error, 1e-9 * spec.r)
        return [_check(claim, expected, estimate.estimate, tol)]

    return run


_VERIFIERS = {"dp": _verify_dp, "perturb": _verify_perturb, "mc": _verify_mc}


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _problem_spec(args)
    names = _VERIFIERS if args.oracle == "all" else (args.oracle,)
    # solve runs once, and only for the checks that read it: the
    # perturbation oracle runs on bodies that solve refuses
    solved = functools.cache(lambda: extremal.solve(spec))
    # each verifier builds its config and returns its run, so that every
    # flag is checked before the first oracle runs
    runs = [_VERIFIERS[name](spec, args, solved) for name in names]
    checks = [check for run in runs for check in run()]
    payload = {"checks": checks, "pass": all(c["pass"] for c in checks)}
    sys.stdout.write(jsonio.dumps(payload))
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAILED


def cmd_sweep(args: argparse.Namespace) -> int:
    r = args.r
    if not 2 <= args.steps <= MAX_SWEEP_STEPS or not (
        0.0 < args.h_min < args.h_max < math.inf
    ):
        raise _UsageError(
            f"need 2 <= steps <= {MAX_SWEEP_STEPS} and finite 0 < H-min < H-max"
        )
    from . import oracle

    # every flag, and every row's grid by the DP's own rules, is checked
    # before --out is touched
    check_real("r", r, positive=True)
    config = oracle.DpConfig(n_cells=args.cells, n_levels=args.levels)
    marked = {
        extremal.SLOPE_THRESHOLD * r: "[threshold-sqrt3over3]",
        r: "[crossover-H-equals-r]",
    }
    heights = sorted(
        {args.h_min + (args.h_max - args.h_min) * i / (args.steps - 1) for i in range(args.steps)}
        | set(marked)
    )
    specs = [ProblemSpec(r=r, H=h, variant=Variant.RESTRICTED) for h in heights]
    for spec in specs:
        oracle.check_grid(spec, config)
    fmt = jsonio.format_float
    # appending truncates nothing and writes through symlinks and devices,
    # so a bad --out fails here, before the first DP runs, with the error
    # the final write would raise
    created = not os.path.lexists(args.out)
    open(args.out, "a").close()
    lines = ["h_over_r,triangle_R,staircase_R,dp_R,status"]
    try:
        for spec in specs:
            h = spec.H
            report = extremal.solve(spec)
            dp_value, _ = oracle.dp_min_resistance(spec, config)
            stair = fmt(report.minimal_resistance) if h <= r else ""
            status = report.status.value + marked.get(h, "")
            lines.append(
                f"{fmt(h / r)},{fmt(functional.triangle_resistance(spec))},{stair},"
                f"{fmt(dp_value)},{status}"
            )
    except BaseException:
        # a failing row leaves --out as it found it
        if created:
            os.remove(args.out)
        raise
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sys.stdout.write(jsonio.dumps({"rows": len(lines) - 1, "out": args.out}))
    return EXIT_OK


def cmd_export_svg(args: argparse.Namespace) -> int:
    profile, spec = _load_profile(args.profile)
    svg = render_svg(profile, spec, args.width, args.height)
    with open(args.out, "w") as fh:
        fh.write(svg)
    sys.stdout.write(jsonio.dumps({"out": args.out}))
    return EXIT_OK


def render_svg(profile, spec: ProblemSpec, width: int, height: int) -> str:
    """SVG with the contour, its mirror image across the y-axis, and axes.

    The mirrored copy shows the full symmetric body (the straight contour's
    body is a triangle).  width and height must exceed 2 * SVG_MARGIN.
    """
    margin = SVG_MARGIN
    if not (width > 2 * margin and height > 2 * margin):
        raise ValueError(
            f"width and height must be above {2 * margin:g} px (twice the "
            f"margin), got {width} x {height}"
        )
    ys = [y for _, y in profile.breakpoints]
    y_top = max(max(ys), spec.H) * 1.05 or 1.0
    sx = (width - 2 * margin) / (2.0 * spec.r)
    sy = (height - 2 * margin) / y_top

    def to_px(x: float, y: float) -> tuple[float, float]:
        return margin + (x + spec.r) * sx, height - margin - y * sy

    def polyline(points: Sequence[tuple[float, float]], color: str) -> str:
        coords = " ".join(
            f"{px:.2f},{py:.2f}" for px, py in (to_px(x, y) for x, y in points)
        )
        return (
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )

    mirrored = [(-x, y) for x, y in reversed(profile.breakpoints)]
    ox, oy = to_px(0.0, 0.0)
    x_axis = f'<line x1="{margin:.2f}" y1="{oy:.2f}" x2="{width - margin:.2f}" y2="{oy:.2f}" stroke="#888" stroke-width="1"/>'
    y_axis = f'<line x1="{ox:.2f}" y1="{margin:.2f}" x2="{ox:.2f}" y2="{height - margin:.2f}" stroke="#888" stroke-width="1"/>'
    return "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            x_axis,
            y_axis,
            polyline(profile.breakpoints, "#1f77b4"),
            polyline(mirrored, "#1f77b4"),
            "</svg>",
            "",
        ]
    )


_COMMANDS = {
    "solve": cmd_solve,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "export-svg": cmd_export_svg,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
