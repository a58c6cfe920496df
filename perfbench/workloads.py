"""The three workloads: inputs made from the seed, operations and checks.

An operation is one request a user would wait for: a CLI command, one DP
solve, or one oracle task.  ``build(name, seed, ctx)`` returns the fixed
list of operations that one cycle of the workload runs; the runner repeats
the cycle.  Each operation has

* ``run(ctx)``: the timed part, which calls into the program only through
  ``ctx.tracer.call`` / ``ctx.cli`` so the traced run can put a span
  around every call into a layer;
* ``check(result, gate)``: the untimed correctness gate;
* ``fingerprint(result)``: what must repeat exactly in every cycle.

The seed only scales the problem (r) and seeds the random members,
profiles and samples.  Shapes, grid sizes and sample counts are fixed, so
the work per operation does not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import checks
from checks import Gate

WORKLOADS = ("cli-session", "dp-ladder", "oracle-mix")

#: Seconds one cycle of each workload took on the reference machine at the
#: baseline commit (see README.md).  A run is round(--seconds / this) whole
#: cycles, at least two, so every run of every commit does the same work and
#: the latency percentiles are taken over the same number of samples; a
#: faster program finishes that work sooner.
REFERENCE_CYCLE_S = {"cli-session": 10.5, "dp-ladder": 7.5, "oracle-mix": 0.21}

#: Restricted DP grids: (label, n_cells, n_levels, H/r).  The non-square
#: grids use H/r = 1/4, where the 400x100 slope quantum is exactly 1; at
#: H/r = 0.4 that grid's optimum sits 0.02*r above the closed form, outside
#: the 0.01*r gate, because of the grid and not because of the solver.
DP_RESTRICTED = (
    ("100x100", 100, 100, 0.4),
    ("200x200", 200, 200, 0.4),
    ("400x400", 400, 400, 0.4),
    ("800x800", 800, 800, 0.4),
    ("400x400-tall", 400, 400, 2.0),
    ("100x400", 100, 400, 0.25),
    ("400x100", 400, 100, 0.25),
)

#: Slope-bounded DP: 400x400 at H = r, where +-B slopes are on the grid.
DP_BOUNDED = (("B2", 2.0), ("B5", 5.0), ("B10", 10.0))

MC_BIG = 1_000_000
MC_SMALL = 1_000
MC_SMALL_POOL = 16
FAMILY_MEMBERS = 100
FAMILY_RISES = 3
STAIRCASE_SEGMENTS = 200
PERTURB_TRIALS = 64
SWEEP_STEPS = 14
LADDER_REPEATS = 6


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Gate], None]
    fingerprint: Callable[[Any], Any]
    layer: str


def _scale(rng: random.Random) -> float:
    """Problem scale r, log-uniform on [1/2, 2]."""
    return 2.0 ** rng.uniform(-1.0, 1.0)


def build(name: str, seed: int, ctx) -> list[Op]:
    rng = random.Random(f"{name}/{seed}")
    ops = {"cli-session": _cli_session, "dp-ladder": _dp_ladder, "oracle-mix": _oracle_mix}[name](rng, ctx)
    rng.shuffle(ops)
    return ops


def warm_up(name: str, ctx) -> None:
    """Touch every code path once on small inputs before timing."""
    if name == "cli-session":
        code, _, _ = ctx.cli(["solve", "--r", "1", "--H", "0.4", "--variant", "restricted"], "solve")
        if code != 0:
            raise RuntimeError(f"warm-up CLI call exited {code}")
        return
    import newton2d as nd

    if name == "dp-ladder":
        nd.dp_min_resistance(nd.ProblemSpec(1.0, 0.4), nd.DpConfig(8, 8))
        nd.dp_min_resistance(nd.ProblemSpec(1.0, 1.0, "unrestricted"), nd.DpConfig(8, 8, 2.0))
        return
    for op in _oracle_mix(random.Random(0), ctx):
        op.run(ctx)


# --------------------------------------------------------------------------
# cli-session


def _cli_json(gate: Gate, out: bytes) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        gate.fail("cli", f"stdout is not JSON: {exc}")
        return {}


def _expect_exit(gate: Gate, code: int, want: int) -> None:
    gate.expect(code == want, "cli", f"exit code {code}, expected {want}")


def _solve_op(r: float, H: float, variant: str) -> Op:
    status, value, _ = checks.expected_solve(r, H, variant)
    code = 2 if value is None else 0

    def check(result, gate: Gate) -> None:
        _expect_exit(gate, result[0], code)
        payload = _cli_json(gate, result[1])
        gate.expect(payload.get("status") == status, "cli", f"status {payload.get('status')!r}, expected {status!r}")
        got = payload.get("resistance")
        if value is None:
            gate.expect(got is None and payload.get("profiles") == [], "cli", "no-solution report carries a value")
            return
        gate.expect(got is not None and checks.close(got, value), "cli", f"resistance {got!r}, expected {value!r}")
        profiles = payload.get("profiles", [])
        gate.expect(len(profiles) >= (2 if status == "InfiniteFamily" else 1), "cli", "too few representatives")
        for p in profiles:
            own = checks.drag_2d(p["breakpoints"])
            gate.expect(checks.close(own, value), "cli", f"representative drag {own!r}, expected {value!r}")

    argv = ["solve", "--r", repr(r), "--H", repr(H), "--variant", variant]
    return Op(f"solve-{status}-{H / r:.2g}", lambda ctx: ctx.cli(argv, "solve"), check, _cli_fingerprint, "cli")


def _cli_fingerprint(result) -> Any:
    return result[:2] + tuple(result[3:])


def _random_profile(rng: random.Random, r: float, H: float, n: int = 12) -> list[list[float]]:
    xs = sorted(rng.uniform(0.0, r) for _ in range(n - 2))
    ys = sorted(rng.uniform(0.0, H) for _ in range(n - 2))
    return [[0.0, 0.0]] + [[x, y] for x, y in zip(xs, ys)] + [[r, H]]


def _cli_session(rng: random.Random, ctx) -> list[Op]:
    r = _scale(rng)
    ops = [
        _solve_op(r, 0.4 * r, "restricted"),
        _solve_op(r, r, "restricted"),
        _solve_op(r, 2.0 * r, "restricted"),
        _solve_op(r, 1.5 * r, "unrestricted"),
        _solve_op(r, 0.4 * r, "unrestricted"),
    ]

    work = ctx.workdir
    points = _random_profile(rng, r, 0.7 * r)
    profile_path = f"{work}/profile.json"
    with open(profile_path, "w") as fh:
        json.dump({"r": r, "H": 0.7 * r, "variant": "restricted", "breakpoints": points}, fh)

    def check_eval(result, gate: Gate) -> None:
        _expect_exit(gate, result[0], 0)
        payload = _cli_json(gate, result[1])
        for key, own in (("resistance_2d", checks.drag_2d(points)), ("resistance_3d", checks.drag_3d(points))):
            got = payload.get(key)
            gate.expect(got is not None and checks.close(got, own), "cli", f"{key} {got!r}, expected {own!r}")

    eval_argv = ["eval", "--profile", profile_path, "--dim", "3"]
    ops.append(Op("eval-dim3", lambda ctx: ctx.cli(eval_argv, "eval"), check_eval, _cli_fingerprint, "cli"))

    svg_path = f"{work}/profile.svg"

    def run_svg(ctx):
        return ctx.cli(["export-svg", "--profile", profile_path, "--out", svg_path], "export_svg", svg_path)

    def check_svg(result, gate: Gate) -> None:
        _expect_exit(gate, result[0], 0)
        gate.expect(_cli_json(gate, result[1]) == {"out": svg_path}, "cli", "export-svg stdout")
        svg = result[3]
        gate.expect(
            svg.startswith(b"<?xml") and svg.count(b"<polyline") == 2 and svg.endswith(b"</svg>\n"),
            "cli",
            "SVG lacks the header, the contour and its mirror, or the closing tag",
        )

    ops.append(Op("export-svg", run_svg, check_svg, _cli_fingerprint, "cli"))

    H = 0.4 * r

    def check_verify_restricted(result, gate: Gate) -> None:
        _expect_exit(gate, result[0], 0)
        payload = _cli_json(gate, result[1])
        found = {c["claim"].split(" ")[0]: c for c in payload.get("checks", [])}
        gate.expect(payload.get("pass") is True and len(found) == 4, "cli", "verify did not pass four checks")
        dp, perturb, mc = found.get("restricted"), found.get("perturbation"), found.get("MC")
        sign = found.get("straight")
        gate.expect(sign is not None and sign["observed"] is False, "cli", "straight contour reported as a minimum below sqrt(3)/3")
        if dp:
            best = checks.restricted_min(r, H)
            gate.expect(checks.close(dp["expected"], best), "cli", "DP expected value")
            gate.expect(abs(dp["observed"] - best) <= checks.DP_TOL_R * r, "cli", "DP observed value")
            gate.expect(dp["observed"] >= best - checks.sum_floor(200, r), "cli", "DP below the continuum minimum")
        if perturb:
            s = H / r
            gate.expect(checks.close(perturb["expected"], checks.curvature(s)), "cli", "perturbation expected ratio")
            gate.expect(
                abs(perturb["observed"] - perturb["expected"]) <= checks.PERTURB_REL * abs(perturb["expected"]),
                "cli",
                "perturbation observed ratio",
            )
        if mc:
            gate.expect(checks.close(mc["expected"], checks.staircase_min(r, H)), "cli", "MC expected value")
            gate.expect(abs(mc["observed"] - mc["expected"]) <= mc["tolerance"], "cli", "MC observed value")

    verify_r = ["verify", "--r", repr(r), "--H", repr(H), "--variant", "restricted"]
    ops.append(
        Op("verify-restricted", lambda ctx: ctx.cli(verify_r, "verify_restricted"), check_verify_restricted, _cli_fingerprint, "cli")
    )

    bound = 5.0

    def check_verify_unrestricted(result, gate: Gate) -> None:
        _expect_exit(gate, result[0], 0)
        payload = _cli_json(gate, result[1])
        (dp,) = payload.get("checks", [None])
        gate.expect(payload.get("pass") is True and dp is not None, "cli", "verify --oracle dp did not pass")
        if dp:
            want = checks.bounded_min(r, bound)
            gate.expect(checks.close(dp["expected"], want), "cli", "bounded DP expected value")
            gate.expect(abs(dp["observed"] - want) <= checks.DP_TOL_R * r, "cli", "bounded DP observed value")
            gate.expect(dp["observed"] >= want - checks.sum_floor(200, r), "cli", "bounded DP below infimum")

    verify_u = ["verify", "--r", repr(r), "--H", repr(r), "--variant", "unrestricted", "--oracle", "dp", "--slope-bound", "5"]
    ops.append(
        Op("verify-unrestricted", lambda ctx: ctx.cli(verify_u, "verify_unrestricted"), check_verify_unrestricted, _cli_fingerprint, "cli")
    )

    csv_path = f"{work}/sweep.csv"
    # 0.25r .. 1.55r in steps of 0.1r never lands on a marker row (sqrt(3)/3 r
    # or r), so every seed gives 16 rows and 16 DP solves at 200x200.
    sweep_argv = [
        "sweep", "--r", repr(r), "--H-min", repr(0.25 * r), "--H-max", repr(1.55 * r),
        "--steps", str(SWEEP_STEPS), "--out", csv_path,
    ]

    def check_sweep(result, gate: Gate) -> None:
        _expect_exit(gate, result[0], 0)
        gate.expect(_cli_json(gate, result[1]) == {"rows": SWEEP_STEPS + 2, "out": csv_path}, "cli", "sweep stdout")
        lines = result[3].decode().splitlines()
        gate.expect(
            lines[:1] == ["h_over_r,triangle_R,staircase_R,dp_R,status"] and len(lines) == SWEEP_STEPS + 3,
            "cli",
            "sweep CSV header or row count",
        )
        for line in lines[1:]:
            ratio, tri, stair, dp, status = line.split(",")
            h = float(ratio) * r
            ok = checks.close(float(tri), checks.triangle(r, h))
            ok &= (stair == "") if h > r else checks.close(float(stair), checks.staircase_min(r, h))
            # The straight contour is on every square grid, so the grid
            # optimum lies between the continuum minimum and its drag.  (It
            # can be 0.016*r above the minimum at 200x200, e.g. at H/r=0.75.)
            floor = checks.sum_floor(200, r)
            ok &= checks.restricted_min(r, h) - floor <= float(dp) <= checks.triangle(r, h) + floor
            ok &= status.startswith("InfiniteFamily" if float(ratio) < 1.0 else "UniqueMinimizer")
            gate.expect(ok, "cli", f"sweep row {line!r}")

    ops.append(Op("sweep", lambda ctx: ctx.cli(sweep_argv, "sweep", csv_path), check_sweep, _cli_fingerprint, "cli"))

    def check_usage(result, gate: Gate) -> None:
        _expect_exit(gate, result[0], 1)
        gate.expect(result[1] == b"" and result[2].startswith(b"error:"), "cli", "usage error output")

    usage_argv = ["solve", "--r", repr(-r), "--H", repr(H), "--variant", "restricted"]
    ops.append(Op("usage-error", lambda ctx: ctx.cli(usage_argv, "usage_error"), check_usage, _cli_fingerprint, "cli"))
    return ops


# --------------------------------------------------------------------------
# dp-ladder


def _dp_op(label: str, r: float, H: float, n: int, m: int, bound: float | None) -> Op:
    import newton2d as nd

    variant = "restricted" if bound is None else "unrestricted"
    spec = nd.ProblemSpec(r, H, variant)
    config = nd.DpConfig(n, m) if bound is None else nd.DpConfig(n, m, bound)
    span = f"oracle.dp_restricted.{label}" if bound is None else f"oracle.dp_bounded.{label}"

    def run(ctx):
        return ctx.tracer.call("oracle", span, nd.dp_min_resistance, spec, config)

    def check(result, gate: Gate) -> None:
        value, profile = result
        checks.check_dp(gate, value, profile.breakpoints, r, H, n, bound)

    return Op(f"dp-{label}", run, check, lambda res: (res[0], res[1].breakpoints), "oracle")


def _dp_ladder(rng: random.Random, ctx) -> list[Op]:
    r = _scale(rng)
    ladder = [_dp_op(label, r, ratio * r, n, m, None) for label, n, m, ratio in DP_RESTRICTED]
    ladder += [_dp_op(label, r, r, 400, 400, b) for label, b in DP_BOUNDED]
    large = [op for op in ladder if op.name == "dp-800x800"]
    rest = [op for op in ladder if op.name != "dp-800x800"]
    # 800x800 takes about as long as LADDER_REPEATS rounds of all the other
    # grids.  Running it once per cycle keeps it near half the time while the
    # median and the tail are taken over many samples of the smaller grids.
    return large + rest * LADDER_REPEATS


# --------------------------------------------------------------------------
# oracle-mix


def _stair200(r: float, H: float):
    """Monotone staircase of 200 segments: 100 slope-1 rises and 100 flats,
    starting with a rise."""
    import newton2d as nd

    n = STAIRCASE_SEGMENTS // 2
    w = H / n
    f = (r - H) / n
    xi = [0.0, 0.0]
    for i in range(n):
        xi.append(xi[-1] + w)
        xi.append(xi[-1] + f)
    xi[-1] = r
    mu = [H * i / n for i in range(n + 1)]
    mu[-1] = H
    spec = nd.ProblemSpec(r, H)
    return nd.make_staircase(spec, nd.StaircaseParams(n=n, xi=tuple(xi), mu=tuple(mu)))


def _sawtooth(r: float, H: float, teeth: int, a: float):
    """Up/down teeth of slope +-a rising to (r, H): a re-intersecting contour."""
    import newton2d as nd

    w = r / teeth
    dy = H / teeth
    up = (w + dy / a) / 2.0
    pts = [(0.0, 0.0)]
    for i in range(teeth):
        pts.append((i * w + up, i * dy + a * up))
        pts.append(((i + 1) * w, (i + 1) * dy))
    pts[-1] = (r, H)
    return nd.Profile(tuple(pts))


def _oracle_mix(rng: random.Random, ctx) -> list[Op]:
    import newton2d as nd

    r = _scale(rng)
    ops: list[Op] = []
    profiles: list[tuple[Any, Any]] = []

    for ratio, variant in ((0.4, "restricted"), (1.0, "restricted"), (2.0, "restricted"), (1.5, "unrestricted"), (0.4, "unrestricted")):
        spec = nd.ProblemSpec(r, ratio * r, variant)
        ops.append(_solve_task(spec))
        profiles += [(p, spec) for p in nd.solve(spec).representative_profiles]

    family_spec = nd.ProblemSpec(r, 0.4 * r)
    ops.append(_family_task(family_spec, rng.randrange(2**32)))

    stair = _stair200(r, 0.4 * r)
    unres = nd.ProblemSpec(r, r, "unrestricted")
    wedge = nd.make_counterexample(unres, nd.CounterexampleParams(3.0))
    saw = _sawtooth(r, r, 4, 3.0)
    profiles += [(wedge, unres), (saw, unres)]
    ops += [_roundtrip_task(p, spec) for p, spec in profiles]

    for ratio in (0.4, 2.0):
        spec = nd.ProblemSpec(r, ratio * r)
        ops.append(_perturb_task(spec, rng.randrange(2**32)))

    rep = nd.solve(family_spec).representative_profiles[0]
    ops.append(_mc_task("montecarlo.estimate_1e6", rep, family_spec, MC_BIG, rng.randrange(2**32)))
    members = nd.enumerate_minimizers(family_spec, FAMILY_RISES, MC_SMALL_POOL, rng.randrange(2**32))
    for params in members:
        profile = nd.make_staircase(family_spec, params)
        ops.append(_mc_task("montecarlo.estimate_1e3", profile, family_spec, MC_SMALL, rng.randrange(2**32)))

    ops.append(_collision_task("montecarlo.collision_200", stair, expect_hits=()))
    ops.append(_collision_task("montecarlo.collision_wedge", wedge, expect_hits=()))
    # each down face's reflected ray runs right and meets the next up face
    ops.append(_collision_task("montecarlo.collision_sawtooth", saw, expect_hits=((1, 2), (3, 4), (5, 6))))
    return ops


def _solve_task(spec) -> Op:
    import newton2d as nd
    from newton2d import jsonio

    r, H = spec.r, spec.H
    restricted = spec.variant is nd.Variant.RESTRICTED

    def run(ctx):
        t = ctx.tracer
        report = t.call("extremal", "extremal.solve", nd.solve, spec)
        roots = ()
        if report.certificate is not None:
            roots = t.call("extremal", "extremal.stationary_slopes", nd.stationary_slopes, report.certificate.lam)
        per_rep = []
        for p in report.representative_profiles:
            valid = t.call("geometry", "geometry.validate", nd.validate, p, spec)
            r2 = t.call("functional", "functional.resistance_2d", nd.resistance_2d, p)
            r3 = t.call("functional", "functional.resistance_3d", nd.resistance_3d, p)
            cert = None
            if restricted:
                cert = t.call("extremal", "extremal.check_certificate", nd.check_certificate, p, spec, report.certificate.lam)
            per_rep.append((p.breakpoints, valid.ok, r2, r3, cert.passed if cert else None))
        payload = t.call("extremal", "extremal.to_dict", report.to_dict, spec)
        text = t.call("jsonio", "jsonio.dumps", jsonio.dumps, payload)
        lam = report.certificate.lam if report.certificate else None
        return report.status.value, report.minimal_resistance, lam, roots, per_rep, text

    status, value, slope = checks.expected_solve(r, H, spec.variant.value)

    def check(result, gate: Gate) -> None:
        got_status, got_value, lam, roots, per_rep, text = result
        gate.expect(got_status == status, "extremal", f"status {got_status!r}, expected {status!r}")
        if value is None:
            gate.expect(got_value is None and not per_rep, "extremal", "no-solution report carries a value")
        else:
            gate.expect(got_value is not None and checks.close(got_value, value), "extremal", f"value {got_value!r}, expected {value!r}")
            gate.expect(per_rep != [], "extremal", "no representative profile")
        if slope is not None:
            gate.expect(any(checks.close(u, slope) for u in roots), "extremal", f"slope {slope} is not a stationary slope {roots}")
            for u in roots:
                gate.expect(
                    checks.close(checks.slope_response(u), lam / 2.0),
                    "extremal",
                    f"stationary slope {u!r} does not solve u/(1+u^2)^2 = lambda/2",
                )
        for points, valid, r2, r3, cert in per_rep:
            check_profile = checks.drag_2d(points)
            gate.expect(valid, "geometry", "representative fails validate")
            gate.expect(checks.close(r2, value) and checks.close(r2, check_profile), "functional", f"resistance_2d {r2!r}, expected {value!r}")
            gate.expect(checks.close(r3, checks.drag_3d(points)), "functional", f"resistance_3d {r3!r}")
            gate.expect(cert in (None, True), "extremal", "certificate check fails on a representative")
        try:
            back = json.loads(text)
        except ValueError:
            gate.fail("jsonio", "report JSON does not parse")
            return
        gate.expect(back.get("status") == status and back.get("resistance") == got_value, "jsonio", "report JSON does not round-trip")

    return Op(f"solve-{status}-{H / r:.2g}", run, check, lambda res: res, "extremal")


def _family_task(spec, seed: int) -> Op:
    import newton2d as nd

    value = checks.staircase_min(spec.r, spec.H)

    def run(ctx):
        t = ctx.tracer
        members = t.call("extremal", "extremal.enumerate_minimizers", nd.enumerate_minimizers, spec, FAMILY_RISES, FAMILY_MEMBERS, seed)
        out = []
        for params in members:
            p = t.call("geometry", "geometry.make_staircase", nd.make_staircase, spec, params)
            valid = t.call("geometry", "geometry.validate", nd.validate, p, spec)
            cert = t.call("extremal", "extremal.check_certificate", nd.check_certificate, p, spec, 0.5)
            r2 = t.call("functional", "functional.resistance_2d", nd.resistance_2d, p)
            r3 = t.call("functional", "functional.resistance_3d", nd.resistance_3d, p)
            out.append((p.breakpoints, valid.ok, cert.passed, r2, r3))
        return out

    def check(result, gate: Gate) -> None:
        gate.expect(len(result) == FAMILY_MEMBERS, "extremal", f"{len(result)} members, expected {FAMILY_MEMBERS}")
        for points, valid, passed, r2, r3 in result:
            gate.expect(valid, "geometry", "family member fails validate")
            gate.expect(passed, "extremal", "certificate check fails on a family member")
            gate.expect(checks.close(r2, value), "functional", f"member drag {r2!r}, expected {value!r}")
            gate.expect(checks.close(r2, checks.drag_2d(points)), "functional", "member drag differs from its breakpoints")
            gate.expect(checks.close(r3, checks.drag_3d(points)), "functional", f"member 3-D drag {r3!r}")

    return Op("family", run, check, lambda res: res, "extremal")


def _roundtrip_task(profile, spec) -> Op:
    import newton2d as nd
    from newton2d import jsonio

    def run(ctx):
        t = ctx.tracer
        data = t.call("geometry", "geometry.profile_to_dict", nd.profile_to_dict, profile, spec)
        text = t.call("jsonio", "jsonio.dumps", jsonio.dumps, data)
        return t.call("geometry", "geometry.profile_from_dict", nd.profile_from_dict, json.loads(text))

    def check(result, gate: Gate) -> None:
        back, back_spec = result
        gate.expect(back.breakpoints == profile.breakpoints, "geometry", "profile breakpoints change in a JSON round trip")
        gate.expect(back_spec == spec, "geometry", "problem data change in a JSON round trip")

    return Op("roundtrip", run, check, lambda res: res[0].breakpoints, "geometry")


def _perturb_task(spec, seed: int) -> Op:
    import newton2d as nd

    triangle = nd.make_triangle(spec)
    config = nd.PerturbationConfig(epsilon=0.01, trials=PERTURB_TRIALS, rng_seed=seed)

    def run(ctx):
        return ctx.tracer.call("oracle", "oracle.second_variation", nd.second_variation_test, triangle, spec, config)

    def check(result, gate: Gate) -> None:
        checks.check_perturbation(gate, spec.H / spec.r, result.mean_ratio, result.expected_ratio, result.min_delta)

    return Op(f"perturb-{spec.H / spec.r:.2g}", run, check, lambda res: (res.mean_ratio, res.min_delta), "oracle")


def _mc_task(span: str, profile, spec, n: int, seed: int) -> Op:
    import newton2d as nd

    expected = checks.staircase_min(spec.r, spec.H)

    def run(ctx):
        return ctx.tracer.call("montecarlo", span, nd.estimate_resistance, profile, n, seed)

    def check(result, gate: Gate) -> None:
        gate.expect(result.n_samples == n, "montecarlo", "sample count")
        checks.check_mc(gate, float(result.estimate), float(result.std_error), expected)

    return Op(span.split(".")[-1], run, check, lambda res: (float(res.estimate), float(res.std_error)), "montecarlo")


def _collision_task(span: str, profile, expect_hits: tuple) -> Op:
    import newton2d as nd

    negative = any(u < 0.0 for u in checks.slopes(profile.breakpoints))

    def run(ctx):
        return ctx.tracer.call("montecarlo", span, nd.single_collision_check, profile)

    def check(result, gate: Gate) -> None:
        hits = set(result.reintersections)
        gate.expect(result.passed == (not hits), "montecarlo", "passed flag disagrees with the hits")
        if expect_hits:
            gate.expect(set(expect_hits) <= hits, "montecarlo", f"missing re-intersections {set(expect_hits) - hits}")
        else:
            gate.expect(not hits, "montecarlo", f"unexpected re-intersections {sorted(hits)[:5]}")
        gate.expect(bool(result.notes) == negative, "montecarlo", "negative-slope note")

    return Op(span.split(".")[-1], run, check, lambda res: res.reintersections, "montecarlo")
