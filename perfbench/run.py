"""newton2d benchmark: one workload, checked, with end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli-session,dp-ladder,oracle-mix}
                             --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics named in BENCHMARK.json: it times
set-up SETUP_PROBES+1 times in fresh processes, then runs the workload
untraced in a fresh worker process: a fixed number of whole cycles that
lasts about S seconds on the reference machine.  Times are reported at the
reference speed, using a calibration kernel timed between operations (see
README.md); the summary line also gives them as measured.
--trace 1 gives the per-layer metrics instead: import probes, the workload
run untraced and then traced for the same cycles, and one traced cycle of
each other workload, so every per-layer metric has a value.  Spans go to
perfbench/out/spans-<workload>-<seed>.jsonl.

The last line of standard output is the JSON result.  The exit code is 0
when the benchmark ran, even if outputs were wrong ("correct": false), and
non-zero, with no result, when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from tracing import Span, layer_stats
from workloads import DP_RESTRICTED, MC_BIG, MC_SMALL, STAIRCASE_SEGMENTS, WORKLOADS

HERE = Path(__file__).resolve().parent

#: Median time of worker.calibration_sample on the reference machine.
#: End-to-end times are reported at this speed (see README.md).
REFERENCE_CALIBRATION_S = 2.1e-3

SETUP_PROBES = 2
IMPORT_PROBES = 3
BARE_PROBES = 5
TOTAL_BUDGET_S = 175.0

CLI_KINDS = ("solve", "eval", "verify_restricted", "verify_unrestricted", "sweep", "export_svg", "usage_error")

IMPORT_CODE = (
    "import json, resource, sys\n"
    "import newton2d.cli\n"
    "print(json.dumps([len(sys.modules), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))\n"
)


class BenchError(Exception):
    pass


class Budget:
    def __init__(self, seconds: float) -> None:
        self.end = monotonic() + seconds

    def left(self) -> float:
        left = self.end - monotonic()
        if left <= 0.0:
            raise BenchError("time budget exhausted")
        return left


def spawn(cmd: list[str], root: Path, env: dict, budget: Budget) -> subprocess.CompletedProcess:
    """Run a command in its own process group; kill the whole group if the
    budget runs out, and always wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=budget.left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd[:6])}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_worker(root: Path, env: dict, budget: Budget, workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(root), workload, str(seed), repr(seconds), mode]
    proc = spawn(cmd, root, env, budget)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    for message in result.get("messages", []):
        sys.stderr.write(f"FAIL {workload}: {message}\n")
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    11th-largest latency, and its percentile rank 100*(n-10)/n."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def typical_rate(latencies: list[float], names: list[str]) -> float:
    """Operations per second of a typical cycle: the cycle's operation count
    over the sum, across its operations, of the median latency of all
    samples of the same operation.  ``names`` names one cycle's operations;
    ``latencies`` holds whole cycles in that order."""
    samples: dict[str, list[float]] = {}
    for i, latency in enumerate(latencies):
        samples.setdefault(names[i % len(names)], []).append(latency)
    return len(names) / sum(statistics.median(samples[name]) for name in names)


def end_to_end(root: Path, env: dict, budget: Budget, workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """Measure the end-to-end metrics; times are scaled to the reference
    speed by REFERENCE_CALIBRATION_S over the calibration median of the
    process that measured them."""
    probes = [run_worker(root, env, budget, workload, seed, seconds, "setup") for _ in range(SETUP_PROBES)]
    res = run_worker(root, env, budget, workload, seed, seconds, "measure")
    lat = res["latencies"]
    value_tail, pct = tail(lat)
    attempted, failed = res["attempted"], res["failed"]
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in probes + [res]),
        "ops_per_s": typical_rate(lat, res["op_names"]) * (attempted - failed) / attempted,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": value_tail * 1e3,
    }
    speed = REFERENCE_CALIBRATION_S / res["calibration_s"]
    metrics = {
        "setup_s": statistics.median(
            p["setup_s"] * REFERENCE_CALIBRATION_S / p["setup_calibration_s"] for p in probes + [res]
        ),
        "ops_per_s": raw["ops_per_s"] / speed,
        "op_p50_ms": raw["op_p50_ms"] * speed,
        "op_tail_ms": raw["op_tail_ms"] * speed,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    with open(HERE / "out" / f"latencies-{workload}-{seed}.json", "w") as fh:
        json.dump({"op_names": res["op_names"], "latencies": lat, "calibration_s": res["calibration_s"]}, fh)
    print(
        f"{workload} seed={seed}: {attempted} ops in {res['cycles']} cycles, "
        f"{res['elapsed_s']:.2f} s; op_tail_ms is p{pct:.2f} of {len(lat)} samples; "
        f"fail_ratio={failed / attempted:.6g} ({failed}/{attempted}); "
        + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items())
        + f"; as measured, before scaling by {speed:.4f}: "
        + ", ".join(f"{k}={v:.6g}" for k, v in raw.items())
    )
    return metrics, [res]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative microseconds of the outermost newton2d, numpy and scipy
    imports in ``-X importtime`` output (children print before parents)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    totals = {"newton2d": 0.0, "numpy": 0.0, "scipy": 0.0}
    ancestors: list[str] = []
    for depth, cumulative, name in reversed(rows):  # parents first
        del ancestors[depth:]
        package = name.split(".")[0]
        if package in totals and package not in (a.split(".")[0] for a in ancestors):
            totals[package] += cumulative
        ancestors.append(name)
    return totals


def import_probes(root: Path, env: dict, budget: Budget) -> dict:
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = spawn([sys.executable, "-X", "importtime", "-c", IMPORT_CODE], root, env, budget)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        modules, rss_kib = json.loads(proc.stdout.decode().splitlines()[-1])
        runs.append({**parse_importtime(proc.stderr.decode()), "modules": modules, "rss": rss_kib / 1024.0})
    med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
    bare = []
    for _ in range(BARE_PROBES):
        t0 = perf_counter()
        spawn([sys.executable, "-c", "pass"], root, env, budget)
        bare.append(perf_counter() - t0)
    return {
        "import.newton2d_ms": med("newton2d") / 1e3,
        "import.scipy_ms": med("scipy") / 1e3,
        "import.numpy_ms": med("numpy") / 1e3,
        "import.modules_loaded": med("modules"),
        "import.rss_mb": med("rss"),
        "cli.bare_python_ms": statistics.median(bare) * 1e3,
    }


def per_op_metrics(spans: list[Span]) -> dict:
    durations: dict[str, list[float]] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.end - s.start)
    med = lambda name: statistics.median(durations[name])  # noqa: E731
    m = {f"cli.{kind}_ms": med(f"cli.{kind}") * 1e3 for kind in CLI_KINDS}
    work = busy = 0.0
    for label, n, levels, _ in DP_RESTRICTED:
        m[f"oracle.dp_restricted_ms.{label}"] = med(f"oracle.dp_restricted.{label}") * 1e3
        work += n * (levels + 1) ** 2 * len(durations[f"oracle.dp_restricted.{label}"])
        busy += sum(durations[f"oracle.dp_restricted.{label}"])
    for label in ("B2", "B5", "B10"):
        m[f"oracle.dp_bounded_ms.{label}"] = med(f"oracle.dp_bounded.{label}") * 1e3
    m["oracle.dp_ns_per_cell_level"] = busy / work * 1e9
    big, small = durations["montecarlo.estimate_1e6"], durations["montecarlo.estimate_1e3"]
    pairs = STAIRCASE_SEGMENTS * (STAIRCASE_SEGMENTS - 1)
    m.update(
        {
            "montecarlo.estimate_1e6_ms": med("montecarlo.estimate_1e6") * 1e3,
            "montecarlo.estimate_1e3_us": med("montecarlo.estimate_1e3") * 1e6,
            "montecarlo.samples_per_s": (MC_BIG * len(big) + MC_SMALL * len(small)) / (sum(big) + sum(small)),
            "montecarlo.collision_200_ms": med("montecarlo.collision_200") * 1e3,
            "montecarlo.collision_pairs_per_s": pairs / med("montecarlo.collision_200"),
            "extremal.solve_us": med("extremal.solve") * 1e6,
            "extremal.stationary_slopes_us": med("extremal.stationary_slopes") * 1e6,
            "extremal.check_certificate_us": med("extremal.check_certificate") * 1e6,
            "extremal.enumerate_minimizers_ms": med("extremal.enumerate_minimizers") * 1e3,
            "oracle.second_variation_ms": med("oracle.second_variation") * 1e3,
            "functional.resistance_2d_us": med("functional.resistance_2d") * 1e6,
            "functional.resistance_3d_us": med("functional.resistance_3d") * 1e6,
            "geometry.make_staircase_us": med("geometry.make_staircase") * 1e6,
            "geometry.validate_us": med("geometry.validate") * 1e6,
            "geometry.profile_roundtrip_us": med("roundtrip") * 1e6,
            "jsonio.dumps_us": med("jsonio.dumps") * 1e6,
        }
    )
    return m


def per_layer(root: Path, env: dict, budget: Budget, workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    metrics = import_probes(root, env, budget)
    others = [w for w in WORKLOADS if w != workload]
    main = run_worker(root, env, budget, workload, seed, seconds, "trace")
    parts = [main] + [run_worker(root, env, budget, other, seed, seconds, "cycle") for other in others]
    spans = {name: [Span.from_list(row) for row in part["spans"]] for name, part in zip([workload] + others, parts)}
    metrics.update(per_op_metrics([s for group in spans.values() for s in group]))
    metrics["oracle.dp_max_abs_err"] = max(p["notes"].get("dp_max_abs_err", 0.0) for p in parts)
    for layer, entry in layer_stats(spans[workload], main["layer_failures"]).items():
        for key, value in entry.items():
            metrics[f"{layer}.{key}"] = value
    metrics["oracle.dp_calls"] = sum(s.name.startswith("oracle.dp_") for s in spans[workload])
    metrics["trace.overhead_ratio"] = main["traced_elapsed_s"] / main["elapsed_s"]

    out = HERE / "out" / f"spans-{workload}-{seed}.jsonl"
    with open(out, "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "fields": ["id", "parent", "op", "layer", "name", "start", "end", "failed"]}) + "\n")
        for name, group in spans.items():
            for s in group:
                fh.write(json.dumps([name] + s.to_list()) + "\n")
    print(f"{workload} seed={seed}: {sum(len(g) for g in spans.values())} spans written to {out.relative_to(root)}")
    return metrics, parts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if not (root / "src" / "newton2d" / "cli.py").is_file():
            raise BenchError("no src/newton2d here: run from the root of a newton2d checkout")
        (HERE / "out").mkdir(exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
        budget = Budget(TOTAL_BUDGET_S)
        measure = per_layer if args.trace else end_to_end
        metrics, parts = measure(root, env, budget, args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
