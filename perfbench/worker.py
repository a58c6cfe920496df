"""Run one workload in a fresh process and print its results as JSON.

Usage: worker.py ROOT WORKLOAD SEED SECONDS MODE

MODE is one of
  setup    set up (import, inputs, warm-up) and report the time taken;
  measure  set up, then run round(SECONDS / reference cycle time) whole
           cycles, at least two, untraced;
  trace    as measure, then run as many cycles again with tracing on;
  cycle    set up, then run one traced cycle.

Started by run.py, which reads the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from checks import Gate
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SHIM = HERE / "cli_shim.py"
CLI_TIMEOUT_S = 120
MIN_CYCLES = 2
MAX_MESSAGES = 20

#: Seconds between calibration samples in an untraced run, and samples
#: taken right after set-up.
CALIBRATION_INTERVAL_S = 0.5
SETUP_CALIBRATION_SAMPLES = 9


def calibration_sample() -> float:
    """Time a fixed mix of interpreter-bound and numpy work (about 2 ms).

    The machine's speed drifts with the load of other guests on its host;
    timed between operations, this kernel sees the same drift, so run.py
    can report times at the reference speed (see README.md).  numpy is
    imported here, not at the top, so that set-up pays for its import; the
    first call, which does, is one of the set-up samples whose median is
    taken.
    """
    import numpy as np

    t0 = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    a = np.arange(50_000, dtype=float)
    for _ in range(4):
        a = np.minimum(a, np.where(a > 3.0, a * 1.0001 + 1.0, np.inf))
    return perf_counter() - t0


class Context:
    """What an operation may use: the tracer, a scratch directory inside the
    checkout, and a way to run the CLI as a user would."""

    def __init__(self, root: Path, workdir: str, tracer) -> None:
        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
        self._timing = f"{workdir}/import-timing.json"

    def cli(self, argv: list[str], kind: str, out_path: str | None = None) -> tuple:
        """Run one CLI command; returns (exit code, stdout, stderr[, out file])."""
        if self.tracer.traced:
            cmd = [sys.executable, str(SHIM), self._timing, *argv]
        else:
            cmd = [sys.executable, "-m", "newton2d.cli", *argv]
        with self.tracer.span("cli", f"cli.{kind}"):
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
            if self.tracer.traced:
                with open(self._timing) as fh:
                    start, end = json.load(fh)
                self.tracer.record("import", "import.newton2d", start, end)
        result = (proc.returncode, proc.stdout, proc.stderr)
        if out_path is not None:
            result += (Path(self.root, out_path).read_bytes(),)
        return result


class Results:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.layer_failures: dict[str, int] = {}
        self.messages: list[str] = []
        self.first: dict[int, object] = {}
        self.notes: dict[str, float] = {}
        self.calibration: list[float] = []


def run_cycles(ops, ctx: Context, results: Results, cycles: int) -> float:
    """Run whole cycles of ``ops``; returns the seconds taken.

    Untraced, a calibration sample is taken between operations whenever
    CALIBRATION_INTERVAL_S has passed since the last one.
    """
    start = last = perf_counter()
    for _ in range(cycles):
        for i, op in enumerate(ops):
            if not ctx.tracer.traced and perf_counter() - last >= CALIBRATION_INTERVAL_S:
                results.calibration.append(calibration_sample())
                last = perf_counter()
            with ctx.tracer.op(op.name):
                t0 = perf_counter()
                try:
                    result, error = op.run(ctx), None
                except Exception as exc:  # a failed operation, counted below
                    result, error = None, exc
                t1 = perf_counter()
            gate = Gate()
            if error is None:
                try:
                    op.check(result, gate)
                    fingerprint = op.fingerprint(result)
                except Exception as exc:  # output the check cannot read
                    error = exc
            if error is not None:
                gate.fail(op.layer, f"{type(error).__name__}: {error}")
            else:
                if i not in results.first:
                    results.first[i] = fingerprint
                else:
                    gate.expect(fingerprint == results.first[i], op.layer, "output differs from the first cycle")
                for key, value in gate.notes.items():
                    results.notes[key] = max(value, results.notes.get(key, value))
            results.latencies.append(t1 - t0)
            results.attempted += 1
            if not gate.ok:
                results.failed += 1
                for layer, message in gate.failures:
                    results.layer_failures[layer] = results.layer_failures.get(layer, 0) + 1
                    if len(results.messages) < MAX_MESSAGES:
                        results.messages.append(f"{op.name}: {message}")
    return perf_counter() - start


def setup(name: str, seed: int, ctx: Context):
    """Import, make inputs and warm up; returns (ops, seconds taken)."""
    t0 = perf_counter()
    if name != "cli-session":
        import newton2d  # noqa: F401  (import is part of set-up)
    ops = workloads.build(name, seed, ctx)
    workloads.warm_up(name, ctx)
    return ops, perf_counter() - t0


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def main(argv: list[str]) -> int:
    root, name, seed, seconds, mode = Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4]
    # one CPU for this process and the CLI processes it starts, so that the
    # calibration samples see the same core as the operations
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = f"{HERE.relative_to(root)}/out/work-{name}-{seed}-{os.getpid()}"
    Path(root, workdir).mkdir(parents=True)
    try:
        ctx = Context(root, workdir, NullTracer())
        ops, setup_s = setup(name, seed, ctx)
        setup_calibration = sorted(calibration_sample() for _ in range(SETUP_CALIBRATION_SAMPLES))
        out: dict = {"setup_s": setup_s, "setup_calibration_s": setup_calibration[SETUP_CALIBRATION_SAMPLES // 2]}
        results = Results()
        # at least two cycles: the determinism check compares them
        cycles = max(MIN_CYCLES, round(seconds / workloads.REFERENCE_CYCLE_S[name]))
        if mode in ("measure", "trace"):
            elapsed = run_cycles(ops, ctx, results, cycles)
            out.update(
                cycles=cycles,
                op_names=[op.name for op in ops],
                elapsed_s=elapsed,
                latencies=list(results.latencies),
                calibration_s=sorted(results.calibration)[len(results.calibration) // 2],
                peak_rss_mb=peak_rss_mb(),
            )
        if mode in ("trace", "cycle"):
            untraced, results = results, Results()
            results.first = untraced.first  # traced output must match untraced
            ctx.tracer = Tracer()
            traced = run_cycles(ops, ctx, results, cycles if mode == "trace" else 1)
            out.update(traced_elapsed_s=traced, spans=[s.to_list() for s in ctx.tracer.spans])
            results.attempted += untraced.attempted
            results.failed += untraced.failed
            results.messages = untraced.messages + results.messages
        # layer_failures and notes describe the traced cycles when there are any
        out.update(
            attempted=results.attempted,
            failed=results.failed,
            layer_failures=results.layer_failures,
            notes=results.notes,
            messages=results.messages[:MAX_MESSAGES],
        )
    finally:
        shutil.rmtree(Path(root, workdir), ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
