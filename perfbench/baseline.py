"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--out FILE]

It runs every workload on seeds 1 to 10 for BENCHMARK.json's run_seconds.
For every workload and end-to-end metric it prints the median and the
quartile spread, (Q3 - Q1) / median with ``statistics.quantiles(n=4)``,
next to the metric's bound from BENCHMARK.json; a spread above a third of
the bound is flagged.  With --out it also writes the runs, the summary,
the machine and the computed bytes moved by the DP and MC temporaries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from workloads import DP_BOUNDED, DP_RESTRICTED, MC_BIG, WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(root: Path) -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = _read(f"{base}/level"), _read(f"{base}/type"), _read(f"{base}/size")
        if level and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches_per_core": caches,
        "commit": commit,
    }


def computed_bytes() -> dict:
    """Bytes the DP and MC temporaries occupy, from their array sizes
    (computed, not measured: cache reuse is ignored).

    Restricted DP, per cell step on an (M+1)^2 table: gathered costs and
    their sum and masked copy (float64) plus the index table (int64) and
    mask (bool), 33 bytes per entry.  Bounded DP, per cell step and rise:
    candidate, comparison and masked write over the level cap, about 17
    bytes per level.  MC: about 12 float64 or int64 arrays per sample.
    """
    out = {}
    for label, n, m, _ in DP_RESTRICTED:
        table = (m + 1) ** 2
        out[f"dp_restricted.{label}"] = {"temporary_bytes": 33 * table, "bytes_moved": 33 * table * n}
    for label, bound in DP_BOUNDED:
        k_max = int(bound)
        top = max(400, int(200 * (bound + 1)) + k_max)
        out[f"dp_bounded.{label}"] = {
            "temporary_bytes": 17 * (top + 1),
            "bytes_moved": 17 * (top + 1) * (2 * k_max + 1) * 400,
        }
    out["mc.1e6"] = {"temporary_bytes": 12 * 8 * MC_BIG, "bytes_moved": 12 * 8 * MC_BIG}
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in WORKLOADS:
        runs[workload] = []
        for seed in SEEDS:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            summary[workload][name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": s, "bound": bound}
            flag = "" if name == "setup_s" or s < bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload:12s} {name:12s} median={statistics.median(values):.5g} spread={s:.4f} bound={bound}{flag}")
    if args.out:
        doc = {
            "seconds": seconds,
            "seeds": list(SEEDS),
            "environment": environment(root),
            "computed_bytes": computed_bytes(),
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
