"""BENCHMARK.json and the metric map agree with the benchmark's code."""

import json
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_metric_map_covers_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    assert {n for e in entries for n in e["per_layer"]} == per_layer
    for e in entries:
        assert set(e["moves"]) <= end_to_end
        assert set(e["workloads"]) <= set(WORKLOADS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
