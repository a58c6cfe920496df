"""Self-time and per-layer arithmetic on a synthetic span tree."""

import pytest

from run import parse_importtime, tail
from tracing import Span, layer_stats, self_times


def _tree():
    # op 0: bench [0, 10] > cli [1, 9] > import [2, 5] and import [6, 7]
    # op 1: bench [10, 14] > extremal [10.5, 12] > extremal [11, 11.5];
    #                        functional [12, 13.5]
    rows = [
        (0, None, 0, "bench", 0.0, 10.0),
        (1, 0, 0, "cli", 1.0, 9.0),
        (2, 1, 0, "import", 2.0, 5.0),
        (3, 1, 0, "import", 6.0, 7.0),
        (4, None, 1, "bench", 10.0, 14.0),
        (5, 4, 1, "extremal", 10.5, 12.0),
        (6, 5, 1, "extremal", 11.0, 11.5),
        (7, 4, 1, "functional", 12.0, 13.5),
    ]
    return [Span(i, parent, op, layer, f"{layer}.{i}", start, end) for i, parent, op, layer, start, end in rows]


def test_self_time_subtracts_children():
    own = self_times(_tree())
    assert own == pytest.approx({0: 2.0, 1: 4.0, 2: 3.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 0.5, 7: 1.5})


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span(0, None, 0, "bench", "op", 0.0, 5.0),
        Span(1, 0, 0, "cli", "a", 1.0, 3.0),
        Span(2, 0, 0, "cli", "b", 2.0, 4.0),
        Span(3, 0, 0, "cli", "c", 4.5, 6.0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0 - 3.0 - 0.5)


def test_layer_stats_on_the_tree():
    stats = layer_stats(_tree(), {"functional": 2})
    assert stats["bench"]["calls"] == 2
    assert stats["bench"]["busy_s"] == pytest.approx(14.0)
    assert stats["bench"]["self_s"] == pytest.approx(3.0)
    assert stats["cli"] == pytest.approx({"calls": 1, "busy_s": 8.0, "self_s": 4.0, "share": 4.0 / 14, "failed": 0})
    assert stats["import"]["calls"] == 2
    assert stats["import"]["busy_s"] == pytest.approx(4.0)
    # the nested extremal span is neither a second call nor extra busy time
    assert stats["extremal"]["calls"] == 1
    assert stats["extremal"]["busy_s"] == pytest.approx(1.5)
    assert stats["extremal"]["self_s"] == pytest.approx(1.5)
    assert stats["functional"]["failed"] == 2
    assert stats["oracle"]["calls"] == 0
    assert sum(entry["share"] for entry in stats.values()) == pytest.approx(1.0)
    # layer busy time plus the benchmark's own time accounts for all op time
    outer = sum(stats[layer]["busy_s"] for layer in ("cli", "extremal", "functional"))
    assert outer + stats["bench"]["self_s"] == pytest.approx(stats["bench"]["busy_s"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = tail([float(i) for i in range(30)])
    assert value == 19.0
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_parse_importtime_takes_outermost_package_entries():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:        50 |        150 |     numpy",
            "import time:        10 |         10 |         numpy.linalg",
            "import time:        20 |         30 |       scipy.optimize",
            "import time:         5 |        200 |     scipy",
            "import time:         7 |        400 |   newton2d.extremal",
            "import time:         3 |        403 | newton2d",
            "import time:         1 |          1 | newton2d.cli",
        ]
    )
    assert parse_importtime(text) == {"newton2d": 404.0, "numpy": 160.0, "scipy": 200.0}

