"""In-memory spans around the benchmark's calls into each layer.

A span records its name, layer, start, end, parent span and operation id.
The untraced run uses :class:`NullTracer`, whose ``call`` is a plain
function call, so end-to-end numbers carry no tracing cost.  Self time and
the per-layer counters are derived from the span list after the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: Layers are the modules of src/newton2d, package import, and the
#: benchmark's own work between calls ("bench": op roots, loops, I/O).
LAYERS = (
    "import",
    "cli",
    "extremal",
    "functional",
    "geometry",
    "oracle",
    "montecarlo",
    "jsonio",
    "bench",
)


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    layer: str
    name: str
    start: float
    end: float
    failed: bool = False

    def to_list(self) -> list:
        return [self.id, self.parent, self.op, self.layer, self.name, self.start, self.end, self.failed]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class NullTracer:
    traced = False

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, layer: str, name: str):
        yield

    @contextmanager
    def op(self, name: str):
        yield


class Tracer:
    """Records a span per call; spans of one operation share an op id."""

    traced = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self._op, layer, name, perf_counter(), 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        except Exception:
            span.failed = True
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        with self.span(layer, name):
            return fn(*args, **kwargs)

    @contextmanager
    def op(self, name: str):
        self._op += 1
        with self.span("bench", name):
            yield

    def record(self, layer: str, name: str, start: float, end: float) -> None:
        """Add a finished child of the open span, timed elsewhere (such as
        in a subprocess reading the same monotonic clock)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(len(self.spans), parent, self._op, layer, name, start, end))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def layer_stats(spans: list[Span], op_failures: dict[str, int] | None = None) -> dict[str, dict]:
    """Per-layer calls, busy time, self time, share of op time and failures.

    A layer's calls and busy time count only its outermost spans (those
    with no ancestor in the same layer), so nested calls are not counted
    twice.  Shares are self time over total operation time, so the shares
    of all layers, "bench" included, add up to one.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    stats = {
        layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "share": 0.0, "failed": 0}
        for layer in LAYERS
    }
    op_time = 0.0
    for s in spans:
        entry = stats[s.layer]
        entry["self_s"] += own[s.id]
        entry["failed"] += s.failed
        if s.parent is None:
            op_time += s.end - s.start
        ancestor = s.parent
        while ancestor is not None and by_id[ancestor].layer != s.layer:
            ancestor = by_id[ancestor].parent
        if ancestor is None:
            entry["calls"] += 1
            entry["busy_s"] += s.end - s.start
    for layer, count in (op_failures or {}).items():
        stats[layer]["failed"] += count
    for entry in stats.values():
        entry["share"] = entry["self_s"] / op_time if op_time > 0.0 else 0.0
    return stats
