"""Spans recorded around calls into condensa, kept in memory.

Each span has a name ``<layer>.<call>``, start and end times, the index of
its parent span (the span open when it began) and the id of the operation
it belongs to.  A layer's self time is its spans' durations minus the part
covered by their child spans.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    failed: bool = False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1
        self.failed_layer: str | None = None

    def start_op(self, op: int) -> None:
        """Spans that follow belong to operation ``op``."""
        self.op = op
        self.failed_layer = None

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span.  If it raises, the
        innermost failing span names the layer that failed."""
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            span.failed = True
            if self.failed_layer is None:
                self.failed_layer = layer_of(name)
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """A one-argument callable that records a span per application."""
        return lambda v: self.call(name, fn, v)

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s, c in zip(self.spans, child):
            t = out[s.name]
            t[0] += 1
            t[1] += s.end - s.start
            t[2] += s.end - s.start - c
        return {k: tuple(v) for k, v in out.items()}

    def records(self, t0: float) -> list[dict]:
        """Spans as JSON-ready dicts, times in seconds from ``t0``."""
        return [{"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "op": s.op, "failed": s.failed}
                for i, s in enumerate(self.spans)]
