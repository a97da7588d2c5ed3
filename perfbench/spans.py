"""In-memory span recording for the traced benchmark run.

A span is (name, start, end, parent).  Names read ``<layer>.<function>``
with optional tags (``matcore.hermitian_eigen.n16``); the layer is the
first component.  ``parent`` is the index of the span that caused this
one.  Spans come from two sources:

* calls the workload makes, wrapped as they happen (nested in time);
* re-enactments: after a real call, the benchmark repeats the same work
  through finer public calls and records those spans as children of the
  real call, although they ran after it.

Self time is therefore duration minus the summed durations of the
children, which for a re-enacted call is the part of the real call that
the public-call re-enactment does not account for.  It can be negative
when the re-enactment ran slower than the real call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Tracing off: ``span`` records nothing."""

    @contextmanager
    def span(self, name, parent=None):
        yield None


class Tracer:
    """Records spans in memory; ``dump`` writes them when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, parent=None):
        """Record a span around the block and yield its index.

        ``parent`` overrides the enclosing span, for re-enactments that
        attach to a call made earlier.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            yield idx
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        out = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent is not None:
                out[parent] -= self.duration(i)
        return out

    def by_name(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all spans."""
        selfs = self.self_times()
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += self.duration(i)
            a["self_s"] += selfs[i]
        return dict(agg)

    def layer_self(self, roots) -> dict:
        """layer -> summed self time over the subtrees of ``roots``."""
        roots = set(roots)
        in_tree = [False] * len(self.names)
        # Parents always precede their children, so one forward pass marks
        # every descendant of a root.
        for i, parent in enumerate(self.parents):
            in_tree[i] = i in roots or (parent is not None and in_tree[parent])
        selfs = self.self_times()
        out = defaultdict(float)
        for i, name in enumerate(self.names):
            if in_tree[i]:
                out[name.split(".", 1)[0]] += selfs[i]
        return dict(out)

    def dump(self, path, extra: dict) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [name, round(s - t0, 9), round(e - t0, 9), p]
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**extra, "by_name": self.by_name(), "spans": spans},
                fh,
                separators=(",", ":"),
            )
