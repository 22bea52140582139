"""Outside-in tracer for diversim.

The tracer replaces module-level functions that diversim resolves at call
time (``engine.step``, ``defense.plan``, ``AttackerKnowledge.observe``, ...)
with wrappers that record a span per call, so no file of the program
changes. Spans (id, parent id, name, start, end) stay in memory and are
written when the benchmark ends. A span's self time is its duration minus
the durations of its direct children; calls nest strictly because the
program is single-threaded within a process.

Forked worker processes inherit the wrappers; a fork hook disables them
there, so only the parent's work is traced.
"""
from __future__ import annotations

import gzip
import os
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Span recorder plus per-name aggregates and free-form counters."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.spans: list[tuple[int, int, str, int, int]] = []
        # per name: [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False

    # --- spans ------------------------------------------------------------

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0])
        return sid

    def _close(self, name: str, start: int, end: int) -> None:
        sid, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((sid, parent[0] if parent else 0, name, start, end))
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child_ns

    def span(self, name: str) -> "_Span":
        """Context manager recording one span of the benchmark's own."""
        return _Span(self, name)

    # --- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``after(counts, args, result)`` runs once the span has closed, so
        the counters it updates do not inflate the wrapped layer's time.
        A missing attribute is noted, not fatal: its metrics read 0.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._open()
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name, start, perf_counter_ns())
            if after is not None:
                after(tracer.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))
        self.wrapped.add(name)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # --- reading ----------------------------------------------------------

    def reset_totals(self) -> None:
        self.totals.clear()
        self.counts.clear()

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] / 1e9 if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] / 1e9 if name in self.totals else 0.0

    def write(self, path) -> None:
        """Write every recorded span as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("workload,span,parent,name,start_ns,end_ns\n")
            w = self.workload
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{w},{sid},{parent},{name},{start},{end}\n")


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.enabled:
            self.tracer._open()
            self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        if self.tracer.enabled:
            self.tracer._close(self.name, self.start, perf_counter_ns())
        return False
