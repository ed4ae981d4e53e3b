"""In-memory spans for the traced benchmark run.

Spans are recorded only by benchmark code: around the calls the benchmark
makes into a swapmc module, or around a module-level function of the package
that the benchmark temporarily replaces by a recording wrapper
(:meth:`Tracer.wrap`).  Each span has a name, a start and an end time, a
parent and the id of the op it belongs to.  Spans are kept in memory and
written out once, when the run ends.

A span opened in a thread that has no open span of its own (a worker of the
CLI's thread pool, say) takes the op's root span as its parent, so child
spans of one parent may overlap in time; :func:`self_times` handles that.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may nest, overlap one another, or (when a worker thread
    outlives its parent) reach past the parent's end; only the part inside
    the parent's own interval is subtracted, and overlapping children are
    subtracted once.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        clipped = [
            (max(c.start, sp.start), min(c.end, sp.end)) for c in children[sp.sid]
        ]
        out[sp.sid] = sp.duration - covered((a, b) for a, b in clipped if b > a)
    return out


class Tracer:
    """Collects spans and counters for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op: int | None = None
        self._root: int | None = None
        self._patches: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, self._op, name, start, end))

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one op; spans opened by other threads hang below it."""
        self._op = op_id
        try:
            with self.span(name) as sid:
                self._root = sid
                try:
                    yield
                finally:
                    self._root = None
        finally:
            self._op = None

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, module, attr: str, *, span: str | None = None, count: str | None = None):
        """Replace ``module.attr`` by a wrapper recording a span or a count.

        :meth:`unwrap` puts every replaced attribute back.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            if count is not None:
                self.count(count)
            if span is None:
                return original(*args, **kwargs)
            with self.span(span):
                return original(*args, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, recorded)

    def replace(self, module, attr: str, func) -> None:
        """Replace ``module.attr`` by ``func`` until :meth:`unwrap`."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, func)

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- summaries -----------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per span name: number of spans, total duration and total self time."""
        selfs = self_times(self.spans)
        out: dict[str, dict] = {}
        for sp in self.spans:
            agg = out.setdefault(sp.name, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            agg["spans"] += 1
            agg["total_s"] += sp.duration
            agg["self_s"] += selfs[sp.sid]
        return out

    def busy(self, *names: str) -> float:
        """Time during which at least one span of the given names was open.

        Spans of concurrent threads overlap; counting their union instead
        of their sum keeps a per-step cost from doubling when two chains
        share the interpreter lock."""
        return covered((sp.start, sp.end) for sp in self.spans if sp.name in names)

    def dump(self, path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "by_name": self.by_name(),
            "counts": dict(self.counts),
            "spans": [asdict(sp) for sp in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
