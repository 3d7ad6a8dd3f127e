"""In-memory spans: recording, self time, and export.

A span is ``(id, parent id, name, thread id, start, end)`` with times from
``time.perf_counter``. Parent id 0 means no parent. Work handed to a thread
pool keeps the submitting span as its parent, so kernels that run on
executor workers still belong to the graph execution that scheduled them.

Self time. A span's self time is its duration minus the part of it that
its children cover. When spans on different threads overlap, an instant
in which several spans are innermost (active, with no active child) is
split equally among them. On one thread this is the plain definition; with
overlap it keeps the self times under a root summing to the root's wall
time, instead of counting parallel time twice.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, int, float, float]
SID, PARENT, NAME, TID, T0, T1 = range(6)


class Recorder:
    """Collects spans and per-span measurements; thread-safe appends."""

    def __init__(self):
        self.spans: List[Span] = []
        self.info: Dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), t0, t1))

    def wrap(
        self,
        name,
        fn: Callable,
        measure: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` is a string, or a callable run at entry that returns one.
        ``measure(args, result)``, if given, returns a dict stored as the
        span's info.
        """
        rec = self

        # The body of span(), inlined: this runs on every wrapped call (each
        # kernel and op), so it skips the cost of a generator-based context
        # manager, which would be charged to the parent spans' self time.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name()
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append(
                    (sid, parent, span_name, threading.get_ident(), t0, t1)
                )
            if measure is not None:
                rec.info[sid] = measure(args, result)
            return result

        return traced

    def wrap_submit(self, submit: Callable) -> Callable:
        """A pool ``submit`` whose tasks run under the submitting span."""
        rec = self

        def traced_submit(fn, *args, **kwargs):
            parent = rec._stack()[-1]

            def run():
                stack = rec._stack()
                stack.append(parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()

            return submit(run)

        return traced_submit


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, by the rule in the module docstring."""
    present = {s[SID] for s in spans}
    parent_of = {s[SID]: (s[PARENT] if s[PARENT] in present else 0) for s in spans}
    events = []
    for s in spans:
        events.append((s[T0], 1, s[SID]))  # start; parents (lower ids) first
        events.append((s[T1], 0, -s[SID]))  # end; children (higher ids) first
    events.sort()
    result = {s[SID]: 0.0 for s in spans}
    active_kids: Dict[int, int] = {}
    innermost: set = set()
    prev_t = None
    for t, kind, key in events:
        if innermost and prev_t is not None and t > prev_t:
            share = (t - prev_t) / len(innermost)
            for sid in innermost:
                result[sid] += share
        prev_t = t
        if kind == 1:
            sid = key
            active_kids[sid] = 0
            innermost.add(sid)
            parent = parent_of[sid]
            if parent in active_kids:
                active_kids[parent] += 1
                innermost.discard(parent)
        else:
            sid = -key
            innermost.discard(sid)
            active_kids.pop(sid, None)
            parent = parent_of[sid]
            if parent in active_kids:
                active_kids[parent] -= 1
                if active_kids[parent] == 0:
                    innermost.add(parent)
    return result


def root_of(spans: Sequence[Span]) -> Dict[int, int]:
    """The outermost ancestor of every span."""
    parent_of = {s[SID]: s[PARENT] for s in spans}
    roots: Dict[int, int] = {}
    for sid in parent_of:
        chain = []
        cur = sid
        while cur not in roots and parent_of.get(cur, 0) in parent_of:
            chain.append(cur)
            cur = parent_of[cur]
        root = roots.get(cur, cur)
        for c in chain:
            roots[c] = root
        roots[cur] = root
    return roots


def chrome_trace(spans: Sequence[Span], selfs: Dict[int, float], process: str) -> dict:
    """Spans as Chrome Trace Event JSON (complete events), for Perfetto."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(s[T0] for s in spans)
    tids: Dict[int, int] = {}
    events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
               "args": {"name": process}}]
    for s in sorted(spans, key=lambda s: s[T0]):
        tid = tids.setdefault(s[TID], len(tids) + 1)
        events.append({
            "ph": "X",
            "name": s[NAME],
            "cat": s[NAME].split(".", 1)[0],
            "pid": 1,
            "tid": tid,
            "ts": round((s[T0] - origin) * 1e6, 3),
            "dur": round((s[T1] - s[T0]) * 1e6, 3),
            "args": {"self_us": round(selfs.get(s[SID], 0.0) * 1e6, 3)},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_table(
    rows: Dict[str, Dict[str, float]], columns: Iterable[str], title: str
) -> str:
    """Plain-text table: one row per layer, one column per root kind."""
    columns = list(columns)
    width = max([len(r) for r in rows] + [8])
    head = f"{'layer':<{width}}" + "".join(f"{c:>16}" for c in columns)
    lines = [title, head, "-" * len(head)]
    for layer in sorted(rows, key=lambda r: -sum(rows[r].values())):
        cells = "".join(f"{rows[layer].get(c, 0.0):>16.4f}" for c in columns)
        lines.append(f"{layer:<{width}}{cells}")
    return "\n".join(lines)
