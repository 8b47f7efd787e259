"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only from the benchmark's own files, around calls into
the program's public functions: :meth:`Tracer.patch` swaps a module or
class attribute for a wrapper that opens a span, so nothing under ``src/``
changes.  Each span keeps its name, start, end, the span that caused it
(the innermost open span on the same thread) and the operation it belongs
to (one CLI command, one served batch, one fit pass).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; a layer's self time is its span minus its children."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.op = 0
        # Each span: [name, start, end, parent index or -1, op, thread id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, stack[-1] if stack else -1,
                 self.op, threading.get_ident()]
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, func):
        """*func* with every call recorded as a span called *name*."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        return traced

    def wrap_iter(self, name: str, func, count_name: str):
        """*func* returns an iterator: record each ``next`` as a span and
        count the items under *count_name*."""
        tracer = self

        def traced(*args, **kwargs):
            iterator = iter(func(*args, **kwargs))
            while True:
                with tracer.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                tracer.count(count_name)
                yield item

        traced.__wrapped__ = func
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to *replacement* until :meth:`unpatch`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def by_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """``{op: {"total": {name: s}, "self": {name: s}}}`` over closed spans.

        ``total`` sums each name's span durations; ``self`` subtracts the
        time its child spans cover, so the self times of one operation add
        up to the time its spans cover without counting any of it twice.
        """
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _tid in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i, (name, start, end, _parent, op, _tid) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(op, {"total": {}, "self": {}})
            entry["total"][name] = entry["total"].get(name, 0.0) + (end - start)
            entry["self"][name] = (
                entry["self"].get(name, 0.0) + (end - start) - child_time[i]
            )
        return out

    def chrome_events(self) -> list[dict]:
        """Spans as Chrome trace-event records (``chrome://tracing``, Perfetto)."""
        return [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op, tid in self.spans
            if end is not None
        ]


def write_chrome_trace(path, events: list[dict]) -> None:
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
