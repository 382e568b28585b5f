"""In-memory spans recorded around calls from the benchmark into the program.

A span is ``(id, parent, name, start_ns, end_ns)``.  Names are
``<layer>.<call>``, where the layer is a module of the program (or
``bench`` for the benchmark's own grouping spans).  All spans of one traced
run share the tracer's ``run_id``.  Spans are kept in memory and written
out once at the end of the run.  A disabled tracer records nothing, so the
untraced end-to-end runs pay only one attribute test per call.
"""

from __future__ import annotations

import gzip
import json
import time
import uuid

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = [0]
        self._next_id = 1

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span named ``name`` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str) -> "_Span":
        return _Span(self, name) if self.enabled else _NULL

    def last_ns(self) -> int:
        """Duration of the most recently closed span."""
        _, _, _, start, end = self.spans[-1]
        return end - start

    def self_ns_by_layer(self) -> dict[str, int]:
        """Span time not covered by child spans, summed per layer."""
        child_ns: dict[int, int] = {}
        for _, parent, _, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: dict[str, int] = {}
        for sid, _, name, start, end in self.spans:
            layer = name.partition(".")[0]
            out[layer] = out.get(layer, 0) + end - start - child_ns.get(sid, 0)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                },
                fh,
            )


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1]
        tr._stack.append(self.sid)
        self.start = _now()
        return self

    def __exit__(self, *exc):
        end = _now()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.start, end))
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()
