"""In-memory spans recorded from the benchmark side of each layer boundary.

A span has a name ``"<layer>.<what>"``, a start, an end, the span that
opened it and the op it belongs to.  Spans nest on one stack (the benchmark
is single-threaded), so a span's *self time* is its duration minus the
durations of its direct children, and the self times of every span under
one root add up to the root's duration exactly.

Fine-grained calls (``JoinSizeEstimator.eligible``, cost-model calls) run
hundreds of thousands of times per op.  They are opened with
``keep=False``: they still count in the per-name totals and in self-time
arithmetic, but no individual record is stored, so memory stays bounded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecord", "Tracer", "layer_of", "patched"]

#: ``(op_id, name, start, end, parent_name)``
SpanRecord = Tuple[str, str, float, float, Optional[str]]


def layer_of(name: str) -> str:
    """The layer a span belongs to: the text before its first dot."""
    return name.split(".", 1)[0]


class _Frame:
    __slots__ = ("name", "start", "child", "keep")

    def __init__(self, name: str, start: float, keep: bool) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.keep = keep


class Tracer:
    """Span stack plus the aggregates the per-layer metrics are read from.

    Attributes:
        records: Kept spans of every root, in closing order.
        totals: Inclusive seconds per span name.
        calls: Number of spans closed per span name.
        self_totals: Self seconds per span name.
        counts: Named counters that are not spans (rows loaded, ...).
        roots: One ``(op_id, kind, duration, {layer: self seconds})`` per
            closed root span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[_Frame] = []
        self._op_id = ""
        self._layer_self: Dict[str, float] = defaultdict(float)
        self.records: List[SpanRecord] = []
        self.totals: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_totals: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.roots: List[Tuple[str, str, float, Dict[str, float]]] = []

    @contextmanager
    def root(self, op_id: str, kind: str = "op", name: str = "bench.op") -> Iterator[None]:
        """Open the outermost span of one op (or of a set-up or check phase)."""
        if self._stack:
            raise RuntimeError("a root span cannot nest inside another span")
        self._op_id = op_id
        self._layer_self = defaultdict(float)
        frame = self.open(name)
        try:
            yield
        finally:
            duration = self.close(frame)
            self.roots.append((op_id, kind, duration, dict(self._layer_self)))

    @contextmanager
    def span(self, name: str, keep: bool = True) -> Iterator[None]:
        """Time one call into a layer; children nest inside it."""
        frame = self.open(name, keep)
        try:
            yield
        finally:
            self.close(frame)

    def open(self, name: str, keep: bool = True) -> _Frame:
        frame = _Frame(name, self._clock(), keep)
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        end = self._clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        self._layer_self[layer_of(frame.name)] += duration - frame.child
        self.self_totals[frame.name] += duration - frame.child
        self.totals[frame.name] += duration
        self.calls[frame.name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        if frame.keep:
            self.records.append(
                (
                    self._op_id,
                    frame.name,
                    frame.start,
                    end,
                    parent.name if parent is not None else None,
                )
            )
        return duration

    def wrap(self, function: Callable, name: str, keep: bool = True) -> Callable:
        """``function`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            frame = self.open(name, keep)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(frame)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def op_roots(self) -> List[Tuple[str, str, float, Dict[str, float]]]:
        return [root for root in self.roots if root[1] == "op"]

    def write_jsonl(self, path: str) -> None:
        """Write every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for op_id, name, start, end, parent in self.records:
                handle.write(
                    json.dumps(
                        {
                            "op": op_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


@contextmanager
def patched(owner: object, attribute: str, replacement: object) -> Iterator[None]:
    """Temporarily rebind ``owner.attribute`` (restored on exit)."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)
