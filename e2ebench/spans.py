"""The benchmark's own in-memory span recorder.

Spans are recorded around calls into the program's public functions,
never inside them, and never through :mod:`repro.obs`: a later change to
the program's tracer must not move the instrument that judges it.

A span has a name, start, end, parent and a run id shared by every span
of one trial or one request; counts are attached at the same boundary.
Spans stay in memory and are written out once, when the run ends.  With
recording off, :meth:`Recorder.span` reads no clock and keeps nothing,
so the untraced runs that give the end-to-end numbers carry no
instrument.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    run_id: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one run, kept in memory; a no-op when not ``enabled``."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        #: indices of the open spans, innermost last.
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, run_id: Optional[str] = None) -> Iterator[Span]:
        """Time the block as a child of the innermost open span."""
        if not self.enabled:
            yield Span(name, "-", 0.0)  # counts attached to it are dropped
            return
        stack = self._stack
        parent = stack[-1] if stack else None
        if run_id is None:
            run_id = self.spans[parent].run_id if parent is not None else "-"
        record = Span(name=name, run_id=run_id, start=time.perf_counter(), parent=parent)
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, run_id: str, start: float, end: float, **counts: float) -> None:
        """Record a root span timed by the caller."""
        if self.enabled:
            self.spans.append(Span(name, run_id, start, end, None, dict(counts)))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "run": span.run_id,
                            "parent": span.parent,
                            "start": span.start,
                            "end": span.end,
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


def layer_metrics(spans: Dict[str, Span]) -> Dict[str, float]:
    """Per-layer numbers of one trial from its layer spans: each span's
    time as ``<span>_s`` and each of its counts as ``<layer>.<count>``,
    where the layer is the span name up to its first dot."""
    out: Dict[str, float] = {}
    for name, span in spans.items():
        out[f"{name}_s"] = span.duration
        layer = name.split(".")[0]
        out.update({f"{layer}.{key}": value for key, value in span.counts.items()})
    return out


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the time its children cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - _covered(children.get(index, []))
        for index, span in enumerate(spans)
    ]


def self_time_by_name(spans: List[Span], root: str) -> Dict[str, float]:
    """Total self time per span name inside the trees rooted at ``root``."""
    roots = {i for i, span in enumerate(spans) if span.name == root and span.parent is None}
    selfs = self_times(spans)
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        top = index
        while spans[top].parent is not None:
            top = spans[top].parent
        if top in roots:
            totals[span.name] = totals.get(span.name, 0.0) + selfs[index]
    return totals
