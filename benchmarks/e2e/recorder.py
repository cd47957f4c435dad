"""The benchmark's own span recorder.

Spans are recorded *around* calls into a layer's public function, from
outside the program; nothing under ``src/`` is instrumented.  A span is
(name, start, end, parent, request id); spans of one request share the
request id.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, NamedTuple, Optional

__all__ = ["Span", "SpanRecorder", "NullRecorder", "self_times"]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: Index of the parent span in the recorder's list, or -1 for a root.
    parent: int
    request_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request_id = -1

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[int]:
        """Time the enclosed block as one span; yields the span's index."""
        if request_id is not None:
            self._request_id = request_id
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self._request_id))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield index
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._request_id)

    def child(self, name: str, start: float, seconds: float) -> None:
        """Add a child of the open span from a duration the layer itself
        reported (e.g. ``PreparedQuery.parse_seconds``)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, start, start + seconds, parent, self._request_id))


class NullRecorder:
    """Same surface, records nothing: the untraced pass."""

    spans: List[Span] = []

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[int]:
        yield -1

    def child(self, name: str, start: float, seconds: float) -> None:
        pass


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged first, so a stretch covered twice is subtracted
    once.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    result: List[float] = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result
