"""Nested query spans with near-zero disarmed cost.

Instrumented sites across the engine follow the :mod:`repro.faults`
hot-path discipline — one module-attribute load and an ``is None``
check when nothing is armed::

    from ..obs import trace as _trace

    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.begin("decode")
    ...  # the traced work, written exactly once
    if tracer is not None:
        tracer.end(rows=n)

``begin``/``end`` bracket the work without duplicating it; ``end``
closes the innermost open span, so an exception raised mid-span (a
cooperative timeout, an injected fault) simply leaves the span open —
:meth:`Tracer.finish` then closes every open span, marks each with the
abort reason, and still returns a well-formed partial tree.  That is
what lets a 504 carry the trace of everything the query managed to do.

Each span records wall time (``perf_counter``) and the
:data:`~repro.obs.counters.EXEC_COUNTERS` delta over its interval.
Deltas are interval-based, so a parent's counters include its
children's — sibling spans partition the parent's work, nested spans
refine it.

One tracer is armed per *process* (module-global :data:`ACTIVE`), which
matches where tracing happens: CLI runs and pool workers execute one
query at a time.  The multi-threaded server parent never arms the
global — it builds local :class:`Tracer` instances for its own request
spans and grafts the worker's serialized tree under them
(:meth:`Tracer.graft`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from .counters import EXEC_COUNTERS

__all__ = ["ACTIVE", "Span", "Tracer", "arm", "disarm", "render_trace"]


class Span:
    """One named interval: wall time, counter delta, metadata, children."""

    __slots__ = (
        "name",
        "meta",
        "children",
        "seconds",
        "aborted",
        "_start",
        "_counters_before",
    )

    def __init__(self, name: str, meta: Optional[Dict[str, Any]] = None):
        self.name = name
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self.children: List["Span"] = []
        self.seconds: Optional[float] = None  # None while still open
        self.aborted: Optional[str] = None
        self._start = time.perf_counter()
        self._counters_before = EXEC_COUNTERS.snapshot()

    def close(self, aborted: Optional[str] = None) -> None:
        if self.seconds is not None:
            return  # already closed
        self.seconds = time.perf_counter() - self._start
        if aborted is not None:
            self.aborted = aborted
        after = EXEC_COUNTERS.snapshot()
        before = self._counters_before
        delta = {
            name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0)
        }
        if delta:
            self.meta.setdefault("_counters", delta)

    @property
    def counters(self) -> Dict[str, int]:
        """Execution-counter deltas accumulated during this span."""
        counters = self.meta.get("_counters")
        return dict(counters) if isinstance(counters, dict) else {}

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready tree (the wire/extensions representation)."""
        meta = {k: v for k, v in self.meta.items() if k != "_counters"}
        out: Dict[str, Any] = {
            "name": self.name,
            "ms": round((self.seconds or 0.0) * 1000, 3),
        }
        if meta:
            out["meta"] = meta
        counters = self.counters
        if counters:
            out["counters"] = counters
        if self.aborted is not None:
            out["aborted"] = self.aborted
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class Tracer:
    """A per-query span recorder; arm it globally or drive it locally."""

    __slots__ = ("root", "_stack", "request_id")

    def __init__(
        self,
        name: str = "query",
        request_id: Optional[str] = None,
        **meta: Any,
    ):
        self.request_id = request_id
        if request_id is not None:
            meta.setdefault("request_id", request_id)
        self.root = Span(name, meta)
        self._stack: List[Span] = [self.root]

    # ------------------------------------------------------------------
    # recording (hot sites call begin/end behind an ``is not None`` check)
    # ------------------------------------------------------------------
    def begin(self, name: str, **meta: Any) -> Span:
        """Open a child span under the innermost open span."""
        span = Span(name, meta)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end(self, **meta: Any) -> None:
        """Close the innermost open span, merging extra metadata in."""
        if len(self._stack) <= 1:
            return  # nothing open beyond the root; tolerate imbalance
        span = self._stack.pop()
        if meta:
            span.meta.update(meta)
        span.close()

    def annotate(self, **meta: Any) -> None:
        """Attach metadata to the innermost open span."""
        self._stack[-1].meta.update(meta)

    def graft(self, subtree: Optional[Dict[str, Any]]) -> None:
        """Attach an already-serialized span tree (a worker's trace)
        under the innermost open span."""
        if not isinstance(subtree, dict):
            return
        span = _span_from_dict(subtree)
        if span is not None:
            self._stack[-1].children.append(span)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def finish(self, aborted: Optional[str] = None) -> Dict[str, Any]:
        """Close every open span (marking them when ``aborted``) and
        return the root as a JSON-ready dict.  Idempotent."""
        while len(self._stack) > 1:
            self._stack.pop().close(aborted=aborted)
        self.root.close(aborted=aborted)
        return self.root.to_dict()


def _span_from_dict(data: Dict[str, Any]) -> Optional[Span]:
    """Rebuild a (closed) Span from its ``to_dict`` form, recursively."""
    name = data.get("name")
    if not isinstance(name, str):
        return None
    span = Span.__new__(Span)
    span.name = name
    span.meta = dict(data.get("meta") or {})
    counters = data.get("counters")
    if isinstance(counters, dict):
        span.meta["_counters"] = counters
    span.seconds = float(data.get("ms", 0.0)) / 1000.0
    span.aborted = data.get("aborted")
    span._start = 0.0
    span._counters_before = {}
    span.children = []
    for child in data.get("children") or ():
        if isinstance(child, dict):
            rebuilt = _span_from_dict(child)
            if rebuilt is not None:
                span.children.append(rebuilt)
    return span


# ----------------------------------------------------------------------
# the process-global armed tracer
# ----------------------------------------------------------------------
#: The armed tracer, or None.  Hot sites read this once per call:
#: ``t = trace.ACTIVE`` then ``if t is not None: ...``.
ACTIVE: Optional[Tracer] = None


def arm(tracer: Tracer) -> Tracer:
    """Arm ``tracer`` process-globally; returns it for chaining."""
    global ACTIVE
    ACTIVE = tracer
    return tracer


def disarm() -> None:
    global ACTIVE
    ACTIVE = None


# ----------------------------------------------------------------------
# rendering (repro query --trace)
# ----------------------------------------------------------------------
def render_trace(tree: Dict[str, Any]) -> str:
    """An EXPLAIN-ANALYZE-style annotated text tree from a trace dict."""
    lines: List[str] = []
    _render(tree, lines, "", True, True)
    return "\n".join(lines)


def _render(
    node: Dict[str, Any], lines: List[str], prefix: str, last: bool, root: bool
) -> None:
    meta = node.get("meta") or {}
    parts = [f"{node.get('name', '?')} ({node.get('ms', 0):.3f} ms)"]
    for key in sorted(meta):
        parts.append(f"{key}={meta[key]}")
    counters = node.get("counters") or {}
    if counters:
        inner = " ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        parts.append(f"[{inner}]")
    if node.get("aborted"):
        parts.append(f"!aborted={node['aborted']}")
    if root:
        lines.append(" ".join(parts))
        child_prefix = ""
    else:
        connector = "`- " if last else "|- "
        lines.append(prefix + connector + " ".join(parts))
        child_prefix = prefix + ("   " if last else "|  ")
    children = node.get("children") or []
    for index, child in enumerate(children):
        _render(child, lines, child_prefix, index == len(children) - 1, False)
