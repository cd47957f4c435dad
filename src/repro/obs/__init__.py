"""Observability: end-to-end query tracing, per-operator profiling and
the template-keyed workload stats registry.

Three cooperating pieces, each usable on its own:

:mod:`repro.obs.trace`
    A process-global :class:`~repro.obs.trace.Tracer` recording nested
    spans (``parse`` → ``transform`` → per-BGP ``scan``/``join`` →
    ``decode`` → ``serialize``), each carrying wall time and the slice
    of :data:`~repro.obs.counters.EXEC_COUNTERS` it accumulated.
    Disarmed cost is one module-attribute load and an ``is None`` check
    per instrumented site — the same discipline as :mod:`repro.faults`.

:mod:`repro.obs.templates`
    Constant-lifting of parsed queries into workload *templates* (one
    template × thousands of entities, the shape production replay logs
    have) plus a bounded per-template stats registry (count, latency
    quantiles, rows, execution counters) — the data substrate for
    stats-driven re-optimization.

:mod:`repro.obs.slowlog`
    A size-bounded structured (JSONL) slow-query log keyed by request
    id and template hash.
"""

from .slowlog import SlowQueryLog
from .templates import TemplateRegistry, lift_template
from .trace import Span, Tracer, arm, disarm, render_trace

__all__ = [
    "Span",
    "SlowQueryLog",
    "TemplateRegistry",
    "Tracer",
    "arm",
    "disarm",
    "lift_template",
    "render_trace",
]
