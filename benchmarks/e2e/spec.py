"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is this module's
:func:`manifest` written out; a unit test keeps the two equal, so a
metric cannot be printed without being declared or the reverse.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = [
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "EXACT_COUNTS",
    "RUN_SECONDS",
    "SERVER",
    "manifest",
    "units",
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by (end-to-end
    #: metrics only; per-layer metrics are not gated).
    bound: float = 0.0


#: How long one timed replay lasts, in seconds.
RUN_SECONDS = 12

#: The server under test, fixed for every workload (see README).
SERVER = {
    "workers": 2,
    "engine": "wco",
    "mode": "full",
    "timeout": 60,
    "wal_fsync": "interval",
    "compact_threshold": 200,
}

#: name → why the workload exists (one line each; README has the long form).
WORKLOADS: Dict[str, str] = {
    "paper_uo": (
        "the paper's 24 LUBM+DBpedia UNION/OPTIONAL queries, result cache off: "
        "evaluator, bgp and bags do the work, server layers almost none"
    ),
    "entity_zipf": (
        "one entity template x ~5k entities drawn Zipf(1.1), paged, result cache on: "
        "half the requests are cache hits, every miss a new text; server layers are half the wall"
    ),
    "bulk_rows": (
        "three 5k-14k row queries x json/csv/tsv, cache off: decode, serialization, "
        "pool-pipe pickling and socket write are most of the wall time"
    ),
    "read_write": (
        "the entity stream with every 10th operation a durable POST /update: commits "
        "invalidate result and plan caches, reads go through the delta overlay"
    ),
}

END_TO_END: List[Metric] = [
    # Bounds follow the measured run-to-run spread on the shared 2-CPU
    # host (README, "Baseline and measured spreads"), not the issue's
    # 10-15 %: a bound below the spread gates nothing.
    Metric("qps", "1/s", "higher", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25),
    Metric("p95_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
]

PER_LAYER: List[Metric] = [
    # server.app
    Metric("app.http_overhead_ms", "ms", "lower"),
    Metric("app.keepalive_penalty_ms", "ms", "lower"),
    Metric("app.shed_total", "count", "lower"),
    # server.protocol
    Metric("protocol.parse_request_us", "us", "lower"),
    # server.cache
    Metric("cache.hit_ratio", "ratio", "higher"),
    Metric("cache.get_us", "us", "lower"),
    Metric("cache.put_us", "us", "lower"),
    Metric("cache.resident_bytes", "bytes", "lower"),
    # server.pool
    Metric("pool.start_s", "s", "lower"),
    Metric("pool.execute_ms", "ms", "lower"),
    Metric("pool.ipc_overhead_ms", "ms", "lower"),
    Metric("pool.reply_bytes", "bytes", "lower"),
    Metric("pool.broadcast_update_ms", "ms", "lower"),
    Metric("pool.worker_restarts", "count", "lower"),
    # sparql.parser / core
    Metric("parser.parse_ms", "ms", "lower"),
    Metric("transform.plan_ms", "ms", "lower"),
    Metric("transform.applied_total", "count", "higher"),
    Metric("engine.plan_cache_hit_ratio", "ratio", "higher"),
    # core.evaluator / core.candidates
    Metric("evaluator.execute_ms", "ms", "lower"),
    Metric("evaluator.join_space_log10_full", "log10", "lower"),
    Metric("evaluator.join_space_log10_base", "log10", "lower"),
    Metric("evaluator.speedup_full_over_base", "x", "higher"),
    Metric("evaluator.candidate_intersections", "count", "higher"),
    Metric("evaluator.rows_materialized", "count", "lower"),
    # bgp
    Metric("bgp.standalone_eval_ms", "ms", "lower"),
    Metric("bgp.hashjoin_execute_ms", "ms", "lower"),
    Metric("bgp.gallop_probes", "count", "lower"),
    Metric("bgp.merge_joins", "count", "higher"),
    Metric("bgp.hash_joins", "count", "lower"),
    Metric("bgp.terms_decoded", "count", "lower"),
    # sparql.results
    Metric("results.serialize_ms", "ms", "lower"),
    Metric("results.mb_per_s", "MB/s", "higher"),
    Metric("results.bytes_per_row", "bytes", "lower"),
    # storage
    Metric("storage.ingest_s", "s", "lower"),
    Metric("storage.snapshot_save_s", "s", "lower"),
    Metric("storage.snapshot_load_ms", "ms", "lower"),
    Metric("storage.first_query_ms", "ms", "lower"),
    Metric("storage.bytes_per_triple", "bytes", "lower"),
    Metric("storage.update_apply_ms", "ms", "lower"),
    Metric("storage.overlay_read_ratio", "ratio", "lower"),
    Metric("storage.compact_s", "s", "lower"),
    # storage.wal
    Metric("wal.append_us", "us", "lower"),
    Metric("wal.fsync_ms", "ms", "lower"),
    Metric("wal.fsyncs_per_update", "ratio", "lower"),
    Metric("wal.bytes_per_update", "bytes", "lower"),
    # the benchmark's own
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.unattributed_ms", "ms", "lower"),
]

#: Per-layer counts that must repeat exactly between two runs of the
#: same code and seed (``--aa`` fails on any difference).
EXACT_COUNTS = (
    "transform.applied_total",
    "evaluator.join_space_log10_full",
    "evaluator.join_space_log10_base",
    "evaluator.rows_materialized",
    "evaluator.candidate_intersections",
    "bgp.gallop_probes",
    "bgp.merge_joins",
    "bgp.hash_joins",
    "bgp.terms_decoded",
    "engine.plan_cache_hit_ratio",
)


def units() -> Dict[str, str]:
    """Declared metric name → unit."""
    return {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
