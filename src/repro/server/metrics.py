"""Per-query server metrics, rendered in Prometheus exposition format.

Deliberately concrete — one registry class with named fields rather
than a generic metrics framework — because ``/metrics`` is the whole
consumer.  Latency quantiles come from a bounded sliding window (the
most recent observations), which is what a scrape-based monitor wants
anyway; counters and sums are exact over the server's lifetime.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Mapping, Optional

from .. import faults as _faults
from ..obs.counters import EXEC_COUNTER_FIELDS
from .cache import INVALIDATION_REASONS

__all__ = ["HISTOGRAM_BUCKETS", "LatencySummary", "ServerMetrics"]

#: Cumulative latency histogram bounds (seconds) for
#: ``repro_query_seconds_bucket``.  Unlike the sliding-window summary
#: quantiles, bucket counts are exact over the server's lifetime and
#: aggregate across instances — the form dashboards compute quantiles
#: from.  +Inf is implicit (rendered, not stored).
HISTOGRAM_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class LatencySummary:
    """Exact count/sum plus sliding-window quantiles for one label set,
    and exact cumulative histogram bucket counts."""

    __slots__ = ("count", "total", "_window", "buckets")

    def __init__(self, window: int = 4096):
        self.count = 0
        self.total = 0.0
        self._window: Deque[float] = deque(maxlen=window)
        #: Per-bound observation counts, *non*-cumulative; the renderer
        #: accumulates them into Prometheus's cumulative ``le`` series.
        self.buckets = [0] * len(HISTOGRAM_BUCKETS)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self._window.append(seconds)
        for index, bound in enumerate(HISTOGRAM_BUCKETS):
            if seconds <= bound:
                self.buckets[index] += 1
                break

    def quantile(self, q: float) -> Optional[float]:
        if not self._window:
            return None
        ordered = sorted(self._window)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]


class ServerMetrics:
    """The server's aggregate view of every query it has handled."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        #: HTTP status code → responses sent.
        self.requests_by_status: Counter = Counter()
        self.shed_total = 0
        self.timeouts_total = 0
        self.worker_restarts_total = 0
        #: Stale cache entries served under stale-while-error.
        self.stale_served_total = 0
        #: SPARQL UPDATE requests that committed (changed ≥ 1 triple).
        self.updates_total = 0
        self.update_triples_added_total = 0
        self.update_triples_removed_total = 0
        #: Delta compactions folded into the data file.
        self.compactions_total = 0
        #: Worker-side fault injections, by site: each successful reply
        #: carries the *delta* of injections since the worker's previous
        #: reply, so the aggregate is exact for surviving workers.
        self.fault_injections: Counter = Counter()
        self.inflight = 0
        self.rows_total = 0
        self.join_space_total = 0.0
        #: Execution-path counters aggregated across worker queries
        #: (merge vs hash joins, galloping, candidate intersections).
        self.exec_totals: Counter = Counter()
        #: Outcome label → latency summary; "hit" vs "miss" is the
        #: cache dimension the benchmark's acceptance criterion reads.
        self.latency: Dict[str, LatencySummary] = {
            "hit": LatencySummary(),
            "miss": LatencySummary(),
        }

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_response(self, status: int) -> None:
        with self._lock:
            self.requests_by_status[status] += 1

    def record_shed(self) -> None:
        with self._lock:
            self.shed_total += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts_total += 1

    def record_worker_restart(self) -> None:
        with self._lock:
            self.worker_restarts_total += 1

    def record_stale_served(self) -> None:
        with self._lock:
            self.stale_served_total += 1

    def record_update(self, added: int, removed: int) -> None:
        with self._lock:
            self.updates_total += 1
            self.update_triples_added_total += added
            self.update_triples_removed_total += removed

    def record_compaction(self) -> None:
        with self._lock:
            self.compactions_total += 1

    def record_fault_injections(self, counts: Mapping[str, int]) -> None:
        """Fold in per-site injection deltas reported by a worker."""
        with self._lock:
            for site, count in counts.items():
                if count:
                    self.fault_injections[site] += int(count)

    def record_query(
        self,
        outcome: str,
        seconds: float,
        rows: int,
        join_space: float,
        exec_counters: Optional[Mapping[str, int]] = None,
    ) -> None:
        """One completed query: ``outcome`` is ``hit`` or ``miss``."""
        with self._lock:
            summary = self.latency.setdefault(outcome, LatencySummary())
            summary.observe(seconds)
            self.rows_total += rows
            self.join_space_total += join_space
            if exec_counters:
                for name in EXEC_COUNTER_FIELDS:
                    value = exec_counters.get(name)
                    if value:
                        self.exec_totals[name] += int(value)

    def enter(self) -> None:
        with self._lock:
            self.inflight += 1

    def leave(self) -> None:
        with self._lock:
            self.inflight -= 1

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(
        self,
        generation: int,
        pool_stats: Mapping[str, float],
        cache_stats: Mapping[str, Any],
        wal_stats: Optional[Mapping[str, object]] = None,
    ) -> str:
        """The ``/metrics`` document (Prometheus text exposition v0).

        ``pool_stats`` is :meth:`WorkerPool.stats` — roster health
        (alive vs target, heal backoff, snapshot fallbacks) sampled in
        one lock hold so the exposed values are mutually consistent.
        ``wal_stats`` is :meth:`SparqlServer.wal_stats` (None renders
        the WAL series at zero: dashboards can tell "durability off"
        from "no writes yet" via repro_wal_enabled).
        """
        alive = int(pool_stats.get("alive", 0))
        target = int(pool_stats.get("target", alive))
        if alive >= target and target > 0:
            degraded_state = 0  # full roster
        elif alive > 0:
            degraded_state = 1  # degraded: serving at reduced capacity
        else:
            degraded_state = 2  # unavailable: no workers at all
        # Parent-side injections (send/recv/cache/respond sites) plus
        # the worker-side deltas that rode home on replies.
        active = _faults.ACTIVE
        fault_counts = Counter(active.counts() if active is not None else {})
        with self._lock:
            fault_counts.update(self.fault_injections)
            lines: List[str] = []

            def emit(name: str, value, help_text: str, kind: str = "counter", labels: str = ""):
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                suffix = f"{{{labels}}}" if labels else ""
                lines.append(f"{name}{suffix} {value}")

            lines.append("# HELP repro_requests_total HTTP responses by status code.")
            lines.append("# TYPE repro_requests_total counter")
            for status in sorted(self.requests_by_status):
                lines.append(
                    f'repro_requests_total{{status="{status}"}} '
                    f"{self.requests_by_status[status]}"
                )
            emit("repro_shed_total", self.shed_total, "Requests shed by admission control.")
            emit("repro_timeouts_total", self.timeouts_total, "Queries past their deadline.")
            emit(
                "repro_worker_restarts_total",
                self.worker_restarts_total,
                "Workers killed and respawned.",
            )
            emit(
                "repro_inflight_queries",
                self.inflight,
                "Queries admitted now, including those waiting for a worker.",
                "gauge",
            )
            emit("repro_workers", alive, "Worker processes alive in the pool.", "gauge")
            emit(
                "repro_workers_target",
                target,
                "Configured worker roster size.",
                "gauge",
            )
            emit(
                "repro_degraded_state",
                degraded_state,
                "Capacity state: 0 full roster, 1 degraded, 2 no workers.",
                "gauge",
            )
            emit(
                "repro_respawn_backoff_seconds",
                pool_stats.get("backoff_seconds", 0),
                "Seconds until the heal path retries a failed respawn.",
                "gauge",
            )
            emit(
                "repro_snapshot_fallbacks_total",
                int(pool_stats.get("snapshot_fallbacks", 0)),
                "Respawns that failed to load the snapshot; survivors "
                "keep serving the last-good generation.",
            )
            emit(
                "repro_stale_served_total",
                self.stale_served_total,
                "Stale cache entries served under stale-while-error.",
            )
            emit(
                "repro_updates_total",
                self.updates_total,
                "SPARQL UPDATE requests that changed at least one triple.",
            )
            emit(
                "repro_update_triples_added_total",
                self.update_triples_added_total,
                "Triples inserted by UPDATE requests.",
            )
            emit(
                "repro_update_triples_removed_total",
                self.update_triples_removed_total,
                "Triples removed by UPDATE requests.",
            )
            emit(
                "repro_compactions_total",
                self.compactions_total,
                "Delta compactions folded into the data file.",
            )
            wal = wal_stats or {}
            emit(
                "repro_wal_enabled",
                1 if wal_stats is not None else 0,
                "Whether a write-ahead log backs POST /update acks.",
                "gauge",
            )
            emit(
                "repro_wal_depth",
                int(wal.get("depth", 0)),  # type: ignore[arg-type]
                "WAL frames awaiting compaction (respawn replay depth).",
                "gauge",
            )
            emit(
                "repro_wal_records_total",
                int(wal.get("records_total", 0)),  # type: ignore[arg-type]
                "Update frames appended to the WAL by this process.",
            )
            emit(
                "repro_wal_recoveries_total",
                int(wal.get("recoveries", 0)),  # type: ignore[arg-type]
                "Startup recoveries that replayed the WAL tail or cut a "
                "torn frame.",
            )
            lines.append(
                "# HELP repro_wal_fsync_seconds Time spent in WAL "
                "durability fsyncs (group commit shares one fsync across "
                "concurrent updates)."
            )
            lines.append("# TYPE repro_wal_fsync_seconds summary")
            lines.append(
                f"repro_wal_fsync_seconds_count {int(wal.get('fsync_count', 0))}"  # type: ignore[arg-type]
            )
            lines.append(
                f"repro_wal_fsync_seconds_sum {float(wal.get('fsync_seconds', 0.0)):.6f}"  # type: ignore[arg-type]
            )
            lines.append(
                "# HELP repro_faults_injected_total Injected faults by site "
                "(zero series absent; parent and worker injections combined)."
            )
            lines.append("# TYPE repro_faults_injected_total counter")
            for site in sorted(fault_counts):
                lines.append(
                    f'repro_faults_injected_total{{site="{site}"}} {fault_counts[site]}'
                )
            emit(
                "repro_store_generation",
                generation,
                "Store generation served (result-cache key).",
                "gauge",
            )
            emit("repro_rows_total", self.rows_total, "Result rows produced.")
            emit(
                "repro_join_space_total",
                f"{self.join_space_total:.6g}",
                "Summed join-space metric (paper Fig. 11) across queries.",
            )
            lines.append(
                "# HELP repro_exec_path_total Execution-path counters "
                "(merge vs hash joins, galloping, candidate intersections)."
            )
            lines.append("# TYPE repro_exec_path_total counter")
            for name in EXEC_COUNTER_FIELDS:
                lines.append(
                    f'repro_exec_path_total{{counter="{name}"}} '
                    f"{self.exec_totals.get(name, 0)}"
                )
            emit(
                "repro_cache_hits_total", cache_stats.get("hits", 0), "Result-cache hits."
            )
            emit(
                "repro_cache_misses_total",
                cache_stats.get("misses", 0),
                "Result-cache misses.",
            )
            emit(
                "repro_cache_revalidated_total",
                cache_stats.get("revalidated", 0),
                "Result-cache hits served across at least one generation "
                "(no write since the entry was computed matched its patterns).",
            )
            lines.append(
                "# HELP repro_cache_invalidated_total Result-cache lookups at a "
                "newer generation that missed, by reason."
            )
            lines.append("# TYPE repro_cache_invalidated_total counter")
            invalidated = cache_stats.get("invalidated") or {}
            for reason in INVALIDATION_REASONS:
                lines.append(
                    f'repro_cache_invalidated_total{{reason="{reason}"}} '
                    f"{invalidated.get(reason, 0)}"
                )
            emit(
                "repro_cache_entries",
                cache_stats.get("entries", 0),
                "Result-cache entries resident.",
                "gauge",
            )
            emit(
                "repro_cache_bytes",
                cache_stats.get("bytes", 0),
                "Result-cache payload bytes resident.",
                "gauge",
            )
            lines.append(
                "# HELP repro_query_latency_seconds Query latency by cache outcome."
            )
            lines.append("# TYPE repro_query_latency_seconds summary")
            for outcome, summary in sorted(self.latency.items()):
                for q in (0.5, 0.9, 0.99):
                    value = summary.quantile(q)
                    if value is not None:
                        lines.append(
                            f'repro_query_latency_seconds{{cache="{outcome}",quantile="{q}"}} '
                            f"{value:.6f}"
                        )
                lines.append(
                    f'repro_query_latency_seconds_count{{cache="{outcome}"}} {summary.count}'
                )
                lines.append(
                    f'repro_query_latency_seconds_sum{{cache="{outcome}"}} '
                    f"{summary.total:.6f}"
                )
            lines.append(
                "# HELP repro_query_seconds Query latency histogram by "
                "cache outcome (cumulative buckets)."
            )
            lines.append("# TYPE repro_query_seconds histogram")
            for outcome, summary in sorted(self.latency.items()):
                cumulative = 0
                for bound, count in zip(HISTOGRAM_BUCKETS, summary.buckets):
                    cumulative += count
                    lines.append(
                        f'repro_query_seconds_bucket{{cache="{outcome}",le="{bound}"}} '
                        f"{cumulative}"
                    )
                lines.append(
                    f'repro_query_seconds_bucket{{cache="{outcome}",le="+Inf"}} '
                    f"{summary.count}"
                )
                lines.append(
                    f'repro_query_seconds_sum{{cache="{outcome}"}} {summary.total:.6f}'
                )
                lines.append(
                    f'repro_query_seconds_count{{cache="{outcome}"}} {summary.count}'
                )
            emit(
                "repro_uptime_seconds",
                f"{time.time() - self.started_at:.3f}",
                "Seconds since server start.",
                "gauge",
            )
            return "\n".join(lines) + "\n"
