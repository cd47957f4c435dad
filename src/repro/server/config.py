"""Server configuration: one frozen object shared by every component."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` needs, with production-lean defaults.

    The zero values of ``queue_size`` / ``queue_wait`` mean "derive
    from the worker count / timeout" — see the ``effective_*``
    properties, which every consumer reads instead of the raw fields.
    """

    #: Path to the dataset: a ``.snap`` snapshot (recommended — workers
    #: map it lazily and share page cache) or an N-Triples file (each
    #: worker parses it at startup).
    data: str
    host: str = "127.0.0.1"
    #: TCP port; 0 lets the OS pick (tests and benchmarks use this).
    port: int = 8080
    #: Worker processes; each runs one query at a time, so this is
    #: also the bound on queries executing at once.
    workers: int = 2
    #: Per-query wall-clock budget in seconds.  Enforced cooperatively
    #: inside the engine first; a worker that overruns the budget plus
    #: :attr:`grace` is killed and respawned.
    timeout: float = 30.0
    #: Extra seconds past ``timeout`` before the hard kill.
    grace: float = 2.0
    #: Requests allowed to wait for an idle worker; beyond this the
    #: request is shed with 503 immediately.  0 → ``2 * workers``.
    queue_size: int = 0
    #: Longest a queued request waits for a worker before 503; 0 → ``timeout``.
    queue_wait: float = 0.0
    #: Result-cache capacity; 0 entries disables caching.
    cache_entries: int = 256
    cache_bytes: int = 64 * 1024 * 1024
    #: Largest POST body accepted (413 beyond); queries are small, so
    #: this guards request *ingestion* the way the pool's admission
    #: guards execution.
    max_body_bytes: int = 2 * 1024 * 1024
    #: Engine wiring, forwarded to every worker's SparqlUOEngine.
    engine: str = "wco"
    mode: str = "full"
    #: Log one line per request to stderr (quiet by default).
    log_requests: bool = False
    #: Fault-injection spec (see :mod:`repro.faults`), armed in the
    #: parent *and* every worker; "" means injection off.  The chaos
    #: harness drives this via ``repro serve --faults``.
    faults: str = ""
    #: On shutdown, wait up to this long for in-flight requests to
    #: finish before closing the worker pool (SIGTERM drain).
    drain_seconds: float = 5.0
    #: Serve an expired / prior-generation cache hit (tagged
    #: ``X-Repro-Stale: 1``) when the pool cannot answer.  Off by
    #: default: staleness must be an explicit operator choice.
    stale_while_error: bool = False
    #: Heal-path backoff: first retry delay after a failed respawn,
    #: doubling per consecutive failure up to the cap (±20% jitter).
    respawn_backoff_base: float = 0.5
    respawn_backoff_cap: float = 30.0
    #: The respawn budget's rolling window in seconds (the budget
    #: itself is fixed in :mod:`.pool`).
    respawn_window: float = 30.0
    #: Probabilistic tracing: this fraction of queries (0.0–1.0) is
    #: traced even without an ``X-Repro-Trace`` header, feeding the
    #: slow-query log.  0 disables sampling.
    trace_sample: float = 0.0
    #: Slow-query threshold in milliseconds: requests at or above it
    #: are appended to the slow-query log.  0 disables the threshold
    #: (sampled and timed-out queries may still be logged).
    slow_query_ms: float = 0.0
    #: Path of the JSONL slow-query log; "" disables logging entirely.
    slow_query_log: str = ""
    #: Where ``SIGUSR1`` dumps the template-stats registry: a file
    #: path, "-" for stderr, or "" to disable the handler.
    stats_dump: str = ""
    #: Write-ahead log path; "" disables durability: acked updates
    #: live only in memory until compaction, and respawned workers
    #: replay from a temporary, never-fsynced log that is deleted at
    #: shutdown.
    wal: str = ""
    #: WAL fsync policy: ``always`` (fsync per update), ``interval``
    #: (group commit: concurrent updates share fsyncs, each ack still
    #: waits for its frame to be durable) or ``off`` (OS writeback).
    wal_fsync: str = "interval"
    #: Background delta compaction: once the writer's pending delta
    #: (adds + tombstones) reaches this many triples, the server folds
    #: it into the data file via an atomic overwrite and advances the
    #: snapshot generation respawned workers load from.  0 disables
    #: auto-compaction; ``POST /update`` keeps accumulating deltas.
    compact_threshold: int = 0

    @property
    def effective_queue_size(self) -> int:
        return self.queue_size if self.queue_size > 0 else 2 * max(self.workers, 1)

    @property
    def effective_queue_wait(self) -> float:
        return self.queue_wait if self.queue_wait > 0 else self.timeout

    @property
    def hard_timeout(self) -> float:
        """Seconds after which a worker is killed rather than trusted."""
        return self.timeout + max(self.grace, 0.1)

    def engine_options(self):
        """The worker engines' configuration as one EngineOptions value.

        Built lazily (the server package must stay importable without
        the core engine); the frozen dataclass pickles through the
        worker pool's ``spawn`` start method.
        """
        from ..core.options import EngineOptions

        return EngineOptions(bgp_engine=self.engine, mode=self.mode)
