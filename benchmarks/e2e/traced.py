"""The traced run: a fixed log prefix replayed in-process, layer by layer.

The server's request path is re-enacted here by calling each layer's
public function in the order ``server.app`` does, with a span of the
benchmark's own recorder around every call.  Nothing under ``src/`` is
instrumented.  Four passes over the same prefix:

``T``  traced, single-threaded: protocol → cache.get → (miss) the work
       a pool worker does, in-process (prepare, execute, serialize) →
       the same query through a real ``WorkerPool`` → cache.put; update
       requests go protocol → engine.update → wal.append → pool
       broadcast → wal.sync (→ compact), as ``SparqlServer.apply_update``
       orders them.  A fixed update probe follows the prefix so the
       write-path layers are measured on every workload.
``U``  the same without recorder and without pool: tracing overhead.
``R``  reference engines over the prefix's distinct queries: the
       ``base`` mode (join space, Fig. 10 speedup), the hash-join BGP
       engine, and each BGP node evaluated stand-alone.
``H``  the prefix over loopback HTTP to a real server, one request at
       a time: what HTTP handling adds on top of ``WorkerPool.execute``.
"""

from __future__ import annotations

import http.client
import math
import os
import shutil
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core import SparqlUOEngine
from repro.server import ResultCache, ServerConfig, WorkerPool
from repro.server.cache import CachedResult
from repro.server.protocol import (
    FORMAT_MEDIA_TYPES,
    parse_sparql_request,
    parse_update_request,
)
from repro.sparql.results import SERIALIZERS
from repro.storage import TripleStore
from repro.storage.wal import WriteAheadLog

from .check import Oracle, RunResult, check_replay
from .endtoend import cache_entries_for, datasets_for
from .harness import (
    Observation,
    ServerProcess,
    generate_inputs,
    ingest,
    observe,
    scrape_metrics,
    scratch_directory,
    send,
    stop_resource_tracker,
)
from .recorder import NullRecorder, Span, SpanRecorder, self_times
from .spec import SERVER
from .stats import geomean, median
from .workloads import (
    ACCEPT,
    BENCH_IRI,
    LOG_REQUESTS,
    UPDATE_TRIPLES,
    Request,
    build_log,
    entities_from_ntriples,
    entity_query,
    trace_prefix,
)

__all__ = ["run_traced"]

FORMATS = ["json", "csv", "tsv"]
#: Distinct queries the reference pass evaluates (bounds its run time).
REFERENCE_QUERIES = 24
#: The fixed update probe: inserts, then deletes of the first inserts.
PROBE_INSERTS = 100
PROBE_DELETES = 20
#: Entity reads timed over a frozen store and over the probe's pending delta.
OVERLAY_SAMPLE = 30
#: Requests replayed over one persistent connection for the keep-alive probe.
KEEPALIVE_REQUESTS = 20


def _server_config(snapshot: Path, cache_entries: int) -> ServerConfig:
    return ServerConfig(
        data=str(snapshot), port=0, workers=int(SERVER["workers"]),
        engine=str(SERVER["engine"]), mode=str(SERVER["mode"]),
        timeout=float(SERVER["timeout"]), cache_entries=cache_entries,
    )


class Pipeline:
    """One dataset's request path, re-enacted in-process."""

    def __init__(self, snapshot: Path, cache_entries: int, recorder, with_pool: bool,
                 compact_threshold: int):
        self.snapshot = snapshot
        self.recorder = recorder
        self.compact_threshold = compact_threshold
        config = _server_config(snapshot, cache_entries)
        started = perf_counter()
        store = TripleStore.load(str(snapshot), lazy=True)  # as pool workers open it
        self.load_seconds = perf_counter() - started
        self.engine = SparqlUOEngine(store, options=config.engine_options())
        self.cache = ResultCache(config.cache_entries, config.cache_bytes)
        self.generation = store.generation
        self.wal = WriteAheadLog(str(snapshot.with_suffix(".wal")), policy=str(SERVER["wal_fsync"]))
        store.attach_wal(self.wal)
        self.pool: Optional[WorkerPool] = None
        self.pool_start_seconds = 0.0
        if with_pool:
            started = perf_counter()
            self.pool = WorkerPool(config)
            self.pool_start_seconds = perf_counter() - started
            self.pool.attach_wal(self.wal)
        #: One dict of layer-reported facts per executed (non-hit) read.
        self.executions: List[dict] = []
        self.reads = 0

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        self.wal.close()

    def handle(self, index: int, request: Request) -> None:
        with self.recorder.span("request", index):
            if request.method == "POST":
                self._update(request)
            else:
                self._read(index, request)

    def _read(self, index: int, request: Request) -> None:
        rec = self.recorder
        self.reads += 1
        with rec.span("server.protocol"):
            parsed = parse_sparql_request(
                "GET", request.target.partition("?")[2], {"Accept": request.accept}, b"", FORMATS
            )
        with rec.span("server.cache.get"):
            cached = self.cache.get(self.generation, parsed.format, parsed.query)
        if cached is not None:
            return
        facts: dict = {"index": index, "query": parsed.query}
        with rec.span("worker"):
            with rec.span("core.engine.prepare"):
                started = perf_counter()
                prepared = self.engine.prepare(parsed.query)
                # Child spans from the durations the layer itself reports.
                rec.child("sparql.parser", started, prepared.parse_seconds)
                rec.child(
                    "core.transform", started + prepared.parse_seconds, prepared.transform_seconds
                )
            with rec.span("core.evaluator"):
                result = self.engine.execute(parsed.query)
            with rec.span("sparql.results"):
                started = perf_counter()
                payload = SERIALIZERS[parsed.format](result.variables, result.solutions).encode("utf-8")
                facts["serialize_seconds"] = perf_counter() - started
            join_space = result.join_space
        facts.update(
            plan_cached=prepared.cached,
            parse_seconds=prepared.parse_seconds,
            transform_seconds=prepared.transform_seconds,
            execute_seconds=result.execute_seconds,
            counters=result.exec_counters,
            rows=len(result),
            payload_bytes=len(payload),
        )
        if self.pool is not None:
            with rec.span("server.pool"):
                started = perf_counter()
                reply = self.pool.execute(parsed.query, parsed.format)
                facts["pool_seconds"] = perf_counter() - started
            if reply.kind != "ok":
                raise RuntimeError(f"pool answered {reply.kind}: {reply.message}")
            facts["worker_total_seconds"] = float(reply.meta["total_ms"]) / 1000.0
            facts["reply_bytes"] = len(reply.payload)
        with rec.span("server.cache.put"):
            self.cache.put(
                self.generation, parsed.format, parsed.query,
                CachedResult(payload, FORMAT_MEDIA_TYPES[parsed.format], len(result), join_space),
            )
        self.executions.append(facts)

    def _update(self, request: Request) -> None:
        rec = self.recorder
        with rec.span("server.protocol"):
            text = parse_update_request(
                "POST", {"Content-Type": "application/sparql-update"}, request.text.encode("utf-8")
            )
        with rec.span("storage.update"):
            outcome = self.engine.update(text)
        if not (outcome.added or outcome.removed):
            return
        with rec.span("storage.wal.append"):
            sequence = self.wal.append(outcome.generation, text)
        if self.pool is not None:
            with rec.span("server.pool.broadcast"):
                self.pool.broadcast_update(text, outcome.generation)
        with rec.span("storage.wal.sync"):
            self.wal.sync(sequence)
        self.generation = outcome.generation
        if 0 < self.compact_threshold <= sum(self.engine.store.pending_delta):
            self.compact()

    def compact(self) -> None:
        with self.recorder.span("storage.compact"):
            generation = self.engine.store.compact(str(self.snapshot))
        if self.pool is not None:
            self.pool.note_snapshot_generation(generation)


def _probe_updates(inserts: int, deletes: int) -> List[Request]:
    """INSERT DATA x ``inserts`` (5 triples each), then DELETE DATA of the first ones."""

    def triples(key: int) -> str:
        subject = f"<{BENCH_IRI}probe/k{key}>"
        return " ".join(
            f'{subject} <{BENCH_IRI}p{j}> "probe{key}v{j}" .' for j in range(UPDATE_TRIPLES)
        )

    texts = [f"INSERT DATA {{ {triples(key)} }}" for key in range(inserts)]
    texts += [f"DELETE DATA {{ {triples(key)} }}" for key in range(deletes)]
    return [Request(0, "lubm", "POST", "/update", text, ACCEPT["json"], "update") for text in texts]


def _entity_read_seconds(engine: SparqlUOEngine, entities: Sequence[str]) -> float:
    """Median execute time of a fixed entity sample, plans already cached."""
    queries = [entity_query(entity, 0).text for entity in entities]
    for query in queries:
        engine.execute(query)
    return median([engine.execute(query).execute_seconds for query in queries])


def _timed_reps(engine: SparqlUOEngine, query: str) -> float:
    """Median execute seconds: three repetitions, one for slow queries."""
    first = engine.execute(query).execute_seconds
    if first > 0.05:
        return first
    return median([first] + [engine.execute(query).execute_seconds for _ in range(2)])


def _reference_pass(
    snapshots: Dict[str, Path], oracles: Dict[str, Oracle], prefix: Sequence[Request], limit: int
) -> Dict[str, float]:
    """Base mode, hash-join engine and stand-alone BGPs over the distinct queries."""
    distinct: Dict[tuple, None] = {}
    for request in prefix:
        if request.method == "GET":
            distinct.setdefault((request.dataset, request.text))
        if len(distinct) == limit:
            break
    engines = {}
    for name, snapshot in snapshots.items():
        store = TripleStore.load(str(snapshot), lazy=False)
        engines[name] = (
            SparqlUOEngine(store, bgp_engine="wco", mode="full"),
            oracles[name].engine,
            SparqlUOEngine(store, bgp_engine="hashjoin", mode="full"),
        )
    speedups, space_full, space_base, hashjoin, standalone = [], [], [], [], []
    applied = merge_joins = hash_joins = 0
    for dataset, query in distinct:
        full, base, hashed = engines[dataset]
        prepared = full.prepare(query)
        applied += prepared.report.transformations if prepared.report is not None else 0
        full_result = full.execute(query)
        base_result = oracles[dataset].result(query)
        hashed_counters = hashed.execute(query).exec_counters
        merge_joins += hashed_counters.get("merge_joins", 0)
        hash_joins += hashed_counters.get("hash_joins", 0)
        if len(full_result) != len(base_result):
            raise RuntimeError(f"full and base modes disagree on {query[:60]!r}")
        space_full.append(math.log10(max(full_result.join_space, 1.0)))
        space_base.append(math.log10(max(base_result.join_space, 1.0)))
        full_seconds = _timed_reps(full, query)
        speedups.append(_timed_reps(base, query) / full_seconds if full_seconds else 0.0)
        hashjoin.append(_timed_reps(hashed, query))
        for node in prepared.tree.bgp_nodes():
            if not node.is_empty():
                started = perf_counter()
                full.bgp_engine.evaluate(node.patterns)
                standalone.append(perf_counter() - started)
    return {
        "evaluator.join_space_log10_full": sum(space_full) / len(space_full),
        "evaluator.join_space_log10_base": sum(space_base) / len(space_base),
        "evaluator.speedup_full_over_base": geomean(speedups),
        "transform.applied_total": float(applied),
        "bgp.hashjoin_execute_ms": median(hashjoin) * 1000.0,
        "bgp.merge_joins": float(merge_joins),
        "bgp.hash_joins": float(hash_joins),
        "bgp.standalone_eval_ms": median(standalone) * 1000.0,
    }


class HttpPass(NamedTuple):
    observations: List[Observation]
    #: digest → payload, one copy per distinct reply.
    payloads: Dict[bytes, bytes]
    keepalive_penalty_seconds: float
    #: ``/metrics`` samples summed over the servers, scraped after the replay.
    scraped: Dict[str, float]


def _http_pass(
    workload: str, snapshots: Dict[str, Path], prefix: Sequence[Request], keepalive: int
) -> HttpPass:
    """The prefix over HTTP, sequentially; then the keep-alive probe."""
    servers: Dict[str, ServerProcess] = {}
    try:
        for name, snapshot in snapshots.items():
            wal = snapshot.with_suffix(".wal") if workload == "read_write" else None
            servers[name] = ServerProcess(
                snapshot, cache_entries_for(workload), wal, int(SERVER["compact_threshold"])
            )
        payloads: Dict[bytes, bytes] = {}
        origin = perf_counter()
        observations = [
            observe(servers[request.dataset].port, index, request, origin, payloads)
            for index, request in enumerate(prefix)
        ]
        # The same reads again, on fresh connections and then on one
        # persistent connection per server: the difference is what
        # keep-alive costs (README: the Nagle / delayed-ACK stall).
        reads = [r for r in prefix if r.method == "GET"][:keepalive]
        fresh = [
            observe(servers[r.dataset].port, 0, r, origin, {}).seconds for r in reads
        ]
        connections = {
            name: http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            for name, server in servers.items()
        }
        kept = []
        try:
            for request in reads:
                started = perf_counter()
                send(servers[request.dataset].port, request, connections[request.dataset])
                kept.append(perf_counter() - started)
        finally:
            for connection in connections.values():
                connection.close()
        scraped = scrape_metrics(server.port for server in servers.values())
    finally:
        for server in servers.values():
            server.stop()
    return HttpPass(observations, payloads, median(kept) - median(fresh), scraped)


class TracedPass(NamedTuple):
    """Everything pass T and its update probe measured."""

    spans: List[Span]
    #: Spans recorded while replaying the prefix (the probe's come after).
    prefix_spans: int
    #: One dict of layer-reported facts per executed read, in log order.
    executions: List[dict]
    reads: int
    wall_seconds: float
    load_seconds: float
    pool_start_seconds: float
    #: Entity-sample execute time on a frozen store / over the probe's delta.
    frozen_read_seconds: float
    overlay_read_seconds: float
    wal_bytes_per_insert: float
    wal_stats: dict


def _replay_prefix(pipelines: Dict[str, Pipeline], prefix: Sequence[Request]) -> float:
    started = perf_counter()
    for index, request in enumerate(prefix):
        pipelines[request.dataset].handle(index, request)
    return perf_counter() - started


def _traced_pass(
    pipelines: Dict[str, Pipeline],
    recorder: SpanRecorder,
    prefix: Sequence[Request],
    frozen_snapshot: Path,
    sample: Sequence[str],
    inserts: int,
    deletes: int,
) -> TracedPass:
    """Pass T: the prefix, then the update probe on the same store, WAL and pool."""
    wall = _replay_prefix(pipelines, prefix)
    prefix_spans = len(recorder.spans)

    lubm = pipelines["lubm"]
    frozen_engine = SparqlUOEngine(
        TripleStore.load(str(frozen_snapshot), lazy=False), options=lubm.engine.options
    )
    frozen_read = _entity_read_seconds(frozen_engine, sample)
    lubm.compact_threshold = 0  # the probe compacts once, at its end
    probe = _probe_updates(inserts, deletes)
    wal_bytes_before = os.path.getsize(lubm.wal.path)
    for offset, request in enumerate(probe[:inserts]):
        lubm.handle(len(prefix) + offset, request)
    wal_bytes = os.path.getsize(lubm.wal.path) - wal_bytes_before
    overlay_read = _entity_read_seconds(lubm.engine, sample)
    for offset, request in enumerate(probe[inserts:]):
        lubm.handle(len(prefix) + inserts + offset, request)
    lubm.compact()

    executions = [facts for pipeline in pipelines.values() for facts in pipeline.executions]
    executions.sort(key=lambda facts: facts["index"])
    return TracedPass(
        spans=recorder.spans,
        prefix_spans=prefix_spans,
        executions=executions,
        reads=sum(pipeline.reads for pipeline in pipelines.values()),
        wall_seconds=wall,
        load_seconds=lubm.load_seconds,
        pool_start_seconds=lubm.pool_start_seconds,
        frozen_read_seconds=frozen_read,
        overlay_read_seconds=overlay_read,
        wal_bytes_per_insert=wal_bytes / inserts,
        wal_stats=lubm.wal.stats(),
    )


def _table(
    traced: TracedPass, untraced_wall: float, http: HttpPass, prefix: Sequence[Request]
) -> Tuple[Dict[str, float], Dict[str, tuple]]:
    """The per-layer metrics of passes T, U and H, and the ``share.*`` extras."""
    spans, executions = traced.spans, traced.executions
    during_prefix = spans[: traced.prefix_spans]
    own = self_times(spans)

    def self_ms(name: str, scale: float = 1000.0) -> float:
        return median([own[i] for i, s in enumerate(spans) if s.name == name]) * scale

    def fact_ms(key: str, rows: Sequence[dict] = executions) -> float:
        return median([facts[key] for facts in rows]) * 1000.0

    def counter(name: str) -> float:
        return float(sum(facts["counters"].get(name, 0) for facts in executions))

    def span_seconds(*names: str) -> float:
        return sum(s.duration for s in during_prefix if s.name in names)

    planned = [facts for facts in executions if not facts["plan_cached"]]
    serialize_seconds = sum(facts["serialize_seconds"] for facts in executions)
    payload_bytes = sum(facts["payload_bytes"] for facts in executions)
    rows = sum(facts["rows"] for facts in executions)
    ipc_seconds = [f["pool_seconds"] - f["worker_total_seconds"] for f in executions]

    # Per request of the prefix: what the traced layers account for.
    attributed: Dict[int, float] = {}
    pool_by_request: Dict[int, float] = {}
    for span in during_prefix:
        if span.name in ("server.protocol", "server.cache.get", "server.cache.put", "server.pool"):
            attributed[span.request_id] = attributed.get(span.request_id, 0.0) + span.duration
        if span.name == "server.pool":
            pool_by_request[span.request_id] = span.duration
    over_http = http.observations
    overhead = [
        over_http[i].seconds - seconds
        for i, seconds in pool_by_request.items() if over_http[i].cache == "miss"
    ]
    read_indexes = [i for i, request in enumerate(prefix) if request.method == "GET"]
    unattributed = [over_http[i].seconds - attributed.get(i, 0.0) for i in read_indexes]
    hits = http.scraped.get("repro_cache_hits_total", 0.0)
    lookups = hits + http.scraped.get("repro_cache_misses_total", 0.0)
    wal_stats = traced.wal_stats

    metrics = {
        "app.http_overhead_ms": median(overhead) * 1000.0,
        "app.keepalive_penalty_ms": http.keepalive_penalty_seconds * 1000.0,
        "app.shed_total": http.scraped.get("repro_shed_total", 0.0),
        "protocol.parse_request_us": self_ms("server.protocol", 1e6),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.get_us": self_ms("server.cache.get", 1e6),
        "cache.put_us": self_ms("server.cache.put", 1e6),
        "cache.resident_bytes": http.scraped.get("repro_cache_bytes", 0.0),
        "pool.start_s": traced.pool_start_seconds,
        "pool.execute_ms": fact_ms("pool_seconds"),
        "pool.ipc_overhead_ms": median(ipc_seconds) * 1000.0,
        "pool.reply_bytes": median([f["reply_bytes"] for f in executions]),
        "pool.broadcast_update_ms": self_ms("server.pool.broadcast"),
        "pool.worker_restarts": http.scraped.get("repro_worker_restarts_total", 0.0),
        "parser.parse_ms": fact_ms("parse_seconds", planned),
        "transform.plan_ms": fact_ms("transform_seconds", planned),
        "engine.plan_cache_hit_ratio": 1.0 - len(planned) / len(executions),
        "evaluator.execute_ms": fact_ms("execute_seconds"),
        "evaluator.candidate_intersections": counter("candidate_intersections"),
        "evaluator.rows_materialized": counter("rows_materialized"),
        "bgp.gallop_probes": counter("gallop_probes"),
        "bgp.terms_decoded": counter("terms_decoded"),
        "results.serialize_ms": fact_ms("serialize_seconds"),
        "results.mb_per_s": payload_bytes / 1e6 / serialize_seconds,
        "results.bytes_per_row": payload_bytes / max(rows, 1),
        "storage.snapshot_load_ms": traced.load_seconds * 1000.0,
        "storage.first_query_ms": next(s.duration for s in spans if s.name == "worker") * 1000.0,
        "storage.update_apply_ms": self_ms("storage.update"),
        "storage.overlay_read_ratio": traced.overlay_read_seconds / traced.frozen_read_seconds,
        "storage.compact_s": median([s.duration for s in spans if s.name == "storage.compact"]),
        "wal.append_us": self_ms("storage.wal.append", 1e6),
        "wal.fsync_ms": wal_stats["fsync_seconds"] / max(wal_stats["fsync_count"], 1) * 1000.0,
        "wal.fsyncs_per_update": wal_stats["fsync_count"] / max(wal_stats["records_total"], 1),
        "wal.bytes_per_update": traced.wal_bytes_per_insert,
        "trace.overhead_ratio": (
            traced.wall_seconds - span_seconds("server.pool", "server.pool.broadcast")
        ) / untraced_wall,
        "trace.unattributed_ms": median(unattributed) * 1000.0,
    }

    # Where the HTTP wall of the prefix's reads went, as shares: each
    # layer's summed time in T over the summed client wall in H.
    http_wall = sum(over_http[i].seconds for i in read_indexes)
    shares = {
        "evaluator": sum(f["execute_seconds"] for f in executions),
        "results": serialize_seconds,
        "parser": sum(f["parse_seconds"] for f in executions),
        "transform": sum(f["transform_seconds"] for f in executions),
        "pool_ipc": sum(ipc_seconds),
        "protocol": span_seconds("server.protocol"),
        "cache": span_seconds("server.cache.get", "server.cache.put"),
    }
    extras = {f"share.{layer}": (seconds / http_wall, "ratio") for layer, seconds in shares.items()}
    extras["share.http_and_rest"] = (1.0 - sum(shares.values()) / http_wall, "ratio")
    return metrics, extras


def run_traced(workload: str, seed: int, divisor: int = 1) -> RunResult:
    """Every declared per-layer metric for ``workload``, by name.

    ``divisor`` shrinks the prefix and every probe (``--smoke``).
    """
    threshold = int(SERVER["compact_threshold"]) if workload == "read_write" else 0
    cache_entries = cache_entries_for(workload)
    pipelines: Dict[str, Pipeline] = {}
    with scratch_directory() as workdir:
        inputs = generate_inputs(workdir, datasets_for(workload))
        entities = entities_from_ntriples(inputs["lubm"])
        log = build_log(workload, seed, entities, LOG_REQUESTS[workload] // divisor)
        prefix = trace_prefix(workload, log, divisor)
        metrics: Dict[str, float] = {}

        pristine: Dict[str, Path] = {}
        for name, ntriples in inputs.items():
            pristine[name] = workdir / f"{name}.snap"
            ingest_seconds, save_seconds, triples = ingest(ntriples, pristine[name])
            if name == "lubm":
                metrics["storage.ingest_s"] = ingest_seconds
                metrics["storage.snapshot_save_s"] = save_seconds
                metrics["storage.bytes_per_triple"] = os.path.getsize(pristine[name]) / triples

        def copies(tag: str) -> Dict[str, Path]:
            """Each pass writes (updates, compaction): it gets its own snapshots."""
            made = {}
            for name, source in pristine.items():
                made[name] = workdir / f"{name}-{tag}.snap"
                shutil.copyfile(source, made[name])
            return made

        try:
            recorder = SpanRecorder()
            pipelines = {
                name: Pipeline(snapshot, cache_entries, recorder, True, threshold)
                for name, snapshot in copies("t").items()
            }
            traced = _traced_pass(
                pipelines, recorder, prefix, pristine["lubm"],
                entities[: max(OVERLAY_SAMPLE // divisor, 3)],
                max(PROBE_INSERTS // divisor, 4), max(PROBE_DELETES // divisor, 2),
            )
            for pipeline in pipelines.values():
                pipeline.close()

            pipelines = {
                name: Pipeline(snapshot, cache_entries, NullRecorder(), False, threshold)
                for name, snapshot in copies("u").items()
            }
            untraced_wall = _replay_prefix(pipelines, prefix)
        finally:
            for pipeline in pipelines.values():
                pipeline.close()
            stop_resource_tracker()  # else it outlives this process

        oracles = {name: Oracle(ntriples) for name, ntriples in inputs.items()}
        metrics.update(
            _reference_pass(pristine, oracles, prefix, max(REFERENCE_QUERIES // divisor, 2))
        )
        http = _http_pass(workload, copies("h"), prefix, max(KEEPALIVE_REQUESTS // divisor, 2))
        verdict = check_replay(prefix, http.observations, http.payloads, oracles)
        table, extras = _table(traced, untraced_wall, http, prefix)
        metrics.update(table)
        return RunResult(metrics, extras, verdict, samples=traced.reads)
