"""The untraced run: set the server up, replay for the clock, check answers."""

from __future__ import annotations

import os
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence
from urllib.parse import urlencode

from repro.sparql.results import to_json

from .check import Oracle, RunResult, Verdict, acked_updates, canonical_rows, check_replay
from .harness import (
    Replay,
    ServerProcess,
    fetch,
    generate_inputs,
    ingest,
    replay_closed_loop,
    scratch_directory,
    scrape_metrics,
    tree_peak_rss_mb,
)
from .spec import SERVER
from .stats import median, percentile, steady_windows, tail_percentile
from .workloads import (
    ACCEPT,
    LOG_REQUESTS,
    Request,
    build_log,
    canary_queries,
    entities_from_ntriples,
)

__all__ = ["SETUPS", "WARMUP_REQUESTS", "cache_entries_for", "datasets_for", "run_end_to_end"]

#: Untimed requests sent before the clock starts (the end of set-up):
#: two rounds of the workload's distinct requests, at most 50 — both
#: workers' plan caches have seen every repeated text.
WARMUP_REQUESTS = {"paper_uo": 48, "entity_zipf": 50, "bulk_rows": 24, "read_write": 50}
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: ``ServerConfig.cache_entries`` default — "result cache on".
DEFAULT_CACHE_ENTRIES = 256


def datasets_for(workload: str) -> Sequence[str]:
    return ("lubm", "dbpedia") if workload == "paper_uo" else ("lubm",)


def cache_entries_for(workload: str) -> int:
    return DEFAULT_CACHE_ENTRIES if workload in ("entity_zipf", "read_write") else 0


def start_servers(workload: str, inputs: Dict[str, Path], tag: str) -> Dict[str, ServerProcess]:
    """Ingest each dataset into a fresh snapshot and serve it."""
    servers: Dict[str, ServerProcess] = {}
    try:
        for name, ntriples in inputs.items():
            snapshot = ntriples.with_name(f"{name}-{tag}.snap")
            ingest(ntriples, snapshot)
            wal = snapshot.with_suffix(".wal") if workload == "read_write" else None
            servers[name] = ServerProcess(
                snapshot, cache_entries_for(workload), wal, int(SERVER["compact_threshold"])
            )
    except BaseException:
        stop_servers(servers)
        raise
    return servers


def stop_servers(servers: Dict[str, ServerProcess]) -> None:
    for server in servers.values():
        server.stop()


def _canary_bags(port: int) -> List[object]:
    bags = []
    for query in canary_queries():
        status, _, body = fetch(
            port, "GET", "/sparql?" + urlencode({"query": query}), b"", {"Accept": ACCEPT["json"]}
        )
        bags.append(canonical_rows(body, "json") if status == 200 else f"status {status}")
    return bags


def _check_written_state(
    verdict: Verdict, oracle: Oracle, updates: Sequence[str], live: List[object], recovered: List[object]
) -> None:
    """A control engine that applied the same acked updates must agree with
    the live server and with the server restarted from snapshot + WAL."""
    for text in updates:
        oracle.engine.update(text)
    expected = []
    for query in canary_queries():
        result = oracle.engine.execute(query)
        expected.append(canonical_rows(to_json(result.variables, result.solutions).encode(), "json"))
    verdict.attempted += 2
    if live != expected:
        verdict.fail("canary queries differ from the control engine on the live server")
    if recovered != expected:
        verdict.fail("an acked update was not readable after restart from snapshot + WAL")


def run_end_to_end(
    workload: str, seed: int, seconds: float, setups: int = SETUPS, log_divisor: int = 1
) -> RunResult:
    """Set up ``setups`` times, replay the log for ``seconds``, check every answer.

    ``log_divisor`` shortens the generated log and the warm-up (``--smoke``).
    """
    load_average = os.getloadavg()[0]
    servers: Dict[str, ServerProcess] = {}
    with scratch_directory() as workdir:
        try:
            inputs = generate_inputs(workdir, datasets_for(workload))
            log = build_log(
                workload, seed, entities_from_ntriples(inputs["lubm"]),
                LOG_REQUESTS[workload] // log_divisor,
            )
            entries = list(enumerate(log))
            warm = max(WARMUP_REQUESTS[workload] // log_divisor, 2)
            setup_seconds: List[float] = []
            for attempt in range(setups):
                stop_servers(servers)
                started = perf_counter()
                servers = start_servers(workload, inputs, f"s{attempt}")
                ports = {name: server.port for name, server in servers.items()}
                warmup = replay_closed_loop(ports, entries[:warm])
                setup_seconds.append(perf_counter() - started)

            timed = replay_closed_loop(ports, entries[warm:], seconds)

            peak_rss = sum(tree_peak_rss_mb(server.pid) for server in servers.values())
            scraped = scrape_metrics(ports.values())
            live = recovered = []
            if workload == "read_write":
                live = _canary_bags(ports["lubm"])
                stop_servers(servers)
                # Same snapshot (as compacted) + same WAL, new process.
                old = servers["lubm"]
                servers = {
                    "lubm": ServerProcess(
                        old.snapshot, old.cache_entries, old.wal, old.compact_threshold
                    )
                }
                recovered = _canary_bags(servers["lubm"].port)
            stop_servers(servers)
            servers = {}

            oracles = {name: Oracle(path) for name, path in inputs.items()}
            sent = warmup.observations + timed.observations
            verdict = check_replay(log, sent, {**warmup.payloads, **timed.payloads}, oracles)
            if workload == "read_write":
                _check_written_state(
                    verdict, oracles["lubm"], acked_updates(log, sent), live, recovered
                )
            return _summarize(
                workload, log, timed, seconds, verdict, setup_seconds, peak_rss, scraped, load_average
            )
        finally:
            stop_servers(servers)


def _summarize(
    workload: str,
    log: Sequence[Request],
    timed: Replay,
    seconds: float,
    verdict: Verdict,
    setup_seconds: List[float],
    peak_rss: float,
    scraped: Dict[str, float],
    load_average: float,
) -> RunResult:
    # Metrics come from the seconds during which the host ran at its own
    # best speed (see stats.steady_windows); the whole-run figures are
    # printed beside them as raw.*.
    windows = steady_windows(timed.spins, seconds)
    steady_seconds = sum(end - start for start, end in windows)
    ok = [o for o in timed.observations if 200 <= o.status < 300]
    steady = [o for o in ok if any(start <= o.finished < end for start, end in windows)]
    latencies = [o.seconds * 1000.0 for o in steady] or [0.0]
    raw = [o.seconds * 1000.0 for o in ok] or [0.0]
    updates = [o.seconds * 1000.0 for o in steady if log[o.index].check == "update"]
    tail = tail_percentile(len(latencies))

    def total(name: str) -> float:
        return scraped.get(name, 0.0)

    lookups = total("repro_cache_hits_total") + total("repro_cache_misses_total")
    metrics = {
        "qps": len(steady) / steady_seconds,
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "peak_rss_mb": peak_rss,
        "setup_s": median(setup_seconds),
    }
    extras = {
        "fail_ratio": (verdict.failed / max(verdict.attempted, 1), "ratio"),
        "client.steady_window_ratio": (steady_seconds / seconds, "ratio"),
        f"client.p{tail:g}_ms": (percentile(latencies, tail), "ms"),
        "client.p99_ms": (percentile(latencies, 99), "ms"),
        "client.loadgen_cpu_ratio": (timed.cpu_seconds / timed.wall_seconds, "ratio"),
        "host.spin_ms": (median([cpu for _, cpu in timed.spins]) * 1000.0, "ms"),
        "raw.qps": (len(ok) / timed.wall_seconds, "1/s"),
        "raw.p50_ms": (percentile(raw, 50), "ms"),
        "raw.p95_ms": (percentile(raw, 95), "ms"),
        # run.*: the server's own /metrics after the whole timed run (the
        # per-layer table has the same counters for the traced prefix).
        "run.cache_hit_ratio": (
            total("repro_cache_hits_total") / lookups if lookups else 0.0, "ratio",
        ),
        "run.shed_total": (total("repro_shed_total"), "count"),
        "run.worker_restarts": (total("repro_worker_restarts_total"), "count"),
        "load_average_1m": (load_average, "load"),
    }
    if workload == "read_write":
        extras["update_p50_ms"] = (percentile(updates or [0.0], 50), "ms")
        extras["update.samples"] = (float(len(updates)), "count")
        extras["run.compactions_total"] = (total("repro_compactions_total"), "count")
        fsyncs = total("repro_wal_fsync_seconds_count")
        extras["run.wal_fsyncs_per_update"] = (
            fsyncs / max(total("repro_updates_total"), 1.0), "ratio",
        )
    return RunResult(metrics, extras, verdict, samples=len(latencies))
