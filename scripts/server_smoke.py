#!/usr/bin/env python
"""End-to-end smoke of ``repro serve`` as a real subprocess.

Builds a tiny LUBM snapshot, starts the server the way an operator
would (``python -m repro serve``), then drives the SPARQL protocol
with urllib only:

1. ``GET /sparql`` returning JSON byte-identical to single-process
   ``repro query --format json``, and a query of more than
   ``CHUNK_ROWS`` rows, which the server (run with ``--cache-entries
   0``) relays from its worker frame by frame, in JSON and CSV
   byte-identical to ``repro query``;
2. ``POST`` (urlencoded) with CSV content negotiation, and ``POST``
   with a direct ``application/sparql-query`` body;
3. a pathological query that must trip the per-query timeout (504)
   without taking the server down;
4. ``/healthz`` and ``/metrics`` sanity, then the observability loop:
   a header-activated trace that round-trips through the worker pool
   with the request id echoed, ``/debug/templates`` accumulating the
   replayed query family, and the slow-query log filling on disk;
5. SIGINT → orderly shutdown with exit code 0.

``--chaos`` runs the operator-facing chaos smoke instead: the same
server binary under a seeded ``--faults`` schedule (worker crashes plus
probabilistic cache faults) with the result cache off, a fixed workload
(the multi-frame query in JSON and CSV included) where every response
must be byte-identical-or-well-formed-5xx, fault/restart accounting visible
in ``/metrics``, the roster healed to full strength afterwards, and a
SIGTERM drain that still exits 0 with the shutdown banner.

``--crash`` runs the durability smoke: ``repro serve --wal`` under a
seeded kill/restart schedule with the WAL fault sites armed
(probabilistic ``wal.append`` failures — those updates get 5xx and are
exempt from the contract).  Each round streams updates, SIGKILLs the
server at a seeded point mid-stream, restarts it on the same snapshot
+ WAL, and requires every 2xx-acked update to be present; the final
round drains via SIGTERM (exit 0) and ``repro wal info`` must verify
the log clean.

Any failure exits non-zero; CI runs the modes as separate jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
from repro.sparql.results import CHUNK_ROWS  # noqa: E402

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
QUERY = f"SELECT ?x ?y WHERE {{ ?x <{UB}headOf> ?y }}"
SLOW_QUERY = "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"
#: Every triple of the snapshot: more than CHUNK_ROWS rows, so the
#: worker ships the answer as several raw pipe frames.
BIG_QUERY = "SELECT * WHERE { ?s ?p ?o }"


def run_cli(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=text,
        env=env,
        timeout=300,
        check=False,
    )


def cli_body(snap_path: str, query: str, fmt: str) -> bytes:
    """``repro query``'s output as the server's body: the CLI ends a
    JSON document with a newline, the server does not.  Bytes, so CSV
    keeps its CRLF line ends."""
    reference = run_cli("query", snap_path, query, "--format", fmt, text=False)
    check(reference.returncode == 0, f"reference CLI query ran ({fmt})")
    return reference.stdout[:-1] if fmt == "json" else reference.stdout


def sparql_url(base: str, query: str, fmt: str = "json") -> str:
    return base + "/sparql?" + urllib.parse.urlencode({"query": query, "format": fmt})


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {message}")


def http(url: str, data=None, headers=None, timeout=60):
    request = urllib.request.Request(url, data=data, headers=headers or {})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def build_snapshot() -> str:
    tmp = tempfile.mkdtemp(prefix="repro-smoke-")
    nt_path = os.path.join(tmp, "lubm.nt")
    snap_path = os.path.join(tmp, "lubm.snap")
    generated = run_cli(
        "generate", "lubm", nt_path, "--universities", "1", "--snapshot", snap_path
    )
    check(generated.returncode == 0, "snapshot generated")
    return snap_path


def spawn_server(snap_path: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", snap_path, "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def read_banner(server: subprocess.Popen) -> str:
    assert server.stdout is not None
    banner = server.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)/sparql", banner)
    check(match is not None, f"server banner announces the endpoint: {banner!r}")
    return f"http://127.0.0.1:{match.group(1)}"  # type: ignore[union-attr]


def wait_healthy(base: str, want_status: str = "", deadline_seconds: float = 60) -> None:
    deadline = time.time() + deadline_seconds
    last = "never reached"
    while time.time() < deadline:
        try:
            _, _, body = http(base + "/healthz", timeout=5)
            document = json.loads(body)
            last = document.get("status", "?")
            if not want_status or last == want_status:
                check(True, f"healthz reports {last!r}")
                return
        except (urllib.error.URLError, ConnectionError):
            pass
        time.sleep(0.2)
    check(False, f"healthz never reached {want_status or 'any'!r} (last: {last})")


def chaos_main() -> int:
    snap_path = build_snapshot()
    workload = [
        (QUERY, "json"),
        (f"SELECT ?p WHERE {{ ?s ?p <{UB.rstrip('#')}#FullProfessor> }}", "json"),
        (BIG_QUERY, "json"),
        (BIG_QUERY, "csv"),
    ]
    references = {item: cli_body(snap_path, *item) for item in workload}

    # Seeded, deterministic schedule: each worker (and each respawned
    # replacement) crashes on its 3rd query; every 5th-ish cache lookup
    # fails in the parent.  The cache is off, so every request reaches
    # a worker and the multi-frame answers are relayed.
    spec = "worker.exec:crash@3;cache.get:io_error@0.2#seed=7"
    server = spawn_server(
        snap_path, "--workers", "2", "--timeout", "5", "--faults", spec, "--drain", "5",
        "--cache-entries", "0",
    )
    try:
        base = read_banner(server)
        wait_healthy(base, "ok")

        ok = errors = 0
        for index in range(24):
            item = workload[index % len(workload)]
            url = sparql_url(base, *item)
            started = time.time()
            try:
                status, _, body = http(url, timeout=30)
                check(status == 200, f"request {index}: status {status}")
                check(
                    body == references[item],
                    f"request {index}: 200 body byte-identical to the CLI",
                )
                ok += 1
            except urllib.error.HTTPError as exc:
                check(
                    exc.code in (500, 503, 504),
                    f"request {index}: well-formed failure status (got {exc.code})",
                )
                document = json.loads(exc.read())
                check("error" in document, f"request {index}: JSON error document")
                errors += 1
            check(
                time.time() - started < 25,
                f"request {index}: bounded latency under faults",
            )
        print(f"ok: workload survived chaos ({ok} exact answers, {errors} clean 5xx)")
        check(ok >= 12, f"most requests answered exactly ({ok}/24)")
        check(errors >= 1, "the crash schedule actually fired")

        # The damage is visible in /metrics …
        _, _, body = http(base + "/metrics")
        text = body.decode()
        restarts = re.search(r"repro_worker_restarts_total (\d+)", text)
        check(
            restarts is not None and int(restarts.group(1)) >= 1,
            "worker restarts counted in metrics",
        )
        check(
            'repro_faults_injected_total{site="cache.get"}' in text,
            "parent-side injections surfaced in metrics",
        )
        check("repro_snapshot_fallbacks_total 0" in text, "no snapshot fallbacks")
        check("repro_degraded_state" in text, "degraded-state gauge exposed")

        # … and temporary: the heal path restores the full roster.
        wait_healthy(base, "ok")

        # SIGTERM: drain and exit cleanly.
        server.send_signal(signal.SIGTERM)
        stdout, _ = server.communicate(timeout=60)
        check(server.returncode == 0, f"clean SIGTERM exit (code {server.returncode})")
        check("shutdown complete" in stdout, "shutdown message printed")
        print("\nchaos smoke: all checks passed")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(30)


def crash_main(seed: int = 7) -> int:
    import random

    snap_path = build_snapshot()
    wal_path = os.path.join(os.path.dirname(snap_path), "updates.wal")
    rng = random.Random(seed)
    ex = "http://example.org/crashsmoke#"
    live_query = f"SELECT ?s WHERE {{ ?s <{ex}tag> <{ex}on> }} ORDER BY ?s"

    def wal_server(*extra: str) -> subprocess.Popen:
        # The WAL fault sites are armed on every boot: ~10% of appends
        # fail (seeded), so some updates are refused with a 5xx — the
        # durability contract only covers the acked ones.
        return spawn_server(
            snap_path,
            "--workers", "1",
            "--timeout", "10",
            "--wal", wal_path,
            "--wal-fsync", "interval",
            "--faults", f"wal.append:io_error@0.1#seed={seed}",
            "--drain", "5",
            *extra,
        )

    acked: list = []
    update_counter = 0
    rounds = 3
    for round_no in range(rounds):
        server = wal_server()
        try:
            base = read_banner(server)
            wait_healthy(base)

            # Restart rounds must come back serving every prior ack.
            _, _, body = http(
                base + "/sparql?" + urllib.parse.urlencode({"query": live_query})
            )
            present = sorted(
                row["s"]["value"]
                for row in json.loads(body)["results"]["bindings"]
            )
            for iri in acked:
                check(iri in present, f"round {round_no}: recovered ack {iri}")

            kill_after = rng.randint(2, 6)
            sent = 0
            while sent < kill_after:
                update_counter += 1
                iri = f"{ex}n{update_counter:03d}"
                try:
                    status, _, _ = http(
                        base + "/update",
                        data=f"INSERT DATA {{ <{iri}> <{ex}tag> <{ex}on> }}".encode(),
                        headers={"Content-Type": "application/sparql-update"},
                        timeout=30,
                    )
                except urllib.error.HTTPError as exc:
                    # An armed wal.append fault: unacked by design.
                    check(
                        exc.code == 500,
                        f"failed update {iri} is a well-formed 5xx ({exc.code})",
                    )
                    exc.read()
                else:
                    check(status == 200, f"update {iri} acked")
                    acked.append(iri)
                sent += 1
            print(
                f"ok: round {round_no}: {len(acked)} total acks, "
                f"SIGKILL after {kill_after} updates"
            )
            server.send_signal(signal.SIGKILL)
            server.wait(30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(30)

    # Final round: recovery after the last kill, an orderly SIGTERM
    # drain, and a clean `repro wal info` verdict.
    server = wal_server()
    try:
        base = read_banner(server)
        wait_healthy(base)
        _, _, body = http(
            base + "/sparql?" + urllib.parse.urlencode({"query": live_query})
        )
        present = sorted(
            row["s"]["value"] for row in json.loads(body)["results"]["bindings"]
        )
        for iri in acked:
            check(iri in present, f"final recovery serves ack {iri}")
        check(
            set(present) <= {f"{ex}n{i:03d}" for i in range(1, update_counter + 1)},
            "no phantom rows appeared",
        )
        _, _, body = http(base + "/healthz")
        health = json.loads(body)
        check(health["wal_depth"] >= len(acked), "healthz reports the WAL depth")
        _, _, body = http(base + "/metrics")
        text = body.decode()
        check("repro_wal_enabled 1" in text, "WAL gauge exposed")
        check("repro_wal_recoveries_total 1" in text, "recovery counted in metrics")

        server.send_signal(signal.SIGTERM)
        stdout, _ = server.communicate(timeout=60)
        check(server.returncode == 0, f"clean SIGTERM exit (code {server.returncode})")
        check("shutdown complete" in stdout, "shutdown message printed")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(30)

    verdict = run_cli("wal", "info", wal_path)
    check(verdict.returncode == 0, "repro wal info verifies the drained log clean")
    check("integrity" in verdict.stdout, "wal info prints the integrity line")
    print(f"\ncrash smoke: all checks passed ({len(acked)} acked updates survived)")
    return 0


def main() -> int:
    snap_path = build_snapshot()
    slow_log = os.path.join(os.path.dirname(snap_path), "slow.jsonl")

    reference = run_cli("query", snap_path, QUERY, "--format", "json")
    check(reference.returncode == 0, "reference CLI query ran")

    server = spawn_server(
        snap_path,
        "--workers", "2",
        "--timeout", "1",
        # Every answer comes from a worker; a multi-frame one is relayed.
        "--cache-entries", "0",
        # Observability smoke: everything qualifies as "slow" so the
        # structured log provably fills, and traces round-trip.
        "--slow-query-ms", "0.01",
        "--slow-query-log", slow_log,
    )
    try:
        assert server.stdout is not None
        banner = server.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)/sparql", banner)
        check(match is not None, f"server banner announces the endpoint: {banner!r}")
        base = f"http://127.0.0.1:{match.group(1)}"  # type: ignore[union-attr]

        deadline = time.time() + 60
        ready = False
        while time.time() < deadline and not ready:
            try:
                status, _, _ = http(base + "/healthz", timeout=5)
                ready = status == 200
            except (urllib.error.URLError, ConnectionError):
                time.sleep(0.2)
        check(ready, "healthz became ready in time")

        # 1. GET, byte-identical to the single-process CLI.
        url = base + "/sparql?" + urllib.parse.urlencode({"query": QUERY})
        status, headers, body = http(url)
        check(status == 200, "GET /sparql returns 200")
        check(
            headers["Content-Type"] == "application/sparql-results+json",
            "JSON content type negotiated",
        )
        check(
            body.decode() + "\n" == reference.stdout,
            "server JSON byte-identical to `repro query --format json`",
        )
        rows = len(json.loads(body)["results"]["bindings"])
        check(rows > 0, f"query returned rows ({rows})")

        # 1b. A multi-frame answer, relayed from the worker frame by
        #     frame, byte-identical to the CLI in JSON and in CSV.
        for fmt in ("json", "csv"):
            status, headers, body = http(sparql_url(base, BIG_QUERY, fmt))
            check(status == 200, f"multi-frame {fmt} query returns 200")
            check(
                int(headers["Content-Length"]) == len(body),
                f"multi-frame {fmt} body matches its Content-Length",
            )
            check(
                body == cli_body(snap_path, BIG_QUERY, fmt),
                f"multi-frame {fmt} body byte-identical to `repro query`",
            )
            if fmt == "json":
                rows = len(json.loads(body)["results"]["bindings"])
                check(rows > CHUNK_ROWS, f"it spans several frames ({rows} rows)")

        # 2a. POST urlencoded + Accept: text/csv.
        status, headers, body = http(
            base + "/sparql",
            data=urllib.parse.urlencode({"query": QUERY}).encode(),
            headers={
                "Content-Type": "application/x-www-form-urlencoded",
                "Accept": "text/csv",
            },
        )
        check(status == 200 and headers["Content-Type"].startswith("text/csv"),
              "POST urlencoded negotiates CSV")
        check(body.decode().splitlines()[0] == "x,y", "CSV header row present")

        # 2b. POST direct application/sparql-query.
        status, _, body = http(
            base + "/sparql?format=tsv",
            data=QUERY.encode(),
            headers={"Content-Type": "application/sparql-query"},
        )
        check(status == 200 and body.decode().splitlines()[0] == "?x\t?y",
              "POST direct body negotiates TSV")

        # 3. Timeout path: the cartesian monster must 504 quickly and
        #    leave the server serving.
        slow_url = base + "/sparql?" + urllib.parse.urlencode({"query": SLOW_QUERY})
        started = time.time()
        try:
            http(slow_url, timeout=120)
            check(False, "slow query should not succeed")
        except urllib.error.HTTPError as exc:
            check(exc.code == 504, f"slow query returns 504 (got {exc.code})")
            check(time.time() - started < 30, "timeout fired promptly")
        status, _, _ = http(url)
        check(status == 200, "server keeps serving after a timeout")

        # 4. Metrics.
        status, _, body = http(base + "/metrics")
        text = body.decode()
        check(status == 200 and 'repro_requests_total{status="200"}' in text,
              "metrics exposition renders")
        check("repro_timeouts_total 1" in text, "timeout counted in metrics")
        check("repro_query_seconds_bucket" in text,
              "latency histogram buckets exposed")

        # 4b. Trace smoke: a header-activated trace round-trips through
        #     the worker pool with the client's request id echoed (the
        #     result cache is off, so the request reaches the pool).
        traced_url = base + "/sparql?" + urllib.parse.urlencode({"query": QUERY})
        status, headers, body = http(
            traced_url,
            headers={"X-Repro-Trace": "1", "X-Request-Id": "smoke-trace-1"},
        )
        check(status == 200, "traced GET /sparql returns 200")
        check(
            headers.get("X-Repro-Request-Id") == "smoke-trace-1",
            "client request id honored and echoed",
        )
        check("X-Repro-Generation" in headers, "generation header present")
        document = json.loads(body)
        repro = document.get("extensions", {}).get("repro", {})
        check(repro.get("request_id") == "smoke-trace-1",
              "trace extensions carry the request id")
        trace = repro.get("trace") or {}
        span_names = {child.get("name") for child in trace.get("children", ())}
        check("pool" in span_names, "parent-side pool span present")

        def find_span(node, name):
            if node.get("name") == name:
                return node
            for child in node.get("children", ()):  # depth-first
                found = find_span(child, name)
                if found is not None:
                    return found
            return None

        worker_span = find_span(trace, "worker")
        check(worker_span is not None, "worker span stitched under the request")
        check(
            worker_span.get("meta", {}).get("request_id") == "smoke-trace-1",
            "worker span carries the same request id",
        )
        check(find_span(trace, "scan") is not None,
              "per-operator scan span crossed the pipe")

        # 4c. /debug/templates: the replayed query family (same shape,
        #     different constants would fold too) has accumulated stats.
        status, _, body = http(base + "/debug/templates")
        check(status == 200, "GET /debug/templates returns 200")
        registry = json.loads(body)
        busiest = (registry.get("templates") or [{}])[0]
        check(busiest.get("count", 0) >= 2,
              f"busiest template replayed (count {busiest.get('count')})")
        check(busiest.get("latency_ms", {}).get("p50", 0) > 0,
              "template latency quantiles populated")

        # 4d. Slow-query log written (threshold set to ~everything).
        deadline = time.time() + 10
        entries = []
        while time.time() < deadline and not entries:
            try:
                with open(slow_log, "r", encoding="utf-8") as handle:
                    entries = [json.loads(line) for line in handle if line.strip()]
            except OSError:
                pass
            if not entries:
                time.sleep(0.2)
        check(bool(entries), "slow-query log written")
        check(
            any(entry.get("request_id") == "smoke-trace-1" for entry in entries),
            "slow-query log entry carries the request id",
        )
        check(
            any(entry.get("template") for entry in entries),
            "slow-query log entries carry template hashes",
        )

        # 5. Orderly shutdown.
        server.send_signal(signal.SIGINT)
        stdout, stderr = server.communicate(timeout=60)
        check(server.returncode == 0, f"clean exit (code {server.returncode})")
        check("shutdown complete" in (banner + stdout),
              "shutdown message printed")
        print("\nserver smoke: all checks passed")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(30)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the fault-injection chaos smoke instead of the protocol smoke",
    )
    parser.add_argument(
        "--crash",
        action="store_true",
        help="run the WAL durability smoke: seeded kill -9 / restart "
        "schedule with the wal.* fault sites armed",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="schedule seed for --crash"
    )
    arguments = parser.parse_args()
    if arguments.crash:
        raise SystemExit(crash_main(arguments.seed))
    raise SystemExit(chaos_main() if arguments.chaos else main())
