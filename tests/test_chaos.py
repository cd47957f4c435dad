"""Chaos suite: a real server under seeded fault schedules.

Each scenario boots a full :class:`~repro.server.app.SparqlServer`
(spawned workers, ephemeral port) with a deterministic fault schedule
armed via ``ServerConfig.faults``, drives a fixed workload through
HTTP, and holds the failure-model contract:

1. every response is either **byte-identical** to the in-process
   engine's answer or a **well-formed 5xx/4xx** (JSON error document);
2. no request hangs past the hard deadline plus a scheduling margin;
3. the worker roster is **back to full strength** by the end — faults
   consume capacity temporarily, never permanently;
4. shutdown is clean.

The storage-site schedules (snapshot.read_section, snapshot.write,
bulkload.line) fire during *startup* in a server context and are
covered as unit tests in ``test_faults.py`` instead.  The centerpiece
here is the last-good-generation test: the snapshot goes bad on disk
while the server runs, a worker dies, and the survivors keep serving
while the heal thread retries — the crash-loop that motivated the
whole subsystem.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import SparqlUOEngine
from repro.datasets.lubm import generate_lubm
from repro.server import ServerConfig, SparqlServer
from repro.sparql.results import to_json
from repro.storage import TripleStore

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
QUERY_HEADOF = f"SELECT ?x ?y WHERE {{ ?x <{UB}headOf> ?y }}"
QUERY_OPTIONAL = (
    f"SELECT ?x ?dept ?mail WHERE {{ ?x <{UB}worksFor> ?dept "
    f"OPTIONAL {{ ?x <{UB}emailAddress> ?mail }} }}"
)
QUERY_UNION = (
    f"SELECT ?p WHERE {{ {{ ?p <{UB}headOf> ?o }} UNION {{ ?p <{UB}teacherOf> ?o }} }}"
)
WORKLOAD = [QUERY_HEADOF, QUERY_UNION, QUERY_OPTIONAL] * 4


@pytest.fixture(scope="module")
def snap(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "lubm.snap"
    TripleStore.from_dataset(generate_lubm(universities=1, seed=42)).save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def expected(snap):
    """Ground truth straight from the in-process engine: the bytes any
    200 response must equal, regardless of what faults fired."""
    engine = SparqlUOEngine(TripleStore.load(snap), bgp_engine="wco", mode="full")
    answers = {}
    for query in set(WORKLOAD):
        result = engine.execute(query)
        answers[query] = to_json(result.variables, result.solutions).encode()
    return answers


def chaos_config(snap, spec, **overrides):
    defaults = dict(
        data=snap,
        port=0,
        workers=2,
        timeout=10.0,
        cache_entries=32,
        faults=spec,
        respawn_backoff_base=0.05,
        respawn_backoff_cap=0.2,
        respawn_window=5.0,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def sparql_get(server, query, timeout=60):
    url = server.url + "/sparql?" + urllib.parse.urlencode({"query": query})
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def wait_for(predicate, deadline=20.0, interval=0.05):
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def drive_workload(server, expected, allow_drop=False):
    """Issue the fixed workload; enforce contract points 1 and 2."""
    outcomes = []
    budget = server.config.hard_timeout + 10.0  # margin for respawn waits
    for query in WORKLOAD:
        started = time.perf_counter()
        try:
            status, _, body = sparql_get(server, query, timeout=budget)
            assert status == 200
            assert body == expected[query], f"non-identical 200 for {query!r}"
        except urllib.error.HTTPError as exc:
            # Failure is allowed; a malformed failure is not.
            assert exc.code in (500, 503, 504), f"unexpected status {exc.code}"
            document = json.loads(exc.read())
            assert "error" in document
            status = exc.code
        except (urllib.error.URLError, ConnectionError, OSError):
            # A dropped connection is only acceptable for schedules
            # that sabotage response serialization itself.
            if not allow_drop:
                raise
            status = -1
        assert time.perf_counter() - started < budget + 5.0, "request overran deadline"
        outcomes.append(status)
    return outcomes


def assert_roster_heals(server):
    assert wait_for(
        lambda: server.pool.stats()["alive"] == server.pool.stats()["target"]
    ), f"roster never healed: {server.pool.stats()}"


# ----------------------------------------------------------------------
# the chaos matrix
# ----------------------------------------------------------------------
class TestChaosMatrix:
    @pytest.mark.parametrize(
        ("spec", "min_ok"),
        [
            # Every *replacement* worker arms the same schedule, so a
            # crash on each worker's 2nd exec keeps recurring: at worst
            # every worker lifetime yields 1 ok + 1 error.
            ("worker.exec:crash@2", 5),  # hard process death mid-request
            ("worker.exec:oom@2", 5),  # MemoryError → announced crash path
            # Parent-side rules count hits process-globally: @2 fires once.
            ("worker.send:io_error@2", 10),  # request pipe breaks
            ("worker.recv:io_error@2", 10),  # reply pipe breaks
            # Fires once per worker (each arms fresh counters).
            ("engine.checkpoint:io_error@1", 9),  # engine-internal I/O failure
            ("cache.get:io_error@1+", 12),  # cache lookup always failing
            ("cache.put:io_error@1+", 12),  # cache admission always failing
        ],
    )
    def test_schedule_holds_contract(self, snap, expected, spec, min_ok):
        with SparqlServer(chaos_config(snap, spec)) as server:
            outcomes = drive_workload(server, expected)
            # The workload must not be wiped out: most answers arrive.
            assert outcomes.count(200) >= min_ok
            if spec.startswith("cache."):
                # A failing cache is invisible: every answer correct,
                # and the injections are visible in /metrics.
                assert outcomes.count(200) == len(WORKLOAD)
                with urllib.request.urlopen(server.url + "/metrics", timeout=30) as r:
                    text = r.read().decode()
                site = spec.split(":")[0]
                assert f'repro_faults_injected_total{{site="{site}"}}' in text
            assert_roster_heals(server)

    def test_response_serialization_fault_drops_connection_only(
        self, snap, expected
    ):
        # The 3rd response write aborts: that one client loses its
        # connection (exactly what a mid-response hangup looks like),
        # everyone else is answered correctly.
        with SparqlServer(chaos_config(snap, "server.respond:io_error@3")) as server:
            outcomes = drive_workload(server, expected, allow_drop=True)
            assert outcomes.count(-1) <= 1
            assert outcomes.count(200) >= len(WORKLOAD) - 1
            assert_roster_heals(server)

    def test_no_injection_when_disarmed(self, snap, expected):
        with SparqlServer(chaos_config(snap, "")) as server:
            assert all(s == 200 for s in drive_workload(server, expected))
            with urllib.request.urlopen(server.url + "/metrics", timeout=30) as r:
                text = r.read().decode()
            # The family is declared but no site ever fired a sample.
            assert "# TYPE repro_faults_injected_total counter" in text
            assert "repro_faults_injected_total{" not in text
            assert "repro_degraded_state 0" in text


# ----------------------------------------------------------------------
# stale-while-error (opt-in)
# ----------------------------------------------------------------------
class TestStaleWhileError:
    def test_stale_serving_end_to_end(self, snap, expected):
        config = chaos_config(snap, "", workers=1, stale_while_error=True)
        with SparqlServer(config) as server:
            _, _, first = sparql_get(server, QUERY_HEADOF)
            assert first == expected[QUERY_HEADOF]
            # Kill the only worker; the dead-pipe error reply triggers
            # the stale path for the cached query.  The *cache hit*
            # would normally answer first — bypass it by moving the
            # generation on: the entry stays resident for get_stale.
            victim = server.pool._workers[0]
            victim.proc.kill()
            victim.proc.join(10)
            server.generation += 1  # skip the fresh-hit fast path
            status, headers, body = sparql_get(server, QUERY_HEADOF)
            assert status == 200
            assert headers.get("X-Repro-Stale") == "1"
            assert body == first
            assert server.metrics.stale_served_total >= 1
            assert_roster_heals(server)

    def test_stale_answer_is_traced_logged_and_counted(self, snap, tmp_path):
        log_path = tmp_path / "slow.jsonl"
        config = chaos_config(
            snap,
            "",
            workers=1,
            stale_while_error=True,
            slow_query_ms=0.001,  # every request qualifies as slow
            slow_query_log=str(log_path),
        )
        with SparqlServer(config) as server:
            sparql_get(server, QUERY_HEADOF)
            victim = server.pool._workers[0]
            victim.proc.kill()
            victim.proc.join(10)
            server.generation += 1
            url = server.url + "/sparql?" + urllib.parse.urlencode({"query": QUERY_HEADOF})
            request = urllib.request.Request(
                url, headers={"X-Repro-Trace": "1", "X-Request-Id": "stale-trace-1"}
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                headers, body = dict(response.headers), response.read()
            assert headers.get("X-Repro-Stale") == "1"
            assert headers.get("X-Repro-Cache") == "stale"
            repro = json.loads(body)["extensions"]["repro"]
            assert repro["cache"] == "stale"
            assert repro["request_id"] == "stale-trace-1"
            assert repro["trace"]["name"] == "request"
            logged = [json.loads(line) for line in open(log_path) if line.strip()]
            assert "stale-trace-1" in [entry["request_id"] for entry in logged]
            with urllib.request.urlopen(server.url + "/debug/templates", timeout=30) as r:
                templates = json.loads(r.read())["templates"]
            # The miss that filled the cache, then the stale answer.
            assert [entry["count"] for entry in templates] == [2]
            assert_roster_heals(server)

    def test_overload_shed_serves_stale(self, snap):
        """A request shed because every worker is busy and the wait bound
        is full honours stale-while-error like any other pool failure:
        the pool is the one admission point, consulted after the cache."""
        config = chaos_config(
            snap, "", workers=1, timeout=3.0, queue_wait=2.0, stale_while_error=True
        )
        slow = "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"
        with SparqlServer(config) as server:
            _, _, first = sparql_get(server, QUERY_HEADOF)
            # A write that matches the cached query's pattern: the entry
            # can no longer be served fresh, only stale.
            post_update(server, f"INSERT DATA {{ <{EXC}h> <{UB}headOf> <{EXC}d> }}")

            def issue() -> None:
                try:
                    sparql_get(server, slow, timeout=30)
                except urllib.error.HTTPError:
                    pass  # 504 (the one executing) or 503 (the waiters)

            saturating = 1 + config.effective_queue_size
            threads = [threading.Thread(target=issue) for _ in range(saturating)]
            for thread in threads:
                thread.start()
            # One slow query executes and queue_size more wait for the
            # worker; the deadline stays well inside queue_wait.
            wait_for(lambda: server.metrics.inflight >= saturating, deadline=1.0)
            shed_before = server.metrics.shed_total
            try:
                status, headers, body = sparql_get(server, QUERY_HEADOF)
            finally:
                for thread in threads:
                    thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            assert status == 200
            assert headers.get("X-Repro-Stale") == "1"
            assert body == first
            assert server.metrics.shed_total > shed_before

    def test_stale_is_off_by_default(self, snap):
        config = chaos_config(snap, "", workers=1)
        with SparqlServer(config) as server:
            sparql_get(server, QUERY_HEADOF)
            victim = server.pool._workers[0]
            victim.proc.kill()
            victim.proc.join(10)
            server.generation += 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                sparql_get(server, QUERY_HEADOF)
            assert excinfo.value.code == 500
            assert_roster_heals(server)


# ----------------------------------------------------------------------
# the centerpiece: in-place snapshot corruption does not take the
# server down (acceptance criterion: last-good-generation fallback)
# ----------------------------------------------------------------------
class TestLastGoodGeneration:
    def test_corrupt_rebuild_keeps_serving_last_good_generation(
        self, snap, expected, tmp_path
    ):
        live = tmp_path / "live.snap"
        good_bytes = open(snap, "rb").read()
        live.write_bytes(good_bytes)
        config = chaos_config(str(live), "", workers=2, queue_wait=15.0)
        with SparqlServer(config) as server:
            assert sparql_get(server, QUERY_HEADOF)[2] == expected[QUERY_HEADOF]

            # The snapshot is "rebuilt in place" and the rebuild tears:
            # the path now holds truncated garbage.  Replaced via
            # rename — a new inode, the way any rebuild (including our
            # own atomic_overwrite) lands — so running workers keep
            # serving their mmap of the *old* inode.  (Truncating the
            # same inode would SIGBUS every mapped reader; that is
            # precisely the failure atomic publishing exists to
            # prevent.)
            torn = tmp_path / "torn.tmp"
            torn.write_bytes(good_bytes[: len(good_bytes) // 3])
            os.replace(torn, live)

            # One worker dies mid-flight.  Its replacement cannot load
            # the torn file — that is a snapshot fallback, not a crash
            # loop.
            victim = server.pool._workers[0]
            victim.proc.kill()
            victim.proc.join(10)

            # Touch the pool until the dead worker is discovered (the
            # idle queue round-robins, so at most a few requests), while
            # every response stays within the contract.
            saw_error = False
            for query in [QUERY_HEADOF, QUERY_UNION, QUERY_OPTIONAL] * 2:
                try:
                    status, _, body = sparql_get(server, query, timeout=60)
                    assert body == expected[query]
                except urllib.error.HTTPError as exc:
                    assert exc.code in (500, 503, 504)
                    saw_error = True
            assert saw_error or server.pool.stats()["alive"] < 2

            # The failed respawn is classified and counted; capacity is
            # degraded — but the endpoint still answers.
            assert wait_for(
                lambda: server.pool.stats()["snapshot_fallbacks"] >= 1
            ), f"no snapshot fallback recorded: {server.pool.stats()}"
            with urllib.request.urlopen(server.url + "/healthz", timeout=30) as r:
                health = json.loads(r.read())
            assert health["status"] == "degraded"
            assert health["alive"] == 1 and health["workers"] == 2
            assert health["snapshot_fallbacks"] >= 1
            with urllib.request.urlopen(server.url + "/metrics", timeout=30) as r:
                text = r.read().decode()
            assert "repro_degraded_state 1" in text
            fallback_lines = [
                line
                for line in text.splitlines()
                if line.startswith("repro_snapshot_fallbacks_total")
            ]
            assert fallback_lines and int(fallback_lines[0].split()[-1]) >= 1

            # The surviving worker keeps answering the last-good
            # generation, byte-identical.
            status, _, body = sparql_get(server, QUERY_HEADOF, timeout=60)
            assert status == 200 and body == expected[QUERY_HEADOF]

            # The operator restores the file; the heal thread (backoff,
            # not request arrival — the server is idle now) repairs the
            # roster on its own.
            fresh = tmp_path / "fresh.tmp"
            fresh.write_bytes(good_bytes)
            os.replace(fresh, live)
            assert wait_for(
                lambda: server.pool.stats()["alive"] == 2, deadline=30.0
            ), f"healer never recovered the roster: {server.pool.stats()}"
            with urllib.request.urlopen(server.url + "/healthz", timeout=30) as r:
                health = json.loads(r.read())
            assert health["status"] == "ok"
            # Same bytes restored → same generation → caching intact.
            assert not server.generation_mixed
            status, _, body = sparql_get(server, QUERY_HEADOF, timeout=60)
            assert status == 200 and body == expected[QUERY_HEADOF]


# ----------------------------------------------------------------------
# write-path chaos: delta admission and compaction publish faults
# ----------------------------------------------------------------------
EXC = "http://example.org/chaos#"
LIVE_QUERY = f"SELECT ?s WHERE {{ ?s <{EXC}tag> <{EXC}on> }}"


def post_update(server, text, timeout=60):
    request = urllib.request.Request(
        server.url + "/update",
        data=text.encode("utf-8"),
        headers={"Content-Type": "application/sparql-update"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def insert_stmt(i):
    return f"INSERT DATA {{ <{EXC}n{i}> <{EXC}tag> <{EXC}on> }}"


def live_count(server):
    status, _, body = sparql_get(server, LIVE_QUERY)
    assert status == 200
    return len(json.loads(body)["results"]["bindings"])


class TestWriteChaos:
    def test_delta_apply_fault_rejects_update_atomically(self, snap, tmp_path):
        """A failing write batch is rejected wholesale — parent-first
        application means the fleet never sees a poisoned update, the
        generation does not advance, and reads keep serving."""
        import shutil

        live = str(tmp_path / "wchaos.snap")
        shutil.copy(snap, live)
        config = chaos_config(live, "delta.apply:io_error@2", workers=2)
        with SparqlServer(config) as server:
            status, outcome = post_update(server, insert_stmt(0))
            assert status == 200 and outcome["added"] == 1
            assert live_count(server) == 1
            generation = server.generation

            # The 2nd parent-side admission fires the fault: the update
            # is rejected before any worker is asked to apply it.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_update(server, insert_stmt(1))
            assert excinfo.value.code == 500
            assert "error" in json.loads(excinfo.value.read())
            assert server.generation == generation
            assert server.pool.pending_replay == 1  # only the good one
            assert live_count(server) == 1

            # Reads are untouched; the roster never lost a worker.
            assert server.pool.stats()["alive"] == 2
            assert not server.generation_mixed

    def test_compact_publish_fault_keeps_snapshot_and_overlay(self, snap, tmp_path):
        """A failed compaction publish is absorbed: the on-disk
        snapshot keeps its pre-compaction bytes, the delta overlay and
        replay log stay intact, and the next threshold crossing retries
        and succeeds."""
        import shutil

        live = str(tmp_path / "cchaos.snap")
        shutil.copy(snap, live)
        before_bytes = open(live, "rb").read()
        config = chaos_config(
            live, "compact.publish:io_error@1", workers=1, compact_threshold=1
        )
        with SparqlServer(config) as server:
            status, _ = post_update(server, insert_stmt(0))
            assert status == 200
            # The background compaction fires the fault and aborts.
            assert wait_for(lambda: not server._compacting)
            assert server.metrics.compactions_total == 0
            assert open(live, "rb").read() == before_bytes
            assert server.pool.pending_replay == 1
            assert live_count(server) == 1

            # Next update crosses the threshold again; the single-shot
            # fault is spent, so this publish lands atomically.
            status, _ = post_update(server, insert_stmt(1))
            assert status == 200
            assert wait_for(lambda: server.metrics.compactions_total >= 1)
            assert wait_for(lambda: server.pool.pending_replay == 0)
            assert live_count(server) == 2

            # A cold open of the published file sees the folded delta at
            # the served generation.
            cold = TripleStore.load(live)
            try:
                assert cold.generation == server.generation
                assert len(cold) == len(TripleStore.load(snap)) + 2
            finally:
                cold.close()
            assert_roster_heals(server)

    @pytest.mark.parametrize("wal_name", ["", "replay.wal"], ids=["temporary_log", "wal"])
    def test_short_replay_scan_never_publishes_a_lagging_worker(
        self, snap, tmp_path, wal_name
    ):
        """A read error mid-scan hands respawn replay a prefix of the
        log.  The replacement must not serve until it has reached the
        fleet generation: the heal thread retries, and every read after
        the roster heals sees both committed updates."""
        import shutil

        from repro import faults

        live = str(tmp_path / "rchaos.snap")
        shutil.copy(snap, live)
        config = chaos_config(
            live,
            "wal.replay:io_error@1",
            workers=2,
            cache_entries=0,  # every read reaches a worker
            wal=str(tmp_path / wal_name) if wal_name else "",
        )
        with SparqlServer(config) as server:
            for i in range(2):
                status, _ = post_update(server, insert_stmt(i))
                assert status == 200
            victim = server.pool._workers[0]
            victim.proc.kill()
            victim.proc.join(10)

            def healed_after_fault():
                try:
                    sparql_get(server, LIVE_QUERY)  # surfaces the corpse
                except urllib.error.HTTPError:
                    pass
                return (
                    faults.injected_counts().get("wal.replay") == 1
                    and server.pool.stats()["alive"] == 2
                )

            assert wait_for(healed_after_fault, deadline=60.0, interval=0.1)
            for _ in range(8):
                assert live_count(server) == 2


# ----------------------------------------------------------------------
# crash recovery: kill -9 a real `repro serve` after acked updates
# ----------------------------------------------------------------------
CRASH_EX = "http://example.org/crash#"
CRASH_QUERY = (
    f"SELECT ?s WHERE {{ ?s <{CRASH_EX}tag> <{CRASH_EX}on> }} ORDER BY ?s"
)


def _crash_insert(i):
    return f"INSERT DATA {{ <{CRASH_EX}n{i}> <{CRASH_EX}tag> <{CRASH_EX}on> }}"


def _spawn_serve(data, wal, engine):
    import re
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", data,
            "--port", "0", "--workers", "1", "--timeout", "10",
            "--engine", engine, "--wal", wal, "--wal-fsync", "interval",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)/sparql", banner)
    assert match, f"no endpoint in banner {banner!r} (stderr: {proc.stderr.read() if proc.poll() is not None else '…'})"
    base = f"http://127.0.0.1:{match.group(1)}"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=5) as response:
                if json.loads(response.read()).get("status") in ("ok", "degraded"):
                    return proc, base
        except (urllib.error.URLError, ConnectionError):
            pass
        time.sleep(0.1)
    raise AssertionError("subprocess server never became healthy")


def _post_update_url(base, text, timeout=30):
    request = urllib.request.Request(
        base + "/update",
        data=text.encode("utf-8"),
        headers={"Content-Type": "application/sparql-update"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestCrashRecovery:
    """The acceptance criterion: kill -9 at any point after a 2xx ack
    loses zero updates.  A real ``repro serve`` subprocess is killed
    with SIGKILL mid-update-stream (one update still in flight), then
    restarted on the same snapshot + WAL; its answers must be
    byte-identical to an uncrashed in-process control that applied
    exactly the surviving updates."""

    @pytest.mark.parametrize("engine", ["wco", "hashjoin"])
    def test_kill9_after_ack_loses_zero_updates(self, snap, tmp_path, engine):
        import shutil
        import signal as signal_module
        import threading

        data = str(tmp_path / "crash.snap")
        shutil.copy(snap, data)
        wal = str(tmp_path / "crash.wal")

        proc, base = _spawn_serve(data, wal, engine)
        acked = []
        inflight_acked = []
        try:
            for i in range(4):
                status, outcome = _post_update_url(base, _crash_insert(i))
                assert status == 200 and outcome["changed"] is True
                acked.append(i)

            # One more update is on the wire when SIGKILL lands: the
            # contract makes no promise about it unless its 2xx ack
            # got back first.
            def racer():
                try:
                    status, _ = _post_update_url(base, _crash_insert(99))
                    if status == 200:
                        inflight_acked.append(99)
                except (urllib.error.URLError, ConnectionError, OSError):
                    pass

            thread = threading.Thread(target=racer)
            thread.start()
            os.kill(proc.pid, signal_module.SIGKILL)
            proc.wait(30)
            thread.join(15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)

        proc2, base2 = _spawn_serve(data, wal, engine)
        try:
            url = base2 + "/sparql?" + urllib.parse.urlencode({"query": CRASH_QUERY})
            with urllib.request.urlopen(url, timeout=60) as response:
                body = response.read()
            present = {
                row["s"]["value"]
                for row in json.loads(body)["results"]["bindings"]
            }
            must_have = {f"{CRASH_EX}n{i}" for i in acked + inflight_acked}
            may_have = must_have | {f"{CRASH_EX}n99"}
            assert must_have <= present <= may_have, (
                f"acked updates lost: wanted {sorted(must_have)}, "
                f"got {sorted(present)}"
            )

            # Byte-identical vs an uncrashed control: an in-process
            # engine over the original snapshot applying exactly the
            # updates the restarted server serves.
            control = SparqlUOEngine(TripleStore.load(snap), bgp_engine=engine, mode="full")
            for i in sorted(
                int(value.rsplit("n", 1)[1]) for value in present
            ):
                control.update(_crash_insert(i))
            result = control.execute(CRASH_QUERY)
            assert body == to_json(result.variables, result.solutions).encode()
            control.store.close()

            # And the recovery is visible on /healthz: no torn tail
            # (the kill landed between appends), WAL depth intact.
            with urllib.request.urlopen(base2 + "/healthz", timeout=30) as r:
                health = json.loads(r.read())
            assert health["wal_depth"] == len(present)
            assert health["recovered_torn_tail"] is False
        finally:
            proc2.send_signal(15)
            try:
                proc2.wait(30)
            except Exception:
                proc2.kill()
                proc2.wait(30)
