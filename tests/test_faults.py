"""Tests for the deterministic fault-injection framework.

Covers the spec grammar and trigger semantics of :mod:`repro.faults`
itself, then each *storage-layer* injection site end to end: torn vs
corrupt snapshot classification, atomic publishing (a failed write
never damages the previous file), quarantine-and-rebuild in the
dataset cache, and the worker pool's crash / OOM / pipe-error recovery
paths driven purely by injected faults.  Server-level chaos schedules
live in ``test_chaos.py``.
"""

from __future__ import annotations

import io
import json
import pickle
import time

import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.datasets.cache import cached_store, snapshot_path as cache_snapshot_path
from repro.datasets.lubm import generate_lubm
from repro.faults import FaultPlan, FaultSpecError, InjectedFaultError
from repro.server import ServerConfig
from repro.server.pool import WorkerPool
from repro.storage import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotTornError,
    TripleStore,
)
from repro.storage.snapshot import SnapshotReader, quarantine_snapshot

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
QUERY_HEADOF = f"SELECT ?x ?y WHERE {{ ?x <{UB}headOf> ?y }}"


@pytest.fixture(autouse=True)
def _disarm_after():
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def snap(tmp_path_factory):
    path = tmp_path_factory.mktemp("faults") / "lubm.snap"
    TripleStore.from_dataset(generate_lubm(universities=1, seed=42)).save(str(path))
    return str(path)


# ----------------------------------------------------------------------
# spec parsing and trigger semantics
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_full_grammar(self):
        plan = FaultPlan(
            "snapshot.read_section:io_error@3;worker.exec:crash@0.1;"
            "worker.recv:delay=0.2@2+#seed=7"
        )
        assert plan.seed == 7
        rules = {rule.site: rule for rule in plan.rules()}
        assert rules["snapshot.read_section"].at == 3
        assert not rules["snapshot.read_section"].repeat
        assert rules["worker.exec"].probability == 0.1
        assert rules["worker.recv"].arg == 0.2
        assert rules["worker.recv"].repeat and rules["worker.recv"].at == 2

    def test_delay_defaults_its_argument(self):
        (rule,) = FaultPlan("worker.exec:delay").rules()
        assert rule.arg == 0.05
        assert rule.at is None and rule.probability is None  # "@*" default

    @pytest.mark.parametrize(
        "spec",
        [
            "nonsense.site:io_error",  # unknown site
            "worker.exec:frobnicate",  # unknown kind
            "worker.exec",  # no kind at all
            "worker.exec:crash@0",  # hit counts are 1-based
            "worker.exec:crash@1.5",  # probability out of (0,1)
            "worker.exec:crash@0.5+",  # '+' only composes with counts
            "worker.exec:crash@wat",  # unparseable trigger
            "worker.exec:delay=slow",  # unparseable argument
            "worker.exec:crash#tempo=3",  # unknown option
            "#seed=3",  # no rules
            "",  # empty spec
        ],
    )
    def test_rejected_specs(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan(spec)

    def test_nth_hit_fires_exactly_once(self):
        plan = FaultPlan("worker.exec:io_error@3")
        plan.fire("worker.exec")
        plan.fire("worker.exec")
        with pytest.raises(InjectedFaultError) as excinfo:
            plan.fire("worker.exec")
        assert excinfo.value.site == "worker.exec"
        plan.fire("worker.exec")  # the 4th hit passes again
        assert plan.counts() == {"worker.exec": 1}

    def test_from_nth_hit_onward(self):
        plan = FaultPlan("worker.exec:io_error@2+")
        plan.fire("worker.exec")
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                plan.fire("worker.exec")
        assert plan.counts() == {"worker.exec": 3}

    def test_probability_is_deterministic_per_seed(self):
        def schedule(spec):
            plan = FaultPlan(spec)
            fired = []
            for index in range(200):
                try:
                    plan.fire("worker.exec")
                except InjectedFaultError:
                    fired.append(index)
            return fired

        first = schedule("worker.exec:io_error@0.3#seed=7")
        assert first == schedule("worker.exec:io_error@0.3#seed=7")
        assert first != schedule("worker.exec:io_error@0.3#seed=8")
        assert 20 <= len(first) <= 120  # ~60 expected

    def test_injected_error_is_an_oserror(self):
        with pytest.raises(OSError):
            FaultPlan("cache.get:io_error").fire("cache.get")

    def test_oom_kind_raises_memoryerror(self):
        with pytest.raises(MemoryError):
            FaultPlan("worker.exec:oom").fire("worker.exec")

    def test_delay_kind_sleeps(self):
        plan = FaultPlan("worker.exec:delay=0.05")
        started = time.perf_counter()
        plan.fire("worker.exec")
        assert time.perf_counter() - started >= 0.04

    def test_unlisted_site_is_a_no_op(self):
        plan = FaultPlan("worker.exec:io_error")
        plan.fire("cache.get")  # no rule for the site: nothing happens
        assert plan.counts() == {}

    def test_plans_pickle_with_their_state(self):
        plan = FaultPlan("worker.exec:io_error@2;cache.get:io_error@0.5#seed=3")
        plan.fire("worker.exec")
        clone = pickle.loads(pickle.dumps(plan))
        # The clone resumes exactly where the original stood …
        with pytest.raises(InjectedFaultError):
            clone.fire("worker.exec")
        # … including the probabilistic rule's RNG stream.
        original_fired = clone_fired = 0
        for _ in range(50):
            try:
                plan.fire("cache.get")
            except InjectedFaultError:
                original_fired += 1
            try:
                clone.fire("cache.get")
            except InjectedFaultError:
                clone_fired += 1
        assert original_fired == clone_fired

    def test_arm_disarm_and_env(self, monkeypatch):
        assert faults.ACTIVE is None
        plan = faults.arm("worker.exec:io_error@1")
        assert faults.ACTIVE is plan
        with pytest.raises(InjectedFaultError):
            faults.fire("worker.exec")
        assert faults.injected_counts() == {"worker.exec": 1}
        faults.disarm()
        assert faults.ACTIVE is None
        faults.fire("worker.exec")  # disarmed: a no-op
        monkeypatch.setenv(faults.ENV_VAR, "cache.put:io_error")
        armed = faults.arm_from_env()
        assert armed is not None and armed.wants("cache.put")
        monkeypatch.delenv(faults.ENV_VAR)
        faults.disarm()
        assert faults.arm_from_env() is None


# ----------------------------------------------------------------------
# storage sites: taxonomy, atomic publish, quarantine
# ----------------------------------------------------------------------
class TestStorageSites:
    def test_read_section_io_error_is_torn(self, snap):
        faults.arm("snapshot.read_section:io_error@1")
        with pytest.raises(SnapshotTornError):
            TripleStore.load(snap, lazy=False, verify=True)
        faults.disarm()
        assert len(TripleStore.load(snap, lazy=False)) > 0  # file unharmed

    def test_failed_write_preserves_previous_snapshot(self, snap, tmp_path):
        target = tmp_path / "out.snap"
        store = TripleStore.load(snap, lazy=False)
        store.save(str(target))
        before = target.read_bytes()
        faults.arm("snapshot.write:io_error@1")
        with pytest.raises(OSError):
            store.save(str(target))
        faults.disarm()
        # The interrupted publish left the previous bytes untouched and
        # no temp litter behind.
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp.*")) == []
        store.save(str(target))  # and the path still works

    def test_truncated_snapshot_is_torn(self, snap, tmp_path):
        clipped = tmp_path / "clipped.snap"
        data = open(snap, "rb").read()
        clipped.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotTornError):
            TripleStore.load(str(clipped), lazy=False, verify=True)

    def test_bitflipped_snapshot_is_corrupt(self, snap, tmp_path):
        damaged = tmp_path / "damaged.snap"
        data = bytearray(open(snap, "rb").read())
        with SnapshotReader(snap) as reader:
            _, offset, length = reader.info()["sections"][-1]
        data[offset + length // 2] ^= 0xFF
        damaged.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError):
            TripleStore.load(str(damaged), lazy=False, verify=True)

    def test_taxonomy_is_still_snapshoterror(self):
        # Every pre-existing `except SnapshotError` handler must keep
        # catching both refined classes.
        assert issubclass(SnapshotTornError, SnapshotError)
        assert issubclass(SnapshotCorruptError, SnapshotError)

    def test_bulkload_line_site(self, tmp_path):
        source = tmp_path / "tiny.nt"
        source.write_text(
            "".join(f"<http://s/{i}> <http://p> <http://o/{i}> .\n" for i in range(6))
        )
        faults.arm("bulkload.line:io_error@4")
        with pytest.raises(InjectedFaultError):
            TripleStore.bulk_load(str(source))
        faults.disarm()
        assert len(TripleStore.bulk_load(str(source))) == 6

    def test_cached_store_quarantines_and_rebuilds(self, tmp_path):
        store = cached_store("lubm", tmp_path, universities=1)
        triples = len(store)
        path = cache_snapshot_path("lubm", tmp_path, universities=1)
        damaged = bytearray(path.read_bytes())
        damaged[-10] ^= 0xFF
        path.write_bytes(bytes(damaged))
        rebuilt = cached_store("lubm", tmp_path, universities=1, lazy=False)
        assert len(rebuilt) == triples
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()  # evidence preserved for post-mortems
        # And the rebuilt cache entry verifies clean.
        TripleStore.load(str(path), verify=True)

    def test_quarantine_missing_file_returns_none(self, tmp_path):
        assert quarantine_snapshot(str(tmp_path / "nope.snap")) is None


# ----------------------------------------------------------------------
# snapshot info CLI: exit codes distinguish corrupt from torn
# ----------------------------------------------------------------------
class TestSnapshotInfoCLI:
    def test_corrupt_exits_3_with_hint(self, snap, tmp_path, capsys):
        damaged = tmp_path / "damaged.snap"
        data = bytearray(open(snap, "rb").read())
        with SnapshotReader(snap) as reader:
            _, offset, length = reader.info()["sections"][-1]
        data[offset + length // 2] ^= 0xFF
        damaged.write_bytes(bytes(data))
        code = cli_main(["snapshot", "info", str(damaged), "--verify"], out=io.StringIO())
        assert code == 3
        err = capsys.readouterr().err
        assert "corrupt snapshot" in err
        assert "rebuild" in err

    def test_torn_exits_2_with_hint(self, snap, tmp_path, capsys):
        clipped = tmp_path / "clipped.snap"
        data = open(snap, "rb").read()
        clipped.write_bytes(data[: len(data) // 2])
        code = cli_main(["snapshot", "info", str(clipped), "--verify"], out=io.StringIO())
        assert code == 2
        err = capsys.readouterr().err
        assert "torn/unreadable snapshot" in err

    def test_healthy_snapshot_still_exits_0(self, snap):
        out = io.StringIO()
        assert cli_main(["snapshot", "info", snap, "--verify"], out=out) == 0
        assert "checksums     OK" in out.getvalue()


# ----------------------------------------------------------------------
# worker pool sites: crash / OOM / pipe errors, driven by injection
# ----------------------------------------------------------------------
def _pool_config(snap, spec="", **overrides):
    defaults = dict(
        data=snap,
        port=0,
        workers=1,
        timeout=10.0,
        faults=spec,
        # Tests want fast heals, not production pacing.
        respawn_backoff_base=0.05,
        respawn_backoff_cap=0.2,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestPoolSites:
    def test_worker_crash_mid_query_recovers(self, snap):
        restarts = []
        pool = WorkerPool(
            _pool_config(snap, "worker.exec:crash@2"),
            on_restart=lambda: restarts.append(1),
        )
        try:
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
            reply = pool.execute(QUERY_HEADOF, "json")
            assert reply.kind == "error"
            assert "died mid-query" in reply.message
            # The replacement armed the same plan with fresh counters,
            # so its first query (hit 1, not 2) succeeds.  (Waiting for
            # it also orders us after the heal's restart callback.)
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
            assert restarts, "restart callback never fired"
            assert pool.alive == 1
        finally:
            pool.close()

    def test_worker_oom_reports_and_recovers(self, snap):
        restarts = []
        pool = WorkerPool(
            _pool_config(snap, "worker.exec:oom@2"),
            on_restart=lambda: restarts.append(1),
        )
        try:
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
            reply = pool.execute(QUERY_HEADOF, "json")
            # The worker announced the crash before exiting, so the
            # client sees the cause rather than a broken pipe.
            assert reply.kind == "error"
            assert "out of memory" in reply.message
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
            assert restarts
        finally:
            pool.close()

    def test_parent_recv_fault_replaces_worker(self, snap):
        restarts = []
        pool = WorkerPool(
            _pool_config(snap), on_restart=lambda: restarts.append(1)
        )
        try:
            faults.arm("worker.recv:io_error@1")
            reply = pool.execute(QUERY_HEADOF, "json")
            assert reply.kind == "error"
            assert "died mid-query" in reply.message
            faults.disarm()
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
            assert restarts
        finally:
            faults.disarm()
            pool.close()

    def test_parent_recv_oom_keeps_the_pipe_in_step(self, snap):
        """A reply the parent cannot read stays in the pipe: the worker
        must be replaced, or the next request would read that reply."""
        pool = WorkerPool(_pool_config(snap))
        try:
            faults.arm("worker.recv:oom@1")
            reply = pool.execute(QUERY_HEADOF, "json")
            assert reply.kind == "error"
            assert "out of memory" in reply.message
            faults.disarm()
            reply = pool.execute(QUERY_HEADOF + " LIMIT 1", "json")
            assert reply.kind == "ok"
            assert len(json.loads(reply.payload)["results"]["bindings"]) == 1
        finally:
            faults.disarm()
            pool.close()

    def test_parent_send_fault_replaces_worker(self, snap):
        pool = WorkerPool(_pool_config(snap))
        try:
            faults.arm("worker.send:io_error@1")
            reply = pool.execute(QUERY_HEADOF, "json")
            assert reply.kind == "error"
            assert "unavailable" in reply.message
            faults.disarm()
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
        finally:
            faults.disarm()
            pool.close()

    def test_worker_delay_trips_hard_timeout(self, snap):
        config = _pool_config(
            snap, "worker.exec:delay=5@2", timeout=0.3, grace=0.2, queue_wait=15.0
        )
        pool = WorkerPool(config)
        try:
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
            started = time.perf_counter()
            reply = pool.execute(QUERY_HEADOF, "json")
            assert reply.kind == "timeout"
            # Hard deadline, not the injected 5s stall.
            assert time.perf_counter() - started < 3.0
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
        finally:
            pool.close()

    def test_stats_surface_roster_health(self, snap):
        pool = WorkerPool(_pool_config(snap))
        try:
            stats = pool.stats()
            assert stats["alive"] == 1 and stats["target"] == 1
            assert stats["deficit"] == 0
            assert stats["backoff_seconds"] == 0
            assert stats["snapshot_fallbacks"] == 0
        finally:
            pool.close()


# ----------------------------------------------------------------------
# WAL sites and the drained-shutdown durability window
# ----------------------------------------------------------------------
EXW = "http://example.org/waldrain#"


class TestWalSites:
    def test_wal_sites_are_registered(self):
        for site in ("wal.append", "wal.fsync", "wal.replay"):
            assert site in faults.KNOWN_SITES
            FaultPlan(f"{site}:io_error@1")  # parses like any other site

    def test_append_fault_fails_the_update_but_not_the_server(self, snap, tmp_path):
        """An injected WAL write failure must surface as a 5xx — the
        client is NOT acked (the update may be lost on restart) — while
        reads keep serving and later updates land again."""
        import json as json_module
        import shutil
        import urllib.error
        import urllib.request

        from repro.server.app import SparqlServer

        data = str(tmp_path / "walfault.snap")
        shutil.copy(snap, data)
        config = ServerConfig(
            data=data,
            port=0,
            workers=1,
            timeout=15.0,
            wal=str(tmp_path / "walfault.wal"),
            faults="wal.append:io_error@2",
        )
        with SparqlServer(config) as instance:
            def update(i):
                request = urllib.request.Request(
                    instance.url + "/update",
                    data=f"INSERT DATA {{ <{EXW}n{i}> <{EXW}p> <{EXW}o> }}".encode(),
                    headers={"Content-Type": "application/sparql-update"},
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, json_module.loads(response.read())

            status, _ = update(0)
            assert status == 200

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                update(1)
            assert excinfo.value.code == 500
            assert "error" in json_module.loads(excinfo.value.read())

            # The schedule is spent: the next update acks durably, and
            # the read path never blinked.
            status, _ = update(2)
            assert status == 200
            assert instance.pool.stats()["alive"] == 1

    def test_drained_shutdown_fsyncs_the_wal(self, snap, tmp_path):
        """The SIGTERM/SIGINT drain path (``SparqlServer.shutdown``)
        must fsync the WAL before exit: with policy ``off`` no fsync
        has run by ack time, so an orderly drain that skipped the final
        fsync would leave the last group-commit window to chance."""
        import json as json_module
        import shutil
        import urllib.request

        from repro.server.app import SparqlServer
        from repro.storage.wal import scan_wal

        data = str(tmp_path / "draindur.snap")
        shutil.copy(snap, data)
        wal_path = str(tmp_path / "draindur.wal")
        config = ServerConfig(
            data=data, port=0, workers=1, timeout=15.0,
            wal=wal_path, wal_fsync="off",
        )
        instance = SparqlServer(config)
        instance.start()
        request = urllib.request.Request(
            instance.url + "/update",
            data=f"INSERT DATA {{ <{EXW}a> <{EXW}p> <{EXW}b> }}".encode(),
            headers={"Content-Type": "application/sparql-update"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            json_module.loads(response.read())
        wal = instance.wal
        assert wal is not None and wal.fsync_count == 0  # policy off: acked, not fsynced

        instance.shutdown()  # what the SIGTERM/SIGINT handler drives

        assert wal.fsync_count == 1, "drain exited without the final fsync"
        assert wal._closed
        scan = scan_wal(wal_path)
        assert scan.torn is None and len(scan.records) == 1
