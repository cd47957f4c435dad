"""Unit tests for the write-ahead log: frame format, damage taxonomy,
fsync policies, truncation, fault sites, and engine-level recovery.

Server-level durability (kill -9 a live ``repro serve`` and assert the
acked updates survive) lives in ``test_chaos.py``; this module covers
the :mod:`repro.storage.wal` primitives in isolation plus the two
in-process recovery entry points (``SparqlUOEngine.from_snapshot`` and
``TripleStore.bulk_replay``).
"""

from __future__ import annotations

import io
import os
import struct
import threading
import time
import zlib

import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.core import SparqlUOEngine
from repro.datasets.lubm import generate_lubm
from repro.storage import TripleStore
from repro.storage.wal import (
    FORMAT_VERSION,
    MAGIC,
    WalCorruptError,
    WalError,
    WalRecord,
    WriteAheadLog,
    recover_wal,
    scan_wal,
)

EX = "http://example.org/wal#"


def insert_stmt(i):
    return f"INSERT DATA {{ <{EX}n{i}> <{EX}tag> <{EX}on> }}"


@pytest.fixture(autouse=True)
def _disarm_after():
    yield
    faults.disarm()


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "updates.wal")


def write_frames(path, records):
    """A log written the long way round, for damage-crafting tests."""
    head = struct.Struct("<IQ")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<8sHH", MAGIC, FORMAT_VERSION, 0))
        for generation, text in records:
            payload = text.encode("utf-8")
            frame = head.pack(len(payload), generation) + payload
            handle.write(frame + struct.pack("<I", zlib.crc32(frame)))


# ----------------------------------------------------------------------
# frame round-trips and scanning
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_append_scan_round_trip(self, wal_path):
        with WriteAheadLog(wal_path, policy="always") as wal:
            assert wal.recovered_records == []
            assert not wal.recovered_torn_tail
            wal.append(1, insert_stmt(0))
            wal.append(2, insert_stmt(1))
            assert wal.depth == 2
            assert wal.last_generation == 2
        scan = scan_wal(wal_path)
        assert scan.exists and scan.torn is None
        assert scan.records == [
            WalRecord(1, insert_stmt(0)),
            WalRecord(2, insert_stmt(1)),
        ]

    def test_reopen_recovers_previous_frames(self, wal_path):
        with WriteAheadLog(wal_path, policy="off") as wal:
            wal.append(5, insert_stmt(0))
        with WriteAheadLog(wal_path) as wal:
            assert wal.recovered_records == [WalRecord(5, insert_stmt(0))]
            assert wal.last_generation == 5
            wal.append(6, insert_stmt(1))
            assert wal.depth == 2

    def test_missing_file_scans_as_absent(self, wal_path):
        scan = scan_wal(wal_path)
        assert not scan.exists
        assert scan.records == [] and scan.torn is None

    def test_empty_file_is_clean(self, wal_path):
        open(wal_path, "wb").close()
        scan = scan_wal(wal_path)
        assert scan.exists and scan.torn is None and scan.records == []

    def test_non_ascii_update_text_survives(self, wal_path):
        text = f'INSERT DATA {{ <{EX}café> <{EX}label> "héllo – ✓" }}'
        with WriteAheadLog(wal_path, policy="always") as wal:
            wal.append(1, text)
        assert scan_wal(wal_path).records == [WalRecord(1, text)]

    def test_records_after_filters_on_generation(self, wal_path):
        with WriteAheadLog(wal_path, policy="off") as wal:
            for generation in (1, 2, 3):
                wal.append(generation, insert_stmt(generation))
            assert [r.generation for r in wal.records_after(1)] == [2, 3]
            assert wal.records_after(3) == []

    def test_append_after_close_refuses(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.close()
        with pytest.raises(WalError):
            wal.append(1, insert_stmt(0))
        wal.close()  # idempotent

    def test_unknown_policy_rejected(self, wal_path):
        with pytest.raises(ValueError):
            WriteAheadLog(wal_path, policy="sometimes")


# ----------------------------------------------------------------------
# damage taxonomy: torn truncates, corrupt refuses
# ----------------------------------------------------------------------
class TestDamageTaxonomy:
    def test_torn_final_frame_is_reported_not_raised(self, wal_path):
        write_frames(wal_path, [(1, insert_stmt(0)), (2, insert_stmt(1))])
        data = open(wal_path, "rb").read()
        open(wal_path, "wb").write(data[:-5])  # cut into the final frame
        scan = scan_wal(wal_path)
        assert scan.torn is not None and "truncated" in scan.torn
        assert scan.records == [WalRecord(1, insert_stmt(0))]

    def test_recover_truncates_tear_in_place(self, wal_path):
        write_frames(wal_path, [(1, insert_stmt(0)), (2, insert_stmt(1))])
        data = open(wal_path, "rb").read()
        open(wal_path, "wb").write(data[:-5])
        recovery = recover_wal(wal_path)
        assert recovery.torn_tail
        assert recovery.records == [WalRecord(1, insert_stmt(0))]
        # The tail is gone on disk: a re-scan is clean.
        scan = scan_wal(wal_path)
        assert scan.torn is None
        assert scan.records == recovery.records

    def test_open_on_torn_log_resumes_appending(self, wal_path):
        write_frames(wal_path, [(1, insert_stmt(0)), (2, insert_stmt(1))])
        data = open(wal_path, "rb").read()
        open(wal_path, "wb").write(data[:-5])
        with WriteAheadLog(wal_path, policy="always") as wal:
            assert wal.recovered_torn_tail
            assert wal.recovered_records == [WalRecord(1, insert_stmt(0))]
            wal.append(2, insert_stmt(2))
        scan = scan_wal(wal_path)
        assert scan.torn is None
        assert scan.records == [WalRecord(1, insert_stmt(0)), WalRecord(2, insert_stmt(2))]

    def test_short_header_is_torn(self, wal_path):
        open(wal_path, "wb").write(MAGIC[:4])
        scan = scan_wal(wal_path)
        assert scan.torn is not None and "short header" in scan.torn

    def test_bitflip_in_complete_frame_is_corrupt(self, wal_path):
        write_frames(wal_path, [(1, insert_stmt(0))])
        data = bytearray(open(wal_path, "rb").read())
        data[20] ^= 0xFF  # inside the payload, crc now wrong
        open(wal_path, "wb").write(bytes(data))
        with pytest.raises(WalCorruptError, match="checksum mismatch"):
            scan_wal(wal_path)
        with pytest.raises(WalCorruptError):
            recover_wal(wal_path)
        with pytest.raises(WalCorruptError):
            WriteAheadLog(wal_path)

    def test_bad_magic_is_corrupt(self, wal_path):
        open(wal_path, "wb").write(b"NOTAWAL!" + b"\x00" * 8)
        with pytest.raises(WalCorruptError, match="bad magic"):
            scan_wal(wal_path)

    def test_future_version_is_corrupt(self, wal_path):
        open(wal_path, "wb").write(struct.pack("<8sHH", MAGIC, FORMAT_VERSION + 1, 0))
        with pytest.raises(WalCorruptError, match="unsupported WAL format"):
            scan_wal(wal_path)

    def test_reserved_flags_are_corrupt(self, wal_path):
        open(wal_path, "wb").write(struct.pack("<8sHH", MAGIC, FORMAT_VERSION, 7))
        with pytest.raises(WalCorruptError, match="reserved flags"):
            scan_wal(wal_path)

    def test_invalid_utf8_payload_is_corrupt(self, wal_path):
        # Hand-craft a frame whose checksum is right but whose payload
        # cannot decode: the CRC passes, the decode must still refuse.
        payload = b"\xff\xfe\xfd"
        frame = struct.pack("<IQ", len(payload), 1) + payload
        with open(wal_path, "wb") as handle:
            handle.write(struct.pack("<8sHH", MAGIC, FORMAT_VERSION, 0))
            handle.write(frame + struct.pack("<I", zlib.crc32(frame)))
        with pytest.raises(WalCorruptError, match="not UTF-8"):
            scan_wal(wal_path)

    def test_corruption_before_tear_still_refuses(self, wal_path):
        # Frame 0 corrupt, frame 1 torn: corruption wins — dropping a
        # provably-wrong frame and replaying past it would serve a
        # store missing an acked update.
        write_frames(wal_path, [(1, insert_stmt(0)), (2, insert_stmt(1))])
        data = bytearray(open(wal_path, "rb").read())
        data[20] ^= 0xFF
        open(wal_path, "wb").write(bytes(data[:-5]))
        with pytest.raises(WalCorruptError):
            scan_wal(wal_path)


# ----------------------------------------------------------------------
# fsync policies and group commit
# ----------------------------------------------------------------------
class TestFsyncPolicies:
    def test_always_fsyncs_every_append(self, wal_path):
        with WriteAheadLog(wal_path, policy="always") as wal:
            for i in range(5):
                wal.append(i + 1, insert_stmt(i))
            assert wal.fsync_count == 5
            wal.sync()  # already durable: no extra fsync
            assert wal.fsync_count == 5

    def test_off_never_fsyncs_until_close(self, wal_path):
        wal = WriteAheadLog(wal_path, policy="off")
        for i in range(5):
            wal.sync(wal.append(i + 1, insert_stmt(i)))
        assert wal.fsync_count == 0
        wal.close()  # orderly drain still lands the writeback window
        assert wal.fsync_count == 1

    def test_interval_syncs_on_demand(self, wal_path):
        with WriteAheadLog(wal_path, policy="interval") as wal:
            seq = wal.append(1, insert_stmt(0))
            assert wal.fsync_count == 0  # append alone is not durable
            wal.sync(seq)
            assert wal.fsync_count == 1
            wal.sync(seq)  # already covered: no extra fsync
            assert wal.fsync_count == 1

    def test_group_commit_shares_fsyncs(self, wal_path, monkeypatch):
        """Concurrent committers piggyback on the leader's fsync: the
        fsync count stays below one per append.

        The leader's first fsync is held until all 8 committers' first
        appends are in, so the next fsync covers all of them: at most
        1 + 1 + 32 fsyncs for 40 appends, whatever the scheduling."""
        import repro.storage.wal as wal_module

        entered = threading.Event()
        release = threading.Event()
        real_fsync = os.fsync
        calls = []

        def held_fsync(fd):
            calls.append(fd)
            if len(calls) == 1:
                entered.set()
                assert release.wait(10), "the test never released the first fsync"
            real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", held_fsync)
        wal = WriteAheadLog(wal_path, policy="interval")
        barrier = threading.Barrier(8)
        errors = []

        def committer(i):
            try:
                barrier.wait(10)
                for j in range(5):
                    wal.sync(wal.append(i * 100 + j, insert_stmt(i)))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=committer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        assert entered.wait(10), "no commit reached its fsync"
        deadline = time.monotonic() + 10
        while wal.depth < 8 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert wal.depth == 8  # each committer's first append, none covered yet
        release.set()
        for t in threads:
            t.join(30)
        assert not errors
        assert wal.depth == 40
        assert 1 <= wal.fsync_count < 40
        wal.close()
        assert len(scan_wal(wal_path).records) == 40

    def test_group_commit_queues_behind_one_fsync(self, wal_path, monkeypatch):
        """The leader fsyncs without holding the log's lock: while its
        fsync is held, 39 more single-commit threads append and queue,
        and once it returns one more fsync covers all of them."""
        import repro.storage.wal as wal_module

        entered = threading.Event()
        release = threading.Event()
        real_fsync = os.fsync
        calls = []

        def held_fsync(fd):
            calls.append(fd)
            if len(calls) == 1:
                entered.set()
                assert release.wait(10), "the test never released the first fsync"
            real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", held_fsync)
        wal = WriteAheadLog(wal_path, policy="interval")
        errors = []

        def committer(i):
            try:
                wal.sync(wal.append(i + 1, insert_stmt(i)))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=committer, args=(0,))]
        threads[0].start()
        assert entered.wait(10), "the first commit never reached its fsync"
        threads += [threading.Thread(target=committer, args=(t,)) for t in range(1, 40)]
        for t in threads[1:]:
            t.start()
        deadline = time.monotonic() + 10
        while wal.depth < 40 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert wal.depth == 40  # every append went through during the fsync
        release.set()
        for t in threads:
            t.join(30)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        assert wal.fsync_count == 2
        wal.close()
        assert len(scan_wal(wal_path).records) == 40

    def test_group_commit_stress_with_concurrent_truncation(self, wal_path):
        """More committers than cores, a tiny switch interval, and a
        truncator swapping the append handle: every sync returns
        covered, no fsync touches a swapped-out handle, and exactly the
        committed frames survive."""
        import sys

        wal = WriteAheadLog(wal_path, policy="interval")
        for generation in range(1, 21):
            wal.append(generation, insert_stmt(generation))
        errors = []

        def committer(i):
            try:
                for j in range(10):
                    seq = wal.append(1000 + i * 100 + j, insert_stmt(i))
                    wal.sync(seq)
                    assert wal._synced_seq >= seq
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def truncator():
            try:
                for generation in (5, 10, 15, 20):
                    wal.truncate_below(generation)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=committer, args=(t,)) for t in range(8)]
            threads.append(threading.Thread(target=truncator))
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(t.is_alive() for t in threads)
        wal.close()
        generations = sorted(r.generation for r in scan_wal(wal_path).records)
        assert generations == sorted(1000 + i * 100 + j for i in range(8) for j in range(10))
        assert wal.depth == 80

    @pytest.mark.parametrize("policy", ["off", "interval", "always"])
    def test_concurrent_committers_write_one_frame_per_batch(self, wal_path, policy):
        """The server's write discipline, four committers at once:
        update + append under one lock (frame order = commit order),
        the fsync wait outside it.  Every policy adds the same triples
        and logs each committed batch as exactly one complete frame."""
        engine = SparqlUOEngine(TripleStore())
        batches = [
            "INSERT DATA { "
            + " ".join(f"<{EX}b{b}_{i}> <{EX}tag> <{EX}t{i % 3}> ." for i in range(5))
            + " }"
            for b in range(24)
        ]
        pending = list(reversed(batches))
        commit_lock = threading.Lock()
        added = []
        wal = WriteAheadLog(wal_path, policy=policy)

        def committer():
            while True:
                with commit_lock:
                    if not pending:
                        return
                    text = pending.pop()
                    result = engine.update(text)
                    seq = wal.append(result.generation, text)
                added.append(result.added)
                wal.sync(seq)

        threads = [threading.Thread(target=committer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        wal.close()
        assert sum(added) == len(engine.store) == 24 * 5
        scan = scan_wal(wal_path)
        assert scan.torn is None
        assert [r.text for r in scan.records] == batches
        assert [r.generation for r in scan.records] == list(range(1, 25))

    def test_stats_snapshot(self, wal_path):
        with WriteAheadLog(wal_path, policy="always") as wal:
            wal.append(1, insert_stmt(0))
            stats = wal.stats()
        assert stats["depth"] == 1 and stats["records_total"] == 1
        assert stats["fsync_count"] >= 1 and stats["fsync_seconds"] >= 0
        assert stats["recovered_torn_tail"] is False


# ----------------------------------------------------------------------
# compaction truncation
# ----------------------------------------------------------------------
class TestTruncation:
    def test_truncate_below_drops_dead_prefix(self, wal_path):
        with WriteAheadLog(wal_path, policy="off") as wal:
            for generation in (1, 2, 3, 4):
                wal.append(generation, insert_stmt(generation))
            assert wal.truncate_below(2) == 2
            assert wal.depth == 2
            # Appends keep working against the republished file.
            wal.append(5, insert_stmt(5))
        scan = scan_wal(wal_path)
        assert [r.generation for r in scan.records] == [3, 4, 5]

    def test_truncate_below_everything_leaves_valid_header(self, wal_path):
        with WriteAheadLog(wal_path, policy="off") as wal:
            wal.append(1, insert_stmt(0))
            assert wal.truncate_below(9) == 1
            assert wal.depth == 0
        scan = scan_wal(wal_path)
        assert scan.records == [] and scan.torn is None

    def test_truncate_below_is_a_no_op_when_nothing_dead(self, wal_path):
        with WriteAheadLog(wal_path, policy="off") as wal:
            wal.append(8, insert_stmt(0))
            before = open(wal_path, "rb").read()
            assert wal.truncate_below(3) == 0
            assert open(wal_path, "rb").read() == before

    def test_truncate_below_leaves_log_alone_on_torn_scan(self, wal_path):
        # A read error partway through the scan must not republish the
        # frames before the tear as the whole log: 2 and 3 were acked.
        with WriteAheadLog(wal_path, policy="off") as wal:
            for generation in (1, 2, 3):
                wal.append(generation, insert_stmt(generation))
            faults.arm("wal.replay:io_error@2")
            assert wal.truncate_below(1) == 0
            faults.disarm()
        assert [r.generation for r in scan_wal(wal_path).records] == [1, 2, 3]


# ----------------------------------------------------------------------
# fault sites
# ----------------------------------------------------------------------
class TestFaultSites:
    def test_append_fault_leaves_no_partial_frame(self, wal_path):
        wal = WriteAheadLog(wal_path, policy="always")
        wal.append(1, insert_stmt(0))
        faults.arm("wal.append:io_error@1")
        with pytest.raises(OSError):
            wal.append(2, insert_stmt(1))
        faults.disarm()
        # The fault fired before the write: the log holds exactly the
        # acked frame, and the next append lands cleanly.
        wal.append(2, insert_stmt(2))
        wal.close()
        assert [r.generation for r in scan_wal(wal_path).records] == [1, 2]

    def test_fsync_fault_surfaces_to_the_committer(self, wal_path):
        wal = WriteAheadLog(wal_path, policy="interval")
        seq = wal.append(1, insert_stmt(0))
        faults.arm("wal.fsync:io_error@1")
        with pytest.raises(OSError):
            wal.sync(seq)
        faults.disarm()
        wal.sync(seq)  # retry succeeds once the disk recovers
        wal.close()

    def test_replay_fault_is_the_torn_class(self, wal_path):
        write_frames(wal_path, [(1, insert_stmt(0)), (2, insert_stmt(1))])
        faults.arm("wal.replay:io_error@2")
        scan = scan_wal(wal_path)
        assert scan.torn is not None and "read error" in scan.torn
        assert scan.records == [WalRecord(1, insert_stmt(0))]
        faults.disarm()
        assert len(scan_wal(wal_path).records) == 2  # file unharmed


# ----------------------------------------------------------------------
# engine- and store-level recovery
# ----------------------------------------------------------------------
class TestEngineRecovery:
    @pytest.fixture(scope="class")
    def snap(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("walengine") / "lubm.snap"
        TripleStore.from_dataset(generate_lubm(universities=1, seed=42)).save(str(path))
        return str(path)

    def test_from_snapshot_replays_wal_tail(self, snap, wal_path):
        engine = SparqlUOEngine.from_snapshot(snap)
        base = engine.store.generation
        with WriteAheadLog(wal_path, policy="always") as wal:
            for i in range(3):
                result = engine.update(insert_stmt(i))
                wal.append(result.generation, insert_stmt(i))
        engine.store.close()

        recovered = SparqlUOEngine.from_snapshot(snap, wal=wal_path)
        assert recovered.store.generation == base + 3
        rows = recovered.execute(
            f"SELECT ?s WHERE {{ ?s <{EX}tag> <{EX}on> }}"
        ).solutions
        assert len(rows) == 3
        recovered.store.close()

    def test_from_snapshot_skips_already_compacted_frames(self, snap, wal_path):
        # Frames at or below the snapshot generation are dead weight a
        # crashed compaction may have left behind; replay filters them.
        base = TripleStore.load(snap).generation
        with WriteAheadLog(wal_path, policy="always") as wal:
            wal.append(base, insert_stmt(0))  # dead: already folded in
        engine = SparqlUOEngine.from_snapshot(snap, wal=wal_path)
        assert engine.store.generation == base
        engine.store.close()

    def test_from_snapshot_truncates_torn_tail(self, snap, wal_path):
        engine = SparqlUOEngine.from_snapshot(snap)
        base = engine.store.generation
        with WriteAheadLog(wal_path, policy="always") as wal:
            for i in range(2):
                result = engine.update(insert_stmt(i))
                wal.append(result.generation, insert_stmt(i))
        engine.store.close()
        data = open(wal_path, "rb").read()
        open(wal_path, "wb").write(data[:-3])

        recovered = SparqlUOEngine.from_snapshot(snap, wal=wal_path)
        # The complete first frame replays; the torn second is cut.
        assert recovered.store.generation == base + 1
        assert scan_wal(wal_path).torn is None
        recovered.store.close()

    def test_from_snapshot_refuses_corrupt_wal(self, snap, wal_path):
        write_frames(wal_path, [(10**6, insert_stmt(0))])
        data = bytearray(open(wal_path, "rb").read())
        data[-6] ^= 0xFF
        open(wal_path, "wb").write(bytes(data))
        with pytest.raises(WalCorruptError):
            SparqlUOEngine.from_snapshot(snap, wal=wal_path)

    def test_bulk_replay_defers_sealing(self, snap):
        from repro.rdf import IRI, Triple

        store = TripleStore.load(snap)
        base = len(store)
        with store.bulk_replay():
            for i in range(4):
                store.apply_update(
                    [Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}tag"), IRI(f"{EX}on"))], []
                )
        # Leaving the context seals: reads see every replayed triple.
        assert len(store) == base + 4
        from repro.storage import DeltaOverlayIndexes

        indexes = store.indexes
        assert isinstance(indexes, DeltaOverlayIndexes)
        assert not indexes.delta.needs_seal
        store.close()


# ----------------------------------------------------------------------
# repro wal info: exit codes distinguish torn from corrupt
# ----------------------------------------------------------------------
class TestWalInfoCLI:
    def test_clean_log_exits_0(self, wal_path):
        with WriteAheadLog(wal_path, policy="always") as wal:
            wal.append(3, insert_stmt(0))
            wal.append(4, insert_stmt(1))
        out = io.StringIO()
        assert cli_main(["wal", "info", wal_path], out=out) == 0
        text = out.getvalue()
        assert "integrity" in text and "OK" in text
        assert "records       2" in text
        assert "generations   3..4" in text

    def test_torn_log_exits_2(self, wal_path, capsys):
        write_frames(wal_path, [(1, insert_stmt(0)), (2, insert_stmt(1))])
        data = open(wal_path, "rb").read()
        open(wal_path, "wb").write(data[:-5])
        out = io.StringIO()
        code = cli_main(["wal", "info", wal_path], out=out)
        assert code == 2
        assert "torn tail" in out.getvalue()
        assert "truncates the tail" in capsys.readouterr().err

    def test_corrupt_log_exits_3(self, wal_path, capsys):
        write_frames(wal_path, [(1, insert_stmt(0))])
        data = bytearray(open(wal_path, "rb").read())
        data[20] ^= 0xFF
        open(wal_path, "wb").write(bytes(data))
        code = cli_main(["wal", "info", wal_path], out=io.StringIO())
        assert code == 3
        err = capsys.readouterr().err
        assert "corrupt" in err

    def test_missing_log_exits_2(self, wal_path, capsys):
        code = cli_main(["wal", "info", wal_path], out=io.StringIO())
        assert code == 2
        assert "no such" in capsys.readouterr().err.lower()
