"""Live-write benchmark: UPDATE ingest rate and reads over a delta.

Four phases on a snapshot-backed (frozen) LUBM store:

1. ``insert_batches`` — parse + apply a stream of ``INSERT DATA``
   batches through the full UPDATE path (tokenizer → parser → engine →
   delta overlay), measuring triples/second of live ingest;
2. ``delete_batches`` — the same stream deleted again (tombstone path);
3. ``read_under_delta`` — a join-heavy query executed while the delta
   holds pending adds+tombstones: the delta overlay priced.  The
   same query also runs after compaction and the same-host ratio is
   recorded as ``speedup`` (compacted / overlay — how close overlay
   reads stay to a clean snapshot, ~1.0 when the merge layer is cheap);
4. ``compact`` — folding the delta into a fresh snapshot generation.

A WAL durability sweep then prices the acked-means-durable contract:
the same insert stream pushed by concurrent committer threads through
the server's write discipline (update + append under one lock, fsync
wait outside it) under ``no_wal`` / ``wal_off`` / ``wal_interval`` /
``wal_always``.  ``wal_interval`` is the production default — leader-
based group commit shares fsyncs across committers — and the bench
fails itself when its ingest falls outside ``WAL_MAX_OVERHEAD``
(default 1.5x) of the no-WAL baseline; the same-host ratio is recorded
as ``speedup`` on the ``ingest_wal_interval`` record and gated across
PRs by ``check_regression.py``.

All ``results`` fields are deterministic (seeded batch generation; the
committer threads insert disjoint triples, so ``added`` is order-
independent), so ``check_regression.py`` pins them exactly across PRs,
and ``rows_materialized`` rides along as the machine-independent
execution observable for the read phases.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(__file__))

from common import bench_record, emit_bench_json, format_table  # noqa: E402

from repro.core import SparqlUOEngine  # noqa: E402
from repro.core.metrics import EXEC_COUNTERS  # noqa: E402
from repro.datasets.lubm import generate_lubm  # noqa: E402
from repro.storage import TripleStore  # noqa: E402
from repro.storage.wal import WriteAheadLog, scan_wal  # noqa: E402

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
EX = "http://example.org/ingest#"

BATCHES = 40
BATCH_SIZE = 25

READ_QUERY = (
    f"SELECT ?x ?y WHERE {{ ?x <{UB}memberOf> ?y . "
    f"?x <{UB}emailAddress> ?e }}"
)


def _insert_text(rng: random.Random, batch: int) -> str:
    rows = []
    for i in range(BATCH_SIZE):
        s = f"<{EX}doc{batch}_{i}>"
        rows.append(f"{s} <{EX}tag> <{EX}t{rng.randint(0, 7)}> .")
        rows.append(f'{s} <{EX}size> "{rng.randint(1, 9999)}" .')
    return "INSERT DATA { " + " ".join(rows) + " }"


#: Committer threads for the WAL sweep — enough concurrency for group
#: commit to batch, small enough for a CI runner.
COMMITTERS = 4

WAL_MODES = ("no_wal", "wal_off", "wal_interval", "wal_always")


def _wal_ingest(path: str, workdir: str, mode: str) -> Dict:
    """Push the seeded insert stream through the server write
    discipline: ``engine.update`` + ``wal.append`` under one commit
    lock (frame order = commit order), ``wal.sync`` outside it (group
    commit can batch concurrent committers into one fsync)."""
    store = TripleStore.load(path, lazy=False)
    engine = SparqlUOEngine(store, bgp_engine="hashjoin", mode="full")
    wal: Optional[WriteAheadLog] = None
    if mode != "no_wal":
        wal = WriteAheadLog(
            os.path.join(workdir, f"ingest_{mode}.wal"),
            policy=mode.split("_", 1)[1],
        )
    rng = random.Random(7)
    batches = [_insert_text(rng, b) for b in range(BATCHES)]
    commit_lock = threading.Lock()
    cursor = {"next": 0}
    added_counts = [0] * COMMITTERS
    errors: List[BaseException] = []

    def committer(slot: int) -> None:
        try:
            while True:
                with commit_lock:
                    index = cursor["next"]
                    if index >= len(batches):
                        return
                    cursor["next"] = index + 1
                    result = engine.update(batches[index])
                    seq = (
                        wal.append(result.generation, batches[index])
                        if wal is not None
                        else None
                    )
                added_counts[slot] += result.added
                if wal is not None and seq is not None:
                    wal.sync(seq)
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=committer, args=(slot,))
        for slot in range(COMMITTERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_ms = (time.perf_counter() - started) * 1000.0
    if errors:
        raise errors[0]
    added = sum(added_counts)
    fsync_count = 0
    if wal is not None:
        fsync_count = wal.fsync_count
        wal.close()
        # Replay sanity: every committed batch is a complete frame.
        assert len(scan_wal(wal.path).records) == BATCHES
    store.close()
    return {"wall_ms": wall_ms, "added": added, "fsync_count": fsync_count}


def _timed_read(engine: SparqlUOEngine) -> Dict:
    before = EXEC_COUNTERS.snapshot()
    started = time.perf_counter()
    result = engine.execute(READ_QUERY)
    wall_ms = (time.perf_counter() - started) * 1000.0
    delta = EXEC_COUNTERS.delta_since(before)
    return {
        "wall_ms": wall_ms,
        "results": len(result),
        "rows_materialized": delta["rows_materialized"],
    }


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="bench_update_")
    path = os.path.join(workdir, "lubm.snap")
    TripleStore.from_dataset(generate_lubm(universities=1, seed=42)).save(path)
    # The compact phase rewrites ``path`` in place; the WAL sweep runs
    # every mode against this untouched copy so each ingests the full
    # stream from the same starting state.
    pristine = os.path.join(workdir, "lubm_pristine.snap")
    with open(path, "rb") as source, open(pristine, "wb") as sink:
        sink.write(source.read())
    store = TripleStore.load(path, lazy=False)
    base_size = len(store)
    engine = SparqlUOEngine(store, bgp_engine="hashjoin", mode="full")

    rng = random.Random(7)
    batches = [_insert_text(rng, b) for b in range(BATCHES)]

    started = time.perf_counter()
    added = sum(engine.update(text).added for text in batches)
    insert_ms = (time.perf_counter() - started) * 1000.0

    overlay_read = _timed_read(engine)

    delete_batches = [
        text.replace("INSERT DATA", "DELETE DATA", 1) for text in batches[: BATCHES // 2]
    ]
    started = time.perf_counter()
    removed = sum(engine.update(text).removed for text in delete_batches)
    delete_ms = (time.perf_counter() - started) * 1000.0

    started = time.perf_counter()
    store.compact(path)
    compact_ms = (time.perf_counter() - started) * 1000.0
    assert store.pending_delta == (0, 0)

    compacted_read = _timed_read(engine)
    assert compacted_read["results"] == overlay_read["results"], (
        "overlay read diverged from compacted read"
    )

    records: List[Dict] = [
        bench_record(
            "update_ingest",
            "insert_batches",
            "uo",
            "overlay",
            insert_ms,
            results=added,
            triples_per_sec=round(added / (insert_ms / 1000.0), 1),
            batches=BATCHES,
            batch_size=BATCH_SIZE,
        ),
        bench_record(
            "update_ingest",
            "delete_batches",
            "uo",
            "overlay",
            delete_ms,
            results=removed,
            triples_per_sec=round(removed / (delete_ms / 1000.0), 1),
        ),
        bench_record(
            "update_ingest",
            "read_under_delta",
            "hashjoin",
            "overlay",
            overlay_read["wall_ms"],
            results=overlay_read["results"],
            rows_materialized=overlay_read["rows_materialized"],
            # Same-host ratio: how close reads over pending writes stay
            # to reads over a clean compacted snapshot.
            speedup=round(compacted_read["wall_ms"] / overlay_read["wall_ms"], 3),
        ),
        bench_record(
            "update_ingest",
            "read_after_compact",
            "hashjoin",
            "compacted",
            compacted_read["wall_ms"],
            results=compacted_read["results"],
            rows_materialized=compacted_read["rows_materialized"],
        ),
        bench_record(
            "update_ingest",
            "compact",
            "uo",
            "overlay",
            compact_ms,
            results=len(store),
            base_size=base_size,
        ),
    ]

    # ------------------------------------------------------------------
    # WAL durability sweep: the acked-means-durable contract, priced.
    # ------------------------------------------------------------------
    sweep = {mode: _wal_ingest(pristine, workdir, mode) for mode in WAL_MODES}
    for mode in WAL_MODES[1:]:
        assert sweep[mode]["added"] == sweep["no_wal"]["added"], (
            f"{mode} ingested a different triple count than the baseline"
        )
    no_wal_ms = sweep["no_wal"]["wall_ms"]
    for mode in WAL_MODES:
        outcome = sweep[mode]
        extra: Dict = dict(
            triples_per_sec=round(
                outcome["added"] / (outcome["wall_ms"] / 1000.0), 1
            ),
            committers=COMMITTERS,
        )
        if mode != "no_wal":
            extra["fsync_count"] = outcome["fsync_count"]
        if mode == "wal_interval":
            # Same-host ratio: group-commit ingest vs the no-WAL
            # baseline (1.0 = free durability; the acceptance bar is
            # >= 1/1.5).
            extra["speedup"] = round(no_wal_ms / outcome["wall_ms"], 3)
        records.append(
            bench_record(
                "update_ingest",
                f"ingest_{mode}",
                "uo",
                "wal_sweep",
                outcome["wall_ms"],
                results=outcome["added"],
                **extra,
            )
        )

    overhead_bar = float(os.environ.get("WAL_MAX_OVERHEAD", "1.5"))
    interval_ms = sweep["wal_interval"]["wall_ms"]
    if interval_ms > overhead_bar * no_wal_ms:
        print(
            f"FAIL: wal_interval ingest {interval_ms:.1f} ms exceeds "
            f"{overhead_bar}x the no-WAL baseline {no_wal_ms:.1f} ms",
            file=sys.stderr,
        )
        return 1

    out = emit_bench_json("update_ingest", records)
    print(
        format_table(
            ["phase", "wall_ms", "results", "extra"],
            [
                [r["query"], r["wall_ms"], r.get("results"),
                 r.get("triples_per_sec") or r.get("speedup") or ""]
                for r in records
            ],
        )
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
