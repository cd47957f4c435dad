"""Differential suite: optimized engines vs. the naive oracle.

Each seed deterministically generates a small dataset plus a random
query, evaluates it with the naive bottom-up oracle (``tests/oracle.py``,
decoded term rows, nested-loop joins) and with the full optimized stack
— both BGP engines, cost-driven BE-tree transformations AND candidate
pruning enabled (``mode="full"``), filter/modifier pushdown on — and
asserts exact bag equality.

Every store serves sorted permutation arrays, so the optimized runs
exercise the sorted-run layer: merge joins, galloping semi-joins,
leapfrog extension and sorted-array candidate pruning.

Result comparison is modifier-aware:

- no LIMIT/OFFSET → exact multiset equality;
- ORDER BY → additionally, the per-row sort-key sequences must match
  (keys are generated over projected variables only, so tied rows carry
  identical keys and any key-respecting order is acceptable);
- LIMIT/OFFSET without ORDER BY → SPARQL leaves *which* page is
  returned implementation-defined, so the checks are: exact expected
  cardinality, multiset containment in the full (pre-slice) oracle
  result, and pairwise distinctness under DISTINCT.

300 seeds × {paper fragment, extended fragment} are generated; the
suite asserts that well over 200 of them execute (the circuit breaker
for cartesian blowups skips only a handful).
"""

from __future__ import annotations

import random

import pytest

from repro import SparqlUOEngine
from repro.rdf import Dataset, Triple
from repro.storage import FrozenTripleIndexes, TripleStore
from repro.sparql.expressions import order_key_for_binding

from . import oracle
from .strategies import (
    _OBJECTS,
    _PREDICATES,
    _SUBJECTS,
    random_aggregate_query,
    random_dataset,
    random_query,
)

ENGINES = ("wco", "hashjoin")
SEEDS = range(150)

#: Executed (non-skipped) query count, asserted ≥ 200 at session end.
_executed = {"count": 0, "attempted": 0}


def _key_sequence(query, rows):
    return [
        tuple(order_key_for_binding(c.expression, mu) for c in query.order_by)
        for mu in rows
    ]


def check_equivalent(query, expected: oracle.OracleResult, result, context: str):
    rows = [dict(mu) for mu in result]
    assert sorted(result.variables) == sorted(expected.variables), context
    if query.limit is None and not query.offset:
        assert oracle.as_counter(rows) == oracle.as_counter(expected.rows), context
    else:
        assert len(rows) == len(expected.rows), context
        assert oracle.contained_in(rows, expected.full), context
        if query.deduplicates:
            assert max(oracle.as_counter(rows).values(), default=1) == 1, context
    if query.order_by:
        assert _key_sequence(query, rows) == _key_sequence(query, expected.rows), context


def _run_differential(seed: int, extended: bool) -> None:
    _executed["attempted"] += 1
    rng = random.Random(seed * 2 + int(extended))
    dataset = random_dataset(rng, size=rng.randint(15, 32))
    query = random_query(rng, extended=extended)
    try:
        expected = oracle.execute(query, dataset)
    except oracle.OracleBlowup:
        pytest.skip("cartesian blowup (deterministic circuit breaker)")
    store = TripleStore.from_dataset(dataset)
    for engine_name in ENGINES:
        engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
        result = engine.execute(query)
        context = f"seed={seed} extended={extended} engine={engine_name}"
        check_equivalent(query, expected, result, context)
    _executed["count"] += 1


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_paper_fragment(seed):
    """BGP / UNION / OPTIONAL queries (PR 1 pipeline revalidation)."""
    _run_differential(seed, extended=False)


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_extended_fragment(seed):
    """FILTER + DISTINCT/ORDER BY/LIMIT/OFFSET queries."""
    _run_differential(seed, extended=True)


def test_differential_volume():
    """≥200 random queries must actually have executed (not skipped).

    Only meaningful when the whole suite ran in this process; under a
    selective run (``-k``, ``--lf``) or a sharded one (xdist workers
    each see a fraction of the seeds) the counter is partial, so the
    volume assertion is skipped rather than failing spuriously.
    """
    total = 2 * len(SEEDS)
    if _executed["attempted"] < total:
        pytest.skip(f"partial run: {_executed['attempted']}/{total} seeds attempted")
    assert _executed["count"] >= 200, _executed["count"]


# ----------------------------------------------------------------------
# aggregates: GROUP BY / COUNT / SUM / MIN / MAX / AVG vs the naive
# dict-based grouping oracle
# ----------------------------------------------------------------------
AGG_SEEDS = range(300)


@pytest.mark.parametrize("seed", AGG_SEEDS)
def test_differential_aggregates(seed):
    """Random aggregate queries, bag-identical to the oracle.

    Each seed runs through both BGP engines against the naive grouping
    oracle.  The generator leans on the zero-decode path's edge cases:
    UNBOUND grouping keys from OPTIONAL branches, never-bound aggregated
    columns, non-numeric SUM/AVG inputs, DISTINCT inside aggregates and
    the implicit single group over empty inputs (COUNT must be 0).
    """
    rng = random.Random(5000 + seed)
    dataset = random_dataset(rng, size=rng.randint(12, 30))
    query = random_aggregate_query(rng)
    try:
        expected = oracle.execute(query, dataset)
    except oracle.OracleBlowup:
        pytest.skip("cartesian blowup (deterministic circuit breaker)")
    store = TripleStore.from_dataset(dataset)
    for engine_name in ENGINES:
        engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
        context = f"agg seed={seed} engine={engine_name}"
        check_equivalent(query, expected, engine.execute(query), context)


# ----------------------------------------------------------------------
# live updates: interleaved writes-then-queries vs a set-based oracle
# ----------------------------------------------------------------------
LIVE_SEEDS = range(40)
LIVE_ROUNDS = 4


def _random_write_triple(rng):
    return Triple(
        rng.choice(_SUBJECTS), rng.choice(_PREDICATES), rng.choice(_OBJECTS)
    )


@pytest.mark.parametrize("seed", LIVE_SEEDS)
def test_differential_live_updates(seed, tmp_path):
    """Random INSERT/DELETE batches interleaved with random queries.

    A plain Python set mirrors the logical triple set; after every
    write batch a random query runs through both BGP engines over the
    *same live store* (frozen base + delta overlay) and must match the naive oracle evaluated
    over the mirror.  This is the delta layer's end-to-end equivalence
    proof: pending adds and tombstones are indistinguishable from a
    store rebuilt from scratch.

    Every batch is additionally journalled to a write-ahead log as
    SPARQL UPDATE text, and a final crash/recover round replays the
    log onto the *pre-update* snapshot via ``from_snapshot(wal=…)`` —
    the recovered store must answer exactly like the live one that
    never crashed (WAL replay is equivalence-preserving, not just
    count-preserving).
    """
    from repro.storage.wal import WriteAheadLog

    rng = random.Random(9000 + seed)
    dataset = random_dataset(rng, size=rng.randint(10, 24))
    store = TripleStore.from_dataset(dataset)
    snap = str(tmp_path / "live.snap")
    store.save(snap)
    wal = WriteAheadLog(str(tmp_path / "live.wal"), policy="off")
    mirror = set(dataset)
    last_query = None
    # One generation per journalled operation, the way a serving parent
    # commits: replay applies each frame as its own engine.update.
    journal_generation = store.generation
    for round_no in range(LIVE_ROUNDS):
        inserts = [_random_write_triple(rng) for _ in range(rng.randint(0, 6))]
        present = sorted(mirror, key=str)
        deletes = rng.sample(present, k=min(len(present), rng.randint(0, 4)))
        deletes += [_random_write_triple(rng) for _ in range(rng.randint(0, 2))]
        expected_removed = len(mirror & set(deletes))
        expected_added = len(set(inserts) - (mirror - set(deletes)))
        added, removed = store.apply_update(inserts=inserts, deletes=deletes)
        assert (added, removed) == (expected_added, expected_removed)
        mirror -= set(deletes)
        mirror |= set(inserts)
        assert len(store) == len(mirror)
        assert isinstance(store.indexes, FrozenTripleIndexes)
        # Journal the batch exactly as a serving parent would: deletes
        # first, then inserts (apply_update's delete-then-insert order).
        if deletes:
            journal_generation += 1
            wal.append(
                journal_generation,
                "DELETE DATA { " + " ".join(t.n3() for t in deletes) + " }",
            )
        if inserts:
            journal_generation += 1
            wal.append(
                journal_generation,
                "INSERT DATA { " + " ".join(t.n3() for t in inserts) + " }",
            )

        query = random_query(rng, extended=bool(seed % 2))
        try:
            expected = oracle.execute(query, Dataset(mirror))
        except oracle.OracleBlowup:
            continue
        last_query = (query, expected)
        for engine_name in ENGINES:
            engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
            context = f"seed={seed} round={round_no} engine={engine_name}"
            check_equivalent(query, expected, engine.execute(query), context)

    # Crash/recover round: the process dies with the delta overlay
    # never compacted; the snapshot on disk still holds the original
    # dataset and the WAL holds every batch.  Recovery must rebuild the
    # exact live state.
    wal.close()
    for engine_name in ENGINES:
        recovered = SparqlUOEngine.from_snapshot(
            snap, wal=wal.path, bgp_engine=engine_name, mode="full"
        )
        context = f"seed={seed} crash-recover engine={engine_name}"
        assert len(recovered.store) == len(mirror), context
        if last_query is not None:
            query, expected = last_query
            check_equivalent(query, expected, recovered.execute(query), context)
        recovered.store.close()


TRACE_SEEDS = range(40)


@pytest.mark.parametrize("seed", TRACE_SEEDS)
def test_differential_tracing_transparent(seed):
    """Arming a tracer must not change a single result row.

    The obs layer rides inside every operator (scan, join, filter,
    group fold, decode); this replays random queries with and without
    an armed tracer on the same engine and asserts bag identity, plus a
    well-formed span tree on every traced run.
    """
    from repro.obs import trace as obs_trace

    rng = random.Random(11000 + seed)
    dataset = random_dataset(rng, size=rng.randint(15, 32))
    query = random_query(rng, extended=bool(seed % 2))
    store = TripleStore.from_dataset(dataset)
    for engine_name in ENGINES:
        engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
        plain = engine.execute(query)
        tracer = obs_trace.arm(obs_trace.Tracer("query"))
        try:
            traced = engine.execute(query)
        finally:
            tree = tracer.finish()
            obs_trace.disarm()
        context = f"seed={seed} engine={engine_name}"
        # Same engine, same frozen store, deterministic evaluation:
        # even a LIMIT page must be identical run to run.
        assert traced.solutions == plain.solutions, context

        def well_formed(node, path="root"):
            assert isinstance(node.get("name"), str) and node["name"], (context, path)
            assert node.get("ms") is not None and node["ms"] >= 0, (context, path)
            for child in node.get("children", ()):
                well_formed(child, path + "/" + node["name"])

        well_formed(tree)
