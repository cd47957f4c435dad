"""SPARQL 1.1 UPDATE: parser, engine semantics, and write-path faults.

Covers the three supported operation forms (``INSERT DATA``,
``DELETE DATA``, ``DELETE/INSERT … WHERE``), the engine's template
instantiation rules, the write-path invalidation fix (no-op batches
must not bump the generation or drop derived caches), the guarantee
that queries over pending writes still take the sorted-run execution
paths, and the two write-path fault sites
(``delta.apply``, ``compact.publish``).
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core import SparqlUOEngine, UpdateResult
from repro.faults import InjectedFaultError
from repro.rdf import IRI, Triple
from repro.sparql import (
    DeleteData,
    InsertData,
    ModifyUpdate,
    SparqlSyntaxError,
    UnsupportedFeatureError,
    parse_update,
)
from repro.storage import DeltaOverlayIndexes, TripleStore

EX = "http://example.org/u#"


def _triples(n=4):
    return [
        Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}linked"), IRI(f"{EX}o{i}")) for i in range(n)
    ]


@pytest.fixture
def frozen_store(tmp_path):
    """A snapshot-backed (frozen) store — the production serving shape."""
    path = str(tmp_path / "u.snap")
    TripleStore.from_triples(_triples()).save(path)
    store = TripleStore.load(path)
    yield store
    store.close()


@pytest.fixture(autouse=True)
def _disarm_after():
    yield
    faults.disarm()


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
class TestParseUpdate:
    def test_insert_data(self):
        request = parse_update(
            f'INSERT DATA {{ <{EX}a> <{EX}p> "x" . <{EX}b> <{EX}p> <{EX}c> }}'
        )
        assert len(request.operations) == 1
        op = request.operations[0]
        assert isinstance(op, InsertData)
        assert len(op.triples) == 2

    def test_delete_data(self):
        request = parse_update(f"DELETE DATA {{ <{EX}a> <{EX}p> <{EX}b> }}")
        assert isinstance(request.operations[0], DeleteData)

    def test_modify(self):
        request = parse_update(
            f"PREFIX ex: <{EX}> "
            "DELETE { ?s ex:old ?o } INSERT { ?s ex:new ?o } "
            "WHERE { ?s ex:old ?o }"
        )
        op = request.operations[0]
        assert isinstance(op, ModifyUpdate)
        assert len(op.delete_template) == 1
        assert len(op.insert_template) == 1

    def test_delete_where_shorthand(self):
        request = parse_update(f"DELETE WHERE {{ ?s <{EX}p> ?o }}")
        op = request.operations[0]
        assert isinstance(op, ModifyUpdate)
        assert list(op.insert_template) == []
        # The WHERE patterns double as the delete template.
        assert len(op.delete_template) == 1

    def test_insert_only_modify(self):
        request = parse_update(
            f"INSERT {{ ?s <{EX}copy> ?o }} WHERE {{ ?s <{EX}p> ?o }}"
        )
        op = request.operations[0]
        assert isinstance(op, ModifyUpdate)
        assert list(op.delete_template) == []

    def test_multiple_operations_and_trailing_semicolon(self):
        request = parse_update(
            f"INSERT DATA {{ <{EX}a> <{EX}p> <{EX}b> }} ; "
            f"DELETE DATA {{ <{EX}a> <{EX}p> <{EX}b> }} ;"
        )
        assert len(request.operations) == 2

    def test_variables_in_data_block_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_update(f"INSERT DATA {{ ?s <{EX}p> <{EX}b> }}")

    def test_garbage_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_update("INSERT DATA { <u:a> <u:b> ")
        with pytest.raises(SparqlSyntaxError):
            parse_update("SELECT ?x WHERE { ?x ?y ?z }")

    @pytest.mark.parametrize(
        "text",
        [
            "LOAD <http://example.org/data.nt>",
            f"CLEAR GRAPH <{EX}g>",
            f"WITH <{EX}g> DELETE {{ ?s ?p ?o }} WHERE {{ ?s ?p ?o }}",
            f"INSERT {{ ?s ?p ?o }} USING <{EX}g> WHERE {{ ?s ?p ?o }}",
            f"INSERT DATA {{ GRAPH <{EX}g> {{ <{EX}a> <{EX}p> <{EX}b> }} }}",
        ],
    )
    def test_graph_management_unsupported(self, text):
        with pytest.raises(UnsupportedFeatureError):
            parse_update(text)


# ----------------------------------------------------------------------
# engine semantics
# ----------------------------------------------------------------------
class TestEngineUpdate:
    def test_insert_data_end_to_end(self, frozen_store):
        engine = SparqlUOEngine(frozen_store)
        before = frozen_store.generation
        result = engine.update(
            f"INSERT DATA {{ <{EX}s0> <{EX}linked> <{EX}extra> }}"
        )
        assert isinstance(result, UpdateResult)
        assert result.added == 1 and result.removed == 0
        assert result.generation == before + 1
        assert len(engine.execute(f"SELECT ?o WHERE {{ <{EX}s0> <{EX}linked> ?o }}")) == 2

    def test_modify_rewrites_matches(self, frozen_store):
        engine = SparqlUOEngine(frozen_store)
        result = engine.update(
            f"DELETE {{ ?s <{EX}linked> ?o }} INSERT {{ ?o <{EX}linked> ?s }} "
            f"WHERE {{ ?s <{EX}linked> ?o }}"
        )
        assert result.added == 4 and result.removed == 4
        rows = engine.execute(f"SELECT ?s WHERE {{ ?s <{EX}linked> <{EX}s1> }}")
        assert len(rows) == 1

    def test_delete_where(self, frozen_store):
        engine = SparqlUOEngine(frozen_store)
        result = engine.update(f"DELETE WHERE {{ ?s <{EX}linked> ?o }}")
        assert result.removed == 4
        assert len(frozen_store) == 0

    def test_invalid_instantiations_are_dropped(self, frozen_store):
        engine = SparqlUOEngine(frozen_store)
        # ?o binds to IRIs here; inserting them as subjects is fine, but
        # a *literal* in subject position must be silently skipped, not
        # fail the whole operation (SPARQL 1.1 §3.1.3).
        engine.update(f'INSERT DATA {{ <{EX}s9> <{EX}label> "a literal" }}')
        result = engine.update(
            f"INSERT {{ ?o <{EX}tag> <{EX}t> }} WHERE {{ ?s <{EX}label> ?o }}"
        )
        assert result.added == 0 and result.removed == 0

    def test_sequence_applies_in_order(self, frozen_store):
        engine = SparqlUOEngine(frozen_store)
        result = engine.update(
            f"INSERT DATA {{ <{EX}a> <{EX}p> <{EX}b> }} ; "
            f"DELETE DATA {{ <{EX}a> <{EX}p> <{EX}b> }}"
        )
        assert result.added == 1 and result.removed == 1
        assert result.operations == 2
        assert len(engine.execute(f"SELECT ?o WHERE {{ <{EX}a> <{EX}p> ?o }}")) == 0

    @pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
    def test_reads_over_pending_writes_stay_on_sorted_runs(self, bgp_engine):
        """After live writes the store still serves a frozen-shaped
        index and queries still take the
        merge/gallop execution paths — over results that already
        include the pending writes."""
        triples = []
        for i in range(40):
            s = IRI(f"{EX}n{i}")
            triples.append(Triple(s, IRI(f"{EX}p"), IRI(f"{EX}hub")))
            if i % 4 == 0:
                triples.append(Triple(s, IRI(f"{EX}r"), IRI(f"{EX}flag")))
        store = TripleStore.from_triples(triples)
        engine = SparqlUOEngine(store, bgp_engine=bgp_engine)
        engine.update(
            f"INSERT DATA {{ <{EX}extra> <{EX}p> <{EX}hub> . "
            f"<{EX}extra> <{EX}r> <{EX}flag> }} ; "
            f"DELETE DATA {{ <{EX}n0> <{EX}r> <{EX}flag> }}"
        )
        assert isinstance(store.indexes, DeltaOverlayIndexes)
        result = engine.execute(
            f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}hub> . ?x <{EX}r> <{EX}flag> }}"
        )
        # 10 flagged nodes originally, minus the tombstoned n0, plus
        # the pending-insert "extra" node.
        assert len(result) == 10
        values = {row["x"].value for row in result.solutions}
        assert f"{EX}extra" in values and f"{EX}n0" not in values
        counters = result.exec_counters
        sorted_run_work = (
            counters.get("merge_joins", 0)
            + counters.get("gallop_probes", 0)
            + counters.get("candidate_intersections", 0)
        )
        assert sorted_run_work > 0, counters
        assert counters.get("hash_joins", 0) == 0, counters


    @pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
    def test_read_after_compact_equals_overlay_read(self, tmp_path, bgp_engine):
        """Compaction changes where the triples live, never what a read
        returns: the join over pending adds and tombstones answers the
        same from the folded snapshot, in memory and from a cold load."""
        path = str(tmp_path / "c.snap")
        TripleStore.from_triples(
            Triple(IRI(f"{EX}n{i}"), IRI(f"{EX}p" if i % 2 else f"{EX}r"), IRI(f"{EX}o{i % 5}"))
            for i in range(40)
        ).save(path)
        store = TripleStore.load(path)
        engine = SparqlUOEngine(store, bgp_engine=bgp_engine)
        engine.update(
            f"INSERT DATA {{ <{EX}n2> <{EX}p> <{EX}o2> . <{EX}x> <{EX}r> <{EX}o1> . "
            f"<{EX}x> <{EX}p> <{EX}o1> }} ; "
            f"DELETE DATA {{ <{EX}n1> <{EX}p> <{EX}o1> . <{EX}n6> <{EX}r> <{EX}o1> }}"
        )
        query = f"SELECT ?x ?y ?o WHERE {{ ?x <{EX}p> ?o . ?y <{EX}r> ?o }}"
        overlay = engine.execute(query).solutions
        assert len(overlay) > 0 and store.pending_delta == (3, 2)
        store.compact(path)
        assert store.pending_delta == (0, 0)
        assert engine.execute(query).solutions == overlay
        cold = TripleStore.load(path)
        try:
            assert SparqlUOEngine(cold, bgp_engine=bgp_engine).execute(query).solutions == overlay
        finally:
            cold.close()
        store.close()


# ----------------------------------------------------------------------
# write-path invalidation (regression)
# ----------------------------------------------------------------------
class TestWriteInvalidation:
    def test_duplicate_insert_does_not_bump_generation(self, frozen_store):
        generation = frozen_store.generation
        stats = frozen_store.statistics
        assert frozen_store.add(_triples()[0]) is False
        assert frozen_store.add_all(_triples()) == 0
        # No visibility change → same generation, derived caches kept.
        assert frozen_store.generation == generation
        assert frozen_store.statistics is stats

    def test_missing_delete_does_not_bump_generation(self, frozen_store):
        generation = frozen_store.generation
        absent = Triple(IRI(f"{EX}ghost"), IRI(f"{EX}linked"), IRI(f"{EX}ghost"))
        assert frozen_store.remove(absent) is False
        assert frozen_store.apply_update(deletes=[absent]) == (0, 0)
        assert frozen_store.generation == generation

    def test_effective_write_bumps_and_invalidates(self, frozen_store):
        generation = frozen_store.generation
        stats = frozen_store.statistics
        added, removed = frozen_store.apply_update(
            inserts=[Triple(IRI(f"{EX}new"), IRI(f"{EX}linked"), IRI(f"{EX}new"))]
        )
        assert (added, removed) == (1, 0)
        assert frozen_store.generation == generation + 1
        assert frozen_store.statistics is not stats

    def test_mixed_batch_counts_only_effective_rows(self, frozen_store):
        triples = _triples()
        added, removed = frozen_store.apply_update(
            inserts=triples,  # duplicates, except the one just deleted
            deletes=[triples[0], triples[0]],  # second delete is a miss
        )
        # Deletes apply first (SPARQL 1.1 order): the delete lands once,
        # then the re-insert of the same triple is the only add.
        assert (added, removed) == (1, 1)
        assert len(frozen_store) == 4


# ----------------------------------------------------------------------
# write-path fault sites
# ----------------------------------------------------------------------
class TestWriteFaults:
    def test_delta_apply_fault_rejects_batch_atomically(self, frozen_store):
        generation = frozen_store.generation
        size = len(frozen_store)
        faults.arm("delta.apply:io_error@1")
        with pytest.raises(InjectedFaultError):
            frozen_store.apply_update(
                inserts=[Triple(IRI(f"{EX}x"), IRI(f"{EX}linked"), IRI(f"{EX}y"))]
            )
        faults.disarm()
        # The fault fires before admission: nothing landed.
        assert frozen_store.generation == generation
        assert len(frozen_store) == size
        assert frozen_store.pending_delta == (0, 0)

    def test_compact_publish_fault_preserves_file_and_overlay(self, tmp_path):
        path = str(tmp_path / "c.snap")
        TripleStore.from_triples(_triples()).save(path)
        store = TripleStore.load(path)
        try:
            store.add(Triple(IRI(f"{EX}n"), IRI(f"{EX}linked"), IRI(f"{EX}n")))
            assert store.pending_delta == (1, 0)
            faults.arm("compact.publish:io_error@1")
            with pytest.raises(InjectedFaultError):
                store.compact(path)
            faults.disarm()
            # The overlay still holds the pending write …
            assert store.pending_delta == (1, 0)
            assert len(store) == 5
            # … and the on-disk snapshot is the untouched pre-compaction
            # generation, fully loadable.
            cold = TripleStore.load(path)
            try:
                assert len(cold) == 4
            finally:
                cold.close()
            # Retry after the fault clears: publish succeeds, the delta
            # folds, and a cold load sees the write.
            store.compact(path)
            assert store.pending_delta == (0, 0)
            cold = TripleStore.load(path)
            try:
                assert len(cold) == 5
                assert cold.generation == store.generation
            finally:
                cold.close()
        finally:
            store.close()
