"""An empty bag ends its group: differential and count tests.

The differential half runs the empty-left matrix of
``tests/enumerator.py`` on a snapshot-loaded frozen store and on a delta
overlay whose pending deletes emptied the lefts, both engines, ``base``
and ``full``, bag-equal to the naive oracle.  The count half pins the
served entity shape: an entity without incoming edges must not evaluate
the OPTIONAL's BGP, one with incoming edges must still prune it.
"""

from __future__ import annotations

import pytest

from repro import SparqlUOEngine
from repro.obs import trace as obs_trace
from repro.rdf import Dataset, Literal
from repro.sparql.parser import parse_query
from repro.storage import TripleStore

from . import enumerator, oracle
from .enumerator import EX, iri

CASES = list(enumerator.cases())


@pytest.fixture(scope="module", params=sorted(enumerator.STORAGES))
def storage(request, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(request.param))
    return request.param, enumerator.STORAGES[request.param](directory)


def _left_sizes(store):
    engine = SparqlUOEngine(store, mode="base")
    return [
        len(engine.execute(f"SELECT * WHERE {{ {left.text} }}"))
        for left in enumerator.EMPTY_LEFTS
    ]


def test_every_left_is_empty(storage):
    assert _left_sizes(storage[1]) == [0] * len(enumerator.EMPTY_LEFTS)


def test_overlay_deletes_emptied_non_empty_lefts(tmp_path):
    store = enumerator.overlay_store(str(tmp_path))
    assert store.pending_delta == (0, len(enumerator.revivers()))
    store.apply_update(inserts=enumerator.revivers())
    assert 0 not in _left_sizes(store)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_empty_left_matches_oracle(case, storage):
    name, store = storage
    expected = oracle.as_counter(
        oracle.execute(parse_query(case.text), enumerator.dataset()).rows
    )
    # A left BGP and a right BGP coalesce into one (empty) BGP node;
    # every other pairing leaves one operator child after the left.
    skipped = 0 if case.left.bgp and case.right.bgp else 1
    for bgp_engine, mode in enumerator.CONFIGURATIONS:
        result = SparqlUOEngine(store, bgp_engine=bgp_engine, mode=mode).execute(
            case.text
        )
        context = f"{case.id} storage={name} engine={bgp_engine} mode={mode}"
        assert oracle.as_counter([dict(mu) for mu in result]) == expected, context
        assert result.exec_counters["operators_skipped_empty"] == skipped, context


# ----------------------------------------------------------------------
# the served entity shape: { <E> ?p ?o } UNION { ?s ?p <E> OPTIONAL {…} }
# ----------------------------------------------------------------------
def _entity_query(entity: str) -> str:
    return (
        f"SELECT * WHERE {{ {{ <{EX}{entity}> ?p ?o }} UNION "
        f"{{ ?s ?p <{EX}{entity}> OPTIONAL {{ ?s <{EX}name> ?n }} }} }}"
    )


@pytest.fixture(scope="module")
def entity_store():
    """20 named entities; e0 → e1 → e2 → e3 are the only other edges,
    so e0 has no incoming edge and e2 has one."""
    d = Dataset()
    for i in range(20):
        d.add_spo(iri(f"e{i}"), iri("name"), Literal(f"E{i}"))
        if i < 3:
            d.add_spo(iri(f"e{i}"), iri("link"), iri(f"e{i + 1}"))
    return TripleStore.from_dataset(d)


@pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
class TestEntityShapeCounts:
    def test_no_incoming_edge_skips_the_optional(self, entity_store, bgp_engine):
        engine = SparqlUOEngine(entity_store, bgp_engine=bgp_engine, mode="full")
        result = engine.execute(_entity_query("e0"))
        assert len(result) == 2  # e0's name and its link
        # Only the two branch-leading BGPs ran; ?s <name> ?n did not.
        assert result.trace.bgp_evaluations == 2
        assert result.exec_counters["operators_skipped_empty"] == 1
        assert result.exec_counters["rows_materialized"] == 2

    def test_armed_tracer_annotates_the_skip(self, entity_store, bgp_engine):
        engine = SparqlUOEngine(entity_store, bgp_engine=bgp_engine, mode="full")
        tracer = obs_trace.arm(obs_trace.Tracer("query"))
        try:
            engine.execute(_entity_query("e0"))
        finally:
            tree = tracer.finish()
            obs_trace.disarm()
        stack, skipped = [tree], []
        while stack:
            span = stack.pop()
            stack.extend(span.get("children", ()))
            if "skipped" in span.get("meta", {}):
                skipped.append(span["meta"]["skipped"])
        assert skipped == [1]
        assert tree["counters"]["operators_skipped_empty"] == 1

    def test_non_empty_left_still_prunes(self, entity_store, bgp_engine):
        engine = SparqlUOEngine(entity_store, bgp_engine=bgp_engine, mode="full")
        result = engine.execute(_entity_query("e2"))
        assert len(result) == 3  # name, outgoing link, e1's incoming link
        assert result.trace.bgp_evaluations == 3
        assert result.trace.pruned_evaluations >= 1
        assert result.exec_counters["operators_skipped_empty"] == 0
