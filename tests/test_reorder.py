"""The reorder transformation: a greedy join order of a group's children.

Unit tests pin the placement rules: the smallest estimate leads (an
empty one included), OPTIONALs are barriers, FILTERs, retained empty
BGPs and BGPs a FILTER is pushed into keep their slots, a cartesian
concatenation is never estimated and a lone movable child costs no
estimate.  The permutation matrix of ``tests/enumerator.py`` checks
every written order, reordered, bag-equal against ``tests/oracle.py``
on both engines × ``tt``/``full`` on frozen and overlay stores; a
deliberately unsafe reorder shows the matrix catches an OPTIONAL moved
ahead of the sibling that binds its variable.
"""

from __future__ import annotations

import pytest

from repro import SparqlUOEngine
from repro.bgp import WCOJoinEngine
from repro.bgp.plans import connected_components
from repro.core import (
    BETree,
    BGPNode,
    CostModel,
    FilterNode,
    GroupNode,
    OptionalNode,
    reorder_children,
    transform,
)
from repro.datasets.lubm import generate_lubm
from repro.datasets.queries import LUBM_QUERIES
from repro.rdf import Dataset
from repro.sparql import parse_group
from repro.sparql.parser import parse_query
from repro.storage import TripleStore

from . import enumerator, oracle
from .enumerator import EX, iri


@pytest.fixture(scope="module")
def store():
    """``big`` has 50 subjects, ``mid`` 10, ``small`` 2, ``one`` 1; every
    subject also has an ``o`` edge, so the ``big`` / ``mid`` / ``small``
    relations join on ``?x``."""
    d = Dataset()
    for i in range(50):
        d.add_spo(iri(f"s{i}"), iri("big"), iri(f"b{i}"))
        d.add_spo(iri(f"s{i}"), iri("o"), iri("o"))
        if i < 10:
            d.add_spo(iri(f"s{i}"), iri("mid"), iri(f"m{i}"))
        if i < 2:
            d.add_spo(iri(f"s{i}"), iri("small"), iri(f"w{i}"))
    d.add_spo(iri("s0"), iri("one"), iri("x"))
    return TripleStore.from_dataset(d)


class Spy:
    """Records every pattern list a BGP engine is asked to estimate."""

    def __init__(self, engine):
        self.calls = []
        self._estimate = engine.estimate
        engine.estimate = self

    def __call__(self, patterns):
        self.calls.append(list(patterns))
        return self._estimate(patterns)


def group_of(text: str) -> GroupNode:
    return BETree.from_group(parse_group(text.replace("<", f"<{EX}"))).root


def predicates(group: GroupNode):
    """Each child's first predicate name (or its node kind)."""
    out = []
    for child in group.children:
        node = child.children[0] if isinstance(child, GroupNode) else child
        if isinstance(node, BGPNode) and not node.is_empty():
            out.append(node.patterns[0].predicate.value[len(EX):])
        else:
            out.append(type(node).__name__)
    return out


# ----------------------------------------------------------------------
# placement rules
# ----------------------------------------------------------------------
class TestPlacement:
    def test_smallest_leads_then_cheapest_join(self, store):
        group = group_of("{ { ?x <big> ?y } { ?x <mid> ?z } { ?x <small> ?w } }")
        assert reorder_children(CostModel(WCOJoinEngine(store)), group) == [2, 1, 0]
        assert predicates(group) == ["small", "mid", "big"]

    def test_written_order_is_kept_when_it_is_the_greedy_order(self, store):
        group = group_of("{ { ?x <small> ?w } { ?x <mid> ?z } { ?x <big> ?y } }")
        assert reorder_children(CostModel(WCOJoinEngine(store)), group) is None

    def test_an_empty_estimate_leads_unfloored(self, store):
        # ``one`` is estimated at exactly 1 row: flooring the absent
        # constant's 0 at 1 would tie and keep the written order.
        group = group_of("{ { ?x <one> ?y } { <absent> <big> ?x } }")
        assert reorder_children(CostModel(WCOJoinEngine(store)), group) == [1, 0]

    def test_optional_is_a_barrier(self, store):
        cost_model = CostModel(WCOJoinEngine(store))
        group = group_of(
            "{ { ?x <big> ?y } { ?x <mid> ?z } OPTIONAL { ?x <o> ?v } { ?x <small> ?w } }"
        )
        assert reorder_children(cost_model, group) == [1, 0, 2, 3]
        assert predicates(group) == ["mid", "big", "OptionalNode", "small"]
        alone = group_of("{ { ?x <big> ?y } OPTIONAL { ?x <o> ?v } { ?x <small> ?w } }")
        assert reorder_children(cost_model, alone) is None

    def test_filters_and_empty_bgps_keep_their_slots(self, store):
        group = group_of("{ { ?x <big> ?y } FILTER(?x != <s3>) { ?x <small> ?w } }")
        group.children.insert(0, BGPNode([]))
        empty, big, filter_node, small = group.children
        assert reorder_children(CostModel(WCOJoinEngine(store)), group) == [0, 3, 2, 1]
        assert group.children == [empty, small, filter_node, big]
        assert isinstance(filter_node, FilterNode)

    def test_bgp_a_filter_is_pushed_into_stays(self, store):
        group = group_of("{ ?x <big> ?y . FILTER(?y != <b1>) { ?x <small> ?w } }")
        assert reorder_children(CostModel(WCOJoinEngine(store)), group) is None

    def test_cartesian_children_go_last_unestimated(self, store):
        engine = WCOJoinEngine(store)
        spy = Spy(engine)
        group = group_of("{ ?a <big> ?b . ?c <mid> ?d . ?e <small> ?f }")
        assert reorder_children(CostModel(engine), group) == [2, 1, 0]
        assert spy.calls
        assert all(len(connected_components(call)) == 1 for call in spy.calls)

    def test_lone_movable_child_costs_no_estimate(self, store):
        engine = WCOJoinEngine(store)
        spy = Spy(engine)
        tree = BETree.from_group(
            parse_group(
                f"{{ {{ <{EX}s1> ?p ?o }} UNION "
                f"{{ ?s ?p <{EX}s1> OPTIONAL {{ ?s <{EX}big> ?n }} }} }}"
            )
        )
        cost_model = CostModel(engine)
        groups = [n for n in tree.iter_nodes() if isinstance(n, GroupNode)]
        assert all(reorder_children(cost_model, group) is None for group in groups)
        assert spy.calls == []


class TestEngine:
    QUERY = "SELECT * WHERE { { ?x <big> ?y } { ?x <mid> ?z } { ?x <small> ?w } }"

    def text(self):
        return self.QUERY.replace("<", f"<{EX}")

    def test_base_keeps_the_written_order(self, store):
        prepared = SparqlUOEngine(store, mode="base").prepare(self.text())
        assert prepared.report is None
        assert predicates(prepared.tree.root) == ["big", "mid", "small"]

    @pytest.mark.parametrize("mode", ["tt", "full"])
    def test_transforming_modes_reorder_and_report(self, store, mode):
        engine = SparqlUOEngine(store, mode=mode)
        prepared = engine.prepare(self.text())
        report = prepared.report
        assert predicates(prepared.tree.root) == ["small", "mid", "big"]
        assert report.reorders == 1 and report.transformations == 0
        assert report.placements == [(prepared.tree.root.node_id, [2, 1, 0])]
        assert "reorders=1" in repr(report)
        explained = engine.explain(self.text())
        assert f"reorder GROUP[{prepared.tree.root.node_id}]: written children 2 1 0" in explained


# ----------------------------------------------------------------------
# the paper's q2.2: fewer bag-level rows than the written order
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lubm_store():
    return TripleStore.from_dataset(generate_lubm(universities=1, seed=42))


@pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
def test_q22_reordered_plan_materializes_fewer_rows(lubm_store, bgp_engine):
    query = LUBM_QUERIES["q2.2"]
    base = SparqlUOEngine(lubm_store, bgp_engine=bgp_engine, mode="base").execute(query)
    results = {
        mode: SparqlUOEngine(lubm_store, bgp_engine=bgp_engine, mode=mode).execute(query)
        for mode in ("tt", "full")
    }
    expected = oracle.as_counter([dict(mu) for mu in base])
    for mode, result in results.items():
        assert result.transform_report.reorders == 1, mode
        assert oracle.as_counter([dict(mu) for mu in result]) == expected, mode
        assert result.exec_counters["join_rows"] < base.exec_counters["join_rows"], mode
    full = results["full"].exec_counters
    assert full["rows_materialized"] < base.exec_counters["rows_materialized"]


# ----------------------------------------------------------------------
# permutation soundness
# ----------------------------------------------------------------------
PERMUTATIONS = list(enumerator.permutations())
CONFIGURATIONS = [
    (bgp_engine, mode) for bgp_engine in ("wco", "hashjoin") for mode in ("tt", "full")
]


@pytest.fixture(scope="module", params=sorted(enumerator.STORAGES))
def storage(request, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(request.param))
    return enumerator.STORAGES[request.param](directory)


@pytest.fixture(scope="module")
def expected():
    data = enumerator.dataset()
    return {
        case.id: oracle.as_counter(oracle.execute(parse_query(case.text), data).rows)
        for case in PERMUTATIONS
    }


def mismatches(store, expected, configurations=CONFIGURATIONS):
    """Permutation ids whose answer differs from the oracle, and the
    number of groups the reorder moved along the way."""
    wrong, reorders = [], 0
    for bgp_engine, mode in configurations:
        engine = SparqlUOEngine(store, bgp_engine=bgp_engine, mode=mode)
        for case in PERMUTATIONS:
            result = engine.execute(case.text)
            reorders += result.transform_report.reorders
            if oracle.as_counter([dict(mu) for mu in result]) != expected[case.id]:
                wrong.append(f"{case.id} engine={bgp_engine} mode={mode}")
    return wrong, reorders


def test_every_permutation_matches_oracle(storage, expected):
    wrong, reorders = mismatches(storage, expected)
    assert wrong == []
    assert reorders > 0  # the matrix exercises the reorder, not only the text


def _optional_first(cost_model, group):
    """An unsafe reorder: the first OPTIONAL jumps to the group's front."""
    for index, child in enumerate(group.children):
        if isinstance(child, OptionalNode) and index > 0:
            group.children.insert(0, group.children.pop(index))
            return [index] + [i for i in range(len(group.children)) if i != index]
    return None


def test_unsafe_reorder_is_caught(monkeypatch, tmp_path, expected):
    monkeypatch.setattr(transform, "reorder_children", _optional_first)
    store = enumerator.frozen_store(str(tmp_path))
    wrong, _ = mismatches(store, expected, [("wco", "tt")])
    assert any(case.startswith("bgp-optional") for case in wrong)
