"""The crown-jewel property: every execution strategy agrees with the
naive oracle's Definition 7 semantics (``tests/oracle.py``) on
*arbitrary* random SPARQL-UO queries over arbitrary random datasets.

This exercises, in combination: BE-tree construction (with its
crossing-safety guard), merge/inject transformations (Theorems 1–2 plus
the relocation side-conditions), the cost-driven transformer, candidate
pruning with both thresholds, and both BGP engines.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import BETree, SparqlUOEngine
from repro.core.transform import multi_level_transform
from repro.core.cost import CostModel
from repro.bgp import HashJoinEngine, WCOJoinEngine
from repro.sparql import SelectQuery
from repro.storage import TripleStore

from . import oracle
from .strategies import datasets, select_queries

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference(query, dataset):
    return oracle.answer(query, dataset)


class TestModeEquivalence:
    @settings(max_examples=80, **COMMON_SETTINGS)
    @given(datasets(), select_queries())
    def test_base_and_full_match_reference_wco(self, dataset, query):
        store = TripleStore.from_dataset(dataset)
        expected = reference(query, dataset)
        for mode in ("base", "full"):
            engine = SparqlUOEngine(store, bgp_engine="wco", mode=mode)
            assert oracle.as_counter(engine.execute(query)) == expected, mode

    @settings(max_examples=40, **COMMON_SETTINGS)
    @given(datasets(), select_queries())
    def test_base_and_full_match_reference_hashjoin(self, dataset, query):
        store = TripleStore.from_dataset(dataset)
        expected = reference(query, dataset)
        for mode in ("base", "full"):
            engine = SparqlUOEngine(store, bgp_engine="hashjoin", mode=mode)
            assert oracle.as_counter(engine.execute(query)) == expected, mode

    @settings(max_examples=40, **COMMON_SETTINGS)
    @given(datasets(), select_queries())
    def test_tt_and_cp_match_reference(self, dataset, query):
        store = TripleStore.from_dataset(dataset)
        expected = reference(query, dataset)
        for mode in ("tt", "cp"):
            engine = SparqlUOEngine(store, bgp_engine="wco", mode=mode)
            assert oracle.as_counter(engine.execute(query)) == expected, mode


class TestTreeLevelProperties:
    @settings(max_examples=60, **COMMON_SETTINGS)
    @given(datasets(), select_queries())
    def test_betree_construction_preserves_semantics(self, dataset, query):
        """BE-tree → syntax round trip evaluates identically (the
        coalescing guard at work)."""
        tree = BETree.from_query(query)
        rebuilt = SelectQuery(None, tree.to_group())
        assert reference(rebuilt, dataset) == reference(query, dataset)

    @settings(max_examples=60, **COMMON_SETTINGS)
    @given(datasets(), select_queries())
    def test_transformed_tree_preserves_semantics(self, dataset, query):
        """Cost-driven transformation never changes results, whatever
        mixture of merges and injects it decides on."""
        store = TripleStore.from_dataset(dataset)
        tree = BETree.from_query(query)
        multi_level_transform(CostModel(WCOJoinEngine(store)), tree)
        rebuilt = SelectQuery(None, tree.to_group())
        assert reference(rebuilt, dataset) == reference(query, dataset)


class TestEngineAgreement:
    @settings(max_examples=40, **COMMON_SETTINGS)
    @given(datasets(), select_queries())
    def test_wco_and_hashjoin_agree_in_full_mode(self, dataset, query):
        store = TripleStore.from_dataset(dataset)
        wco = SparqlUOEngine(store, bgp_engine="wco", mode="full")
        hashjoin = SparqlUOEngine(store, bgp_engine="hashjoin", mode="full")
        assert wco.execute(query).solutions == hashjoin.execute(query).solutions
