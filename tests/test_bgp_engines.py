"""Both BGP engines against the naive oracle, plus candidates.

Every behavioural test runs over both engines via the parametrized
``engine`` fixture — the BGP-engine interface is the contract the whole
SPARQL-UO layer rests on (§4's architectural claim).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp import HashJoinEngine, WCOJoinEngine
from repro.bgp.interface import decode_page
from repro.rdf import Dataset, IRI, TriplePattern, Variable
from repro.sparql import GroupGraphPattern
from repro.sparql.bags import Bag
from repro.storage import SortedIdSet, TripleStore

from . import oracle
from .strategies import datasets, triple_patterns

EX = "http://x/"
P, Q, R = IRI(EX + "p"), IRI(EX + "q"), IRI(EX + "r")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")
ids_of = SortedIdSet.from_ids


def reference_bgp(patterns, dataset):
    """Definition 7 evaluation of a BGP: join of the pattern scans."""
    return oracle.as_counter(oracle.evaluate_group(GroupGraphPattern(patterns), dataset))


@pytest.fixture(scope="module")
def graph():
    d = Dataset()
    for i in range(12):
        s = IRI(EX + f"n{i}")
        d.add_spo(s, P, IRI(EX + f"n{(i + 1) % 12}"))
        if i % 2 == 0:
            d.add_spo(s, Q, IRI(EX + f"n{(i + 5) % 12}"))
        if i % 3 == 0:
            d.add_spo(s, R, s)
    return d


@pytest.fixture(scope="module")
def graph_store(graph):
    return TripleStore.from_dataset(graph)


@pytest.fixture(params=["wco", "hashjoin"])
def engine(request, graph_store):
    cls = WCOJoinEngine if request.param == "wco" else HashJoinEngine
    return cls(graph_store)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "patterns",
        [
            [TriplePattern(X, P, Y)],
            [TriplePattern(X, P, Y), TriplePattern(Y, P, Z)],
            [TriplePattern(X, P, Y), TriplePattern(Y, Q, Z), TriplePattern(Z, P, X)],
            [TriplePattern(X, P, Y), TriplePattern(Z, Q, X)],
            [TriplePattern(X, R, X)],  # repeated variable
            [TriplePattern(X, Variable("pred"), Y)],  # predicate variable
            [TriplePattern(X, P, Y), TriplePattern(Z, R, Z)],  # cartesian
        ],
        ids=["single", "chain", "cycle", "reverse", "selfloop", "predvar", "cartesian"],
    )
    def test_matches_reference(self, engine, graph, patterns):
        expected = reference_bgp(patterns, graph)
        bag = engine.evaluate(patterns)
        assert oracle.as_counter(decode_page(engine.store, bag, bag.schema)) == expected

    def test_empty_bgp_is_identity(self, engine):
        assert engine.evaluate([]) == Bag.identity()

    def test_ground_pattern_present(self, engine, graph_store):
        pattern = TriplePattern(IRI(EX + "n0"), P, IRI(EX + "n1"))
        assert engine.evaluate([pattern]) == Bag.identity()

    def test_ground_pattern_absent(self, engine):
        pattern = TriplePattern(IRI(EX + "n0"), P, IRI(EX + "n3"))
        assert len(engine.evaluate([pattern])) == 0

    def test_unknown_constant_empty(self, engine):
        pattern = TriplePattern(IRI(EX + "nowhere"), P, X)
        assert len(engine.evaluate([pattern])) == 0

    def test_joined_with_unknown_constant_empty(self, engine):
        patterns = [TriplePattern(X, P, Y), TriplePattern(Y, P, IRI(EX + "nowhere"))]
        assert len(engine.evaluate(patterns)) == 0


class TestCandidates:
    def test_candidates_restrict_results(self, engine, graph_store):
        n0 = graph_store.lookup(IRI(EX + "n0"))
        patterns = [TriplePattern(X, P, Y)]
        full = engine.evaluate(patterns)
        restricted = engine.evaluate(patterns, {"x": ids_of({n0})})
        assert restricted == Bag([m for m in full if m["x"] == n0])

    def test_candidates_equal_filtered_full_eval(self, engine, graph_store):
        ids = {graph_store.lookup(IRI(EX + f"n{i}")) for i in (0, 2, 4)}
        patterns = [TriplePattern(X, P, Y), TriplePattern(X, Q, Z)]
        full = engine.evaluate(patterns)
        restricted = engine.evaluate(patterns, {"x": ids_of(ids)})
        assert restricted == Bag([m for m in full if m["x"] in ids])

    def test_candidates_on_two_variables(self, engine, graph_store):
        n0 = graph_store.lookup(IRI(EX + "n0"))
        n1 = graph_store.lookup(IRI(EX + "n1"))
        patterns = [TriplePattern(X, P, Y)]
        restricted = engine.evaluate(patterns, {"x": ids_of({n0}), "y": ids_of({n1})})
        assert restricted == Bag([{"x": n0, "y": n1}])

    def test_empty_candidate_set_gives_empty(self, engine):
        patterns = [TriplePattern(X, P, Y)]
        assert len(engine.evaluate(patterns, {"x": ids_of(())})) == 0

    def test_irrelevant_candidates_ignored(self, engine):
        patterns = [TriplePattern(X, P, Y)]
        full = engine.evaluate(patterns)
        assert engine.evaluate(patterns, {"unused": ids_of({1, 2})}) == full

    def test_candidate_driven_scan_pins_repeated_predicate_variable(self):
        """A driver variable repeated at the predicate position (?x ?x ?o)
        must be pinned in the candidate-driven probe too — leaving it
        free would match triples whose predicate differs from the
        candidate subject."""
        d = Dataset()
        a, b, q = IRI(EX + "a"), IRI(EX + "b"), IRI(EX + "qq")
        d.add_spo(a, P, b)  # subject != predicate: must never match ?x ?x ?o
        d.add_spo(q, q, b)  # subject == predicate
        store = TripleStore.from_dataset(d)
        pattern = [TriplePattern(X, Variable("x"), Y)]
        for cls in (WCOJoinEngine, HashJoinEngine):
            engine = cls(store)
            full = engine.evaluate(pattern)
            assert full == Bag([{"x": store.lookup(q), "y": store.lookup(b)}])
            # Candidate sets small enough to drive the scan:
            assert engine.evaluate(pattern, {"x": ids_of({store.lookup(a)})}) == Bag()
            assert engine.evaluate(pattern, {"x": ids_of({store.lookup(q)})}) == full


class TestEstimates:
    def test_estimate_positive_for_nonempty(self, engine):
        estimate = engine.estimate([TriplePattern(X, P, Y)])
        assert estimate.cost > 0
        assert estimate.cardinality == 12.0  # exact for single patterns

    def test_estimate_empty_bgp(self, engine):
        estimate = engine.estimate([])
        assert estimate.cost == 0.0 and estimate.cardinality == 1.0

    def test_estimate_multi_pattern_runs(self, engine):
        estimate = engine.estimate(
            [TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)]
        )
        assert estimate.cost >= 0 and estimate.cardinality >= 1.0


class TestDecodeHelpers:
    def test_decode_page(self, engine, graph_store):
        n0 = graph_store.lookup(IRI(EX + "n0"))
        bag = Bag([{"x": n0}])
        decoded = decode_page(engine.store, bag, bag.schema)
        assert decoded == Bag([{"x": IRI(EX + "n0")}])


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(datasets(), st.lists(triple_patterns(), min_size=1, max_size=3))
    def test_engines_match_reference_on_random_bgps(self, dataset, patterns):
        store = TripleStore.from_dataset(dataset)
        expected = reference_bgp(patterns, dataset)
        for cls in (WCOJoinEngine, HashJoinEngine):
            bag = cls(store).evaluate(patterns)
            assert oracle.as_counter(decode_page(store, bag, bag.schema)) == expected

    @settings(max_examples=30, deadline=None)
    @given(datasets(), st.lists(triple_patterns(), min_size=1, max_size=2))
    def test_engines_agree_with_each_other_under_candidates(self, dataset, patterns):
        store = TripleStore.from_dataset(dataset)
        wco, hashjoin = WCOJoinEngine(store), HashJoinEngine(store)
        # Use all subject ids of the store as a candidate set for 'v0'.
        ids = {store.dictionary.lookup(t.subject) for t in dataset}
        ids.discard(None)
        candidates = {"v0": ids_of(ids)} if ids else None
        assert wco.evaluate(patterns, candidates) == hashjoin.evaluate(patterns, candidates)
