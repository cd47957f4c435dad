"""Unit tests for sampling-based cardinality estimation (§5.1.2)."""

import pytest

from repro.bgp import CardinalityEstimator
from repro.rdf import Dataset, IRI, Triple, TriplePattern, Variable
from repro.storage import TripleStore

EX = "http://x/"
P, Q = IRI(EX + "p"), IRI(EX + "q")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture(scope="module")
def store():
    d = Dataset()
    # 20 subjects, each with 3 p-edges; 10 of them have a q-edge.
    for i in range(20):
        s = IRI(EX + f"s{i}")
        for j in range(3):
            d.add_spo(s, P, IRI(EX + f"o{i}_{j}"))
        if i < 10:
            d.add_spo(s, Q, IRI(EX + f"t{i}"))
    return TripleStore.from_dataset(d)


def count(store, pattern):
    return store.count_pattern(store.encode_pattern(pattern))


class TestSinglePattern:
    def test_exact_count(self, store):
        assert count(store, TriplePattern(X, P, Y)) == 60
        assert count(store, TriplePattern(X, Q, Y)) == 10

    def test_constant_anchored(self, store):
        assert count(store, TriplePattern(IRI(EX + "s0"), P, Y)) == 3

    def test_absent_constant(self, store):
        assert count(store, TriplePattern(IRI(EX + "missing"), P, Y)) == 0


class TestSequences:
    def test_empty_sequence(self, store):
        final, steps = CardinalityEstimator(store).estimate_sequence([])
        assert final == 1.0 and steps == []

    def test_two_pattern_join_estimate(self, store):
        est = CardinalityEstimator(store, sample_size=64, seed=1)
        patterns = [TriplePattern(X, Q, Y), TriplePattern(X, P, Z)]
        final, steps = est.estimate_sequence(patterns)
        # Exactly 10 subjects have q; each has 3 p-edges → true card 30.
        assert steps[0] == 10.0
        assert final == pytest.approx(30.0, rel=0.4)

    def test_floor_is_one(self, store):
        est = CardinalityEstimator(store)
        patterns = [
            TriplePattern(X, Q, Y),
            TriplePattern(X, IRI(EX + "nothere"), Z),
        ]
        final, _ = est.estimate_sequence(patterns)
        assert final == 1.0

    def test_deterministic_with_seed(self, store):
        patterns = [TriplePattern(X, P, Y), TriplePattern(X, Q, Z)]
        one = CardinalityEstimator(store, seed=5).estimate_sequence(patterns)[0]
        two = CardinalityEstimator(store, seed=5).estimate_sequence(patterns)[0]
        assert one == two

    def test_invalid_sample_size(self, store):
        with pytest.raises(ValueError):
            CardinalityEstimator(store, sample_size=0)


class TestHistoryIndependence:
    """An estimate depends on its patterns, never on the estimates made
    before it: each server worker plans the paper queries in its own
    order, and must still pick one plan per text."""

    def test_repeated_sequence_gives_the_same_estimate(self, store):
        est = CardinalityEstimator(store, sample_size=4)
        patterns = [TriplePattern(X, P, Y), TriplePattern(X, Q, Z)]
        first = est.estimate_sequence(patterns)
        est.estimate_sequence([TriplePattern(X, Q, Z), TriplePattern(X, P, Y)])
        assert est.estimate_sequence(patterns) == first

    def test_q11_plan_ignores_earlier_plans(self, lubm_u1_store):
        from repro.core.engine import SparqlUOEngine
        from repro.datasets.queries import LUBM_QUERIES

        def report(engine):
            prepared = engine.prepare(LUBM_QUERIES["q1.1"])
            return vars(prepared.report)

        first = SparqlUOEngine(lubm_u1_store, bgp_engine="wco", mode="full")
        later = SparqlUOEngine(lubm_u1_store, bgp_engine="wco", mode="full")
        for name in ("q1.5", "q2.6"):
            later.prepare(LUBM_QUERIES[name])
        assert report(later) == report(first)
