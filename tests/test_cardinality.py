"""Unit tests for sampling-based cardinality estimation (§5.1.2)."""

import pytest

from repro.bgp import HashJoinEngine, WCOJoinEngine
from repro.bgp.cardinality import estimate_sequence
from repro.core.engine import SparqlUOEngine
from repro.rdf import Dataset, IRI, TriplePattern, Variable
from repro.storage import TripleStore

EX = "http://x/"
P, Q = IRI(EX + "p"), IRI(EX + "q")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def fresh_store():
    d = Dataset()
    # 20 subjects, each with 3 p-edges; 10 of them have a q-edge.
    for i in range(20):
        s = IRI(EX + f"s{i}")
        for j in range(3):
            d.add_spo(s, P, IRI(EX + f"o{i}_{j}"))
        if i < 10:
            d.add_spo(s, Q, IRI(EX + f"t{i}"))
    return TripleStore.from_dataset(d)


@pytest.fixture(scope="module")
def store():
    return fresh_store()


def count(store, pattern):
    return store.count_pattern(store.encode_pattern(pattern))


def estimate(store, patterns):
    """``estimate_sequence`` over ``patterns`` in the given order, fed
    the way ``BGPEngine.estimate`` feeds it."""
    encoded = [store.encode_pattern(pattern) for pattern in patterns]
    first_count = store.count_pattern(encoded[0]) if encoded else 0
    return estimate_sequence(store, encoded, first_count)


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
        final, steps = estimate(store, [])
        assert final == 1.0 and steps == []

    def test_two_pattern_join_estimate(self, store):
        patterns = [TriplePattern(X, Q, Y), TriplePattern(X, P, Z)]
        final, steps = estimate(store, patterns)
        # Exactly 10 subjects have q; each has 3 p-edges → true card 30.
        assert steps[0] == 10.0
        assert final == pytest.approx(30.0, rel=0.4)

    def test_floor_is_one(self, store):
        patterns = [
            TriplePattern(X, Q, Y),
            TriplePattern(X, IRI(EX + "nothere"), Z),
        ]
        final, _ = estimate(store, patterns)
        assert final == 1.0

    def test_deterministic(self, store):
        patterns = [TriplePattern(X, P, Y), TriplePattern(X, Q, Z)]
        assert estimate(store, patterns) == estimate(store, patterns)


class TestPlanningCounts:
    """``BGPEngine.estimate`` encodes and counts each distinct pattern
    once and hands the sampler those encoded patterns: the sampler
    neither re-counts the first pattern nor decodes a sampled id."""

    PATTERNS = [
        TriplePattern(X, Q, Y),
        TriplePattern(X, P, Z),
        TriplePattern(X, Q, Y),  # a repeat is counted once
    ]

    def planning_calls(self, store, monkeypatch, cls):
        """The ``count_pattern`` arguments and decoded ids of one
        ``estimate`` on a fresh engine."""
        counted, decoded = [], []
        count_pattern = store.count_pattern
        store_decode = TripleStore.decode
        dictionary_decode = type(store.dictionary).decode

        def counting(encoded):
            counted.append(encoded)
            return count_pattern(encoded)

        def decoding(decode):
            def wrapper(self, term_id):
                decoded.append(term_id)
                return decode(self, term_id)

            return wrapper

        monkeypatch.setattr(store, "count_pattern", counting)
        monkeypatch.setattr(TripleStore, "decode", decoding(store_decode))
        monkeypatch.setattr(type(store.dictionary), "decode", decoding(dictionary_decode))
        estimate = cls(store).estimate(self.PATTERNS)
        assert estimate.cardinality == pytest.approx(30.0, rel=0.4)
        return counted, decoded

    @pytest.mark.parametrize("cls", [WCOJoinEngine, HashJoinEngine])
    def test_one_count_per_distinct_pattern(self, store, monkeypatch, cls):
        counted, _ = self.planning_calls(store, monkeypatch, cls)
        assert sorted(counted) == sorted({store.encode_pattern(p) for p in self.PATTERNS})

    @pytest.mark.parametrize("cls", [WCOJoinEngine, HashJoinEngine])
    def test_no_decode(self, store, monkeypatch, cls):
        _, decoded = self.planning_calls(store, monkeypatch, cls)
        assert decoded == []


class TestEstimateMemo:
    """The estimate memo holds one store generation: an update empties
    it, so a worker applying a stream of updates keeps no entry a later
    call can no longer reach."""

    def test_updates_leave_only_the_current_generation(self):
        query = f"SELECT * WHERE {{ ?x <{EX}q> ?y OPTIONAL {{ ?x <{EX}p> ?z }} }}"
        engine = SparqlUOEngine(fresh_store(), mode="full")
        engine.execute(query)
        memo = engine.bgp_engine._estimate_cache
        assert memo
        for i in range(20):
            engine.update(f"INSERT DATA {{ <{EX}s{i}> <{EX}q> <{EX}u{i}> }}")
            engine.execute(query)
        # Exactly what one planning pass on the current store leaves.
        current = SparqlUOEngine(engine.store, mode="full")
        current.execute(query)
        assert set(memo) == set(current.bgp_engine._estimate_cache)

    def test_repeat_is_a_hit(self, store):
        engine = WCOJoinEngine(store)
        patterns = [TriplePattern(X, Q, Y), TriplePattern(X, P, Z)]
        assert engine.estimate(patterns) is engine.estimate(list(patterns))


class TestHistoryIndependence:
    """An estimate depends on its patterns, never on the estimates made
    before it: each server worker plans the paper queries in its own
    order, and must still pick one plan per text."""

    def test_repeated_sequence_gives_the_same_estimate(self, store):
        patterns = [TriplePattern(X, P, Y), TriplePattern(X, Q, Z)]
        first = estimate(store, patterns)
        estimate(store, [TriplePattern(X, Q, Z), TriplePattern(X, P, Y)])
        assert estimate(store, patterns) == first

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
