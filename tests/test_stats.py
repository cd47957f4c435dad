"""Unit tests for the statistics catalog."""

import pytest

from repro.storage import FrozenTripleIndexes, StoreStatistics


def build_stats(triples):
    return StoreStatistics.from_indexes(FrozenTripleIndexes.from_columns(*zip(*triples)))


class TestPredicateStatistics:
    def test_degrees(self):
        # predicate 1: subjects {0, 0, 4} → 2 distinct, objects {2, 3, 2} → 2.
        stats = build_stats([(0, 1, 2), (0, 1, 3), (4, 1, 2)])
        per = stats.for_predicate(1)
        assert per.triples == 3
        assert per.distinct_subjects == 2
        assert per.distinct_objects == 2
        assert per.average_out_degree == pytest.approx(1.5)
        assert per.average_in_degree == pytest.approx(1.5)

    def test_missing_predicate_is_zero(self):
        stats = build_stats([(0, 1, 2)])
        per = stats.for_predicate(99)
        assert per.triples == 0
        assert per.average_out_degree == 0.0
        assert per.average_in_degree == 0.0


class TestAverageSize:
    def test_directions(self):
        # 2 triples, 1 subject, 2 objects: out-degree 2, in-degree 1.
        stats = build_stats([(0, 1, 2), (0, 1, 3)])
        assert stats.average_size(1, "out") == pytest.approx(2.0)
        assert stats.average_size(1, "in") == pytest.approx(1.0)

    def test_invalid_direction(self):
        stats = build_stats([(0, 1, 2)])
        with pytest.raises(ValueError):
            stats.average_size(1, "sideways")

    def test_totals(self):
        stats = build_stats([(0, 1, 2), (0, 2, 2)])
        assert stats.total_triples == 2
        assert stats.predicate_count() == 2
