"""Per-predicate statistics for cost and cardinality estimation.

The WCO-join cost formula of §5.1.2 needs ``average_size(v, p)`` — the
average number of edges labelled ``p`` incident to a vertex at ``v``'s
position (out-edges when ``v`` is a subject, in-edges when an object).
This module precomputes those ratios from the indexes once at load time,
exactly what a production store would keep in its statistics catalog.
"""

from __future__ import annotations

from typing import Dict, Iterable

from .indexes import FrozenTripleIndexes

__all__ = ["PredicateStatistics", "StoreStatistics"]


class PredicateStatistics:
    """Degree statistics for one predicate."""

    __slots__ = ("triples", "distinct_subjects", "distinct_objects")

    def __init__(self, triples: int, distinct_subjects: int, distinct_objects: int):
        self.triples = triples
        self.distinct_subjects = distinct_subjects
        self.distinct_objects = distinct_objects

    @property
    def average_out_degree(self) -> float:
        """Average number of p-edges per distinct subject."""
        if not self.distinct_subjects:
            return 0.0
        return self.triples / self.distinct_subjects

    @property
    def average_in_degree(self) -> float:
        """Average number of p-edges per distinct object."""
        if not self.distinct_objects:
            return 0.0
        return self.triples / self.distinct_objects

    def __repr__(self) -> str:
        return (
            f"PredicateStatistics(triples={self.triples}, "
            f"subjects={self.distinct_subjects}, objects={self.distinct_objects})"
        )


class StoreStatistics:
    """Statistics catalog over a whole store."""

    def __init__(self, total_triples: int, per_predicate: Dict[int, PredicateStatistics]):
        self.total_triples = total_triples
        self._per_predicate = per_predicate

    @classmethod
    def from_indexes(cls, indexes: FrozenTripleIndexes) -> "StoreStatistics":
        per_predicate: Dict[int, PredicateStatistics] = {}
        predicates = {p for _, p, _ in indexes.all_triples()}
        for p in predicates:
            pairs = indexes.so_for_p(p)
            per_predicate[p] = PredicateStatistics(
                triples=len(pairs),
                distinct_subjects=len({s for s, _ in pairs}),
                distinct_objects=len({o for _, o in pairs}),
            )
        return cls(total_triples=len(indexes), per_predicate=per_predicate)

    @classmethod
    def from_columns(
        cls,
        subjects: Iterable[int],
        predicates: Iterable[int],
        objects: Iterable[int],
    ) -> "StoreStatistics":
        """One columnar pass — for stores that never built indexes
        (bulk-loaded columns headed straight into a snapshot)."""
        counts: Dict[int, int] = {}
        subject_sets: Dict[int, set] = {}
        object_sets: Dict[int, set] = {}
        total = 0
        for s, p, o in zip(subjects, predicates, objects):
            total += 1
            counts[p] = counts.get(p, 0) + 1
            subject_sets.setdefault(p, set()).add(s)
            object_sets.setdefault(p, set()).add(o)
        per_predicate = {
            p: PredicateStatistics(
                triples=counts[p],
                distinct_subjects=len(subject_sets[p]),
                distinct_objects=len(object_sets[p]),
            )
            for p in counts
        }
        return cls(total_triples=total, per_predicate=per_predicate)

    def for_predicate(self, p: int) -> PredicateStatistics:
        """Statistics for predicate id ``p`` (zeros if absent)."""
        stats = self._per_predicate.get(p)
        if stats is None:
            return PredicateStatistics(0, 0, 0)
        return stats

    def average_size(self, p: int, direction: str) -> float:
        """The paper's ``average_size(v, p)``.

        ``direction`` is ``"out"`` when the known vertex is the subject of
        the p-edge, ``"in"`` when it is the object.
        """
        stats = self.for_predicate(p)
        if direction == "out":
            return stats.average_out_degree
        if direction == "in":
            return stats.average_in_degree
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")

    def predicate_count(self) -> int:
        return len(self._per_predicate)

    def predicates(self) -> Iterable[int]:
        """The predicate ids the catalog has rows for."""
        return self._per_predicate.keys()

    def __repr__(self) -> str:
        return (
            f"StoreStatistics(total={self.total_triples}, "
            f"predicates={self.predicate_count()})"
        )
