"""Permutation indexes over dictionary-encoded triples.

RDF-3X-style exhaustive indexing: every access pattern a triple pattern
can generate — any subset of {S, P, O} bound — is answered by a binary
search for the key range in one of three sorted permutations, followed
by a result-proportional slice:

====================  =======================================
bound positions       permutation range
====================  =======================================
S, P (and S, P, O)    SPO pair range → objects ascending
P, O                  POS pair range → subjects ascending
S, O                  OSP pair range → predicates ascending
S                     SPO prefix → (p, o) rows
P                     POS prefix → (o, s) rows
O                     OSP prefix → (s, p) rows
(none)                the whole SPO permutation
====================  =======================================

This mirrors the permutation scheme of RDF-3X / gStore's adjacency
structure at the fidelity the paper's cost model needs: logarithmic
seek plus result-proportional enumeration, every range sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import eq
from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

from ..rdf.dictionary import EncodedTriple
from .runs import SortedRun

__all__ = ["FrozenTripleIndexes", "PACK_SHIFT", "sorted_scan_position"]


def sorted_scan_position(
    s_bound: bool, p_bound: bool, o_bound: bool
) -> Optional[int]:
    """The triple position a frozen scan enumerates in ascending order.

    Mirrors the permutation :meth:`FrozenTripleIndexes.scan` picks for
    each binding combination: the primary free column of that
    permutation is emitted sorted.  Returns 0/1/2 (s/p/o) or ``None``
    when every position is bound (nothing left to sort on).
    """
    if s_bound and p_bound and o_bound:
        return None
    if s_bound and p_bound:
        return 2  # SPO pair range → objects ascending
    if p_bound and o_bound:
        return 0  # POS pair range → subjects ascending
    if s_bound and o_bound:
        return 1  # OSP pair range → predicates ascending
    if s_bound:
        return 1  # SPO prefix → (p, o) rows ascending on p
    if p_bound:
        return 2  # POS prefix → (o, s) rows ascending on o
    if o_bound:
        return 0  # OSP prefix → (s, p) rows ascending on s
    return 0  # full SPO scan → ascending on s

#: Pair keys in the frozen permutations pack two 32-bit ids into one
#: 64-bit integer: ``(first << PACK_SHIFT) | second``.
PACK_SHIFT = 32
_PACK_MASK = (1 << PACK_SHIFT) - 1


class FrozenTripleIndexes:
    """Read-only permutation indexes over sorted, packed id arrays.

    The RDF-3X shape proper: three sorted triple permutations — SPO,
    POS and OSP — each held as a packed 64-bit pair-key array plus the
    third-position column.  *Constructing* this class from snapshot
    sections is pure ``array.frombytes`` — no per-row Python work,
    which is what makes snapshot loads ``read()``-bound.

    Immutable: writes go to a
    :class:`~repro.storage.delta.DeltaOverlayIndexes` wrapped around it.
    """

    __slots__ = (
        "_count",
        "_spo_key", "_spo_o",
        "_pos_key", "_pos_s",
        "_osp_key", "_osp_p",
        "_all",
    )

    def __init__(
        self,
        spo_key: Sequence[int], spo_o: Sequence[int],
        pos_key: Sequence[int], pos_s: Sequence[int],
        osp_key: Sequence[int], osp_p: Sequence[int],
    ):
        self._count = len(spo_o)
        if not (
            len(spo_key) == len(pos_key) == len(pos_s)
            == len(osp_key) == len(osp_p) == self._count
        ):
            raise ValueError("permutation arrays must have equal length")
        self._spo_key, self._spo_o = spo_key, spo_o
        self._pos_key, self._pos_s = pos_key, pos_s
        self._osp_key, self._osp_p = osp_key, osp_p
        self._all: Optional[List[EncodedTriple]] = None

    @classmethod
    def from_columns(
        cls,
        subjects: Sequence[int],
        predicates: Sequence[int],
        objects: Sequence[int],
    ) -> "FrozenTripleIndexes":
        """Sort plain s/p/o columns into the three packed permutations.

        The columns hold one row per distinct triple.  Raises
        ``ValueError`` on duplicate rows and on any id that does not
        fit the 32-bit halves of a packed pair key.
        """
        for column in (subjects, predicates, objects):
            if max(column, default=0) >> PACK_SHIFT:
                raise ValueError(f"term id {max(column)} does not fit {PACK_SHIFT} bits")
        shift = PACK_SHIFT
        spo = sorted(((s << shift) | p, o) for s, p, o in zip(subjects, predicates, objects))
        if any(map(eq, spo, islice(spo, 1, None))):
            raise ValueError("duplicate rows in triple columns")
        pos = sorted(((p << shift) | o, s) for s, p, o in zip(subjects, predicates, objects))
        osp = sorted(((o << shift) | s, p) for s, p, o in zip(subjects, predicates, objects))

        def unzip(pairs: List[Tuple[int, int]]) -> Tuple[Sequence[int], Sequence[int]]:
            if not pairs:
                return array("Q"), array("Q")
            keys, thirds = zip(*pairs)
            return array("Q", keys), array("Q", thirds)

        return cls(*unzip(spo), *unzip(pos), *unzip(osp))

    def permutation_arrays(self) -> Tuple[Sequence[int], ...]:
        """The six backing arrays, in constructor order (for snapshots)."""
        return (
            self._spo_key, self._spo_o,
            self._pos_key, self._pos_s,
            self._osp_key, self._osp_p,
        )

    # ------------------------------------------------------------------
    # range machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _pair_range(keys: Sequence[int], first: int, second: int) -> Tuple[int, int]:
        key = (first << PACK_SHIFT) | second
        lo = bisect_left(keys, key)
        return lo, bisect_left(keys, key + 1, lo)

    @staticmethod
    def _prefix_range(keys: Sequence[int], first: int) -> Tuple[int, int]:
        lo = bisect_left(keys, first << PACK_SHIFT)
        return lo, bisect_left(keys, (first + 1) << PACK_SHIFT, lo)

    # ------------------------------------------------------------------
    # zero-copy sorted runs (the merge-join / leapfrog substrate)
    # ------------------------------------------------------------------
    def object_run(self, s: int, p: int) -> SortedRun:
        """Objects of ``(s, p, ?)`` as a sorted zero-copy run."""
        lo, hi = self._pair_range(self._spo_key, s, p)
        return SortedRun(self._spo_o, lo, hi)

    def subject_run(self, p: int, o: int) -> SortedRun:
        """Subjects of ``(?, p, o)`` as a sorted zero-copy run."""
        lo, hi = self._pair_range(self._pos_key, p, o)
        return SortedRun(self._pos_s, lo, hi)

    def object_span(self, s: int, p: int) -> Tuple[Sequence[int], int, int]:
        """:meth:`object_run` as a raw ``(backing, lo, hi)`` span —
        the allocation-free form per-partial hot loops consume."""
        lo, hi = self._pair_range(self._spo_key, s, p)
        return self._spo_o, lo, hi

    def subject_span(self, p: int, o: int) -> Tuple[Sequence[int], int, int]:
        """:meth:`subject_run` as a raw ``(backing, lo, hi)`` span."""
        lo, hi = self._pair_range(self._pos_key, p, o)
        return self._pos_s, lo, hi

    def predicate_run(self, s: int, o: int) -> SortedRun:
        """Predicates of ``(s, ?, o)`` as a sorted zero-copy run."""
        lo, hi = self._pair_range(self._osp_key, o, s)
        return SortedRun(self._osp_p, lo, hi)

    def single_variable_run(
        self,
        s: Optional[int],
        p: Optional[int],
        o: Optional[int],
    ) -> Optional[SortedRun]:
        """The sorted run for a pattern with exactly one free position,
        or None when the binding combination has zero or 2+ free slots."""
        if s is None:
            if p is not None and o is not None:
                return self.subject_run(p, o)
            return None
        if p is None:
            return self.predicate_run(s, o) if o is not None else None
        if o is None:
            return self.object_run(s, p)
        return None

    def validate_sorted(self) -> None:
        """Check the permutation sort invariants the merge path relies on.

        Each permutation must be strictly ascending on (pair-key,
        third) — sorted pair-key runs with ascending, duplicate-free
        third columns.  Raises ``ValueError`` naming the first
        violation; used by ``snapshot info --verify`` so a corrupt or
        hand-edited snapshot degrades loudly instead of silently
        breaking merge-join preconditions.
        """
        for name, keys, thirds in (
            ("SPO", self._spo_key, self._spo_o),
            ("POS", self._pos_key, self._pos_s),
            ("OSP", self._osp_key, self._osp_p),
        ):
            previous_key = -1
            previous_third = -1
            for index in range(self._count):
                key = keys[index]
                third = thirds[index]
                if key < previous_key or (
                    key == previous_key and third <= previous_third
                ):
                    raise ValueError(
                        f"{name} permutation out of order at row {index}: "
                        f"({previous_key}, {previous_third}) !< ({key}, {third})"
                    )
                previous_key, previous_third = key, third

    # ------------------------------------------------------------------
    # lookups — one per access pattern
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __contains__(self, triple: EncodedTriple) -> bool:
        s, p, o = triple
        lo, hi = self._pair_range(self._spo_key, s, p)
        spo_o = self._spo_o
        return any(spo_o[i] == o for i in range(lo, hi))

    def so_for_p(self, p: int) -> List[Tuple[int, int]]:
        lo, hi = self._prefix_range(self._pos_key, p)
        keys, thirds = self._pos_key, self._pos_s
        return [(thirds[i], keys[i] & _PACK_MASK) for i in range(lo, hi)]

    def all_triples(self) -> List[EncodedTriple]:
        if self._all is None:
            keys, thirds = self._spo_key, self._spo_o
            self._all = [
                (keys[i] >> PACK_SHIFT, keys[i] & _PACK_MASK, thirds[i])
                for i in range(self._count)
            ]
        return self._all

    def scan(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> Iterator[EncodedTriple]:
        if s is not None and p is not None and o is not None:
            if (s, p, o) in self:
                yield (s, p, o)
            return
        if s is not None and p is not None:
            lo, hi = self._pair_range(self._spo_key, s, p)
            for i in range(lo, hi):
                yield (s, p, self._spo_o[i])
            return
        if p is not None and o is not None:
            lo, hi = self._pair_range(self._pos_key, p, o)
            for i in range(lo, hi):
                yield (self._pos_s[i], p, o)
            return
        if s is not None and o is not None:
            lo, hi = self._pair_range(self._osp_key, o, s)
            for i in range(lo, hi):
                yield (s, self._osp_p[i], o)
            return
        if s is not None:
            lo, hi = self._prefix_range(self._spo_key, s)
            keys = self._spo_key
            for i in range(lo, hi):
                yield (s, keys[i] & _PACK_MASK, self._spo_o[i])
            return
        if p is not None:
            lo, hi = self._prefix_range(self._pos_key, p)
            keys = self._pos_key
            for i in range(lo, hi):
                yield (self._pos_s[i], p, keys[i] & _PACK_MASK)
            return
        if o is not None:
            lo, hi = self._prefix_range(self._osp_key, o)
            keys = self._osp_key
            for i in range(lo, hi):
                yield (keys[i] & _PACK_MASK, self._osp_p[i], o)
            return
        yield from self.all_triples()

    def count(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
    ) -> int:
        if s is not None and p is not None and o is not None:
            return 1 if (s, p, o) in self else 0
        if s is not None and p is not None:
            lo, hi = self._pair_range(self._spo_key, s, p)
        elif p is not None and o is not None:
            lo, hi = self._pair_range(self._pos_key, p, o)
        elif s is not None and o is not None:
            lo, hi = self._pair_range(self._osp_key, o, s)
        elif s is not None:
            lo, hi = self._prefix_range(self._spo_key, s)
        elif p is not None:
            lo, hi = self._prefix_range(self._pos_key, p)
        elif o is not None:
            lo, hi = self._prefix_range(self._osp_key, o)
        else:
            return self._count
        return hi - lo
