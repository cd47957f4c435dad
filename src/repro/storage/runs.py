"""Sorted-run primitives: galloping search, sorted id sets, leapfrog.

The frozen permutation indexes (:class:`~repro.storage.indexes.
FrozenTripleIndexes`) serve every scan out of *sorted* packed arrays.
This module holds the order-exploiting machinery built on top of that
fact, shared by both BGP engines and candidate pruning:

- :func:`gallop_left` / :func:`gallop_right` — exponential-probe +
  bisect positioning, O(log gap) instead of O(log n) when successive
  lookups move forward through an array (the classic "galloping" of
  merge joins and TimSort);
- :class:`SortedRun` — a zero-copy view over a slice of a backing
  permutation array, tagged with nothing but its bounds (the values are
  sorted ascending by construction of the permutations);
- :class:`SortedIdSet` — a deduplicated sorted ``array('Q')`` of term
  ids with bisect membership, the candidate-set representation that
  makes candidate pruning intersect *runs* instead of probing Python
  sets per element;
- :func:`gallop_intersect` / :func:`leapfrog_intersect` — two-way and
  multi-way sorted intersection, galloping on the larger side(s).

Nothing here imports the engine layers; callers that want execution
counters pass a duck-typed ``stats`` object (see
:class:`repro.obs.counters.ExecutionCounters`) and the functions bump
its ``gallop_probes`` attribute.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, List, Optional, Sequence

__all__ = [
    "gallop_left",
    "gallop_right",
    "SortedRun",
    "SortedIdSet",
    "as_span",
    "gallop_intersect",
    "leapfrog_spans",
    "leapfrog_intersect",
]


def gallop_left(seq: Sequence[int], key: int, lo: int, hi: int) -> int:
    """First index in ``[lo, hi)`` whose value is ``>= key``.

    Exponential probe from ``lo`` (1, 2, 4, … steps) to bracket the
    key, then bisect inside the bracket: O(log distance) comparisons,
    which is what makes a forward-moving sequence of lookups over a
    sorted array cost O(k log(n/k)) total instead of O(k log n).
    """
    if lo >= hi or seq[lo] >= key:
        return lo
    step = 1
    prev = lo
    probe = lo + 1
    while probe < hi and seq[probe] < key:
        prev = probe
        step <<= 1
        probe = lo + step
    return bisect_left(seq, key, prev + 1, min(probe, hi))


def gallop_right(seq: Sequence[int], key: int, lo: int, hi: int) -> int:
    """First index in ``[lo, hi)`` whose value is ``> key`` (gallop form)."""
    if lo >= hi or seq[lo] > key:
        return lo
    step = 1
    prev = lo
    probe = lo + 1
    while probe < hi and seq[probe] <= key:
        prev = probe
        step <<= 1
        probe = lo + step
    return bisect_right(seq, key, prev + 1, min(probe, hi))


class SortedRun:
    """A zero-copy, read-only view over a sorted slice of a backing array.

    ``values[start:stop]`` is ascending by construction (permutation
    arrays sort lexicographically on (pair-key, third), so any
    equal-key range has an ascending third column).  The run never
    copies the backing storage; indexing and iteration go straight to
    the underlying ``array`` / ``memoryview``.
    """

    __slots__ = ("values", "start", "stop")

    def __init__(self, values: Sequence[int], start: int, stop: int):
        self.values = values
        self.start = start
        self.stop = max(start, stop)

    def __len__(self) -> int:
        return self.stop - self.start

    def __bool__(self) -> bool:
        return self.stop > self.start

    def __iter__(self) -> Iterator[int]:
        values = self.values
        for index in range(self.start, self.stop):
            yield values[index]

    def __getitem__(self, index: int) -> int:
        if index < 0 or index >= len(self):
            raise IndexError(index)
        return self.values[self.start + index]

    def __contains__(self, key: int) -> bool:
        index = bisect_left(self.values, key, self.start, self.stop)
        return index < self.stop and self.values[index] == key

    def position(self, key: int, frontier: int = 0) -> int:
        """Run-relative index of the first value ``>= key``, galloping
        forward from ``frontier`` (also run-relative)."""
        return (
            gallop_left(self.values, key, self.start + frontier, self.stop)
            - self.start
        )

    def __repr__(self) -> str:
        return f"SortedRun({len(self)} values)"


class SortedIdSet:
    """A deduplicated, ascending ``array('Q')`` of term ids.

    Duck-type compatible with the ``Set[int]`` candidate sets the
    engines historically consumed — ``in`` (bisect, O(log n)),
    ``len``, iteration (ascending, which is what makes candidate-driven
    scans emit rows sorted on the driver variable) and ``==`` against
    plain sets — while additionally exposing the backing sorted array
    for galloping intersection.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: "array[int]"):
        self.ids = ids

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "SortedIdSet":
        """Build from any iterable of ids (deduplicates and sorts)."""
        return cls(array("Q", sorted(set(ids))))

    def __len__(self) -> int:
        return len(self.ids)

    def __bool__(self) -> bool:
        return bool(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, int) or key < 0:
            return False
        ids = self.ids
        index = bisect_left(ids, key)
        return index < len(ids) and ids[index] == key

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SortedIdSet):
            return self.ids == other.ids
        if isinstance(other, (set, frozenset)):
            return len(self.ids) == len(other) and all(i in other for i in self.ids)
        return NotImplemented

    def __hash__(self) -> int:
        raise TypeError("SortedIdSet is unhashable (compare by value)")

    def intersect_run(
        self, run: Sequence[int], lo: int, hi: int, stats: Optional[Any] = None
    ) -> List[int]:
        """``self ∩ run[lo:hi]`` for a sorted (ascending) run slice."""
        return gallop_intersect(self.ids, 0, len(self.ids), run, lo, hi, stats)

    def __repr__(self) -> str:
        return f"SortedIdSet({len(self.ids)} ids)"


def gallop_intersect(
    a: Sequence[int],
    a_lo: int,
    a_hi: int,
    b: Sequence[int],
    b_lo: int,
    b_hi: int,
    stats: Optional[Any] = None,
) -> List[int]:
    """Sorted intersection of two ascending ranges, galloping on both.

    Iterates the smaller range and gallops through the larger, so the
    cost is O(k·log(n/k)) — the "range restriction" replacing k·O(1)
    hash probes *plus* an O(n) scan with something proportional to the
    small side only.  Inputs must be duplicate-free (permutation runs
    and candidate sets are); the output is ascending and duplicate-free.
    """
    if a_hi - a_lo > b_hi - b_lo:
        a, a_lo, a_hi, b, b_lo, b_hi = b, b_lo, b_hi, a, a_lo, a_hi
    out: List[int] = []
    append = out.append
    probes = 0
    frontier = b_lo
    for index in range(a_lo, a_hi):
        if frontier >= b_hi:
            break
        key = a[index]
        frontier = gallop_left(b, key, frontier, b_hi)
        probes += 1
        if frontier < b_hi and b[frontier] == key:
            append(key)
            frontier += 1
    if stats is not None:
        stats.gallop_probes += probes
    return out


def as_span(seq: Sequence[int]) -> "tuple[Sequence[int], int, int]":
    """``(backing, lo, hi)`` for any sorted sequence.

    Unwraps :class:`SortedRun` views to their raw backing array so hot
    loops (bisect, galloping) index at C speed instead of through the
    view's Python-level ``__getitem__``.
    """
    if isinstance(seq, SortedRun):
        return seq.values, seq.start, seq.stop
    return seq, 0, len(seq)


def _span_length(span: "tuple[Sequence[int], int, int]") -> int:
    return span[2] - span[1]


def leapfrog_spans(
    spans: Sequence["tuple[Sequence[int], int, int]"], stats: Optional[Any] = None
) -> List[int]:
    """Multi-way sorted intersection over raw ``(backing, lo, hi)`` spans.

    The smallest span drives; every candidate value gallops forward
    through each other span with per-span frontiers, so a value absent
    early aborts its probes.  The two-span case — by far the hottest in
    the WCO engine's per-partial extension — runs as a dedicated
    iterate-small / gallop-big loop with no per-key inner loop.
    """
    if not spans:
        return []
    spans = sorted(spans, key=_span_length)
    seq0, lo0, hi0 = spans[0]
    if len(spans) == 1:
        return list(seq0[lo0:hi0])
    out: List[int] = []
    append = out.append
    probes = 0
    if len(spans) == 2:
        seq1, frontier, hi1 = spans[1]
        for index in range(lo0, hi0):
            key = seq0[index]
            frontier = gallop_left(seq1, key, frontier, hi1)
            probes += 1
            if frontier < hi1 and seq1[frontier] == key:
                append(key)
                frontier += 1
            elif frontier >= hi1:
                break
        if stats is not None:
            stats.gallop_probes += probes
        return out
    others = spans[1:]
    frontiers = [span[1] for span in others]
    for index in range(lo0, hi0):
        key = seq0[index]
        member = True
        for slot, (seq, _, hi) in enumerate(others):
            lo = gallop_left(seq, key, frontiers[slot], hi)
            probes += 1
            frontiers[slot] = lo
            if lo >= hi or seq[lo] != key:
                member = False
                break
            frontiers[slot] = lo + 1
        if member:
            append(key)
    if stats is not None:
        stats.gallop_probes += probes
    return out


def leapfrog_intersect(
    runs: Sequence[Sequence[int]], stats: Optional[Any] = None
) -> List[int]:
    """Multi-way sorted intersection (leapfrog triejoin's inner loop).

    ``runs`` are ascending, duplicate-free sequences (``SortedRun``,
    ``array``, list); views are unwrapped to raw spans so the inner
    galloping indexes at C speed.
    """
    if not runs:
        return []
    return leapfrog_spans([as_span(run) for run in runs], stats)
