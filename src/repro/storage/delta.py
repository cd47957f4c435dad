"""Sorted delta runs with tombstones over frozen permutations.

The frozen store (:class:`~repro.storage.indexes.FrozenTripleIndexes`)
is what makes the sorted-run execution layer work: merge joins,
galloping candidate pruning and leapfrog extension all assume sorted,
immutable permutation arrays.

This module is the LSM-style write path: writes land in a small
in-memory delta — an **add set** and a **tombstone set** — which is
*sealed* into its own tiny frozen permutations after every batch.  Read
paths then merge base and delta at scan time:

- a pair-range run (``object_run`` / ``subject_run`` / …) first probes
  the sealed delta permutations; when the delta holds nothing for that
  range — the overwhelmingly common case — the **base run is returned
  unchanged**, zero-copy, so untouched ranges keep their full speed;
- a touched range is materialized once as a merged ascending
  ``array('Q')`` (base minus tombstones plus adds) and cached until the
  next write, so the merge cost amortizes across a query;
- counts are exact arithmetic (``base − dels + adds``) because the
  delta maintains three invariants: ``adds ∩ base = ∅``,
  ``dels ⊆ base`` and ``adds ∩ dels = ∅``.

:class:`DeltaOverlayIndexes` *subclasses* :class:`FrozenTripleIndexes`:
the engines read both through one interface, so an overlaid store
keeps taking merge/gallop paths with pending writes.  Compaction is
simply ``permutation_arrays()`` / ``all_triples()`` over the merged
view feeding the ordinary snapshot writer.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..rdf.dictionary import EncodedTriple
from .indexes import FrozenTripleIndexes
from .runs import SortedRun

__all__ = ["DeltaLayer", "DeltaOverlayIndexes"]

#: Merged-run cache entries kept before a wholesale clear; the cache is
#: also cleared on every write, so this only bounds pathological
#: read-only workloads over a huge touched key space.
_CACHE_LIMIT = 4096

_EMPTY_RUN = SortedRun(array("Q"), 0, 0)


def _freeze(triples: Set[EncodedTriple]) -> Optional[FrozenTripleIndexes]:
    """Seal a triple set into its own sorted permutations (None if empty)."""
    if not triples:
        return None
    s_col, p_col, o_col = zip(*sorted(triples))
    return FrozenTripleIndexes.from_columns(s_col, p_col, o_col)


class DeltaLayer:
    """Pending writes over one frozen base: adds plus tombstones.

    The raw sets answer membership in O(1); :meth:`seal` freezes both
    into small :class:`FrozenTripleIndexes` so range reads can bisect
    the delta exactly like the base.  ``version`` increments on every
    visible change — overlay-side merged-run caches key on it.
    """

    __slots__ = ("adds", "dels", "version", "_sealed_adds", "_sealed_dels", "_sealed_version")

    def __init__(self) -> None:
        self.adds: Set[EncodedTriple] = set()
        self.dels: Set[EncodedTriple] = set()
        self.version = 0
        self._sealed_adds: Optional[FrozenTripleIndexes] = None
        self._sealed_dels: Optional[FrozenTripleIndexes] = None
        self._sealed_version = 0

    def has_changes(self) -> bool:
        return bool(self.adds or self.dels)

    def touch(self) -> None:
        self.version += 1

    @property
    def needs_seal(self) -> bool:
        """Whether writes have landed since the last :meth:`seal` (the
        store's bulk-replay path seals once at the end instead of per
        batch, and uses this to skip a no-op re-freeze)."""
        return self._sealed_version != self.version

    def seal(self) -> None:
        """Freeze the current add/tombstone sets into sorted runs."""
        if self._sealed_version != self.version:
            self._sealed_adds = _freeze(self.adds)
            self._sealed_dels = _freeze(self.dels)
            self._sealed_version = self.version

    def sealed_adds(self) -> Optional[FrozenTripleIndexes]:
        self.seal()
        return self._sealed_adds

    def sealed_dels(self) -> Optional[FrozenTripleIndexes]:
        self.seal()
        return self._sealed_dels


class DeltaOverlayIndexes(FrozenTripleIndexes):
    """A frozen base plus a :class:`DeltaLayer`, merged at read time.

    Implements the complete :class:`FrozenTripleIndexes` read interface
    over the logical triple set ``(base − dels) ∪ adds``.  Ranges the
    delta does not touch are answered by the base's own zero-copy runs;
    touched ranges materialize a merged ascending array once per write
    generation.  Writes go through :meth:`delta_insert` /
    :meth:`delta_delete`, which maintain the disjointness invariants
    the count arithmetic relies on.
    """

    __slots__ = ("_base", "_delta", "_merged_cache", "_cache_version")

    def __init__(self, base: FrozenTripleIndexes, delta: Optional[DeltaLayer] = None):
        if isinstance(base, DeltaOverlayIndexes):
            raise TypeError("overlay bases must be plain frozen indexes (no stacking)")
        # The base arrays also back every non-overridden inherited
        # helper (validate_sorted, the range staticmethods), so the
        # superclass state stays internally consistent.
        super().__init__(*base.permutation_arrays())
        self._base = base
        self._delta = delta if delta is not None else DeltaLayer()
        self._merged_cache: Dict[object, object] = {}
        self._cache_version = self._delta.version

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    @property
    def base(self) -> FrozenTripleIndexes:
        return self._base

    @property
    def delta(self) -> DeltaLayer:
        return self._delta

    @property
    def pending(self) -> Tuple[int, int]:
        """(pending adds, pending tombstones) awaiting compaction."""
        return len(self._delta.adds), len(self._delta.dels)

    def delta_insert(self, triple: EncodedTriple) -> bool:
        """Make ``triple`` visible; True iff visibility actually changed."""
        delta = self._delta
        if triple in delta.dels:
            delta.dels.discard(triple)
            delta.touch()
            return True
        if triple in delta.adds or triple in self._base:
            return False
        delta.adds.add(triple)
        delta.touch()
        return True

    def delta_delete(self, triple: EncodedTriple) -> bool:
        """Hide ``triple``; True iff visibility actually changed."""
        delta = self._delta
        if triple in delta.adds:
            delta.adds.discard(triple)
            delta.touch()
            return True
        if triple in delta.dels:
            return False
        if triple in self._base:
            delta.dels.add(triple)
            delta.touch()
            return True
        return False

    # ------------------------------------------------------------------
    # merged-run machinery
    # ------------------------------------------------------------------
    def _cache(self) -> Dict[object, object]:
        if self._cache_version != self._delta.version:
            self._merged_cache.clear()
            self._cache_version = self._delta.version
        elif len(self._merged_cache) > _CACHE_LIMIT:
            self._merged_cache.clear()
        return self._merged_cache

    def _merge_runs(
        self, key: object, base_run: SortedRun, add_run: SortedRun, del_run: SortedRun
    ) -> SortedRun:
        cache = self._cache()
        hit = cache.get(key)
        if hit is not None:
            return hit  # type: ignore[return-value]
        # Tombstones are a sorted subset of the base run; adds are
        # disjoint from it — one ascending pass produces the merge.
        dels = list(del_run)
        adds = list(add_run)
        merged = array("Q")
        append = merged.append
        di, dn = 0, len(dels)
        ai, an = 0, len(adds)
        for value in base_run:
            if di < dn and dels[di] == value:
                di += 1
                continue
            while ai < an and adds[ai] < value:
                append(adds[ai])
                ai += 1
            append(value)
        while ai < an:
            append(adds[ai])
            ai += 1
        run = SortedRun(merged, 0, len(merged))
        cache[key] = run
        return run

    def _pair_run(self, tag: str, a: int, b: int, getter: str) -> SortedRun:
        delta = self._delta
        base_run: SortedRun = getattr(self._base, getter)(a, b)
        if not delta.has_changes():
            return base_run
        sealed_adds = delta.sealed_adds()
        sealed_dels = delta.sealed_dels()
        add_run = getattr(sealed_adds, getter)(a, b) if sealed_adds is not None else _EMPTY_RUN
        del_run = getattr(sealed_dels, getter)(a, b) if sealed_dels is not None else _EMPTY_RUN
        if not add_run and not del_run:
            return base_run
        return self._merge_runs((tag, a, b), base_run, add_run, del_run)

    # ------------------------------------------------------------------
    # sorted runs / spans (the merge-join and leapfrog substrate)
    # ------------------------------------------------------------------
    def object_run(self, s: int, p: int) -> SortedRun:
        return self._pair_run("o", s, p, "object_run")

    def subject_run(self, p: int, o: int) -> SortedRun:
        return self._pair_run("s", p, o, "subject_run")

    def predicate_run(self, s: int, o: int) -> SortedRun:
        return self._pair_run("p", s, o, "predicate_run")

    def object_span(self, s: int, p: int) -> Tuple[Sequence[int], int, int]:
        run = self.object_run(s, p)
        return run.values, run.start, run.stop

    def subject_span(self, p: int, o: int) -> Tuple[Sequence[int], int, int]:
        run = self.subject_run(p, o)
        return run.values, run.start, run.stop

    # ------------------------------------------------------------------
    # the per-access-pattern lookups, delta-merged
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        delta = self._delta
        return len(self._base) - len(delta.dels) + len(delta.adds)

    def __contains__(self, triple: EncodedTriple) -> bool:
        delta = self._delta
        if triple in delta.adds:
            return True
        if triple in delta.dels:
            return False
        return triple in self._base

    def count(
        self, s: Optional[int] = None, p: Optional[int] = None, o: Optional[int] = None
    ) -> int:
        delta = self._delta
        total = self._base.count(s, p, o)
        if not delta.has_changes():
            return total
        if s is not None and p is not None and o is not None:
            return 1 if (s, p, o) in self else 0
        sealed_adds = delta.sealed_adds()
        sealed_dels = delta.sealed_dels()
        if sealed_adds is not None:
            total += sealed_adds.count(s, p, o)
        if sealed_dels is not None:
            total -= sealed_dels.count(s, p, o)
        return total

    def scan(
        self, s: Optional[int] = None, p: Optional[int] = None, o: Optional[int] = None
    ) -> Iterator[EncodedTriple]:
        delta = self._delta
        if not delta.has_changes():
            yield from self._base.scan(s, p, o)
            return
        if s is not None and p is not None and o is not None:
            if (s, p, o) in self:
                yield (s, p, o)
            return
        base_iter: Iterator[EncodedTriple] = self._base.scan(s, p, o)
        dels = delta.dels
        if dels:
            base_iter = (t for t in base_iter if t not in dels)
        sealed_adds = delta.sealed_adds()
        if sealed_adds is None:
            yield from base_iter
            return
        add_iter = sealed_adds.scan(s, p, o)
        if p is not None and s is None and o is None:
            # The p-bound case enumerates the POS prefix — (o, s)
            # order — the one binding whose emission order is not the
            # natural (s, p, o) tuple order.
            key = lambda t: (t[2], t[0])  # noqa: E731
        else:
            key = None
        yield from heapq.merge(base_iter, add_iter, key=key)

    def all_triples(self) -> List[EncodedTriple]:
        if not self._delta.has_changes():
            return self._base.all_triples()
        cache = self._cache()
        hit = cache.get("all")
        if hit is None:
            hit = list(self.scan())
            cache["all"] = hit
        return hit  # type: ignore[return-value]

    def so_for_p(self, p: int) -> List[Tuple[int, int]]:
        if not self._delta.has_changes():
            return self._base.so_for_p(p)
        return [(s, o) for s, _, o in self.scan(p=p)]

    # ------------------------------------------------------------------
    # compaction substrate
    # ------------------------------------------------------------------
    def permutation_arrays(self) -> Tuple[Sequence[int], ...]:
        """Six merged arrays — the compacted permutations a snapshot
        write persists (identical to the base's when the delta is empty)."""
        if not self._delta.has_changes():
            return self._base.permutation_arrays()
        triples = self.all_triples()
        if not triples:
            merged = FrozenTripleIndexes.from_columns((), (), ())
        else:
            s_col, p_col, o_col = zip(*triples)
            merged = FrozenTripleIndexes.from_columns(s_col, p_col, o_col)
        return merged.permutation_arrays()

    def collapse(self) -> FrozenTripleIndexes:
        """Fold the delta into a fresh plain frozen index (post-compaction
        in-memory state: same logical contents, empty delta)."""
        if not self._delta.has_changes():
            return self._base
        return FrozenTripleIndexes(*self.permutation_arrays())
