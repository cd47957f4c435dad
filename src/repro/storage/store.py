"""TripleStore: the engine-facing RDF store facade.

Combines the term dictionary, the permutation indexes and the statistics
catalog.  Both BGP engines, the optimizer's cost model and the LBR
baseline operate exclusively through this class.

There is one storage model: sorted frozen permutations
(:class:`~repro.storage.indexes.FrozenTripleIndexes`) serve reads, and
every write lands in a :class:`~repro.storage.delta.DeltaOverlayIndexes`
wrapped around them until :meth:`TripleStore.compact` folds it back.

A store can start *cold* (sorted once from a
:class:`~repro.rdf.dataset.Dataset` or an N-Triples stream) or *hot*
from a persistent binary snapshot (:meth:`save` / :meth:`load`):
loading maps the file, keeps the dictionary lazy (terms decode on first
touch, constants resolve by binary search over the snapshot's sorted
term section) and defers the permutation-index build to the first index
access, so startup cost is proportional to what a query actually
touches.
"""

from __future__ import annotations

import threading
from array import array
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

from .. import faults as _faults
from ..rdf.dataset import Dataset
from ..rdf.dictionary import EncodedTriple, TermDictionary
from ..rdf.terms import GroundTerm, Variable
from ..rdf.triple import Triple, TriplePattern
from .delta import DeltaOverlayIndexes
from .indexes import FrozenTripleIndexes
from .snapshot import (
    LazyTermDictionary,
    SnapshotCorruptError,
    SnapshotReader,
    write_snapshot,
)
from .stats import StoreStatistics

__all__ = ["TripleStore", "EncodedPattern"]

#: An encoded triple pattern: each position is a term id (int) for a
#: constant, or a variable name (str) for a variable.  A constant absent
#: from the dictionary encodes to -1, which matches nothing.
EncodedPattern = Tuple[Union[int, str], Union[int, str], Union[int, str]]

#: Sentinel id for constants that do not occur in the data.
MISSING_ID = -1


class TripleStore:
    """Dictionary-encoded, fully indexed, statistics-bearing triple store."""

    def __init__(self):
        self._dictionary: TermDictionary = TermDictionary()
        self._indexes: Optional[FrozenTripleIndexes] = FrozenTripleIndexes.from_columns((), (), ())
        #: Deferred index supplier while ``_indexes`` is None.
        self._indexes_loader: Optional[Callable[[], FrozenTripleIndexes]] = None
        #: Raw (s, p, o) column supplier, valid while the store has not
        #: been written to; lets :meth:`save` skip the index build.
        self._columns_source: Optional[Callable[[], Tuple]] = None
        self._triple_count = 0
        self._stats: Optional[StoreStatistics] = None
        self._stats_loader: Optional[Callable[[], Optional[StoreStatistics]]] = None
        self._generation = 0
        self._snapshot: Optional[SnapshotReader] = None
        #: Attached write-ahead log (see :meth:`attach_wal`): compaction
        #: truncates its dead prefix once the snapshot is published.
        self._wal = None
        #: Cleared inside :meth:`bulk_replay`: per-batch delta sealing
        #: is skipped while a single-threaded recovery replays many
        #: update batches back to back.
        self._seal_eagerly = True
        #: Serializes the index state *transitions* (lazy build,
        #: overlay wrap, compaction): each transition builds the
        #: replacement structure fully and only then publishes it with
        #: a single attribute store, so concurrent readers always
        #: observe either the old complete index or the new complete
        #: index, never a partial one.
        self._index_lock = threading.RLock()

    # ------------------------------------------------------------------
    # components (lazy when snapshot-backed)
    # ------------------------------------------------------------------
    @property
    def dictionary(self) -> TermDictionary:
        return self._dictionary

    @property
    def indexes(self) -> FrozenTripleIndexes:
        indexes = self._indexes
        if indexes is None:
            with self._index_lock:
                # Re-check under the lock: another thread may have
                # finished the deferred build while we waited, and the
                # loader is consumed exactly once.
                indexes = self._indexes
                if indexes is None:
                    assert self._indexes_loader is not None
                    indexes = self._indexes_loader()
                    self._indexes = indexes  # publish only when complete
                    self._indexes_loader = None
        return indexes

    def _writable_indexes(self) -> DeltaOverlayIndexes:
        """The indexes wrapped in their :class:`DeltaOverlayIndexes`.

        Sorted delta runs + tombstones over the untouched base
        permutations, so the sorted-run execution layer — merge joins,
        galloping pruning, leapfrog spans — keeps working with pending
        writes.  The transition is atomic with respect to concurrent
        readers: the overlay is built fully before the single
        publishing store to ``self._indexes``, so a reader mid-query
        keeps the frozen index it already grabbed (the overlay shares
        its arrays) or picks up the complete overlay — never a partial
        structure.
        """
        with self._index_lock:
            indexes = self.indexes
            if not isinstance(indexes, DeltaOverlayIndexes):
                indexes = DeltaOverlayIndexes(indexes)  # build fully …
                self._indexes = indexes  # … then publish
            return indexes

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "TripleStore":
        return cls.from_triples(dataset)

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "TripleStore":
        """Encode and sort ``triples`` into frozen permutations in one pass."""
        store = cls()
        encode = store._dictionary.encode_triple
        rows = {encode(triple) for triple in triples}
        if rows:
            store._indexes = FrozenTripleIndexes.from_columns(*zip(*rows))
            store._triple_count = len(rows)
            store._generation = 1
        return store

    @classmethod
    def bulk_load(cls, source) -> "TripleStore":
        """Stream an N-Triples path / file / line iterable into a store.

        Uses the columnar bulk loader (no per-row ``Triple`` objects,
        one term parse per *distinct* term); the permutation indexes
        are built lazily on first access.
        """
        from .bulkload import bulk_load_ntriples

        loader = bulk_load_ntriples(source)
        store = cls()
        store._dictionary = loader.dictionary
        store._indexes = None
        columns = loader.columns

        def build_indexes() -> FrozenTripleIndexes:
            return FrozenTripleIndexes.from_columns(*columns)

        def raw_columns() -> Tuple:
            return columns

        store._indexes_loader = build_indexes
        store._columns_source = raw_columns
        store._triple_count = len(loader)
        store._generation = 1 if len(loader) else 0
        return store

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write a binary snapshot of the store (see ``storage.snapshot``).

        The snapshot captures the dictionary, the triple columns, the
        statistics catalog and the write generation; :meth:`load` (or a
        later process) restores an equivalent store from it without
        re-parsing text.
        """
        if self._indexes is None and self._columns_source is not None:
            # Bulk-loaded or snapshot-backed and never written to: the
            # raw columns exist already, no index build needed — stats,
            # if absent, come from one columnar pass.
            columns = self._columns_source()
            reader = self._snapshot
            frozen = reader.frozen_indexes() if reader is not None else None
            if self._stats is None and self._stats_loader is None:
                self._stats = StoreStatistics.from_columns(*columns)
        else:
            frozen = self.indexes
            typecode = "I" if len(self.dictionary) < (1 << 32) else "Q"
            s_col, p_col, o_col = array(typecode), array(typecode), array(typecode)
            for s, p, o in frozen.all_triples():
                s_col.append(s)
                p_col.append(p)
                o_col.append(o)
            columns = (s_col, p_col, o_col)
        dictionary = self._dictionary
        if isinstance(dictionary, LazyTermDictionary):
            dictionary = dictionary.materialize()
        # A frozen index already holds the three sorted permutations in
        # serialized form; hand them through so re-saving a loaded or
        # built store skips re-sorting (a bulk-loaded store that never
        # built its indexes has none: write_snapshot sorts, once).
        permutations = frozen.permutation_arrays() if frozen is not None else None
        write_snapshot(
            path,
            dictionary,
            columns,
            generation=self._generation,
            statistics=self.statistics,
            permutations=permutations,
        )

    @classmethod
    def load(cls, path: str, lazy: bool = True, verify: bool = False) -> "TripleStore":
        """Restore a store from a snapshot file.

        With ``lazy=True`` (the default) the snapshot stays mapped:
        terms decode on first touch, constant lookups binary-search the
        sorted term section, statistics come straight from the ``STAT``
        section and the permutation indexes are built on first index
        access.  ``lazy=False`` materializes everything up front and
        closes the file — right for long-lived benchmark processes that
        will touch all of it anyway.

        ``verify=True`` checksums every section up front, so payload
        corruption surfaces here as :class:`SnapshotError` rather than
        on a later lazy first touch — callers with a rebuild path (the
        dataset snapshot cache) use this to keep "stale cache never
        breaks a run" true for lazy loads too.
        """
        reader = SnapshotReader(path)
        if verify:
            try:
                reader.verify()
            except Exception:
                reader.close()
                raise
        store = cls()
        store._generation = reader.generation
        store._triple_count = reader.triple_count
        if lazy:
            store._snapshot = reader
            store._dictionary = LazyTermDictionary(reader)
            store._indexes = None

            def load_indexes() -> FrozenTripleIndexes:
                return _indexes_from_reader(reader)

            store._indexes_loader = load_indexes
            store._columns_source = reader.columns
            store._stats_loader = reader.statistics
        else:
            try:
                dictionary = TermDictionary()
                for term_id in range(reader.term_count):
                    dictionary.encode(reader.term(term_id))
                store._dictionary = dictionary
                store._indexes = _indexes_from_reader(reader)
                store._stats = reader.statistics()
            finally:
                reader.close()
        return store

    def close(self) -> None:
        """Release the snapshot mapping of a lazily loaded store."""
        if self._snapshot is not None:
            if self._indexes is None:
                self.indexes  # noqa: B018 — force build before unmapping
            if isinstance(self._dictionary, LazyTermDictionary):
                self._dictionary = self._dictionary.materialize()
            if self._stats is None and self._stats_loader is not None:
                self._stats = self._stats_loader()
            self._stats_loader = None
            self._snapshot.close()
            self._snapshot = None

    def add(self, triple: Triple) -> bool:
        """Insert one triple; returns False for duplicates."""
        added, _ = self.apply_update(inserts=(triple,))
        return added > 0

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number actually added."""
        added, _ = self.apply_update(inserts=triples)
        return added

    def remove(self, triple: Triple) -> bool:
        """Delete one triple; returns False when it was not present."""
        _, removed = self.apply_update(deletes=(triple,))
        return removed > 0

    def _lookup_ground(self, triple: Triple) -> Optional[EncodedTriple]:
        """Non-minting triple encoding: None when any term is unknown
        (such a triple cannot be stored, so a delete of it is a no-op
        that must not grow the dictionary)."""
        lookup = self.dictionary.lookup
        s = lookup(triple.subject)
        if s is None:
            return None
        p = lookup(triple.predicate)
        if p is None:
            return None
        o = lookup(triple.object)
        if o is None:
            return None
        return (s, p, o)

    def apply_update(
        self,
        inserts: Iterable[Triple] = (),
        deletes: Iterable[Triple] = (),
    ) -> Tuple[int, int]:
        """Apply one write batch; returns ``(added, removed)``.

        Deletes apply before inserts (SPARQL 1.1 ``DELETE/INSERT``
        order).  The batch lands in the delta overlay — the sorted
        permutations stay intact, reads keep taking merge and gallop
        paths.  Generation and derived caches (statistics,
        raw snapshot columns) are invalidated **only when visibility
        actually changed**: a duplicate-only insert or a miss-only
        delete batch is a no-op and must not invalidate plan/result
        caches fleet-wide.
        """
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("delta.apply")
        added = removed = 0
        with self._index_lock:
            indexes = self._writable_indexes()
            delete, insert = indexes.delta_delete, indexes.delta_insert
            for triple in deletes:
                encoded = self._lookup_ground(triple)
                if encoded is not None and delete(encoded):
                    removed += 1
            encode = self.dictionary.encode_triple
            for triple in inserts:
                if insert(encode(triple)):
                    added += 1
            if added or removed:
                if self._seal_eagerly:
                    # Seal once per batch so subsequent reads are pure
                    # (no lazy freeze racing a concurrent query thread).
                    indexes.delta.seal()
                self._stats = None
                self._stats_loader = None
                self._columns_source = None
                self._generation += 1
                self._triple_count = len(indexes)
        return added, removed

    def attach_wal(self, wal) -> None:
        """Couple a :class:`~repro.storage.wal.WriteAheadLog` to this
        store's compaction lifecycle: once :meth:`compact` publishes a
        snapshot at generation G, every WAL frame at or below G is dead
        (a restart loads the snapshot instead of replaying them) and is
        truncated away."""
        self._wal = wal

    @contextmanager
    def bulk_replay(self):
        """Defer per-batch delta sealing across a recovery replay.

        Each :meth:`apply_update` batch normally seals the delta —
        re-freezing the *whole* add/tombstone set into sorted runs — so
        replaying N logged batches back to back would pay that freeze N
        times over.  Recovery is single-threaded with no concurrent
        readers, so sealing can wait until the replay finishes; lazy
        reads mid-block stay correct (the overlay seals on first
        touch), they are just not what recovery does.
        """
        self._seal_eagerly = False
        try:
            yield self
        finally:
            self._seal_eagerly = True
            with self._index_lock:
                indexes = self._indexes
                if isinstance(indexes, DeltaOverlayIndexes) and indexes.delta.needs_seal:
                    indexes.delta.seal()

    def compact(self, path: str) -> int:
        """Fold pending delta writes into a new snapshot generation.

        Writes the merged (base − tombstones + adds) permutations to
        ``path`` through the ordinary atomic snapshot publish (tmp +
        fsync + rename: readers of the old file keep their mapping, a
        crash never leaves a torn file), then collapses the in-memory
        overlay so the store serves a plain frozen index again with an
        empty delta.  Returns the generation the snapshot carries.
        """
        with self._index_lock:
            indexes = self.indexes
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("compact.publish")
            self.save(path)
            if isinstance(indexes, DeltaOverlayIndexes):
                # Same logical contents → same generation: collapsing
                # the overlay is invisible to generation-keyed caches.
                self._indexes = indexes.collapse()
            if self._wal is not None:
                try:
                    self._wal.truncate_below(self._generation)
                except OSError:
                    # Dead frames that survive a failed truncation are
                    # harmless: replay filters on generation, and the
                    # next compaction retries the cut.
                    pass
            return self._generation

    @property
    def pending_delta(self) -> Tuple[int, int]:
        """(pending adds, pending tombstones) awaiting compaction."""
        indexes = self._indexes
        if isinstance(indexes, DeltaOverlayIndexes):
            return indexes.pending
        return (0, 0)

    def __len__(self) -> int:
        if self._indexes is None:
            return self._triple_count  # snapshot-backed: no index build
        return len(self._indexes)

    @property
    def generation(self) -> int:
        """Monotonic write counter; bumped by every insert batch.

        Consumers caching anything derived from the store's contents
        (query plans, estimates) key on this to invalidate on writes.
        """
        return self._generation

    # ------------------------------------------------------------------
    # statistics (lazily built, invalidated on insert)
    # ------------------------------------------------------------------
    @property
    def statistics(self) -> StoreStatistics:
        if self._stats is None:
            if self._stats_loader is not None:
                self._stats = self._stats_loader()  # persisted STAT section
                self._stats_loader = None
            if self._stats is None:
                self._stats = StoreStatistics.from_indexes(self.indexes)
        return self._stats

    # ------------------------------------------------------------------
    # pattern encoding
    # ------------------------------------------------------------------
    def encode_pattern(self, pattern: TriplePattern) -> EncodedPattern:
        """Encode a triple pattern for index evaluation.

        Variables become their name strings; constants become ids via
        non-minting lookup (:data:`MISSING_ID` when the constant never
        occurs in the data, so the pattern provably has no matches).
        """
        def encode_term(term) -> Union[int, str]:
            if isinstance(term, Variable):
                return term.name
            term_id = self.dictionary.lookup(term)
            return MISSING_ID if term_id is None else term_id

        return (
            encode_term(pattern.subject),
            encode_term(pattern.predicate),
            encode_term(pattern.object),
        )

    # ------------------------------------------------------------------
    # pattern matching over ids
    # ------------------------------------------------------------------
    def match_encoded(self, pattern: EncodedPattern) -> Iterator[EncodedTriple]:
        """Enumerate encoded triples matching an encoded pattern.

        Handles repeated variables (e.g. ``?x :p ?x``) by post-filtering
        the positions that share a name.
        """
        s, p, o = pattern
        if MISSING_ID in (s, p, o):
            return
        bound_s = s if isinstance(s, int) else None
        bound_p = p if isinstance(p, int) else None
        bound_o = o if isinstance(o, int) else None
        same_sp = isinstance(s, str) and isinstance(p, str) and s == p
        same_so = isinstance(s, str) and isinstance(o, str) and s == o
        same_po = isinstance(p, str) and isinstance(o, str) and p == o
        for triple in self.indexes.scan(bound_s, bound_p, bound_o):
            ts, tp, to = triple
            if same_sp and ts != tp:
                continue
            if same_so and ts != to:
                continue
            if same_po and tp != to:
                continue
            yield triple

    def count_pattern(self, pattern: EncodedPattern) -> int:
        """Exact result count of a single triple pattern.

        Constant positions use index counts directly; repeated-variable
        patterns fall back to enumeration (rare in practice).
        """
        s, p, o = pattern
        if MISSING_ID in (s, p, o):
            return 0
        names = [x for x in (s, p, o) if isinstance(x, str)]
        if len(set(names)) != len(names):
            return sum(1 for _ in self.match_encoded(pattern))
        return self.indexes.count(
            s if isinstance(s, int) else None,
            p if isinstance(p, int) else None,
            o if isinstance(o, int) else None,
        )

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Term-level convenience wrapper around :meth:`match_encoded`."""
        decode = self.dictionary.decode_triple
        for encoded in self.match_encoded(self.encode_pattern(pattern)):
            yield decode(encoded)

    # ------------------------------------------------------------------
    # decoding helpers
    # ------------------------------------------------------------------
    def decode(self, term_id: int) -> GroundTerm:
        return self.dictionary.decode(term_id)

    def decode_many(self, term_ids: Iterable[int]) -> dict:
        """id → term for a batch of ids (one dictionary pass, see
        :meth:`~repro.rdf.dictionary.TermDictionary.decode_many`)."""
        return self.dictionary.decode_many(term_ids)

    def lookup(self, term: GroundTerm) -> Optional[int]:
        return self.dictionary.lookup(term)

    def __repr__(self) -> str:
        return f"TripleStore({len(self)} triples, {len(self.dictionary)} terms)"


def _indexes_from_reader(reader: SnapshotReader) -> FrozenTripleIndexes:
    """Persisted permutations when present, else sorted from the columns."""
    frozen = reader.frozen_indexes()
    if frozen is not None:
        return frozen
    try:
        return FrozenTripleIndexes.from_columns(*reader.columns())
    except ValueError as exc:
        raise SnapshotCorruptError(f"{reader.path!r}: {exc}") from exc
