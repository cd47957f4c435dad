"""LRU result cache that keeps the answers a write cannot change.

There is one entry per (format, exact query text).  Each entry is
stamped with the *store generation* it was last known valid at: the
monotonic write counter the snapshot format persists
(:mod:`repro.storage.snapshot`) and
:class:`~repro.storage.store.TripleStore` exposes.

A lookup at a newer generation **revalidates** the entry instead of
missing.  Every SPARQL-UO answer is built from the match sets of the
query's triple patterns (Definition 7 evaluates a query bottom-up
from exactly those match sets).  So a write that touches no
triple matching any of those patterns cannot change the answer.  The
cache keeps a bounded log of the ground triples each generation's
update *requested*, which is a superset of what it changed.  When no
logged triple since the stamp matches any of the entry's patterns, the
entry is re-stamped and served as a hit.  It misses when a change
matches (``changed``), when the log no longer reaches back to the
stamp (``log_gap``), or when the entry carries no patterns
(``no_patterns``: it then misses on any generation change).  Matching
compares constants by their N-Triples form; a variable, or a blank
node on either side, matches anything.

The patterns come from the worker's reply (:mod:`.pool`), so the
parent never parses a query.  A missed entry stays resident until a
fresh answer replaces it: it backs the stale-while-error fallback.

Entries are whole serialized response payloads (bytes), so a hit
bypasses the worker pool, the engine *and* the serializer — why the
end-to-end benchmark's ``entity_zipf`` workload, half of whose
requests are hits, spends half its wall time in the server layers,
and why ``read_write``, whose writes match none of the entity
template's patterns, keeps its hits across commits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..rdf.terms import BlankNode, Variable
from ..sparql.algebra import triple_patterns

__all__ = [
    "CachedResult",
    "ResultCache",
    "PatternKey",
    "triple_key",
    "query_patterns",
    "matches",
]

#: A triple pattern or a changed triple as three ``n3()`` strings; None
#: is a wildcard (a variable, or a blank node).  Plain strings, because
#: term objects cannot cross the worker pipe.
PatternKey = Tuple[Optional[str], Optional[str], Optional[str]]


def triple_key(triple) -> PatternKey:
    """The :data:`PatternKey` of a ``TriplePattern`` or ``Triple``."""
    return tuple(  # type: ignore[return-value]
        None if isinstance(term, (Variable, BlankNode)) else term.n3()
        for term in (triple.subject, triple.predicate, triple.object)
    )


def query_patterns(query) -> Tuple[PatternKey, ...]:
    """The distinct pattern keys of a parsed ``SelectQuery``: what a
    worker sends home with an answer for the parent to cache it by."""
    return tuple({triple_key(pattern) for pattern in triple_patterns(query.where)})


def matches(pattern: PatternKey, change: PatternKey) -> bool:
    """Could the triple ``change`` be in ``pattern``'s match set?"""
    for want, got in zip(pattern, change):
        if want is not None and got is not None and want != got:
            return False
    return True


class CachedResult:
    """One cached response: payload plus the metadata ``/metrics`` wants."""

    __slots__ = (
        "payload",
        "content_type",
        "row_count",
        "join_space",
        "exec_counters",
        "template",
        "patterns",
    )

    def __init__(
        self,
        payload: bytes,
        content_type: str,
        row_count: int,
        join_space: float,
        exec_counters: Optional[Dict[str, int]] = None,
        template: Optional[Dict[str, object]] = None,
        patterns: Sequence[PatternKey] = (),
    ):
        self.payload = payload
        self.content_type = content_type
        self.row_count = row_count
        self.join_space = join_space
        #: Execution counters recorded when the entry was computed —
        #: replayed to clients on a hit so hot queries stop silently
        #: under-reporting (``--stats`` / worker reply meta).
        self.exec_counters = exec_counters
        #: The query's constant-lifted template ({"hash", "text"}), so
        #: cache hits still feed the template-stats registry.
        self.template = template
        #: The query's triple patterns; empty means "unknown", and the
        #: entry then misses on any generation change.
        self.patterns = tuple(patterns)


#: Format key, exact query text.
_Key = Tuple[str, str]

#: Generations the change log reaches back: an entry stamped earlier
#: than that misses (``log_gap``).
_LOG_GENERATIONS = 256
#: Changed triples the log holds.  Older generations are dropped to
#: stay under it; a single commit requesting more is a gap at once.
_LOG_TRIPLES = 4096

#: Why a lookup at a newer generation missed.
INVALIDATION_REASONS = ("changed", "log_gap", "no_patterns")


class ResultCache:
    """A thread-safe LRU over (format, query text) keys.

    Bounded both by entry count and by total payload bytes; one
    oversized result (bigger than the byte budget) is never admitted,
    so a single huge SELECT cannot evict the whole working set.
    ``max_entries == 0`` disables the cache (every ``get`` misses and
    ``put`` is a no-op) — how the end-to-end benchmark runs its
    ``paper_uo`` and ``bulk_rows`` workloads.
    """

    def __init__(self, max_entries: int = 256, max_bytes: int = 64 * 1024 * 1024):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: key -> (generation the entry is known valid at, entry).
        self._entries: "OrderedDict[_Key, Tuple[int, CachedResult]]" = OrderedDict()
        self._bytes = 0
        #: generation -> the triples its update requested, oldest first.
        self._log: "OrderedDict[int, Tuple[PatternKey, ...]]" = OrderedDict()
        self._log_triples = 0
        self._lock = threading.Lock()
        self._disabled = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Hits served at a newer generation than the entry's stamp.
        self.revalidated = 0
        #: Lookups at a newer generation that missed, by reason.
        self.invalidated: Dict[str, int] = dict.fromkeys(INVALIDATION_REASONS, 0)

    def get(self, generation: int, fmt: str, query: str) -> Optional[CachedResult]:
        if self.max_entries <= 0 or self._disabled:
            return None
        key = (fmt, query)
        with self._lock:
            if self._disabled:
                return None
            slot = self._entries.get(key)
            if slot is None:
                self.misses += 1
                return None
            stamped, entry = slot
            if stamped < generation:
                reason = self._revalidate(entry, stamped, generation)
                if reason is not None:
                    self.invalidated[reason] += 1
                    self.misses += 1
                    return None
                self._entries[key] = (generation, entry)
                self.revalidated += 1
            elif stamped > generation:
                # Computed after the caller's generation: not this
                # caller's answer, but not invalid either.
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def _revalidate(self, entry: CachedResult, stamped: int, now: int) -> Optional[str]:
        """None when no change in ``(stamped, now]`` can touch ``entry``,
        else the invalidation reason.  Called under the lock."""
        if not entry.patterns:
            return "no_patterns"
        if now - stamped > len(self._log):
            return "log_gap"
        patterns = entry.patterns
        for generation in range(stamped + 1, now + 1):
            changes = self._log.get(generation)
            if changes is None:
                return "log_gap"
            for change in changes:
                for pattern in patterns:
                    if matches(pattern, change):
                        return "changed"
        return None

    def put(self, generation: int, fmt: str, query: str, result: CachedResult) -> bool:
        """Admit a result computed at ``generation``; returns False when
        it cannot be cached.  An answer from an older generation never
        replaces a newer one."""
        if (
            self.max_entries <= 0
            or self._disabled
            or len(result.payload) > self.max_bytes
        ):
            return False
        key = (fmt, query)
        with self._lock:
            if self._disabled:
                return False
            previous = self._entries.get(key)
            if previous is not None:
                if previous[0] > generation:
                    return False
                del self._entries[key]
                self._bytes -= len(previous[1].payload)
            self._entries[key] = (generation, result)
            self._bytes += len(result.payload)
            while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= len(evicted.payload)
                self.evictions += 1
        return True

    def record_update(self, before: int, after: int, triples: Iterable) -> None:
        """Log what one committed update requested (``Triple`` objects,
        :attr:`UpdateResult.requested`) under every generation in
        ``(before, after]``: a multi-operation request advances the
        generation once per effective operation.  Must run before the
        server serves generation ``after``."""
        if self.max_entries <= 0 or after <= before:
            return
        changes = tuple({triple_key(triple) for triple in triples})
        with self._lock:
            if len(changes) > _LOG_TRIPLES:
                # Too big to scan on every lookup: a gap for everyone.
                self._log.clear()
                self._log_triples = 0
                return
            for generation in range(before + 1, after + 1):
                self._log[generation] = changes
                self._log_triples += len(changes)
            while len(self._log) > _LOG_GENERATIONS or self._log_triples > _LOG_TRIPLES:
                _, dropped = self._log.popitem(last=False)
                self._log_triples -= len(dropped)

    def get_stale(self, fmt: str, query: str) -> Optional[CachedResult]:
        """A last-resort lookup that ignores the generation.

        Backs the opt-in stale-while-error mode: when the pool cannot
        answer, the cached result for this (format, query) beats a 5xx.
        It is the freshest one ever admitted, because a ``put`` never
        replaces a newer entry with an older one.  Does not touch
        hit/miss accounting or LRU order: stale serves are an emergency
        path, not a workload signal.
        """
        if self.max_entries <= 0 or self._disabled:
            return None
        with self._lock:
            slot = None if self._disabled else self._entries.get((fmt, query))
            return None if slot is None else slot[1]

    def disable(self) -> None:
        """Permanently clear *and* refuse further entries.

        The mixed-generation safety valve: flipping the flag under the
        cache's own lock closes the check-then-act window where a
        request already executing against old data could re-insert an
        entry after an external clear.
        """
        with self._lock:
            self._disabled = True
            self._entries.clear()
            self._bytes = 0
            self._log.clear()
            self._log_triples = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def payload_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "revalidated": self.revalidated,
                "invalidated": dict(self.invalidated),
            }
