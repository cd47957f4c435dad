"""Generation-keyed LRU result cache.

Every cache key embeds the *store generation* the result was computed
at — the monotonic write counter the snapshot format persists
(:mod:`repro.storage.snapshot`) and :class:`~repro.storage.store.TripleStore`
exposes.  Invalidation therefore needs no TTLs and no explicit flush:
pointing the server at a newer snapshot changes the generation, every
old key simply stops matching, and stale entries age out of the LRU
tail.  This is the server-side payoff of persisting the generation in
the snapshot.

Entries are whole serialized response payloads (bytes), so a hit
bypasses the worker pool, the engine *and* the serializer — why the
end-to-end benchmark's ``entity_zipf`` workload, half of whose
requests are hits, spends half its wall time in the server layers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

__all__ = ["CachedResult", "ResultCache"]


class CachedResult:
    """One cached response: payload plus the metadata ``/metrics`` wants."""

    __slots__ = (
        "payload",
        "content_type",
        "row_count",
        "join_space",
        "exec_counters",
        "template",
    )

    def __init__(
        self,
        payload: bytes,
        content_type: str,
        row_count: int,
        join_space: float,
        exec_counters: Optional[Dict[str, int]] = None,
        template: Optional[Dict[str, object]] = None,
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


#: generation, format key, exact query text.
_Key = Tuple[int, str, str]


class ResultCache:
    """A thread-safe LRU over (generation, format, query text) keys.

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
        self._entries: "OrderedDict[_Key, CachedResult]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._disabled = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, generation: int, fmt: str, query: str) -> Optional[CachedResult]:
        if self.max_entries <= 0 or self._disabled:
            return None
        key = (generation, fmt, query)
        with self._lock:
            if self._disabled:
                return None
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, generation: int, fmt: str, query: str, result: CachedResult) -> bool:
        """Admit a result; returns False when it cannot be cached."""
        if (
            self.max_entries <= 0
            or self._disabled
            or len(result.payload) > self.max_bytes
        ):
            return False
        key = (generation, fmt, query)
        with self._lock:
            if self._disabled:
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= len(previous.payload)
            self._entries[key] = result
            self._bytes += len(result.payload)
            while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted.payload)
                self.evictions += 1
        return True

    def get_stale(self, fmt: str, query: str) -> Optional[CachedResult]:
        """A last-resort lookup that ignores the generation key.

        Backs the opt-in stale-while-error mode: when the pool cannot
        answer, the *freshest* cached result for this (format, query) —
        the one computed at the highest generation — beats a 5xx.  LRU
        recency is not data freshness: an old-generation entry that a
        client re-touched recently would otherwise shadow a newer
        answer sitting cold in the middle of the list.  Does not touch
        hit/miss accounting or LRU order: stale serves are an emergency
        path, not a workload signal.
        """
        if self.max_entries <= 0 or self._disabled:
            return None
        with self._lock:
            if self._disabled:
                return None
            best_generation: Optional[int] = None
            best: Optional[CachedResult] = None
            for (entry_generation, entry_fmt, entry_query), entry in self._entries.items():
                if entry_fmt != fmt or entry_query != query:
                    continue
                if best_generation is None or entry_generation > best_generation:
                    best_generation = entry_generation
                    best = entry
            return best

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

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def payload_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
