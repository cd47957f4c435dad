"""Storage substrate: permutation indexes, statistics, store facade,
binary snapshots and the streaming bulk loader."""

from .bulkload import BulkLoader, bulk_load_ntriples
from .delta import DeltaLayer, DeltaOverlayIndexes
from .indexes import FrozenTripleIndexes, sorted_scan_position
from .runs import (
    SortedIdSet,
    SortedRun,
    gallop_intersect,
    gallop_left,
    leapfrog_intersect,
)
from .snapshot import (
    FORMAT_VERSION,
    MAGIC,
    LazyTermDictionary,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotReader,
    SnapshotTornError,
    atomic_overwrite,
    quarantine_snapshot,
    write_snapshot,
)
from .stats import PredicateStatistics, StoreStatistics
from .store import EncodedPattern, MISSING_ID, TripleStore

__all__ = [
    "FrozenTripleIndexes",
    "DeltaLayer",
    "DeltaOverlayIndexes",
    "sorted_scan_position",
    "SortedRun",
    "SortedIdSet",
    "gallop_left",
    "gallop_intersect",
    "leapfrog_intersect",
    "PredicateStatistics",
    "StoreStatistics",
    "TripleStore",
    "EncodedPattern",
    "MISSING_ID",
    "SnapshotError",
    "SnapshotTornError",
    "SnapshotCorruptError",
    "SnapshotReader",
    "LazyTermDictionary",
    "atomic_overwrite",
    "quarantine_snapshot",
    "write_snapshot",
    "MAGIC",
    "FORMAT_VERSION",
    "BulkLoader",
    "bulk_load_ntriples",
]
