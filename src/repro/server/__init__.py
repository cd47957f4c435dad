"""SPARQL 1.1 Protocol server over snapshot-backed worker processes.

The subsystem that turns the single-process engine into a query
*service*: an HTTP endpoint (``GET``/``POST /sparql`` with content
negotiation, plus ``/healthz`` and ``/metrics``) fronting a pool of
worker processes that each open the same ``.snap`` snapshot mmap-lazily
— a cold fleet shares page cache and reaches its first answer fast —
wrapped in the production controls a public endpoint needs:

- **admission control** (:mod:`.pool`): each worker runs one query at
  a time, and a bounded number of requests wait for an idle worker;
  excess load is shed immediately with ``503``;
- **per-query timeouts** (:mod:`.pool`): a cooperative engine deadline
  first, and a hard kill-and-respawn of the worker as the backstop;
- **a pattern-aware result cache** (:mod:`.cache`): entries are
  stamped with the store generation and survive every write that
  changes no triple matching one of the query's patterns;
- **per-query metrics** (:mod:`.metrics`): latency quantiles, row and
  join-space counters, aggregated into a Prometheus-style ``/metrics``;
- **live writes** (``POST /update``): SPARQL 1.1 UPDATE applied to the
  parent's authoritative store, broadcast to every worker's sorted
  delta overlay (no snapshot rebuild), with background
  compaction folding the delta into the data file once it crosses
  ``--compact-threshold``.
"""

from .app import SparqlServer, serve
from .cache import CachedResult, ResultCache
from .config import ServerConfig
from .metrics import ServerMetrics
from .pool import PoolError, WorkerPool, WorkerReply
from .protocol import (
    FORMAT_MEDIA_TYPES,
    ProtocolError,
    negotiate_format,
    parse_sparql_request,
    parse_update_request,
)

__all__ = [
    "SparqlServer",
    "serve",
    "ServerConfig",
    "ResultCache",
    "CachedResult",
    "ServerMetrics",
    "PoolError",
    "WorkerPool",
    "WorkerReply",
    "ProtocolError",
    "FORMAT_MEDIA_TYPES",
    "negotiate_format",
    "parse_sparql_request",
    "parse_update_request",
]
