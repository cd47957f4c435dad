"""Execution counters: which physical execution paths actually ran.

The engines bump the process-wide :data:`EXEC_COUNTERS`;
:meth:`~repro.core.engine.SparqlUOEngine.execute` attaches each query's
delta to its result, trace spans carry the delta over their interval,
``--stats`` prints it and the server sums worker deltas into
``/metrics`` — so a plan-path regression (merge joins falling back to
hash joins, pruning no longer galloping) is observable, not just slow.
Standard library only, so every layer imports it at the top.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["EXEC_COUNTER_FIELDS", "ExecutionCounters", "EXEC_COUNTERS"]


#: The counter names, in display order.  One place to add a counter:
#: the class, the CLI line, the Prometheus exposition and the worker
#: meta dict all iterate this tuple.
EXEC_COUNTER_FIELDS = (
    "merge_joins",       # merge-join steps taken (incl. run semi-joins)
    "hash_joins",        # hash-join steps taken (the fallback path)
    "gallop_advances",   # galloping (exponential+bisect) pointer moves
    "linear_advances",   # linear pointer moves inside merge loops
    "gallop_probes",     # individual galloping searches performed
    "candidate_intersections",     # sorted candidate ∩ run operations
    "candidate_intersection_in",   # ids entering those intersections
    "candidate_intersection_out",  # ids surviving them
    "rows_materialized", # rows emitted into result bags by BGP engines
    "batch_decoded_ids", # distinct ids decoded by batch result decode
    "decoded_cells",     # term-level result cells built (0 when rendered from ids)
    "rows_kernel_filtered",  # rows screened by a FILTER memo's batch compare-and-compact form
    "terms_decoded",     # ids materialized into terms anywhere (0 = zero-decode)
    "operators_skipped_empty",  # group children never evaluated: left side was ∅
    "join_rows",         # rows emitted by the evaluator's bag join / left join / union
)


class ExecutionCounters:
    """Mutable tally of physical execution-path choices.

    Plain unsynchronized ints: increments happen on the query hot path
    and the numbers are observability, not accounting — a torn update
    under free threading would skew a metric, never a result.
    """

    __slots__ = EXEC_COUNTER_FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in EXEC_COUNTER_FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in EXEC_COUNTER_FIELDS}

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Per-query view: counters accumulated since ``before``."""
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in EXEC_COUNTER_FIELDS
        }

    def add(self, delta: Dict[str, int]) -> None:
        """Fold another process's delta in (server-side aggregation)."""
        for name in EXEC_COUNTER_FIELDS:
            value = delta.get(name)
            if value:
                setattr(self, name, getattr(self, name) + int(value))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in EXEC_COUNTER_FIELDS
            if getattr(self, name)
        )
        return f"ExecutionCounters({parts})"


#: The process-wide counters instance the engines record into.
EXEC_COUNTERS = ExecutionCounters()
