"""Query metrics: Count_BGP / Depth (§7.1) and execution counters.

``Count_BGP`` counts the BGP nodes of the (untransformed) BE-tree —
i.e. maximal coalesced BGPs, matching the paper's recursive definition
once triple patterns have been grouped.

``Depth`` is the maximum nesting depth of group graph patterns, per the
paper's recursive definition (each brace level adds one, the outermost
WHERE group included).

:class:`ExecutionCounters` is the process-wide tally of which physical
execution paths actually ran — merge-join vs hash-join picks, galloping
vs linear advances, candidate-intersection sizes, batch-decode reuse.
The engines bump the :data:`EXEC_COUNTERS` singleton;
:meth:`~repro.core.engine.SparqlUOEngine.execute` snapshots it around
each query and attaches the delta to the
:class:`~repro.core.engine.QueryResult`, the CLI prints it under
``--stats``, and the protocol server aggregates worker deltas into
``/metrics`` — so a plan-path regression (merge joins silently falling
back to hash joins, pruning no longer galloping) is observable rather
than just slow.
"""

from __future__ import annotations

from typing import Dict

from ..rdf.triple import TriplePattern
from ..sparql.algebra import (
    GroupGraphPattern,
    OptionalExpression,
    SelectQuery,
    UnionExpression,
)
from .betree import BETree

__all__ = [
    "count_bgp",
    "depth",
    "query_statistics",
    "ExecutionCounters",
    "EXEC_COUNTERS",
]


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
    "decoded_cells",     # result cells filled from those ids
    "rows_kernel_filtered",  # rows screened by batch compare-and-compact kernels
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


def count_bgp(source) -> int:
    """Number of (maximal, non-empty) BGP nodes of the query's BE-tree.

    Accepts a :class:`SelectQuery`, a syntax-form group, or a BE-tree.
    """
    tree = _as_tree(source)
    return sum(1 for node in tree.bgp_nodes() if not node.is_empty())


def depth(source) -> int:
    """Maximum group-nesting depth (outermost WHERE group counts 1)."""
    if isinstance(source, SelectQuery):
        return _depth_group(source.where)
    if isinstance(source, GroupGraphPattern):
        return _depth_group(source)
    if isinstance(source, BETree):
        return _depth_group(source.to_group())
    raise TypeError(f"cannot compute depth of {source!r}")


def query_statistics(query: SelectQuery) -> dict:
    """Tables 3–4 row for a query: Count_BGP and Depth (result size is
    measured by the caller, which has the dataset)."""
    return {"count_bgp": count_bgp(query), "depth": depth(query)}


def _as_tree(source) -> BETree:
    if isinstance(source, BETree):
        return source
    if isinstance(source, SelectQuery):
        return BETree.from_query(source)
    if isinstance(source, GroupGraphPattern):
        return BETree.from_group(source)
    raise TypeError(f"cannot build a BE-tree from {source!r}")


def _depth_group(group: GroupGraphPattern) -> int:
    deepest = 0
    for element in group.elements:
        if isinstance(element, TriplePattern):
            continue
        if isinstance(element, GroupGraphPattern):
            deepest = max(deepest, _depth_group(element))
        elif isinstance(element, UnionExpression):
            for branch in element.branches:
                deepest = max(deepest, _depth_group(branch))
        elif isinstance(element, OptionalExpression):
            deepest = max(deepest, _depth_group(element.pattern))
    return deepest + 1
