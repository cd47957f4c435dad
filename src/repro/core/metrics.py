"""Query metrics: Count_BGP / Depth (§7.1) and execution counters.

``Count_BGP`` counts the BGP nodes of the (untransformed) BE-tree —
i.e. maximal coalesced BGPs, matching the paper's recursive definition
once triple patterns have been grouped.

``Depth`` is the maximum nesting depth of group graph patterns, per the
paper's recursive definition (each brace level adds one, the outermost
WHERE group included).

The execution counters live in :mod:`repro.obs.counters`; their names
are re-exported here.
"""

from __future__ import annotations

from ..obs.counters import EXEC_COUNTER_FIELDS, EXEC_COUNTERS, ExecutionCounters
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
    "EXEC_COUNTER_FIELDS",
    "ExecutionCounters",
    "EXEC_COUNTERS",
]


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
