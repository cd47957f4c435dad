"""The paper's core contribution: BE-trees, transformations, cost model,
candidate pruning, and the engine facade."""

from .betree import BETree, BGPNode, FilterNode, GroupNode, OptionalNode, UnionNode
from .candidates import CandidatePolicy, ThresholdMode
from .cost import CostModel, f_and, f_optional, f_union
from .engine import (
    EngineOptions,
    ExecutionMode,
    PreparedQuery,
    QueryResult,
    SparqlUOEngine,
    UpdateResult,
)
from .evaluator import BGPBasedEvaluator, EvaluationTrace
from .joinspace import join_space
from .metrics import (
    EXEC_COUNTERS,
    ExecutionCounters,
    count_bgp,
    depth,
)
from .validation import InvalidBETreeError, validate_node, validate_tree
from .transform import (
    TransformReport,
    can_inject,
    can_merge,
    decide_inject,
    decide_merge,
    multi_level_transform,
    perform_inject,
    perform_merge,
    reorder_children,
    single_level_transform,
)

__all__ = [
    "BETree",
    "BGPNode",
    "GroupNode",
    "UnionNode",
    "OptionalNode",
    "FilterNode",
    "CandidatePolicy",
    "ThresholdMode",
    "CostModel",
    "f_and",
    "f_union",
    "f_optional",
    "EngineOptions",
    "ExecutionMode",
    "PreparedQuery",
    "QueryResult",
    "SparqlUOEngine",
    "UpdateResult",
    "BGPBasedEvaluator",
    "EvaluationTrace",
    "join_space",
    "count_bgp",
    "depth",
    "ExecutionCounters",
    "EXEC_COUNTERS",
    "TransformReport",
    "can_merge",
    "can_inject",
    "perform_merge",
    "perform_inject",
    "decide_merge",
    "decide_inject",
    "single_level_transform",
    "multi_level_transform",
    "reorder_children",
    "InvalidBETreeError",
    "validate_tree",
    "validate_node",
]
