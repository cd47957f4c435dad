"""BGP evaluation engines and cardinality estimation."""

from .filters import CompiledFilter, combine_predicates
from .hashjoin import HashJoinEngine, binary_join_cost
from .interface import BGPEngine, Candidates, PlanEstimate
from .plans import connected_components, greedy_pattern_order, pattern_join_vars
from .wco import WCOJoinEngine

__all__ = [
    "CompiledFilter",
    "combine_predicates",
    "BGPEngine",
    "Candidates",
    "PlanEstimate",
    "HashJoinEngine",
    "binary_join_cost",
    "WCOJoinEngine",
    "connected_components",
    "greedy_pattern_order",
    "pattern_join_vars",
]
