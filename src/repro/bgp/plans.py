"""Join-order planning helpers shared by both BGP engines.

A BGP is viewed as a *query graph*: triple patterns are edges between
their subject/object terms (variables or constants).  Both engines order
work so that each step connects to what is already bound — exactly the
"coalescability" structure the paper's Definitions 3–5 build BGPs from —
falling back to a cartesian product only across genuinely disconnected
components.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set

from ..rdf.triple import TriplePattern
from ..storage.indexes import sorted_scan_position

__all__ = [
    "pattern_join_vars",
    "connected_components",
    "greedy_pattern_order",
    "scan_sort_variable",
]


def scan_sort_variable(encoded) -> Optional[str]:
    """The variable a *frozen* plain scan of ``encoded`` emits sorted.

    ``encoded`` is an :data:`~repro.storage.store.EncodedPattern`
    (ints for constants, name strings for variables).  The frozen
    permutation chosen for the binding combination enumerates its
    primary free column in ascending order; post-filters (repeated
    variables, candidate slot filters) only drop rows, so the order
    survives to the emitted rows.  Returns ``None`` for fully ground
    patterns.  Both the executor (merge-join eligibility) and the cost
    model (merge vs hash step costs) call this, which is what keeps
    plan-time predictions aligned with run-time path choice.
    """
    s, p, o = encoded
    position = sorted_scan_position(
        isinstance(s, int), isinstance(p, int), isinstance(o, int)
    )
    if position is None:
        return None
    name = encoded[position]
    return name if isinstance(name, str) else None


def pattern_join_vars(pattern: TriplePattern) -> Set[str]:
    """Subject/object variable names of a pattern (the join positions)."""
    return {v.name for v in pattern.join_variables()}


def connected_components(
    patterns: Sequence[TriplePattern],
) -> List[List[TriplePattern]]:
    """Partition patterns into coalescability-connected components.

    Two patterns are connected when they share a subject/object variable
    (Definition 3), transitively closed.  Predicate-only variable
    sharing does not connect patterns, matching the paper; such patterns
    end up in separate components and are combined by cartesian product.
    """
    remaining = list(patterns)
    components: List[List[TriplePattern]] = []
    while remaining:
        seed = remaining.pop(0)
        component = [seed]
        component_vars = set(pattern_join_vars(seed))
        grew = True
        while grew:
            grew = False
            still_remaining = []
            for pattern in remaining:
                if pattern_join_vars(pattern) & component_vars:
                    component.append(pattern)
                    component_vars |= pattern_join_vars(pattern)
                    grew = True
                else:
                    still_remaining.append(pattern)
            remaining = still_remaining
        components.append(component)
    return components


def greedy_pattern_order(
    patterns: Sequence[TriplePattern],
    count_of: Callable[[TriplePattern], float],
) -> List[TriplePattern]:
    """Selectivity-greedy, connectivity-respecting pattern order.

    Within each connected component, start from the pattern with the
    smallest ``count_of`` value and repeatedly append the connected
    pattern with the smallest count.  Components themselves are ordered
    by their cheapest member.  This is the classic greedy join-order
    heuristic both gStore and Jena apply when statistics are enabled.
    """
    ordered: List[TriplePattern] = []
    components = connected_components(patterns)
    components.sort(key=lambda comp: min(count_of(p) for p in comp))
    for component in components:
        pending = list(component)
        pending.sort(key=count_of)
        current = [pending.pop(0)]
        bound_vars = set(pattern_join_vars(current[0]))
        while pending:
            connected = [p for p in pending if pattern_join_vars(p) & bound_vars]
            pool = connected or pending  # component guarantee: connected
            best = min(pool, key=count_of)
            pending.remove(best)
            current.append(best)
            bound_vars |= pattern_join_vars(best)
        ordered.extend(current)
    return ordered
