"""SPARQL-UO cost model (§5.1.1, Equations 1–8).

The cost of (the local neighbourhood of) a transformation has two parts:

- ``cost(·, BGP)`` — the engine's estimated evaluation cost of the
  affected BGP nodes (obtained from the transparent BGP cost model,
  §5.1.2);
- ``cost(·, algebra)`` — the cost of combining partial results through
  the implicit AND with siblings, plus the UNION / OPTIONAL operator.

Following the paper's experimental setup, ``f_AND`` is the product of
its arguments, ``f_UNION`` the sum, and result sizes of joins (AND and
OPTIONAL alike) are estimated as products, UNIONs as sums.

Rather than symbolically substituting P1 → P1′ etc., the transformer
physically applies a transformation, re-evaluates the *same* local-cost
expression on the changed tree and undoes (exactly Algorithm 3's
perform / measure / undo loop).  The local cost deliberately sums over
*all* BGP children of the affected groups: terms for untouched nodes
appear identically on both sides of the Δ and cancel, so the Δ-cost
equals the paper's while staying robust to coalescing having absorbed
several nodes at once.
"""

from __future__ import annotations

from typing import Optional as Opt, Sequence, Tuple

from ..bgp.interface import BGPEngine, PlanEstimate
from .betree import BENode, BGPNode, FilterNode, GroupNode, OptionalNode, UnionNode

__all__ = ["CostModel", "f_and", "f_union", "f_optional"]


def f_and(node_size: float, left_size: float, right_size: float) -> float:
    """f_AND — product of the operand result sizes (paper §5.1.1)."""
    return node_size * left_size * right_size


def f_union(branch_sizes: Sequence[float]) -> float:
    """f_UNION — sum of the UNION'ed result sizes."""
    return float(sum(branch_sizes))


def f_optional(left_size: float, right_size: float) -> float:
    """f_OPTIONAL — product, like any join (paper §5.1.1)."""
    return left_size * right_size


class CostModel:
    """Estimates node result sizes and local transformation costs.

    BGP estimates are delegated to the engine, whose estimate cache is
    keyed on the store's write generation: repeated perform/undo probing
    stays cheap, and a write never leaves a stale estimate behind.
    """

    def __init__(self, engine: BGPEngine):
        self.engine = engine

    # ------------------------------------------------------------------
    # per-node estimates
    # ------------------------------------------------------------------
    def bgp_estimate(self, node: BGPNode) -> PlanEstimate:
        if node.is_empty():
            return PlanEstimate(0.0, 1.0)
        return self.engine.estimate(node.patterns)

    def result_size(self, node: BENode) -> float:
        """Estimated |res(node)| under the paper's simple distribution
        assumptions (joins → product, UNION → sum)."""
        if isinstance(node, BGPNode):
            return max(self.bgp_estimate(node).cardinality, 1.0)
        if isinstance(node, GroupNode):
            size = 1.0
            for child in node.children:
                size *= self.result_size(child)
            return size
        if isinstance(node, UnionNode):
            return f_union([self.result_size(b) for b in node.branches])
        if isinstance(node, OptionalNode):
            return self.result_size(node.group)
        if isinstance(node, FilterNode):
            # Filters only shrink results; without per-expression
            # selectivity statistics, stay neutral in the products.
            return 1.0
        raise TypeError(f"not a BE-tree node: {node!r}")

    def join_size(self, node: BENode) -> float:
        """Estimated |res(node)| for ordering a group's children.

        Unlike :meth:`result_size`, an OPTIONAL (like a FILTER) counts
        as factor 1, since a left join keeps its left side, and nothing
        is floored at 1: a child estimated empty must sort first.
        """
        if isinstance(node, BGPNode):
            return self.bgp_estimate(node).cardinality
        if isinstance(node, GroupNode):
            size = 1.0
            for child in node.children:
                size *= self.join_size(child)
            return size
        if isinstance(node, UnionNode):
            return f_union([self.join_size(b) for b in node.branches])
        return 1.0

    def bgp_cost(self, node: BGPNode) -> float:
        return self.bgp_estimate(node).cost

    # ------------------------------------------------------------------
    # sibling-context algebra terms
    # ------------------------------------------------------------------
    def _sibling_sizes(
        self,
        parent: GroupNode,
        node: BENode,
        exclude: Opt[BENode] = None,
    ) -> Tuple[float, float]:
        """(|res(l(node))|, |res(r(node))|): combined left / right sibling
        result sizes within ``parent`` (product over siblings; 1 if none).

        ``exclude`` omits the UNION/OPTIONAL node whose transformation is
        being costed: its combination cost enters the local cost through
        the dedicated f_UNION / f_OPTIONAL term, and counting its result
        size inside the fAND products as well would double-count it —
        making every merge look profitable regardless of selectivity
        (the paper's Figure 7 counterexample would be mis-decided).
        """
        index = _index_of(parent, node)
        left = 1.0
        for sibling in parent.children[:index]:
            if sibling is not exclude:
                left *= self.result_size(sibling)
        right = 1.0
        for sibling in parent.children[index + 1 :]:
            if sibling is not exclude:
                right *= self.result_size(sibling)
        return left, right

    def _and_term(
        self,
        parent: GroupNode,
        node: BENode,
        exclude: Opt[BENode] = None,
    ) -> float:
        left, right = self._sibling_sizes(parent, node, exclude)
        return f_and(self.result_size(node), left, right)

    # ------------------------------------------------------------------
    # local costs (Equations 1–3 and 5–7)
    # ------------------------------------------------------------------
    def local_cost_merge(
        self,
        parent: GroupNode,
        p1_slot: BENode,
        union_node: UnionNode,
    ) -> float:
        """Equations 1–3: local cost around a (prospective) merge.

        ``p1_slot`` is the node currently at P1's position — the real
        BGP before the transformation, the retained empty BGP after.
        """
        total = 0.0
        if isinstance(p1_slot, BGPNode):
            total += self.bgp_cost(p1_slot)
            total += self._and_term(parent, p1_slot, exclude=union_node)
        for branch in union_node.branches:
            for bgp in branch.bgp_children():
                total += self.bgp_cost(bgp)
                total += self._and_term(branch, bgp)
        total += f_union([self.result_size(b) for b in union_node.branches])
        return total

    def local_cost_inject(
        self,
        parent: GroupNode,
        p1_node: BGPNode,
        optional_node: OptionalNode,
    ) -> float:
        """Equations 5–7: local cost around a (prospective) inject."""
        total = self.bgp_cost(p1_node)
        total += self._and_term(parent, p1_node, exclude=optional_node)
        group = optional_node.group
        for bgp in group.bgp_children():
            total += self.bgp_cost(bgp)
            total += self._and_term(group, bgp)
        total += f_optional(self.result_size(p1_node), self.result_size(group))
        return total


def _index_of(parent: GroupNode, node: BENode) -> int:
    for index, child in enumerate(parent.children):
        if child is node:
            return index
    raise ValueError("node is not a child of parent")
