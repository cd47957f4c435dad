"""BGP-based Evaluation Tree (BE-tree) — Definition 8 and §4.1.

The BE-tree is the paper's plan representation: group graph pattern
nodes whose children are BGP nodes (maximal coalesced triple-pattern
sets), UNION nodes (2+ group children) and OPTIONAL nodes (exactly one
group child).

Construction follows §4.1: build nodes from the syntax AST in order,
then coalesce sibling triple patterns into *maximal* BGP nodes, placing
each coalesced BGP where its leftmost constituent originally resided.

Soundness refinement (documented in DESIGN.md): the paper coalesces
across intervening OPTIONAL siblings (its Figure 5 merges t1 and t6
around an OPTIONAL), which is only semantics-preserving when the moved
pattern's overlap with the OPTIONAL body is *certainly bound* before the
OPTIONAL (the well-designed-pattern condition).  The paper's queries all
satisfy this; arbitrary queries need not, so :func:`_may_cross` checks
the condition and skips the coalesce otherwise.  All equivalence tests
therefore hold for arbitrary queries, not just well-designed ones.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Set

from ..rdf.triple import TriplePattern, coalescable
from ..sparql.algebra import (
    FilterExpression,
    GroupGraphPattern,
    OptionalExpression,
    SelectQuery,
    UnionExpression,
)
from ..sparql.expressions import Expression, expression_variables, format_expression

__all__ = [
    "BGPNode",
    "GroupNode",
    "UnionNode",
    "OptionalNode",
    "FilterNode",
    "BETree",
    "BENode",
]

_ids = itertools.count()


class BENode:
    """Base class for BE-tree nodes; each node gets a stable identity id."""

    __slots__ = ("node_id",)

    def __init__(self):
        self.node_id = next(_ids)

    def clone(self) -> "BENode":
        """Deep copy preserving node ids (used for undoable transforms)."""
        raise NotImplementedError

    def variables(self) -> Set[str]:
        """All variable names under this node."""
        raise NotImplementedError


class BGPNode(BENode):
    """A leaf: an ordered list of triple patterns forming one BGP.

    May be *empty* — the paper retains empty BGP nodes produced by merge
    transformations (their result is the identity bag, cost 0).
    """

    __slots__ = ("patterns",)

    def __init__(self, patterns: Sequence[TriplePattern] = ()):
        super().__init__()
        self.patterns: List[TriplePattern] = list(patterns)

    def is_empty(self) -> bool:
        return not self.patterns

    def variables(self) -> Set[str]:
        out: Set[str] = set()
        for pattern in self.patterns:
            out.update(v.name for v in pattern.variables())
        return out

    def join_variables(self) -> Set[str]:
        out: Set[str] = set()
        for pattern in self.patterns:
            out.update(v.name for v in pattern.join_variables())
        return out

    def coalescable_with(self, other: "BGPNode") -> bool:
        """Definition 4: some constituent patterns are coalescable."""
        return any(
            coalescable(p1, p2) for p1 in self.patterns for p2 in other.patterns
        )

    def clone(self) -> "BGPNode":
        copy = BGPNode(self.patterns)
        copy.node_id = self.node_id
        return copy

    def __repr__(self) -> str:
        return f"BGPNode({len(self.patterns)} patterns)"


class FilterNode(BENode):
    """A group-scoped FILTER constraint.

    Filters never bind variables; :meth:`variables` reports the
    expression's variables for the transformer's safety analysis.
    Their position among siblings is irrelevant semantically (SPARQL
    filters scope over the whole group), so BGP coalescing and the
    merge/inject transformations move freely across them.
    """

    __slots__ = ("expression",)

    def __init__(self, expression: Expression):
        super().__init__()
        if not isinstance(expression, Expression):
            raise TypeError(f"FilterNode requires an expression, got {expression!r}")
        self.expression = expression

    def variables(self) -> Set[str]:
        return set(expression_variables(self.expression))

    def clone(self) -> "FilterNode":
        copy = FilterNode(self.expression)
        copy.node_id = self.node_id
        return copy

    def __repr__(self) -> str:
        return f"FilterNode({format_expression(self.expression)})"


class GroupNode(BENode):
    """A group graph pattern node: ordered children of any node type."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[BENode] = ()):
        super().__init__()
        self.children: List[BENode] = list(children)

    def variables(self) -> Set[str]:
        out: Set[str] = set()
        for child in self.children:
            out |= child.variables()
        return out

    def bgp_children(self) -> List[BGPNode]:
        return [c for c in self.children if isinstance(c, BGPNode)]

    def clone(self) -> "GroupNode":
        copy = GroupNode([child.clone() for child in self.children])
        copy.node_id = self.node_id
        return copy

    def __repr__(self) -> str:
        return f"GroupNode({len(self.children)} children)"


class UnionNode(BENode):
    """A UNION node: two or more group graph pattern children."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[GroupNode]):
        super().__init__()
        branches = list(branches)
        if len(branches) < 2:
            raise ValueError("UnionNode requires at least two branches")
        self.branches: List[GroupNode] = branches

    def variables(self) -> Set[str]:
        out: Set[str] = set()
        for branch in self.branches:
            out |= branch.variables()
        return out

    def clone(self) -> "UnionNode":
        copy = UnionNode([branch.clone() for branch in self.branches])
        copy.node_id = self.node_id
        return copy

    def __repr__(self) -> str:
        return f"UnionNode({len(self.branches)} branches)"


class OptionalNode(BENode):
    """An OPTIONAL node: exactly one group child (the OPTIONAL-right)."""

    __slots__ = ("group",)

    def __init__(self, group: GroupNode):
        super().__init__()
        if not isinstance(group, GroupNode):
            raise TypeError("OptionalNode child must be a GroupNode")
        self.group = group

    def variables(self) -> Set[str]:
        return self.group.variables()

    def clone(self) -> "OptionalNode":
        copy = OptionalNode(self.group.clone())
        copy.node_id = self.node_id
        return copy

    def __repr__(self) -> str:
        return "OptionalNode()"


class BETree:
    """A BE-tree: root group node plus construction / conversion helpers."""

    def __init__(self, root: GroupNode):
        self.root = root

    # ------------------------------------------------------------------
    # construction from the syntax AST (§4.1)
    # ------------------------------------------------------------------
    @classmethod
    def from_group(cls, group: GroupGraphPattern) -> "BETree":
        return cls(_build_group(group))

    @classmethod
    def from_query(cls, query: SelectQuery) -> "BETree":
        return cls.from_group(query.where)

    def clone(self) -> "BETree":
        return BETree(self.root.clone())

    # ------------------------------------------------------------------
    # conversion back to the syntax AST
    # ------------------------------------------------------------------
    def to_group(self) -> GroupGraphPattern:
        """Render back to a syntax-form group (validity check, §4.2.1).

        BGP nodes expand to their triple patterns in order; empty BGP
        nodes disappear (their semantics is the join identity).
        """
        return _group_to_syntax(self.root)

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[BENode]:
        yield from _iter_nodes(self.root)

    def bgp_nodes(self) -> List[BGPNode]:
        return [n for n in self.iter_nodes() if isinstance(n, BGPNode)]

    def pretty(self) -> str:
        """Indented text rendering for debugging and EXPLAIN output."""
        lines: List[str] = []
        _pretty(self.root, 0, lines)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"BETree({sum(1 for _ in self.iter_nodes())} nodes)"


# ----------------------------------------------------------------------
# construction internals
# ----------------------------------------------------------------------
def _build_group(group: GroupGraphPattern) -> GroupNode:
    children: List[BENode] = []
    for element in group.elements:
        if isinstance(element, TriplePattern):
            children.append(BGPNode([element]))
        elif isinstance(element, GroupGraphPattern):
            children.append(_build_group(element))
        elif isinstance(element, UnionExpression):
            children.append(UnionNode([_build_group(b) for b in element.branches]))
        elif isinstance(element, OptionalExpression):
            children.append(OptionalNode(_build_group(element.pattern)))
        elif isinstance(element, FilterExpression):
            children.append(FilterNode(element.expression))
        else:  # pragma: no cover - AST constructor validates
            raise TypeError(f"invalid group element {element!r}")
    node = GroupNode(children)
    coalesce_siblings(node)
    return node


def certain_variables(children: Sequence[BENode], upto: int) -> Set[str]:
    """Variables guaranteed bound by children[0:upto] in every solution.

    BGP nodes bind all their variables; group children bind whatever
    their own certain analysis yields; UNION binds the *intersection* of
    its branches' certain variables; OPTIONAL binds nothing for sure.
    """
    out: Set[str] = set()
    for child in children[:upto]:
        out |= _certain_of(child)
    return out


def _certain_of(node: BENode) -> Set[str]:
    if isinstance(node, BGPNode):
        return node.variables()
    if isinstance(node, GroupNode):
        return certain_variables(node.children, len(node.children))
    if isinstance(node, UnionNode):
        certain = _certain_of(node.branches[0])
        for branch in node.branches[1:]:
            certain &= _certain_of(branch)
        return certain
    if isinstance(node, OptionalNode):
        return set()
    if isinstance(node, FilterNode):
        return set()  # filters only remove rows, they bind nothing
    raise TypeError(f"not a BE-tree node: {node!r}")


def _may_cross(children: Sequence[BENode], source: int, target: int, moved_vars: Set[str]) -> bool:
    """Can a BGP with ``moved_vars`` move from index ``source`` left to
    ``target`` without changing semantics?

    Joins commute, so only intervening OPTIONAL siblings matter: the
    moved pattern's variables shared with an OPTIONAL body must be
    certainly bound before that OPTIONAL (see module docstring).
    """
    for index in range(target, source):
        sibling = children[index]
        if isinstance(sibling, OptionalNode):
            shared = moved_vars & sibling.variables()
            if shared and not shared <= certain_variables(children, index):
                return False
    return True


def coalesce_siblings(group: GroupNode) -> bool:
    """Merge sibling BGP nodes to maximality (§4.1), in place.

    Repeatedly merges the leftmost coalescable (and crossing-safe) pair,
    absorbing the right node into the left one's position, until no pair
    qualifies.  Returns True if anything changed.
    """
    changed = False
    while True:
        merged = _coalesce_one(group)
        if not merged:
            return changed
        changed = True


def _coalesce_one(group: GroupNode) -> bool:
    children = group.children
    for left_index in range(len(children)):
        left = children[left_index]
        if not isinstance(left, BGPNode) or left.is_empty():
            continue
        for right_index in range(left_index + 1, len(children)):
            right = children[right_index]
            if not isinstance(right, BGPNode) or right.is_empty():
                continue
            if not left.coalescable_with(right):
                continue
            if not _may_cross(children, right_index, left_index, right.variables()):
                continue
            left.patterns.extend(right.patterns)
            del children[right_index]
            return True
    return False


# ----------------------------------------------------------------------
# syntax conversion internals
# ----------------------------------------------------------------------
def _group_to_syntax(group: GroupNode) -> GroupGraphPattern:
    elements: List = []
    for child in group.children:
        if isinstance(child, BGPNode):
            elements.extend(child.patterns)
        elif isinstance(child, GroupNode):
            elements.append(_group_to_syntax(child))
        elif isinstance(child, UnionNode):
            elements.append(
                UnionExpression([_group_to_syntax(b) for b in child.branches])
            )
        elif isinstance(child, OptionalNode):
            elements.append(OptionalExpression(_group_to_syntax(child.group)))
        elif isinstance(child, FilterNode):
            elements.append(FilterExpression(child.expression))
        else:  # pragma: no cover
            raise TypeError(f"not a BE-tree node: {child!r}")
    return GroupGraphPattern(elements)


def _iter_nodes(node: BENode) -> Iterator[BENode]:
    yield node
    if isinstance(node, GroupNode):
        for child in node.children:
            yield from _iter_nodes(child)
    elif isinstance(node, UnionNode):
        for branch in node.branches:
            yield from _iter_nodes(branch)
    elif isinstance(node, OptionalNode):
        yield from _iter_nodes(node.group)


def _pretty(node: BENode, depth: int, lines: List[str]) -> None:
    pad = "  " * depth
    if isinstance(node, BGPNode):
        label = "BGP(empty)" if node.is_empty() else "BGP"
        lines.append(f"{pad}{label}")
        for pattern in node.patterns:
            lines.append(f"{pad}  {pattern.n3()}")
    elif isinstance(node, GroupNode):
        lines.append(f"{pad}GROUP")
        for child in node.children:
            _pretty(child, depth + 1, lines)
    elif isinstance(node, UnionNode):
        lines.append(f"{pad}UNION")
        for branch in node.branches:
            _pretty(branch, depth + 1, lines)
    elif isinstance(node, OptionalNode):
        lines.append(f"{pad}OPTIONAL")
        _pretty(node.group, depth + 1, lines)
    elif isinstance(node, FilterNode):
        lines.append(f"{pad}FILTER {format_expression(node.expression)}")
