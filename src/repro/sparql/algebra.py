"""Graph-pattern AST (Definition 6), in syntax form.

A :class:`GroupGraphPattern` mirrors query text: an ordered list of
elements, each a triple pattern, nested group, UNION expression,
OPTIONAL expression or FILTER.  BE-tree construction (§4.1) consumes
this form directly, because sibling order matters there.

The paper's operator semantics are read off that order: elements of a
group are joined left to right, OPTIONAL is left-associative
(attaching to everything accumulated so far), and FILTERs apply to
the whole group.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional as Opt, Sequence, Union as U

from ..rdf.terms import Variable
from ..rdf.triple import TriplePattern
from .expressions import Expression, format_expression

__all__ = [
    "GroupGraphPattern",
    "UnionExpression",
    "OptionalExpression",
    "FilterExpression",
    "GroupElement",
    "OrderCondition",
    "Aggregate",
    "GroupBy",
    "SelectQuery",
    "InsertData",
    "DeleteData",
    "ModifyUpdate",
    "UpdateOperation",
    "UpdateRequest",
    "pattern_variables",
    "triple_patterns",
    "format_group",
]


class UnionExpression:
    """``{G1} UNION {G2} UNION …`` — two or more group branches."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence["GroupGraphPattern"]):
        branches = tuple(branches)
        if len(branches) < 2:
            raise ValueError("UNION requires at least two branches")
        for branch in branches:
            if not isinstance(branch, GroupGraphPattern):
                raise TypeError(f"UNION branches must be groups, got {branch!r}")
        self.branches = branches

    def __eq__(self, other) -> bool:
        return isinstance(other, UnionExpression) and other.branches == self.branches

    def __hash__(self) -> int:
        return hash(("union", self.branches))

    def __repr__(self) -> str:
        return f"UnionExpression({list(self.branches)!r})"


class OptionalExpression:
    """``OPTIONAL {G}`` — the OPTIONAL-right group graph pattern."""

    __slots__ = ("pattern",)

    def __init__(self, pattern: "GroupGraphPattern"):
        if not isinstance(pattern, GroupGraphPattern):
            raise TypeError(f"OPTIONAL body must be a group, got {pattern!r}")
        self.pattern = pattern

    def __eq__(self, other) -> bool:
        return isinstance(other, OptionalExpression) and other.pattern == self.pattern

    def __hash__(self) -> int:
        return hash(("optional", self.pattern))

    def __repr__(self) -> str:
        return f"OptionalExpression({self.pattern!r})"


class FilterExpression:
    """``FILTER (expr)`` — a constraint scoped to its enclosing group.

    Per SPARQL semantics a filter applies to the *whole* group result,
    regardless of where it appears among the group's elements; the
    element position is kept only so queries round-trip textually.
    """

    __slots__ = ("expression",)

    def __init__(self, expression: Expression):
        if not isinstance(expression, Expression):
            raise TypeError(f"FILTER requires an expression, got {expression!r}")
        self.expression = expression

    def __eq__(self, other) -> bool:
        return isinstance(other, FilterExpression) and other.expression == self.expression

    def __hash__(self) -> int:
        return hash(("filter", self.expression))

    def __repr__(self) -> str:
        return f"FilterExpression({self.expression!r})"


class OrderCondition:
    """One ORDER BY key: an expression plus a direction."""

    __slots__ = ("expression", "ascending")

    def __init__(self, expression: Expression, ascending: bool = True):
        if not isinstance(expression, Expression):
            raise TypeError(f"ORDER BY requires an expression, got {expression!r}")
        self.expression = expression
        self.ascending = bool(ascending)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderCondition)
            and other.expression == self.expression
            and other.ascending == self.ascending
        )

    def __hash__(self) -> int:
        return hash(("order", self.expression, self.ascending))

    def __repr__(self) -> str:
        direction = "ASC" if self.ascending else "DESC"
        return f"OrderCondition({direction}, {self.expression!r})"


GroupElement = U[
    TriplePattern,
    "GroupGraphPattern",
    UnionExpression,
    OptionalExpression,
    FilterExpression,
]


class GroupGraphPattern:
    """``{ e1 . e2 . … }`` — ordered elements of one group."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[GroupElement] = ()):
        elements = tuple(elements)
        for element in elements:
            if not isinstance(
                element,
                (
                    TriplePattern,
                    GroupGraphPattern,
                    UnionExpression,
                    OptionalExpression,
                    FilterExpression,
                ),
            ):
                raise TypeError(f"invalid group element {element!r}")
        self.elements = elements

    def filters(self) -> List[FilterExpression]:
        """The group's FILTER elements (scope: this whole group)."""
        return [e for e in self.elements if isinstance(e, FilterExpression)]

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupGraphPattern) and other.elements == self.elements

    def __hash__(self) -> int:
        return hash(("group", self.elements))

    def __repr__(self) -> str:
        return f"GroupGraphPattern({list(self.elements)!r})"


class Aggregate:
    """One projected aggregate: ``(FUNC(DISTINCT? ?v | *) AS ?alias)``.

    ``expression`` is the aggregated variable, or None for ``COUNT(*)``
    (the only function whose argument may be ``*``).  The fragment keeps
    aggregate arguments to plain variables so grouping and folding can
    run entirely on encoded ids.
    """

    FUNCTIONS = frozenset({"COUNT", "SUM", "MIN", "MAX", "AVG"})

    __slots__ = ("function", "expression", "distinct", "alias")

    def __init__(
        self,
        function: str,
        expression: Opt[Variable],
        alias: Variable,
        distinct: bool = False,
    ):
        function = function.upper()
        if function not in self.FUNCTIONS:
            raise ValueError(f"unknown aggregate function {function!r}")
        if expression is None and function != "COUNT":
            raise ValueError(f"{function}(*) is not defined; only COUNT takes '*'")
        if expression is not None and not isinstance(expression, Variable):
            raise TypeError(f"aggregate argument must be a variable, got {expression!r}")
        if not isinstance(alias, Variable):
            raise TypeError(f"aggregate alias must be a variable, got {alias!r}")
        self.function = function
        self.expression = expression
        self.distinct = bool(distinct)
        self.alias = alias

    @property
    def name(self) -> str:
        """The output column name (the alias), mirroring Variable.name."""
        return self.alias.name

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Aggregate)
            and other.function == self.function
            and other.expression == self.expression
            and other.distinct == self.distinct
            and other.alias == self.alias
        )

    def __hash__(self) -> int:
        return hash(("agg", self.function, self.expression, self.distinct, self.alias))

    def __repr__(self) -> str:
        arg = "*" if self.expression is None else self.expression.n3()
        if self.distinct:
            arg = f"DISTINCT {arg}"
        return f"({self.function}({arg}) AS {self.alias.n3()})"


class GroupBy:
    """The grouped head of a query: grouping keys plus its aggregates.

    Sits alongside the WHERE-derived BE-tree in plans: the tree produces
    the (encoded) solution bag, this node describes how its rows
    collapse into groups.  Built by :class:`SelectQuery` whenever the
    projection contains aggregates or a ``GROUP BY`` clause is present.
    """

    __slots__ = ("variables", "aggregates")

    def __init__(self, variables: Sequence[Variable], aggregates: Sequence[Aggregate]):
        self.variables = tuple(variables)
        self.aggregates = tuple(aggregates)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupBy)
            and other.variables == self.variables
            and other.aggregates == self.aggregates
        )

    def __hash__(self) -> int:
        return hash(("groupby", self.variables, self.aggregates))

    def pretty(self) -> str:
        keys = " ".join(v.n3() for v in self.variables) or "(implicit single group)"
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"GroupBy[{keys}] -> {aggs}"

    def __repr__(self) -> str:
        return f"GroupBy({list(self.variables)!r}, {list(self.aggregates)!r})"


class SelectQuery:
    """A parsed SELECT query: projection + WHERE group + modifiers.

    ``variables`` is None for ``SELECT *`` (and for the appendix's bare
    ``SELECT WHERE``, which we treat identically): project every
    in-scope variable.  Projection items are :class:`Variable`\\ s or
    :class:`Aggregate`\\ s; with aggregates present (or a ``GROUP BY``
    clause), solutions are grouped by ``group_by`` before projection —
    an empty ``group_by`` then means one implicit group.

    The solution modifiers follow SPARQL 1.1's pipeline: (grouping →)
    ORDER BY over the full WHERE solutions, then projection, then
    DISTINCT (REDUCED is treated as DISTINCT — both are permitted to
    eliminate duplicates, and doing so keeps execution deterministic),
    then OFFSET, then LIMIT.
    """

    __slots__ = (
        "variables",
        "where",
        "prefixes",
        "distinct",
        "reduced",
        "order_by",
        "limit",
        "offset",
        "group_by",
    )

    def __init__(
        self,
        variables: Opt[Sequence[U[Variable, Aggregate]]],
        where: GroupGraphPattern,
        prefixes: Opt[Dict[str, str]] = None,
        distinct: bool = False,
        reduced: bool = False,
        order_by: Sequence[OrderCondition] = (),
        limit: Opt[int] = None,
        offset: int = 0,
        group_by: Sequence[Variable] = (),
    ):
        if variables is not None:
            variables = tuple(variables)
            for var in variables:
                if not isinstance(var, (Variable, Aggregate)):
                    raise TypeError(f"projection must be variables, got {var!r}")
        if not isinstance(where, GroupGraphPattern):
            raise TypeError("WHERE clause must be a GroupGraphPattern")
        order_by = tuple(order_by)
        for condition in order_by:
            if not isinstance(condition, OrderCondition):
                raise TypeError(f"ORDER BY takes OrderConditions, got {condition!r}")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise ValueError(f"LIMIT must be a non-negative integer, got {limit!r}")
        if not isinstance(offset, int) or offset < 0:
            raise ValueError(f"OFFSET must be a non-negative integer, got {offset!r}")
        group_by = tuple(group_by)
        for var in group_by:
            if not isinstance(var, Variable):
                raise TypeError(f"GROUP BY takes variables, got {var!r}")
        aggregates = tuple(
            item for item in (variables or ()) if isinstance(item, Aggregate)
        )
        if aggregates or group_by:
            if variables is None:
                raise ValueError("SELECT * cannot be combined with GROUP BY/aggregates")
            group_names = {v.name for v in group_by}
            seen: set = set()
            for item in variables:
                if isinstance(item, Variable):
                    if item.name not in group_names:
                        raise ValueError(
                            f"?{item.name} is projected but not a GROUP BY key"
                        )
                if item.name in seen:
                    raise ValueError(f"duplicate projection name ?{item.name}")
                seen.add(item.name)
        self.variables = variables
        self.where = where
        self.prefixes = dict(prefixes or {})
        self.distinct = bool(distinct)
        self.reduced = bool(reduced)
        self.order_by = order_by
        self.limit = limit
        self.offset = offset
        self.group_by = group_by

    @property
    def deduplicates(self) -> bool:
        """True when duplicate solutions are eliminated (DISTINCT/REDUCED)."""
        return self.distinct or self.reduced

    @property
    def aggregates(self) -> "tuple[Aggregate, ...]":
        """The projected aggregates, in projection order."""
        return tuple(
            item for item in (self.variables or ()) if isinstance(item, Aggregate)
        )

    @property
    def groups(self) -> bool:
        """True when execution must go through the grouped path."""
        return bool(self.group_by) or any(
            isinstance(item, Aggregate) for item in (self.variables or ())
        )

    def group_plan(self) -> Opt[GroupBy]:
        """The grouping head as a plan node, or None for plain queries."""
        if not self.groups:
            return None
        return GroupBy(self.group_by, self.aggregates)

    def projection_names(self) -> Opt[List[str]]:
        """Projected variable names (aggregate aliases included), or
        None for select-all."""
        if self.variables is None:
            return None
        return [v.name for v in self.variables]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SelectQuery)
            and other.variables == self.variables
            and other.where == self.where
            and other.distinct == self.distinct
            and other.reduced == self.reduced
            and other.order_by == self.order_by
            and other.limit == self.limit
            and other.offset == self.offset
            and other.group_by == self.group_by
        )

    def __repr__(self) -> str:
        proj = "*" if self.variables is None else " ".join(
            v.n3() if isinstance(v, Variable) else repr(v) for v in self.variables
        )
        extras = []
        if self.distinct:
            extras.append("DISTINCT")
        if self.reduced:
            extras.append("REDUCED")
        if self.group_by:
            extras.append(
                "GROUP BY " + " ".join(v.n3() for v in self.group_by)
            )
        if self.order_by:
            extras.append(f"ORDER BY ×{len(self.order_by)}")
        if self.limit is not None:
            extras.append(f"LIMIT {self.limit}")
        if self.offset:
            extras.append(f"OFFSET {self.offset}")
        suffix = (", " + " ".join(extras)) if extras else ""
        return f"SelectQuery(SELECT {proj}, {self.where!r}{suffix})"


# ----------------------------------------------------------------------
# SPARQL 1.1 UPDATE forms
# ----------------------------------------------------------------------
class InsertData:
    """``INSERT DATA { ... }`` — ground triples to add."""

    __slots__ = ("triples",)

    def __init__(self, triples: Sequence[TriplePattern]):
        triples = tuple(triples)
        for triple in triples:
            if not isinstance(triple, TriplePattern):
                raise TypeError(f"INSERT DATA takes triples, got {triple!r}")
            if triple.variables():
                raise ValueError("INSERT DATA triples must be ground (no variables)")
        self.triples = triples

    def __eq__(self, other) -> bool:
        return isinstance(other, InsertData) and other.triples == self.triples

    def __repr__(self) -> str:
        return f"InsertData({len(self.triples)} triples)"


class DeleteData:
    """``DELETE DATA { ... }`` — ground triples to remove."""

    __slots__ = ("triples",)

    def __init__(self, triples: Sequence[TriplePattern]):
        triples = tuple(triples)
        for triple in triples:
            if not isinstance(triple, TriplePattern):
                raise TypeError(f"DELETE DATA takes triples, got {triple!r}")
            if triple.variables():
                raise ValueError("DELETE DATA triples must be ground (no variables)")
        self.triples = triples

    def __eq__(self, other) -> bool:
        return isinstance(other, DeleteData) and other.triples == self.triples

    def __repr__(self) -> str:
        return f"DeleteData({len(self.triples)} triples)"


class ModifyUpdate:
    """``DELETE {tmpl} INSERT {tmpl} WHERE {group}`` (either template
    optional, at least one present).

    ``DELETE WHERE { ... }`` parses as a ModifyUpdate whose delete
    template *is* the WHERE pattern.  Both templates are instantiated
    per WHERE solution against the pre-update state; instantiations
    leaving a variable unbound (or producing an invalid triple, e.g. a
    literal subject) are silently dropped, per SPARQL 1.1 §3.1.3.
    """

    __slots__ = ("delete_template", "insert_template", "where")

    def __init__(
        self,
        delete_template: Sequence[TriplePattern],
        insert_template: Sequence[TriplePattern],
        where: "GroupGraphPattern",
    ):
        delete_template = tuple(delete_template)
        insert_template = tuple(insert_template)
        if not delete_template and not insert_template:
            raise ValueError("DELETE/INSERT ... WHERE requires at least one template")
        for triple in (*delete_template, *insert_template):
            if not isinstance(triple, TriplePattern):
                raise TypeError(f"update templates take triples, got {triple!r}")
        if not isinstance(where, GroupGraphPattern):
            raise TypeError("WHERE clause must be a GroupGraphPattern")
        self.delete_template = delete_template
        self.insert_template = insert_template
        self.where = where

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModifyUpdate)
            and other.delete_template == self.delete_template
            and other.insert_template == self.insert_template
            and other.where == self.where
        )

    def __repr__(self) -> str:
        return (
            f"ModifyUpdate(delete ×{len(self.delete_template)}, "
            f"insert ×{len(self.insert_template)}, {self.where!r})"
        )


UpdateOperation = U[InsertData, DeleteData, ModifyUpdate]


class UpdateRequest:
    """A parsed SPARQL UPDATE request: operations applied in order
    (``;``-separated), sharing one prologue."""

    __slots__ = ("operations", "prefixes")

    def __init__(
        self,
        operations: Sequence[UpdateOperation],
        prefixes: Opt[Dict[str, str]] = None,
    ):
        operations = tuple(operations)
        if not operations:
            raise ValueError("empty UPDATE request")
        for op in operations:
            if not isinstance(op, (InsertData, DeleteData, ModifyUpdate)):
                raise TypeError(f"invalid update operation {op!r}")
        self.operations = operations
        self.prefixes = dict(prefixes or {})

    def __eq__(self, other) -> bool:
        return isinstance(other, UpdateRequest) and other.operations == self.operations

    def __repr__(self) -> str:
        return f"UpdateRequest({list(self.operations)!r})"


def pattern_variables(node) -> FrozenSet[str]:
    """All variable names a pattern can *bind*.

    FILTER expressions never bind variables, so their variables do not
    contribute — a variable mentioned only inside a FILTER is not in
    scope for select-all projection.
    """
    if isinstance(node, TriplePattern):
        return frozenset(v.name for v in node.variables())
    if isinstance(node, GroupGraphPattern):
        out = frozenset()
        for element in node.elements:
            out |= pattern_variables(element)
        return out
    if isinstance(node, UnionExpression):
        out = frozenset()
        for branch in node.branches:
            out |= pattern_variables(branch)
        return out
    if isinstance(node, OptionalExpression):
        return pattern_variables(node.pattern)
    if isinstance(node, FilterExpression):
        return frozenset()
    raise TypeError(f"not a graph pattern: {node!r}")


def triple_patterns(group: GroupGraphPattern) -> Iterator[TriplePattern]:
    """Every triple pattern of a syntax-form group, in text order:
    nested groups, UNION branches and OPTIONAL bodies included.  FILTER
    expressions hold none (this fragment has no EXISTS), so these are
    all the patterns whose match sets an answer depends on."""
    for element in group.elements:
        if isinstance(element, TriplePattern):
            yield element
        elif isinstance(element, GroupGraphPattern):
            yield from triple_patterns(element)
        elif isinstance(element, UnionExpression):
            for branch in element.branches:
                yield from triple_patterns(branch)
        elif isinstance(element, OptionalExpression):
            yield from triple_patterns(element.pattern)


def format_group(group: GroupGraphPattern, indent: int = 0) -> str:
    """Render a syntax-form group back to SPARQL text (full IRIs).

    Useful for debugging and for round-trip tests: the output re-parses
    to an equal AST.
    """
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    lines = [pad + "{"]
    for element in group.elements:
        if isinstance(element, TriplePattern):
            lines.append(inner_pad + element.n3())
        elif isinstance(element, GroupGraphPattern):
            lines.append(format_group(element, indent + 1))
        elif isinstance(element, UnionExpression):
            rendered = [format_group(branch, indent + 1) for branch in element.branches]
            lines.append(("\n" + inner_pad + "UNION\n").join(rendered))
        elif isinstance(element, OptionalExpression):
            body = format_group(element.pattern, indent + 1)
            lines.append(inner_pad + "OPTIONAL\n" + body)
        elif isinstance(element, FilterExpression):
            rendered = format_expression(element.expression)
            if not rendered.startswith("("):
                # FILTER requires a bracketted expression or builtin call.
                rendered = f"({rendered})"
            lines.append(inner_pad + "FILTER " + rendered)
    lines.append(pad + "}")
    return "\n".join(lines)
