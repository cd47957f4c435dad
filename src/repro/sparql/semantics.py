"""Reference evaluator: Definition 7 over the binary operator tree.

This is the straightforward bottom-up evaluation the paper's Section 4
describes (and criticizes for performance): each triple-pattern leaf is
matched against the dataset by linear scan, and internal nodes apply the
bag operators.  It is deliberately simple — it defines *correctness*
for every optimized component, and all integration/property tests
compare engine output against it.
"""

from __future__ import annotations

from typing import Optional as Opt, Sequence

from ..rdf.dataset import Dataset
from ..rdf.triple import TriplePattern
from .algebra import (
    And,
    BinaryNode,
    EmptyPattern,
    FilterOp,
    GroupGraphPattern,
    OptionalOp,
    SelectQuery,
    UnionOp,
    pattern_variables,
    to_binary,
)
from .bags import Bag, UNBOUND, join, left_join, union
from .expressions import filter_passes, order_key_for_binding

__all__ = [
    "evaluate_pattern",
    "evaluate_triple_pattern",
    "evaluate_group",
    "execute_query",
    "apply_filter",
    "order_bag",
    "distinct_bag",
    "slice_bag",
]


def evaluate_triple_pattern(pattern: TriplePattern, dataset: Dataset) -> Bag:
    """[[t]]_D = {μ | var(t) = dom(μ) ∧ μ(t) ∈ D} via linear scan."""
    schema, positions = pattern.layout()
    rows = []
    for triple in dataset.match(pattern):
        values = triple.as_tuple()
        rows.append(tuple(values[i] for i in positions))
    return Bag.from_rows(schema, rows)


def evaluate_pattern(node: BinaryNode, dataset: Dataset) -> Bag:
    """Recursive evaluation of a binary-form graph pattern (Definition 7)."""
    if isinstance(node, TriplePattern):
        return evaluate_triple_pattern(node, dataset)
    if isinstance(node, EmptyPattern):
        return Bag.identity()
    if isinstance(node, And):
        return join(evaluate_pattern(node.left, dataset), evaluate_pattern(node.right, dataset))
    if isinstance(node, UnionOp):
        return union(evaluate_pattern(node.left, dataset), evaluate_pattern(node.right, dataset))
    if isinstance(node, OptionalOp):
        return left_join(
            evaluate_pattern(node.left, dataset), evaluate_pattern(node.right, dataset)
        )
    if isinstance(node, FilterOp):
        return apply_filter(evaluate_pattern(node.child, dataset), node.expression)
    raise TypeError(f"not a binary graph pattern: {node!r}")


def apply_filter(bag: Bag, expression) -> Bag:
    """σ_expr over a term-level bag: keep rows whose EBV is true.

    Rows on which the expression errors (unbound variables, type
    errors) are dropped, per SPARQL's FILTER semantics.
    """
    schema = bag.schema
    kept = [
        row
        for row in bag.rows
        if filter_passes(
            expression, {n: v for n, v in zip(schema, row) if v is not UNBOUND}
        )
    ]
    return Bag.from_rows(schema, kept)


def order_bag(bag: Bag, order_by, terms=None, checkpoint=None) -> Bag:
    """Stable multi-key sort of a bag (ORDER BY semantics).

    Keys are evaluated per row via the shared expression semantics,
    over a binding of the variables they read; unbound / erroring keys
    sort first.  Descending keys are handled by successive stable sorts
    from the least-significant condition.  ``terms`` maps an id-level
    bag's cells to their terms (it must hold every id of the key
    variables); without it the cells are terms.  ``checkpoint`` fires
    once per 4096 rows while the bindings are built.
    """
    if not order_by:
        return bag
    names = {name for c in order_by for name in c.expression.variables()}
    keyed = [(name, bag.slot(name)) for name in names if bag.slot(name) is not None]
    term = (lambda cell: cell) if terms is None else terms.__getitem__
    decorated = []
    for i, row in enumerate(bag.rows):
        if checkpoint is not None and not (i & 4095):
            checkpoint()
        binding = {name: term(row[slot]) for name, slot in keyed if row[slot] is not UNBOUND}
        decorated.append((binding, row))
    for condition in reversed(tuple(order_by)):
        decorated.sort(
            key=lambda pair, e=condition.expression: order_key_for_binding(e, pair[0]),
            reverse=not condition.ascending,
        )
    return Bag.from_rows(bag.schema, [row for _, row in decorated])


def distinct_bag(bag: Bag) -> Bag:
    """Duplicate elimination preserving first occurrences.

    Row tuples over a fixed schema (with the UNBOUND sentinel) identify
    solutions exactly, so plain tuple hashing implements mapping-level
    distinctness.
    """
    seen = set()
    kept = []
    for row in bag.rows:
        if row not in seen:
            seen.add(row)
            kept.append(row)
    return Bag.from_rows(bag.schema, kept)


def slice_bag(bag: Bag, offset: int = 0, limit=None) -> Bag:
    """OFFSET / LIMIT applied to the bag's current row order."""
    rows = bag.rows
    if offset:
        rows = rows[offset:]
    if limit is not None:
        rows = rows[:limit]
    return Bag.from_rows(bag.schema, list(rows))


def evaluate_group(group: GroupGraphPattern, dataset: Dataset) -> Bag:
    """Evaluate a syntax-form group by converting to binary form first."""
    return evaluate_pattern(to_binary(group), dataset)


def execute_query(query: SelectQuery, dataset: Dataset) -> Bag:
    """Evaluate a full SELECT query, applying projection and modifiers.

    The modifier pipeline is SPARQL 1.1's: ORDER BY over the full WHERE
    solutions, then projection, then DISTINCT/REDUCED (first occurrence
    kept), then OFFSET, then LIMIT.  For select-all queries every
    pattern-bound variable is projected.
    """
    solutions = evaluate_group(query.where, dataset)
    names: Opt[Sequence[str]] = query.projection_names()
    if names is None:
        names = sorted(pattern_variables(query.where))
    solutions = order_bag(solutions, query.order_by)
    projected = solutions.project(names)
    if query.deduplicates:
        projected = distinct_bag(projected)
    return slice_bag(projected, query.offset, query.limit)
