"""Solution modifiers over a whole bag: ORDER BY and DISTINCT.

:class:`~repro.core.engine.SparqlUOEngine` applies these after the
BE-tree has produced its id-level solutions.  ORDER BY keys follow
:mod:`repro.sparql.expressions`, which every component shares.
"""

from __future__ import annotations

from .bags import Bag, UNBOUND
from .expressions import order_key_for_binding

__all__ = ["order_bag", "distinct_bag"]


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
