"""FILTER pushdown machinery: expressions over id-level columnar rows.

The engines and the evaluator work on dictionary-encoded integer ids,
while FILTER expressions are defined over terms.  A
:class:`CompiledFilter` bridges the two: it decodes only the slots the
expression mentions, memoizes each distinct id's term (the same id
recurs across rows constantly), and evaluates the shared term-level
semantics of :mod:`repro.sparql.expressions`.  Both BGP engines accept
compiled filters and apply them as early as their pipelines allow —
inside pattern scans when a single pattern covers the expression's
variables, otherwise right after the join step that completes coverage.

Single-variable expressions without REGEX/arithmetic additionally lower
to a batch :class:`~repro.bgp.kernels.FilterKernel`: scans screen
whole row chunks with one compare-and-compact
pass, and join-emission predicates reduce to a memoized per-id dict hit
instead of a binding-dict build plus expression walk per row.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional as Opt, Sequence, Tuple

from ..sparql.bags import Bag, Row, UNBOUND
from ..sparql.expressions import (
    Expression,
    expression_variables,
    filter_passes,
)
from .kernels import FilterKernel, filtered_stream, lower_expression

__all__ = ["CompiledFilter", "combine_predicates", "filtered_rows"]


class CompiledFilter:
    """One FILTER expression bound to a store, evaluable on id rows."""

    __slots__ = ("expression", "variables", "_decode", "_cache", "kernel")

    def __init__(self, expression: Expression, store, cache: Opt[Dict] = None):
        self.expression = expression
        self.variables = expression_variables(expression)
        self._decode = store.decode
        #: id → term memo, shared across every predicate of this filter.
        self._cache = cache if cache is not None else {}
        #: The lowered batch kernel, or None when the expression needs
        #: the row loop (multi-variable, REGEX, arithmetic).
        self.kernel: Opt[FilterKernel] = None
        variable = lower_expression(expression)
        if variable is not None:
            self.kernel = FilterKernel(expression, variable, store)

    def kernel_slot(self, schema: Sequence[str]) -> Opt[int]:
        """The kernel's column index in ``schema``, when lowerable there."""
        if self.kernel is None:
            return None
        try:
            return list(schema).index(self.kernel.variable)
        except ValueError:
            return None

    def row_predicate(self, schema: Sequence[str]) -> Callable[[Row], bool]:
        """A keep/drop predicate for rows aligned with ``schema``.

        Variables of the expression absent from the schema are simply
        unbound for every row (their references error, BOUND sees
        false) — exactly the group-end FILTER semantics.
        """
        slot = self.kernel_slot(schema)
        if slot is not None:
            kernel = self.kernel
            assert kernel is not None

            def keep_kernel(row: Row) -> bool:
                return kernel.passes(row[slot])

            return keep_kernel

        slots = [(name, i) for i, name in enumerate(schema) if name in self.variables]
        expression = self.expression
        decode = self._decode
        cache = self._cache

        def keep(row: Row) -> bool:
            binding = {}
            for name, i in slots:
                value = row[i]
                if value is UNBOUND:
                    continue
                term = cache.get(value)
                if term is None:
                    term = cache[value] = decode(value)
                    _exec_counters().terms_decoded += 1
                binding[name] = term
            return filter_passes(expression, binding)

        return keep

    def apply(self, bag: Bag) -> Bag:
        """σ over an id-level bag (used at group end and for filters
        whose variables are certainly bound in the accumulated bag)."""
        from ..obs import trace as _trace  # lazy: obs ↔ bgp layering

        tracer = _trace.ACTIVE
        slot = self.kernel_slot(bag.schema)
        if slot is not None:
            assert self.kernel is not None
            if tracer is not None:
                tracer.begin("filter_kernel", rows=len(bag.rows))
            out = Bag.from_rows(
                bag.schema, self.kernel.compact(list(bag.rows), slot)
            )
            if tracer is not None:
                tracer.end(kept=len(out.rows))
            return out
        if tracer is not None:
            tracer.begin("filter", rows=len(bag.rows))
        keep = self.row_predicate(bag.schema)
        out = Bag.from_rows(bag.schema, [row for row in bag.rows if keep(row)])
        if tracer is not None:
            tracer.end(kept=len(out.rows))
        return out

    def __repr__(self) -> str:
        return f"CompiledFilter(vars={sorted(self.variables)})"


def _exec_counters():
    # Lazy: repro.core imports this module during package init.
    from ..core.metrics import EXEC_COUNTERS

    return EXEC_COUNTERS


def combine_predicates(
    filters: Sequence[CompiledFilter], schema: Sequence[str]
) -> Opt[Callable[[Row], bool]]:
    """Conjunction of several filters' predicates (None when empty)."""
    if not filters:
        return None
    predicates = [f.row_predicate(schema) for f in filters]
    if len(predicates) == 1:
        return predicates[0]

    def keep(row: Row) -> bool:
        for predicate in predicates:
            if not predicate(row):
                return False
        return True

    return keep


def filtered_rows(
    filters: Sequence[CompiledFilter], schema: Sequence[str], rows
):
    """Apply filters to a streaming row source, batch-first.

    Filters that lower to kernels on this schema run as chunked
    compare-and-compact passes; the rest conjoin into a per-row
    residual predicate.  Falls back to a plain generator when nothing
    lowers.  Order-preserving either way.
    """
    kernels: List[Tuple[FilterKernel, int]] = []
    slow: List[CompiledFilter] = []
    for compiled in filters:
        slot = compiled.kernel_slot(schema)
        if slot is not None:
            assert compiled.kernel is not None
            kernels.append((compiled.kernel, slot))
        else:
            slow.append(compiled)
    residual = combine_predicates(slow, schema)
    if not kernels:
        if residual is None:
            return rows
        return (row for row in rows if residual(row))
    return filtered_stream(rows, kernels, slow_keep=residual)
