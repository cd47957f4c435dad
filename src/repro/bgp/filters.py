"""FILTER pushdown machinery: one verdict memo per expression over id rows.

The engines and the evaluator work on dictionary-encoded integer ids,
while FILTER expressions are defined over terms.  A
:class:`CompiledFilter` bridges the two with two memos:

- a **verdict memo** keyed by the ids of the variables the expression
  reads: the bare id for one variable, a tuple in sorted variable order
  for several (``()`` for none), with :data:`UNBOUND` standing for a
  variable that is unbound in the row or absent from the schema.  The
  key does not depend on a schema's column order, so one filter object
  stays correct when it is reused across scan, join and group-end
  schemas;
- under it, a **term memo** id → term that decodes each missing id once,
  in a :meth:`decode_many` batch (``terms_decoded`` counts exactly these
  misses).

Each distinct key is judged once by the shared term-level semantics of
:func:`~repro.sparql.expressions.filter_passes` — never by raw id
equality — so value-level comparisons (``"5"^^xsd:integer =
"5.0"^^xsd:double``) keep their SPARQL meaning.  Every expression —
REGEX, arithmetic, several variables — takes this one path.

The memo is read in two ways, picked by where a filter runs and never
by the shape of its expression:

- **per row** (:meth:`CompiledFilter.row_predicate`): one dict hit per
  row, wherever a loop can stop early — join emission, and any scan or
  WCO extension a LIMIT can stop — so no id is decoded from a row that
  is never returned;
- **batch** (:meth:`CompiledFilter.compact`): a chunk's distinct new
  keys are judged in one sweep, then the keep-mask is one C-level map
  over the keys and the survivors are compacted in one comprehension —
  everywhere else (scan streams no LIMIT can stop, extension outputs,
  certain-variable and group-end application).
"""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional as Opt, Sequence

from ..obs import trace as _trace
from ..obs.counters import EXEC_COUNTERS
from ..sparql.bags import Bag, Row, UNBOUND
from ..sparql.expressions import (
    Expression,
    expression_variables,
    filter_passes,
)

__all__ = [
    "KERNEL_CHUNK",
    "CompiledFilter",
    "combine_predicates",
    "compact_rows",
    "filtered_rows",
]

#: Rows per compare-and-compact batch.  Large enough to amortize the
#: chunk bookkeeping, small enough that a cancelled query never owes
#: more than one chunk of work past its deadline checkpoint.
KERNEL_CHUNK = 2048



def _unbound(row: Row) -> object:
    return UNBOUND


def _no_variables(row: Row) -> object:
    return ()


class CompiledFilter:
    """One FILTER expression bound to a store, evaluable on id rows."""

    __slots__ = (
        "expression", "variables", "_names", "_tuple_keys", "_decode_many", "_terms", "_verdicts"
    )

    def __init__(self, expression: Expression, store):
        self.expression = expression
        self.variables = expression_variables(expression)
        #: The verdict key's variable order: sorted, schema-independent.
        self._names = tuple(sorted(self.variables))
        #: A key is a bare id for exactly one variable, else a tuple.
        self._tuple_keys = len(self._names) != 1
        self._decode_many = store.decode_many
        #: id → term, filled in decode_many batches.
        self._terms: Dict[int, object] = {}
        #: key → keep verdict (see the module docstring for the key).
        self._verdicts: Dict[object, bool] = {}

    def _key(self, schema: Sequence[str]) -> Callable[[Row], object]:
        """The verdict-memo key of a row aligned with ``schema``."""
        position = {name: i for i, name in enumerate(schema)}
        slots = [position.get(name) for name in self._names]
        if not slots:
            return _no_variables
        if None not in slots:
            return itemgetter(*slots)  # a scalar for one slot, else a tuple
        if len(slots) == 1:
            return _unbound
        return lambda row: tuple(UNBOUND if i is None else row[i] for i in slots)

    def _decode(self, ids: Iterable) -> None:
        """Fill the term memo with every id it lacks, in one batch."""
        terms = self._terms
        new = {value for value in ids if value is not UNBOUND and value not in terms}
        if new:
            terms.update(self._decode_many(new))
            EXEC_COUNTERS.terms_decoded += len(new)

    def _judge(self, key) -> bool:
        """Memoize the verdict of one key whose ids are decoded."""
        terms = self._terms
        binding = {
            name: terms[value]
            for name, value in zip(self._names, key if self._tuple_keys else (key,))
            if value is not UNBOUND
        }
        verdict = self._verdicts[key] = filter_passes(self.expression, binding)
        return verdict

    def row_predicate(self, schema: Sequence[str]) -> Callable[[Row], bool]:
        """The per-row form: a keep/drop predicate for rows aligned with
        ``schema``, one memo hit per row after warmup.

        Variables of the expression absent from the schema are simply
        unbound for every row (their references error, BOUND sees
        false) — exactly the group-end FILTER semantics.
        """
        key_of = self._key(schema)
        verdicts = self._verdicts
        tuple_keys = self._tuple_keys

        def keep(row: Row) -> bool:
            key = key_of(row)
            verdict = verdicts.get(key)
            if verdict is None:
                self._decode(key if tuple_keys else (key,))
                verdict = self._judge(key)
            return verdict

        return keep

    def compact(self, rows: List[Row], schema: Sequence[str]) -> List[Row]:
        """The batch form: compare-and-compact one chunk of rows."""
        if not rows:
            return rows
        keys = list(map(self._key(schema), rows))
        verdicts = self._verdicts
        missing = {key for key in keys if key not in verdicts}
        if missing:
            self._decode(chain.from_iterable(missing) if self._tuple_keys else missing)
            for key in missing:
                self._judge(key)
        keep = bytearray(map(verdicts.__getitem__, keys))
        EXEC_COUNTERS.rows_kernel_filtered += len(rows)
        kept = keep.count(1)
        if kept == len(rows):
            return rows
        if not kept:
            return []
        return [row for row, flag in zip(rows, keep) if flag]

    def apply(self, bag: Bag) -> Bag:
        """σ over an id-level bag (used at group end and for filters
        whose variables are certainly bound in the accumulated bag)."""
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.begin("filter", rows=len(bag.rows))
        out = Bag.from_rows(bag.schema, list(filtered_rows([self], bag.schema, bag.rows)))
        if tracer is not None:
            tracer.end(kept=len(out.rows))
        return out

    def __repr__(self) -> str:
        return f"CompiledFilter(vars={list(self._names)}, memo={len(self._verdicts)})"


def combine_predicates(
    filters: Sequence[CompiledFilter], schema: Sequence[str]
) -> Opt[Callable[[Row], bool]]:
    """Conjunction of several filters' per-row predicates (None when empty)."""
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


def compact_rows(
    filters: Sequence[CompiledFilter], schema: Sequence[str], rows: List[Row]
) -> List[Row]:
    """Every filter's batch form over one chunk, in filter order."""
    for compiled in filters:
        if not rows:
            break
        rows = compiled.compact(rows, schema)
    return rows


def filtered_rows(
    filters: Sequence[CompiledFilter], schema: Sequence[str], rows: Iterable[Row]
) -> Iterator[Row]:
    """Batch-screen a streaming row source in :data:`KERNEL_CHUNK`-row
    chunks.  Emission order is exactly input order, so scan sort tags
    stay truthful upstream of merge joins."""
    iterator = iter(rows)
    while True:
        block = list(islice(iterator, KERNEL_CHUNK))
        if not block:
            return
        yield from compact_rows(filters, schema, block)
