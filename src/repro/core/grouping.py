"""Zero-decode grouped execution: GROUP BY and aggregate folding on ids.

The solution bag coming out of the evaluator is dictionary-encoded.
Because the dictionary is bijective, id equality *is* term equality —
so grouping keys, DISTINCT inside aggregates and COUNT can all run on
raw integer ids without materializing a single term:

- the group key is the tuple of ids at the GROUP BY slots;
- ``COUNT(*)`` / ``COUNT(?v)`` tally rows (or non-UNBOUND cells), and
  their DISTINCT forms tally id-sets — zero decodes end to end;
- ``SUM`` / ``AVG`` / ``MIN`` / ``MAX`` accumulate id→multiplicity maps
  and decode only the *distinct* ids of the aggregated column in one
  ``decode_many`` batch, then fold through the shared term-level
  semantics of :func:`repro.sparql.aggregates.aggregate_terms`.

The result stays at id level like every other answer: group-key cells
are ids, decoded with the result page, and each aggregate result term
keys itself in the page's id → term map.  Every id materialized is
counted in the ``terms_decoded`` exec counter — a pure-COUNT query over
any dataset therefore reports ``terms_decoded == 0``.

Aggregates fold over the *bound* values of their column (UNBOUND cells
are skipped); the differential oracle applies the same rule, so both
engines and the reference implementation agree bag-for-bag.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional as Opt, Tuple

from ..bgp.interface import decode_ids
from ..rdf.terms import Variable
from ..sparql.aggregates import aggregate_terms, count_literal
from ..sparql.algebra import Aggregate, SelectQuery
from ..sparql.bags import Bag, UNBOUND

__all__ = ["grouped_bag"]

#: Accumulator state per (group, aggregate):
#:   COUNT(*)            → int row tally
#:   COUNT(DISTINCT *)   → set of whole id-rows
#:   COUNT(?v)           → int bound-cell tally
#:   COUNT(DISTINCT ?v)  → set of ids
#:   SUM/AVG             → Dict[id, multiplicity] (set when DISTINCT)
#:   MIN/MAX             → set of ids (multiplicity is irrelevant)


class _AggSpec:
    """One aggregate column's slot and id-level accumulation strategy."""

    __slots__ = ("aggregate", "slot", "counts_rows")

    def __init__(self, aggregate: Aggregate, slot: Opt[int]):
        self.aggregate = aggregate
        #: Column index of the aggregated variable in the solution
        #: schema; None when the variable never occurs (always UNBOUND)
        #: or for ``COUNT(*)``.
        self.slot = slot
        self.counts_rows = aggregate.function == "COUNT" and aggregate.expression is None

    def fresh(self):
        if self.counts_rows:
            return set() if self.aggregate.distinct else 0
        if self.aggregate.function == "COUNT":
            return set() if self.aggregate.distinct else 0
        if self.aggregate.function in ("MIN", "MAX"):
            return set()
        return set() if self.aggregate.distinct else {}

    def absorb(self, state, row):
        agg = self.aggregate
        if self.counts_rows:
            if agg.distinct:
                state.add(row)
                return state
            return state + 1
        slot = self.slot
        value = UNBOUND if slot is None else row[slot]
        if value is UNBOUND:
            return state  # aggregates fold over bound values only
        if agg.function == "COUNT":
            if agg.distinct:
                state.add(value)
                return state
            return state + 1
        if isinstance(state, dict):
            state[value] = state.get(value, 0) + 1
        else:
            state.add(value)
        return state

    def needed_ids(self, state) -> List[int]:
        """Ids this aggregate must decode to fold (COUNT: none)."""
        if self.aggregate.function == "COUNT":
            return []
        return list(state)

    def fold(self, state, decoded: Dict[int, object]):
        """The aggregate's result term for one group (None = unbound)."""
        agg = self.aggregate
        if agg.function == "COUNT":
            return count_literal(len(state) if isinstance(state, set) else state)
        if isinstance(state, dict):
            terms: List[object] = []
            for value, multiplicity in state.items():
                terms.extend([decoded[value]] * multiplicity)
        else:
            terms = [decoded[value] for value in state]
        # DISTINCT already applied at the id level (bijective
        # dictionary: distinct ids ⇔ distinct terms), so the term-level
        # fold never needs to dedupe again.
        return aggregate_terms(agg.function, terms, distinct=False)


def grouped_bag(
    store,
    parsed: SelectQuery,
    solutions: Bag,
    terms: Dict[object, object],
    checkpoint: Opt[Callable[[], None]] = None,
) -> Bag:
    """Group + fold an encoded solution bag into an id-level result bag.

    The output schema is the query's projection order (group keys and
    aggregate aliases interleaved as written).  Group-key cells stay
    ids; each aggregate result is a fresh term, which is added to the
    id → term map ``terms`` keyed by itself.  With no GROUP BY keys
    there is exactly one implicit group — present even when the input
    is empty, per SPARQL 1.1 (``COUNT`` of nothing is 0).
    """
    from ..obs import trace as _trace  # lazy: keeps grouping import-light

    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.begin("group_fold", rows=len(solutions.rows))
    schema = solutions.schema
    slot_of = {name: i for i, name in enumerate(schema)}
    group_names = [v.name for v in parsed.group_by]
    key_slots = [slot_of.get(name) for name in group_names]
    specs = [
        _AggSpec(item, None if item.expression is None else slot_of.get(item.expression.name))
        for item in parsed.aggregates
    ]

    groups: "Dict[tuple, list]" = {}
    rows = solutions.rows
    if key_slots:
        for i, row in enumerate(rows):
            if checkpoint is not None and not (i & 4095):
                checkpoint()
            key = tuple(UNBOUND if s is None else row[s] for s in key_slots)
            state = groups.get(key)
            if state is None:
                state = groups[key] = [spec.fresh() for spec in specs]
            for j, spec in enumerate(specs):
                state[j] = spec.absorb(state[j], row)
    else:
        state = [spec.fresh() for spec in specs]
        for i, row in enumerate(rows):
            if checkpoint is not None and not (i & 4095):
                checkpoint()
            for j, spec in enumerate(specs):
                state[j] = spec.absorb(state[j], row)
        # The implicit group exists even over an empty input: COUNT of
        # nothing is 0, SUM of nothing is 0 (SPARQL 1.1 §18.5).
        groups[()] = state

    # One batch decode for everything the fold needs: the distinct ids
    # of non-COUNT aggregated columns (group keys decode with the page).
    needed: set = set()
    for state in groups.values():
        for j, spec in enumerate(specs):
            needed.update(spec.needed_ids(state[j]))
    decode_ids(store, terms, needed, checkpoint)

    # Emit in projection order; group order follows first occurrence
    # (dict insertion order), which ORDER BY downstream may rearrange.
    key_index = {name: i for i, name in enumerate(group_names)}
    out_rows: List[tuple] = []
    names = parsed.projection_names()
    assert names is not None  # SELECT * cannot carry aggregates
    for key, state in groups.items():
        cells: List[object] = []
        agg_at = 0
        for item in parsed.variables:  # type: ignore[union-attr]
            if isinstance(item, Variable):
                cells.append(key[key_index[item.name]])
            else:
                term = specs[agg_at].fold(state[agg_at], terms)
                cells.append(UNBOUND if term is None else terms.setdefault(term, term))
                agg_at += 1
        out_rows.append(tuple(cells))
    if tracer is not None:
        tracer.end(groups=len(groups))
    return Bag.from_rows(tuple(names), out_rows)
