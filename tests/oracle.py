"""Differential-testing oracle: naive bottom-up SPARQL-UO evaluation.

This module deliberately re-implements query evaluation in the most
straightforward way imaginable — decoded term rows as plain dicts,
nested-loop joins, per-element recursion over the syntax AST — sharing
*no* machinery with the optimized stack (no columnar bags, no BE-trees,
no encoding, no pushdown).  The only shared code is the expression
semantics of :mod:`repro.sparql.expressions`, which *defines* FILTER /
ORDER BY behaviour for every component.

``tests/test_differential.py`` runs hundreds of random queries through
both BGP engines (transformations and candidate pruning enabled) and
asserts exact bag equality against this oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.rdf import Dataset
from repro.rdf.terms import Variable
from repro.sparql.algebra import (
    FilterExpression,
    GroupGraphPattern,
    OptionalExpression,
    SelectQuery,
    UnionExpression,
    pattern_variables,
)
from repro.rdf.triple import TriplePattern
from repro.sparql.aggregates import aggregate_terms, count_literal
from repro.sparql.expressions import filter_passes, order_key_for_binding

Solution = Dict[str, object]  # variable name → ground term

#: Circuit breaker for randomly generated cartesian blowups: the
#: differential suite skips (deterministically) the rare seed whose
#: naive evaluation would materialize more than this many rows.
MAX_ROWS = 50_000


class OracleBlowup(Exception):
    """Naive evaluation exceeded :data:`MAX_ROWS` intermediate rows."""


# ----------------------------------------------------------------------
# naive operators over dict solutions
# ----------------------------------------------------------------------
def _compatible(mu1: Solution, mu2: Solution) -> bool:
    for var, value in mu1.items():
        if var in mu2 and mu2[var] != value:
            return False
    return True


def _merge(mu1: Solution, mu2: Solution) -> Solution:
    merged = dict(mu1)
    merged.update(mu2)
    return merged


def _join(left: List[Solution], right: List[Solution]) -> List[Solution]:
    return [
        _merge(mu1, mu2) for mu1 in left for mu2 in right if _compatible(mu1, mu2)
    ]


def _left_join(left: List[Solution], right: List[Solution]) -> List[Solution]:
    out: List[Solution] = []
    for mu1 in left:
        matches = [_merge(mu1, mu2) for mu2 in right if _compatible(mu1, mu2)]
        if matches:
            out.extend(matches)
        else:
            out.append(mu1)
    return out


def _match_triple_pattern(pattern: TriplePattern, dataset: Dataset) -> List[Solution]:
    out: List[Solution] = []
    pattern_terms = pattern.as_tuple()
    for triple in dataset:
        binding: Solution = {}
        ok = True
        for pattern_term, data_term in zip(pattern_terms, triple.as_tuple()):
            if isinstance(pattern_term, Variable):
                bound = binding.get(pattern_term.name)
                if bound is None:
                    binding[pattern_term.name] = data_term
                elif bound != data_term:
                    ok = False
                    break
            elif pattern_term != data_term:
                ok = False
                break
        if ok:
            out.append(binding)
    return out


def evaluate_group(group: GroupGraphPattern, dataset: Dataset) -> List[Solution]:
    """Bottom-up evaluation of one group; FILTERs applied at group end
    (their SPARQL scope is the whole group)."""
    solutions: List[Solution] = [{}]
    for element in group.elements:
        if isinstance(element, FilterExpression):
            continue
        if isinstance(element, TriplePattern):
            solutions = _join(solutions, _match_triple_pattern(element, dataset))
        elif isinstance(element, GroupGraphPattern):
            solutions = _join(solutions, evaluate_group(element, dataset))
        elif isinstance(element, UnionExpression):
            union_rows: List[Solution] = []
            for branch in element.branches:
                union_rows.extend(evaluate_group(branch, dataset))
            solutions = _join(solutions, union_rows)
        elif isinstance(element, OptionalExpression):
            solutions = _left_join(solutions, evaluate_group(element.pattern, dataset))
        else:  # pragma: no cover - AST constructor validates
            raise TypeError(f"invalid group element {element!r}")
        if len(solutions) > MAX_ROWS:
            raise OracleBlowup(f"{len(solutions)} intermediate rows")
    for filter_element in group.filters():
        solutions = [
            mu for mu in solutions if filter_passes(filter_element.expression, mu)
        ]
    return solutions


# ----------------------------------------------------------------------
# full query pipeline
# ----------------------------------------------------------------------
class OracleResult(NamedTuple):
    variables: List[str]
    rows: List[Solution]  # final result, in order (post OFFSET/LIMIT)
    full: List[Solution]  # pre-slice result (ordered/projected/deduped)


def solution_key(mu: Solution) -> frozenset:
    """Hashable identity of one solution (terms are hashable)."""
    return frozenset(mu.items())


def grouped_solutions(
    query: SelectQuery, solutions: List[Solution]
) -> List[Solution]:
    """Naive dict-based GROUP BY + aggregation (term-level throughout).

    Groups key on the tuple of (possibly absent) group-variable values;
    aggregates fold over the *bound* values of their column through the
    same shared :func:`aggregate_terms` semantics the engine uses —
    deliberately without any encoded-id shortcuts, so the differential
    suite cross-checks the zero-decode path against first principles.
    An aggregate that folds to None (MIN/MAX of nothing, SUM over a
    non-number) leaves its alias unbound.  With no GROUP BY keys there
    is exactly one implicit group, even over an empty input.
    """
    group_names = [v.name for v in query.group_by]
    groups: Dict[tuple, List[Solution]] = {}
    if group_names:
        for mu in solutions:
            key = tuple(mu.get(name) for name in group_names)
            groups.setdefault(key, []).append(mu)
    else:
        groups[()] = list(solutions)
    out: List[Solution] = []
    for key, members in groups.items():
        result: Solution = {}
        for name, value in zip(group_names, key):
            if value is not None:
                result[name] = value
        for aggregate in query.aggregates:
            if aggregate.expression is None:  # COUNT(*) / COUNT(DISTINCT *)
                if aggregate.distinct:
                    count = len({solution_key(mu) for mu in members})
                else:
                    count = len(members)
                term = count_literal(count)
            else:
                name = aggregate.expression.name
                values = [mu[name] for mu in members if name in mu]
                term = aggregate_terms(
                    aggregate.function, values, distinct=aggregate.distinct
                )
            if term is not None:
                result[aggregate.name] = term
        out.append(result)
    return out


def execute(query: SelectQuery, dataset: Dataset) -> OracleResult:
    """GROUP BY/aggregate → ORDER BY → projection → DISTINCT/REDUCED →
    OFFSET → LIMIT."""
    solutions = evaluate_group(query.where, dataset)
    if query.groups:
        solutions = grouped_solutions(query, solutions)
    names: Optional[Sequence[str]] = query.projection_names()
    if names is None:
        names = sorted(pattern_variables(query.where))
    for condition in reversed(query.order_by):
        solutions.sort(
            key=lambda mu, e=condition.expression: order_key_for_binding(e, mu),
            reverse=not condition.ascending,
        )
    projected = [{v: mu[v] for v in names if v in mu} for mu in solutions]
    if query.deduplicates:
        seen = set()
        deduped = []
        for mu in projected:
            key = solution_key(mu)
            if key not in seen:
                seen.add(key)
                deduped.append(mu)
        projected = deduped
    sliced = projected[query.offset :]
    if query.limit is not None:
        sliced = sliced[: query.limit]
    return OracleResult(list(names), sliced, projected)


def as_counter(rows: Iterable[Solution]) -> Counter:
    """Multiset of solutions; ``rows`` may be any iterable of dicts (an
    engine result :class:`~repro.sparql.bags.Bag` iterates as one)."""
    return Counter(solution_key(mu) for mu in rows)


def answer(query: SelectQuery, dataset: Dataset) -> Counter:
    """The multiset of ``query``'s final rows, keyed like :func:`as_counter`."""
    return as_counter(execute(query, dataset).rows)


def contained_in(rows: List[Solution], superset: List[Solution]) -> bool:
    """Multiset containment: rows ⊆ superset."""
    super_counts = as_counter(superset)
    for key, count in as_counter(rows).items():
        if count > super_counts.get(key, 0):
            return False
    return True
