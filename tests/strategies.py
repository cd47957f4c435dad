"""Hypothesis strategies for random RDF data and SPARQL-UO queries.

The generated universe is deliberately tiny (few subjects, predicates,
values) so that random triple patterns frequently join, optionals
frequently half-match and unions overlap — the regimes where semantic
bugs in transformations or pruning would surface.
"""

from __future__ import annotations

import random
from typing import List, Optional

from hypothesis import strategies as st

from repro.rdf import Dataset, IRI, Literal, Triple, TriplePattern, Variable
from repro.sparql.algebra import (
    Aggregate,
    FilterExpression,
    GroupGraphPattern,
    OptionalExpression,
    OrderCondition,
    SelectQuery,
    UnionExpression,
    pattern_variables,
)
from repro.sparql.expressions import (
    Arithmetic,
    BoundCall,
    Comparison,
    ConstantTerm,
    Expression,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    RegexCall,
    VariableRef,
)

EX = "http://x.test/"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


def int_literal(value: int) -> Literal:
    return Literal(str(value), datatype=XSD_INTEGER)


_SUBJECTS = [IRI(EX + f"s{i}") for i in range(8)]
_PREDICATES = [IRI(EX + f"p{i}") for i in range(4)]
_OBJECTS = _SUBJECTS + [Literal(f"v{i}") for i in range(4)] + [int_literal(i) for i in range(5)]
_VARIABLES = [Variable(f"v{i}") for i in range(6)]

subjects = st.sampled_from(_SUBJECTS)
predicates = st.sampled_from(_PREDICATES)
objects = st.sampled_from(_OBJECTS)
variables = st.sampled_from(_VARIABLES)


@st.composite
def triples(draw) -> Triple:
    return Triple(draw(subjects), draw(predicates), draw(objects))


@st.composite
def datasets(draw) -> Dataset:
    return Dataset(draw(st.lists(triples(), min_size=0, max_size=40)))


@st.composite
def triple_patterns(draw) -> TriplePattern:
    subject = draw(st.one_of(variables, subjects))
    predicate = draw(st.one_of(variables, predicates))
    obj = draw(st.one_of(variables, objects))
    return TriplePattern(subject, predicate, obj)


def group_patterns(max_depth: int = 3):
    """Recursive strategy for group graph patterns.

    Depth-limited; union branches and optional bodies are groups, so the
    full BGP/AND/UNION/OPTIONAL grammar is covered.
    """
    if max_depth <= 0:
        return st.builds(
            GroupGraphPattern,
            st.lists(triple_patterns(), min_size=1, max_size=3),
        )
    sub = group_patterns(max_depth - 1)
    element = st.one_of(
        triple_patterns(),
        st.builds(OptionalExpression, sub),
        st.builds(
            UnionExpression,
            st.lists(sub, min_size=2, max_size=3),
        ),
        sub,
    )
    return st.builds(
        GroupGraphPattern,
        st.lists(element, min_size=1, max_size=4),
    )


@st.composite
def select_queries(draw, max_depth: int = 3) -> SelectQuery:
    """SELECT * over a random group pattern."""
    return SelectQuery(None, draw(group_patterns(max_depth)))


@st.composite
def solution_mappings(draw, variables_pool: str = "abcd", max_value: int = 2) -> dict:
    """One partial solution mapping over a tiny variable/value universe.

    Every variable may be left unbound, which is exactly the regime the
    bag operators' loose-row fallbacks (shared-but-unbound variables
    after OPTIONAL/UNION) must handle.
    """
    out = {}
    for var in variables_pool:
        value = draw(st.none() | st.integers(min_value=0, max_value=max_value))
        if value is not None:
            out[var] = value
    return out


def solution_bags(variables_pool: str = "abcd", max_size: int = 6):
    """Bags of partial mappings with overlapping, sometimes-unbound vars."""
    return st.lists(
        solution_mappings(variables_pool=variables_pool),
        min_size=0,
        max_size=max_size,
    )


# ----------------------------------------------------------------------
# FILTER expressions and modifier stacks (hypothesis)
# ----------------------------------------------------------------------
_REGEX_PATTERNS = ["v", "v[012]", "^v", "x\\d", "s[0-3]$"]

_CONSTANTS = (
    [ConstantTerm(int_literal(i)) for i in range(5)]
    + [ConstantTerm(Literal(f"v{i}")) for i in range(3)]
    + [ConstantTerm(s) for s in _SUBJECTS[:3]]
)


@st.composite
def filter_expressions(draw, var_names: List[str], max_depth: int = 2) -> Expression:
    """Random FILTER expressions over (mostly) the given variables.

    Covers the whole supported expression fragment: comparisons,
    logical connectives, arithmetic, BOUND and REGEX.  Occasionally
    references a variable outside ``var_names`` so the unbound-error
    path is exercised too.
    """
    names = list(var_names) or ["v0"]
    names.append("never_bound")
    variable = st.sampled_from(names).map(VariableRef)
    constant = st.sampled_from(_CONSTANTS)

    def leaf():
        return st.one_of(
            st.builds(
                Comparison,
                st.sampled_from(sorted(Comparison.OPS)),
                variable,
                st.one_of(constant, variable),
            ),
            st.builds(
                Comparison,
                st.sampled_from(sorted(Comparison.OPS)),
                st.builds(
                    Arithmetic,
                    st.sampled_from(["+", "-", "*"]),
                    variable,
                    st.sampled_from(_CONSTANTS[:5]),
                ),
                st.sampled_from(_CONSTANTS[:5]),
            ),
            st.sampled_from(names).map(BoundCall),
            st.builds(
                RegexCall,
                variable,
                st.sampled_from(_REGEX_PATTERNS).map(lambda p: ConstantTerm(Literal(p))),
                st.one_of(st.none(), st.just(ConstantTerm(Literal("i")))),
            ),
        )

    if max_depth <= 0:
        return draw(leaf())
    sub = filter_expressions(var_names, max_depth=max_depth - 1)
    return draw(
        st.one_of(
            leaf(),
            st.builds(LogicalAnd, sub, sub),
            st.builds(LogicalOr, sub, sub),
            st.builds(LogicalNot, sub),
        )
    )


@st.composite
def groups_with_filters(draw, max_depth: int = 2) -> GroupGraphPattern:
    """A random group graph pattern with 0–2 FILTER elements appended."""
    group = draw(group_patterns(max_depth))
    bound = sorted(pattern_variables(group))
    elements = list(group.elements)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        expression = draw(filter_expressions(bound))
        position = draw(st.integers(min_value=0, max_value=len(elements)))
        elements.insert(position, FilterExpression(expression))
    return GroupGraphPattern(elements)


@st.composite
def modifier_queries(draw, max_depth: int = 2) -> SelectQuery:
    """A SELECT query with a random FILTER / modifier stack.

    ORDER BY keys are restricted to projected variables so result order
    is comparable across implementations (ties then carry identical
    keys and any key-respecting order is acceptable).
    """
    where = draw(groups_with_filters(max_depth))
    bound = sorted(pattern_variables(where))
    if bound and draw(st.booleans()):
        projection = [
            Variable(name)
            for name in draw(
                st.lists(st.sampled_from(bound), min_size=1, max_size=3, unique=True)
            )
        ]
    else:
        projection = None
    projected_names = bound if projection is None else [v.name for v in projection]
    order_by = []
    if projected_names and draw(st.booleans()):
        for name in draw(
            st.lists(st.sampled_from(projected_names), min_size=1, max_size=2, unique=True)
        ):
            order_by.append(OrderCondition(VariableRef(name), draw(st.booleans())))
    return SelectQuery(
        projection,
        where,
        distinct=draw(st.booleans()),
        order_by=order_by,
        limit=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=8))),
        offset=draw(st.sampled_from([0, 0, 1, 3])),
    )


# ----------------------------------------------------------------------
# seeded random generation (plain ``random.Random``) for the
# differential suite, where deterministic replay across runs matters
# more than shrinking
# ----------------------------------------------------------------------
def random_dataset(rng: random.Random, size: int = 28) -> Dataset:
    return Dataset(
        Triple(
            rng.choice(_SUBJECTS),
            rng.choice(_PREDICATES),
            rng.choice(_OBJECTS),
        )
        for _ in range(size)
    )


def _random_pattern(rng: random.Random) -> TriplePattern:
    subject = rng.choice(_VARIABLES) if rng.random() < 0.65 else rng.choice(_SUBJECTS)
    predicate = rng.choice(_VARIABLES) if rng.random() < 0.2 else rng.choice(_PREDICATES)
    obj = rng.choice(_VARIABLES) if rng.random() < 0.6 else rng.choice(_OBJECTS)
    return TriplePattern(subject, predicate, obj)


def _random_group(rng: random.Random, depth: int) -> GroupGraphPattern:
    elements: list = [_random_pattern(rng)]
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.55 or depth <= 0:
            elements.append(_random_pattern(rng))
        elif roll < 0.75:
            elements.append(OptionalExpression(_random_group(rng, depth - 1)))
        elif roll < 0.9:
            elements.append(
                UnionExpression(
                    [_random_group(rng, depth - 1) for _ in range(rng.randint(2, 3))]
                )
            )
        else:
            elements.append(_random_group(rng, depth - 1))
    return GroupGraphPattern(elements)


def _random_expression(rng: random.Random, names: List[str], depth: int = 2) -> Expression:
    roll = rng.random()
    if depth > 0 and roll < 0.3:
        op = rng.random()
        left = _random_expression(rng, names, depth - 1)
        right = _random_expression(rng, names, depth - 1)
        if op < 0.4:
            return LogicalAnd(left, right)
        if op < 0.8:
            return LogicalOr(left, right)
        return LogicalNot(left)
    var = lambda: VariableRef(rng.choice(names))
    kind = rng.random()
    if kind < 0.35:
        return Comparison(
            rng.choice(sorted(Comparison.OPS)), var(), rng.choice(_CONSTANTS)
        )
    if kind < 0.5:
        return Comparison(rng.choice(sorted(Comparison.OPS)), var(), var())
    if kind < 0.65:
        return Comparison(
            rng.choice(sorted(Comparison.OPS)),
            Arithmetic(rng.choice(["+", "-", "*"]), var(), ConstantTerm(int_literal(rng.randint(0, 3)))),
            ConstantTerm(int_literal(rng.randint(0, 6))),
        )
    if kind < 0.8:
        return BoundCall(rng.choice(names))
    return RegexCall(
        var(),
        ConstantTerm(Literal(rng.choice(_REGEX_PATTERNS))),
        ConstantTerm(Literal("i")) if rng.random() < 0.3 else None,
    )


def random_query(
    rng: random.Random, extended: bool = True, max_depth: int = 2
) -> SelectQuery:
    """One random SELECT query; ``extended`` adds FILTERs + modifiers.

    With ``extended=False`` the query stays inside the paper's original
    BGP / UNION / OPTIONAL fragment, so the differential suite also
    revalidates the PR 1 pipeline under transformations and pruning.
    """
    where = _random_group(rng, max_depth)
    bound = sorted(pattern_variables(where))
    if not extended:
        return SelectQuery(None, where)
    names = bound or ["v0"]
    if rng.random() < 0.1:
        names = names + ["never_bound"]
    elements = list(where.elements)
    for _ in range(rng.randint(0, 2)):
        expression = _random_expression(rng, names)
        elements.insert(rng.randint(0, len(elements)), FilterExpression(expression))
    where = GroupGraphPattern(elements)
    projection: Optional[List[Variable]] = None
    if bound and rng.random() < 0.4:
        count = rng.randint(1, min(3, len(bound)))
        projection = [Variable(n) for n in rng.sample(bound, count)]
    projected_names = bound if projection is None else [v.name for v in projection]
    order_by = []
    if projected_names and rng.random() < 0.35:
        for name in rng.sample(projected_names, min(len(projected_names), rng.randint(1, 2))):
            order_by.append(OrderCondition(VariableRef(name), rng.random() < 0.6))
    limit = rng.randint(0, 8) if rng.random() < 0.4 else None
    offset = rng.choice([0, 0, 0, 1, 2, 4]) if rng.random() < 0.4 else 0
    return SelectQuery(
        projection,
        where,
        distinct=rng.random() < 0.3,
        reduced=rng.random() < 0.05,
        order_by=order_by,
        limit=limit,
        offset=offset,
    )


_AGG_FUNCTIONS = ["COUNT", "COUNT", "SUM", "MIN", "MAX", "AVG"]


def random_aggregate_query(rng: random.Random, max_depth: int = 2) -> SelectQuery:
    """One random GROUP BY / aggregate query for the differential suite.

    Deliberately adversarial around the zero-decode path's edge cases:

    - group keys drawn from *all* pattern variables, so OPTIONAL-born
      variables (UNBOUND in some rows) frequently key groups, and a
      sometimes-included never-bound variable keys everything into one
      UNBOUND group;
    - aggregated columns include string literals and IRIs (SUM/AVG →
      unbound alias) and sometimes a never-bound variable (COUNT=0,
      MIN/MAX unbound);
    - a query with no matching rows and no GROUP BY exercises the
      implicit empty group (COUNT must be 0, not an empty result);
    - every function × DISTINCT, COUNT(*) and COUNT(DISTINCT *)
      included, plus optional FILTERs (one- and multi-variable),
      ORDER BY over aliases, DISTINCT and paging.
    """
    where = _random_group(rng, max_depth)
    bound = sorted(pattern_variables(where))
    names = bound or ["v0"]
    if rng.random() < 0.15:
        names = names + ["never_bound"]
    elements = list(where.elements)
    for _ in range(rng.randint(0, 2) if rng.random() < 0.5 else 0):
        expression = _random_expression(rng, names)
        elements.insert(rng.randint(0, len(elements)), FilterExpression(expression))
    where = GroupGraphPattern(elements)

    key_count = rng.choice([0, 1, 1, 1, 2])
    keys: List[Variable] = []
    if key_count:
        pool = list(dict.fromkeys(names))
        keys = [Variable(n) for n in rng.sample(pool, min(key_count, len(pool)))]

    aggregates: List[Aggregate] = []
    for index in range(rng.randint(1, 2)):
        function = rng.choice(_AGG_FUNCTIONS)
        distinct = rng.random() < 0.3
        if function == "COUNT" and rng.random() < 0.4:
            column = None  # COUNT(*) / COUNT(DISTINCT *)
        else:
            column = Variable(rng.choice(names))
        aggregates.append(
            Aggregate(function, column, Variable(f"agg{index}"), distinct=distinct)
        )

    projection: List = keys + aggregates
    rng.shuffle(projection)
    projected_names = [item.name for item in projection]
    order_by = []
    if rng.random() < 0.4:
        for name in rng.sample(
            projected_names, min(len(projected_names), rng.randint(1, 2))
        ):
            order_by.append(OrderCondition(VariableRef(name), rng.random() < 0.6))
    limit = rng.randint(0, 6) if rng.random() < 0.3 else None
    offset = rng.choice([0, 0, 1, 2]) if rng.random() < 0.3 else 0
    return SelectQuery(
        projection,
        where,
        group_by=keys,
        distinct=rng.random() < 0.2,
        order_by=order_by,
        limit=limit,
        offset=offset,
    )


@st.composite
def optional_only_groups(draw, max_depth: int = 2) -> GroupGraphPattern:
    """Groups using only triples, nesting and OPTIONAL (LBR's class).

    LBR additionally assumes well-designed patterns, so every OPTIONAL
    body here is anchored: its first pattern reuses a variable from the
    required part when possible.
    """
    required = draw(st.lists(triple_patterns(), min_size=1, max_size=3))
    elements = list(required)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if max_depth > 0:
            body = draw(optional_only_groups(max_depth=max_depth - 1))
        else:
            body = GroupGraphPattern(
                draw(st.lists(triple_patterns(), min_size=1, max_size=2))
            )
        elements.append(OptionalExpression(body))
    return GroupGraphPattern(elements)
