"""Property tests: pushdown never changes the result multiset.

The engine's one pipeline evaluates filters inside scans, runs
DISTINCT on encoded rows before decode and stops LIMIT queries early.
The naive oracle (``tests/oracle.py``) evaluates Definition 7 bottom-up
and filters only at group end; these properties assert the two always produce
the same solution multiset (modulo the page freedom SPARQL grants an
un-ORDERed LIMIT), across both BGP engines and with transformations +
candidate pruning enabled.  Two deterministic LUBM tests pin the work
pushdown saves: LIMIT stops BGP production early, and a selective
FILTER drops rows inside the scan.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import SparqlUOEngine
from repro.datasets import generate_lubm
from repro.sparql.algebra import SelectQuery
from repro.sparql.expressions import order_key_for_binding
from repro.storage import TripleStore

from . import oracle
from .strategies import datasets, groups_with_filters, modifier_queries

ENGINES = ("wco", "hashjoin")

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _rows(result) -> list:
    return [dict(mu) for mu in result]


def _sort_keys(query: SelectQuery, rows: list) -> list:
    return [
        tuple(order_key_for_binding(c.expression, mu) for c in query.order_by)
        for mu in rows
    ]


@settings(**_SETTINGS)
@given(group=groups_with_filters(), data=datasets())
def test_filter_pushdown_exact_bag_equality(group, data):
    """Filters alone (no paging): results must be *exactly* bag-equal
    across engines and the oracle."""
    query = SelectQuery(None, group)
    store = TripleStore.from_dataset(data)
    reference = oracle.answer(query, data)
    for engine_name in ENGINES:
        result = SparqlUOEngine(store, bgp_engine=engine_name, mode="full").execute(query)
        assert oracle.as_counter(result) == reference, engine_name


@settings(**_SETTINGS)
@given(query=modifier_queries(), data=datasets())
def test_engine_matches_reference_semantics(query, data):
    """The optimized stack vs. the oracle's bottom-up evaluation with
    the modifier pipeline applied on top.

    Covers all three pushdown mechanisms at once: filter-into-scan,
    DISTINCT-before-decode, and LIMIT short-circuit."""
    expected = oracle.execute(query, data)
    reference_rows = expected.rows
    store = TripleStore.from_dataset(data)
    for engine_name in ENGINES:
        result = SparqlUOEngine(store, bgp_engine=engine_name, mode="full").execute(query)
        opt_rows = _rows(result)
        if query.limit is None and not query.offset:
            assert oracle.as_counter(opt_rows) == oracle.as_counter(reference_rows), engine_name
            continue
        # An un-ORDERed LIMIT may legally return a different page; with
        # ORDER BY the sort-key sequence pins the page down.
        assert len(opt_rows) == len(reference_rows), engine_name
        assert oracle.contained_in(opt_rows, expected.full), engine_name
        if query.order_by:
            assert _sort_keys(query, opt_rows) == _sort_keys(query, reference_rows), engine_name


@settings(**_SETTINGS)
@given(query=modifier_queries(), data=datasets())
def test_limit_short_circuit_returns_a_valid_page(query, data):
    """Whatever page a LIMIT short-circuit returns must be a sub-multiset
    of the query's full (un-paged) result."""
    if query.limit is None and not query.offset:
        return
    full_query = SelectQuery(
        query.variables,
        query.where,
        distinct=query.distinct,
        reduced=query.reduced,
        order_by=query.order_by,
    )
    store = TripleStore.from_dataset(data)
    for engine_name in ENGINES:
        engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
        page = _rows(engine.execute(query))
        full = _rows(engine.execute(full_query))
        assert oracle.contained_in(page, full), engine_name


# ----------------------------------------------------------------------
# deterministic work counts on LUBM (one university)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lubm_store():
    return TripleStore.from_dataset(generate_lubm(universities=1))


def _bgp_rows(result) -> int:
    """Rows the BGP leaves materialized (the evaluator's work proxy)."""
    return sum(result.trace.bgp_result_sizes.values())


@pytest.mark.parametrize("engine_name", ENGINES)
def test_limit_stops_bgp_production_early(lubm_store, engine_name):
    limited = "SELECT ?s ?c WHERE { ?s ub:takesCourse ?c . ?s ub:memberOf ?d } LIMIT 10"
    engine = SparqlUOEngine(lubm_store, bgp_engine=engine_name)
    page = engine.execute(limited)
    full = engine.execute(limited.replace("LIMIT 10", ""))
    assert len(page) == 10
    assert _bgp_rows(page) < _bgp_rows(full)


@pytest.mark.parametrize("engine_name", ENGINES)
def test_selective_filter_runs_inside_the_scan(lubm_store, engine_name):
    query = (
        "SELECT ?s ?c WHERE { ?s ub:name ?n . ?s ub:takesCourse ?c . "
        'FILTER (?n = "UndergraduateStudent42") }'
    )
    result = SparqlUOEngine(lubm_store, bgp_engine=engine_name).execute(query)
    assert len(result) > 0
    assert result.trace.pushed_filters == 1
    # Rows failing the filter never leave the scan.
    assert _bgp_rows(result) == len(result)
