"""Regression tests: columnar-bag edge cases under the new modifiers.

PR 1 introduced the UNBOUND sentinel for columnar solution rows; these
tests pin down its interaction with the FILTER / modifier extension:
ORDER BY placement of unbound slots, DISTINCT over rows that differ
only in unboundness, and SPARQL's error semantics for filters touching
post-OPTIONAL unbound variables.
"""

from __future__ import annotations

import pytest

from repro import Dataset, IRI, Literal, SparqlUOEngine
from repro.sparql.parser import parse_query

from . import oracle

EX = "http://example.org/"


def ex(name: str) -> IRI:
    return IRI(EX + name)


def int_lit(value: int) -> Literal:
    return Literal(str(value), datatype="http://www.w3.org/2001/XMLSchema#integer")


@pytest.fixture(scope="module")
def optional_dataset() -> Dataset:
    """Four subjects with :p; only half carry the OPTIONAL :q value, and
    two share the same :q value (DISTINCT fodder)."""
    d = Dataset()
    for i in range(4):
        d.add_spo(ex(f"s{i}"), ex("p"), int_lit(i))
    d.add_spo(ex("s0"), ex("q"), Literal("dup"))
    d.add_spo(ex("s1"), ex("q"), Literal("dup"))
    return d


ENGINES = ("wco", "hashjoin")


def engines_for(dataset):
    for name in ENGINES:
        yield name, SparqlUOEngine.for_dataset(dataset, bgp_engine=name, mode="full")


class TestOrderByUnbound:
    QUERY = (
        "SELECT ?x ?n WHERE { ?x <http://example.org/p> ?v . "
        "OPTIONAL { ?x <http://example.org/q> ?n } } ORDER BY ?n ?x"
    )

    def test_unbound_sorts_first_ascending(self, optional_dataset):
        for name, engine in engines_for(optional_dataset):
            result = engine.execute(self.QUERY)
            rows = list(result)
            bound_flags = ["n" in row for row in rows]
            # Unbound ?n rows (s2, s3) come first, then the bound ones.
            assert bound_flags == [False, False, True, True], name
            assert [row["x"] for row in rows[:2]] == [ex("s2"), ex("s3")], name

    def test_unbound_sorts_last_descending(self, optional_dataset):
        query = self.QUERY.replace("ORDER BY ?n ?x", "ORDER BY DESC(?n) ?x")
        for name, engine in engines_for(optional_dataset):
            rows = list(engine.execute(query))
            bound_flags = ["n" in row for row in rows]
            assert bound_flags == [True, True, False, False], name

    def test_matches_reference_order(self, optional_dataset):
        # ORDER BY ?n ?x is a total order here (?x is unique), so the
        # row sequence itself must match.
        ref_rows = oracle.execute(parse_query(self.QUERY), optional_dataset).rows
        for name, engine in engines_for(optional_dataset):
            assert list(engine.execute(self.QUERY)) == ref_rows, name


class TestDistinctWithUnbound:
    def test_unbound_and_bound_stay_distinct(self, optional_dataset):
        # s0 and s1 both reach ?n = "dup" (collapsing to one solution);
        # s2 and s3 leave ?n unbound (collapsing to another).  A row
        # with ?n unbound must NOT merge with a bound one.
        query = (
            "SELECT DISTINCT ?n WHERE { ?x <http://example.org/p> ?v . "
            "OPTIONAL { ?x <http://example.org/q> ?n } }"
        )
        for name, engine in engines_for(optional_dataset):
            rows = list(engine.execute(query))
            assert len(rows) == 2, name
            assert {("n" in row) for row in rows} == {True, False}, name

    def test_distinct_on_encoded_rows_equals_decoded(self, optional_dataset):
        query = (
            "SELECT DISTINCT ?x ?n WHERE { ?x <http://example.org/p> ?v . "
            "OPTIONAL { ?x <http://example.org/q> ?n } }"
        )
        # The engines deduplicate id rows before decoding; the oracle
        # deduplicates decoded terms.
        decoded = oracle.answer(parse_query(query), optional_dataset)
        assert sum(decoded.values()) == 4
        for name, engine in engines_for(optional_dataset):
            assert oracle.as_counter(engine.execute(query)) == decoded, name


class TestFilterOnUnbound:
    def test_comparison_error_drops_row(self, optional_dataset):
        # ?n is unbound for s2/s3: '?n = "dup"' errors there ⇒ dropped.
        query = (
            "SELECT ?x WHERE { ?x <http://example.org/p> ?v . "
            'OPTIONAL { ?x <http://example.org/q> ?n } FILTER (?n = "dup") }'
        )
        for name, engine in engines_for(optional_dataset):
            rows = sorted(row["x"].value for row in engine.execute(query))
            assert rows == [EX + "s0", EX + "s1"], name

    def test_bound_rescues_unbound_rows(self, optional_dataset):
        query = (
            "SELECT ?x WHERE { ?x <http://example.org/p> ?v . "
            "OPTIONAL { ?x <http://example.org/q> ?n } FILTER (!BOUND(?n)) }"
        )
        for name, engine in engines_for(optional_dataset):
            rows = sorted(row["x"].value for row in engine.execute(query))
            assert rows == [EX + "s2", EX + "s3"], name

    def test_error_absorbed_by_disjunction(self, optional_dataset):
        # err || true → true: the unbound comparison must not kill rows
        # the other disjunct accepts.
        query = (
            "SELECT ?x WHERE { ?x <http://example.org/p> ?v . "
            'OPTIONAL { ?x <http://example.org/q> ?n } FILTER (?n = "dup" || ?v >= 0) }'
        )
        for name, engine in engines_for(optional_dataset):
            assert len(engine.execute(query)) == 4, name

    def test_error_absorbed_by_conjunction(self, optional_dataset):
        # err && false → false (row dropped, no error escalation);
        # err && true → error (row dropped).  Either way nothing passes.
        query = (
            "SELECT ?x WHERE { ?x <http://example.org/p> ?v . "
            'OPTIONAL { ?x <http://example.org/q> ?n } FILTER (?n = "dup" && ?v < 0) }'
        )
        for name, engine in engines_for(optional_dataset):
            assert len(engine.execute(query)) == 0, name
