"""Unit tests for the SparqlUOEngine facade."""

import pytest

from repro.core import ExecutionMode, SparqlUOEngine
from repro.sparql import parse_query

from . import oracle

PREZ_QUERY = """
SELECT ?x ?name WHERE {
  ?x <http://example.org/wikiPageWikiLink> <http://example.org/President_of_the_United_States> .
  { ?x <http://example.org/foaf_name> ?name } UNION { ?x <http://example.org/rdfs_label> ?name }
  OPTIONAL { ?x <http://example.org/sameAs> ?same }
}
"""

ALL_MODES = ["base", "tt", "cp", "full"]
ALL_ENGINES = ["wco", "hashjoin"]


class TestModes:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("bgp_engine", ALL_ENGINES)
    def test_all_modes_match_reference(
        self, presidents_dataset, presidents_store, mode, bgp_engine
    ):
        engine = SparqlUOEngine(presidents_store, bgp_engine=bgp_engine, mode=mode)
        result = engine.execute(PREZ_QUERY)
        expected = oracle.answer(parse_query(PREZ_QUERY), presidents_dataset)
        assert oracle.as_counter(result) == expected

    def test_mode_enum_accepted(self, presidents_store):
        engine = SparqlUOEngine(presidents_store, mode=ExecutionMode.TT)
        assert engine.mode is ExecutionMode.TT

    def test_mode_properties(self):
        assert ExecutionMode.BASE.transforms is False
        assert ExecutionMode.BASE.prunes is False
        assert ExecutionMode.TT.transforms is True
        assert ExecutionMode.CP.prunes is True
        assert ExecutionMode.FULL.transforms and ExecutionMode.FULL.prunes

    def test_unknown_engine_rejected(self, presidents_store):
        with pytest.raises(ValueError):
            SparqlUOEngine(presidents_store, bgp_engine="mystery")

    def test_base_mode_does_not_transform(self, presidents_store):
        engine = SparqlUOEngine(presidents_store, mode="base")
        result = engine.execute(PREZ_QUERY)
        assert result.transform_report is None

    def test_tt_mode_reports_transformations(self, presidents_store):
        engine = SparqlUOEngine(presidents_store, mode="tt")
        result = engine.execute(PREZ_QUERY)
        assert result.transform_report is not None
        assert result.transform_report.merges >= 1

    def test_optimized_join_space_not_worse(self, presidents_store):
        base = SparqlUOEngine(presidents_store, mode="base").execute(PREZ_QUERY)
        full = SparqlUOEngine(presidents_store, mode="full").execute(PREZ_QUERY)
        assert full.join_space <= base.join_space


class TestQueryResult:
    def test_iteration_and_len(self, presidents_store):
        result = SparqlUOEngine(presidents_store, mode="full").execute(PREZ_QUERY)
        rows = list(result)
        assert len(rows) == len(result) == 5

    def test_projection_variables(self, presidents_store):
        result = SparqlUOEngine(presidents_store, mode="full").execute(PREZ_QUERY)
        assert result.variables == ["x", "name"]
        for row in result:
            assert set(row) <= {"x", "name"}

    def test_select_all_projects_every_variable(self, presidents_store):
        query = PREZ_QUERY.replace("SELECT ?x ?name", "SELECT *")
        result = SparqlUOEngine(presidents_store, mode="full").execute(query)
        assert "same" in result.variables

    def test_timings_present(self, presidents_store):
        result = SparqlUOEngine(presidents_store, mode="full").execute(PREZ_QUERY)
        assert result.parse_seconds >= 0
        assert result.transform_seconds >= 0
        assert result.execute_seconds > 0
        assert result.total_seconds >= result.execute_seconds

    def test_accepts_parsed_query(self, presidents_store):
        parsed = parse_query(PREZ_QUERY)
        result = SparqlUOEngine(presidents_store, mode="full").execute(parsed)
        assert len(result) == 5


class TestTimeout:
    #: Cartesian triple product: far too large to finish, so any
    #: sub-second deadline must fire through the checkpoint hooks.
    SLOW_QUERY = "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"

    @pytest.mark.parametrize("bgp_engine", ALL_ENGINES)
    def test_deadline_aborts_runaway_query(self, presidents_store, bgp_engine):
        import time

        from repro.sparql.errors import QueryTimeoutError

        engine = SparqlUOEngine(presidents_store, bgp_engine=bgp_engine, mode="full")
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            engine.execute(self.SLOW_QUERY, timeout=0.2)
        # Cooperative, so not instant — but it must fire within a small
        # multiple of the budget, not run the query to completion.
        assert time.perf_counter() - started < 5.0

    @pytest.mark.parametrize("bgp_engine", ALL_ENGINES)
    def test_generous_deadline_changes_nothing(self, presidents_store, bgp_engine):
        engine = SparqlUOEngine(presidents_store, bgp_engine=bgp_engine, mode="full")
        timed = engine.execute(PREZ_QUERY, timeout=60.0)
        plain = engine.execute(PREZ_QUERY)
        assert timed.solutions == plain.solutions

    def test_caller_checkpoint_cancels(self, presidents_store):
        class Cancelled(Exception):
            pass

        calls = {"n": 0}

        def cancel_after_two():
            calls["n"] += 1
            if calls["n"] > 2:
                raise Cancelled

        engine = SparqlUOEngine(presidents_store, mode="full")
        with pytest.raises(Cancelled):
            engine.execute(PREZ_QUERY, checkpoint=cancel_after_two)

    def test_timeout_error_is_catchable_as_sparql_error(self, presidents_store):
        from repro.sparql.errors import QueryTimeoutError, SparqlError

        assert issubclass(QueryTimeoutError, SparqlError)
        engine = SparqlUOEngine(presidents_store, mode="base")
        with pytest.raises(SparqlError):
            engine.execute(self.SLOW_QUERY, timeout=0.05)


class TestExplain:
    def test_explain_shows_plan(self, presidents_store):
        engine = SparqlUOEngine(presidents_store, mode="tt")
        text = engine.explain(PREZ_QUERY)
        assert "mode=tt" in text
        assert "GROUP" in text and "UNION" in text

    def test_for_dataset_constructor(self, presidents_dataset):
        engine = SparqlUOEngine.for_dataset(presidents_dataset, mode="base")
        assert len(engine.execute(PREZ_QUERY)) == 5
