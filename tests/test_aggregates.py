"""GROUP BY / aggregation and the EngineOptions / PreparedQuery API.

Deterministic unit coverage for PRs' aggregate stack: grammar and
validation errors, the zero-decode execution invariants (``terms_decoded``,
``rows_kernel_filtered``), the grouped edge cases (UNBOUND keys, empty
groups), and the engine-options API (keyword construction, pickling
through spawn-style round trips).
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro import EngineOptions, PreparedQuery, SparqlUOEngine
from repro.core.metrics import EXEC_COUNTERS
from repro.rdf import Dataset, IRI, Literal, Triple
from repro.sparql import parse_query
from repro.sparql.aggregates import aggregate_terms, count_literal, numeric_literal
from repro.sparql.errors import SparqlSyntaxError, UnsupportedFeatureError
from repro.storage import TripleStore

EX = "http://agg.test/"
UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
ENGINES = ("wco", "hashjoin")

#: shape → (store fixture, pure COUNT, its count).  No FILTER, so not
#: even a kernel verdict memo may touch the dictionary.
PURE_COUNTS = {
    "toy": ("store", f"SELECT (COUNT(*) AS ?n) WHERE {{ ?s <{EX}score> ?v }}", 12),
    "lubm": (
        "lubm_u1_store",
        f"SELECT (COUNT(*) AS ?n) WHERE {{ ?s <{UB}takesCourse> ?c }}",
        3240,
    ),
}

#: LUBM u1 folds → (WHERE body, group key; None for the implicit group).
LUBM_FOLDS = {
    "pure_count": (f"?s <{UB}takesCourse> ?c", None),
    "filter_heavy_count": (
        f"?s a <{UB}UndergraduateStudent> . ?s <{UB}takesCourse> ?c . "
        f"FILTER (?c != <{UB}nothing>)",
        None,
    ),
    "count_by_course": (f"?s <{UB}takesCourse> ?c", "c"),
}


def _int(value: int) -> Literal:
    return Literal(str(value), datatype=XSD_INTEGER)


@pytest.fixture(scope="module")
def store() -> TripleStore:
    triples = []
    for i in range(12):
        s = IRI(EX + f"s{i}")
        triples.append(Triple(s, IRI(EX + "kind"), IRI(EX + f"K{i % 3}")))
        triples.append(Triple(s, IRI(EX + "score"), _int(i)))
        if i % 2 == 0:
            triples.append(Triple(s, IRI(EX + "label"), Literal(f"n{i}")))
    return TripleStore.from_dataset(Dataset(triples))


def _rows(result):
    return [dict(mu) for mu in result]


# ----------------------------------------------------------------------
# grammar and validation
# ----------------------------------------------------------------------
class TestParsing:
    def test_group_by_with_aggregates_parses(self):
        q = parse_query(
            "SELECT ?k (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p ?k } GROUP BY ?k"
        )
        assert [v.name for v in q.group_by] == ["k"]
        assert q.groups
        (agg,) = q.aggregates
        assert (agg.function, agg.distinct, agg.name) == ("COUNT", True, "n")
        assert q.projection_names() == ["k", "n"]

    def test_every_function_parses(self):
        q = parse_query(
            "SELECT (COUNT(*) AS ?c) (SUM(?v) AS ?s) (MIN(?v) AS ?lo) "
            "(MAX(?v) AS ?hi) (AVG(?v) AS ?m) WHERE { ?x ?p ?v }"
        )
        assert [a.function for a in q.aggregates] == [
            "COUNT",
            "SUM",
            "MIN",
            "MAX",
            "AVG",
        ]
        assert q.aggregates[0].expression is None

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT * WHERE { ?x ?p ?y } GROUP BY ?x",
            "SELECT ?y (COUNT(*) AS ?n) WHERE { ?x ?p ?y } GROUP BY ?x",
            "SELECT (SUM(*) AS ?n) WHERE { ?x ?p ?y }",
            "SELECT (COUNT(?x) ?n) WHERE { ?x ?p ?y }",
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?y } GROUP BY",
            "SELECT (COUNT(?x) AS ?n) (SUM(?y) AS ?n) WHERE { ?x ?p ?y }",
        ],
    )
    def test_invalid_aggregate_queries_rejected(self, text):
        with pytest.raises(SparqlSyntaxError):
            parse_query(text)

    def test_non_aggregate_projection_expression_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_query("SELECT (REGEX(?x, \"a\") AS ?n) WHERE { ?x ?p ?y }")


# ----------------------------------------------------------------------
# shared fold semantics
# ----------------------------------------------------------------------
class TestAggregateTerms:
    def test_count(self):
        assert aggregate_terms("COUNT", [_int(1), _int(1)], False) == count_literal(2)
        assert aggregate_terms("COUNT", [], False) == count_literal(0)

    def test_sum_and_avg_integral(self):
        values = [_int(1), _int(2), _int(3)]
        assert aggregate_terms("SUM", values, False) == numeric_literal(6)
        assert aggregate_terms("AVG", values, False) == numeric_literal(2)

    def test_avg_fractional_is_double(self):
        got = aggregate_terms("AVG", [_int(1), _int(2)], False)
        assert got.datatype.endswith("double") and float(got.lexical) == 1.5

    def test_sum_empty_is_zero(self):
        assert aggregate_terms("SUM", [], False) == numeric_literal(0)

    def test_min_max_empty_is_unbound(self):
        assert aggregate_terms("MIN", [], False) is None
        assert aggregate_terms("MAX", [], False) is None

    def test_sum_non_numeric_is_unbound(self):
        assert aggregate_terms("SUM", [Literal("x"), _int(1)], False) is None

    def test_distinct_dedupes(self):
        values = [_int(2), _int(2), _int(3)]
        assert aggregate_terms("SUM", values, True) == numeric_literal(5)
        assert aggregate_terms("COUNT", values, True) == count_literal(2)


# ----------------------------------------------------------------------
# grouped execution
# ----------------------------------------------------------------------
class TestGroupedExecution:
    def test_group_by_count(self, store):
        result = SparqlUOEngine(store).execute(
            f"SELECT ?k (COUNT(*) AS ?n) WHERE {{ ?s <{EX}kind> ?k }} "
            "GROUP BY ?k ORDER BY ?k"
        )
        assert _rows(result) == [
            {"k": IRI(EX + "K0"), "n": count_literal(4)},
            {"k": IRI(EX + "K1"), "n": count_literal(4)},
            {"k": IRI(EX + "K2"), "n": count_literal(4)},
        ]

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("shape", sorted(PURE_COUNTS))
    def test_pure_count_decodes_nothing(self, request, shape, engine_name):
        fixture, query, count = PURE_COUNTS[shape]
        engine = SparqlUOEngine(request.getfixturevalue(fixture), bgp_engine=engine_name)
        EXEC_COUNTERS.reset()
        result = engine.execute(query)
        assert _rows(result) == [{"n": count_literal(count)}]
        assert EXEC_COUNTERS.terms_decoded == 0

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("shape", sorted(LUBM_FOLDS))
    def test_fold_equals_decode_then_count(self, lubm_u1_store, shape, engine_name):
        where, key = LUBM_FOLDS[shape]
        aggregate = f"SELECT (COUNT(*) AS ?n) WHERE {{ {where} }}"
        if key:
            aggregate = f"SELECT ?{key} (COUNT(?s) AS ?n) WHERE {{ {where} }} GROUP BY ?{key}"
        engine = SparqlUOEngine(lubm_u1_store, bgp_engine=engine_name, mode="full")
        folded = {mu.get(key): int(mu["n"].lexical) for mu in engine.execute(aggregate)}
        decoded = Counter(mu.get(key) for mu in engine.execute(f"SELECT * WHERE {{ {where} }}"))
        assert folded == dict(decoded)

    def test_numeric_folds(self, store):
        result = SparqlUOEngine(store).execute(
            f"SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?m) (MIN(?v) AS ?lo) "
            f"(MAX(?v) AS ?hi) WHERE {{ ?x <{EX}score> ?v }}"
        )
        assert _rows(result) == [
            {
                "s": numeric_literal(66),
                "m": numeric_literal(5.5),
                "lo": _int(0),
                "hi": _int(11),
            }
        ]

    def test_empty_input_implicit_group(self, store):
        result = SparqlUOEngine(store).execute(
            f"SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?s) (MIN(?v) AS ?lo) "
            f"WHERE {{ ?x <{EX}missing> ?v }}"
        )
        # One row: COUNT=0, SUM=0, MIN unbound.
        assert _rows(result) == [{"n": count_literal(0), "s": numeric_literal(0)}]

    def test_empty_input_with_group_by_is_empty(self, store):
        result = SparqlUOEngine(store).execute(
            f"SELECT ?k (COUNT(*) AS ?n) WHERE {{ ?x <{EX}missing> ?k }} GROUP BY ?k"
        )
        assert len(result) == 0

    def test_unbound_group_key(self, store):
        # label exists only for even subjects: the odd ones group under
        # an UNBOUND key, which must surface as a row without ?l.
        result = SparqlUOEngine(store).execute(
            f"SELECT ?l (COUNT(*) AS ?n) WHERE {{ ?s <{EX}kind> ?k . "
            f"OPTIONAL {{ ?s <{EX}label> ?l }} }} GROUP BY ?l"
        )
        rows = _rows(result)
        unbound_rows = [r for r in rows if "l" not in r]
        assert len(rows) == 7  # 6 labels + one UNBOUND group
        assert unbound_rows == [{"n": count_literal(6)}]

    def test_count_distinct_on_ids(self, store):
        result = SparqlUOEngine(store).execute(
            f"SELECT (COUNT(DISTINCT ?k) AS ?n) WHERE {{ ?s <{EX}kind> ?k }}"
        )
        assert _rows(result) == [{"n": count_literal(3)}]

    def test_order_by_aggregate_alias(self, store):
        result = SparqlUOEngine(store).execute(
            f"SELECT ?k (SUM(?v) AS ?t) WHERE {{ ?s <{EX}kind> ?k . "
            f"?s <{EX}score> ?v }} GROUP BY ?k ORDER BY DESC(?t) LIMIT 1"
        )
        # K2 holds scores 2,5,8,11 = 26, the largest bucket.
        assert _rows(result) == [{"k": IRI(EX + "K2"), "t": numeric_literal(26)}]

    def test_group_plan_in_explain(self, store):
        engine = SparqlUOEngine(store)
        text = engine.explain(
            f"SELECT ?k (COUNT(*) AS ?n) WHERE {{ ?s <{EX}kind> ?k }} GROUP BY ?k"
        )
        assert "GroupBy[?k]" in text
        assert "(COUNT(*) AS ?n)" in text
        assert "estimate: cost=" in text


# ----------------------------------------------------------------------
# filter kernels
# ----------------------------------------------------------------------
class TestKernels:
    QUERY = f"SELECT ?s ?v WHERE {{ ?s <{EX}score> ?v . FILTER (?v >= 6) }}"

    def test_kernel_screens_rows(self, store):
        engine = SparqlUOEngine(store)
        EXEC_COUNTERS.reset()
        result = engine.execute(self.QUERY)
        assert len(result) == 6
        assert EXEC_COUNTERS.rows_kernel_filtered >= 12

    def test_regex_is_batch_screened(self, store):
        # REGEX takes the same verdict memo as a comparison: one path
        # for every expression shape.
        engine = SparqlUOEngine(store)
        EXEC_COUNTERS.reset()
        result = engine.execute(
            f'SELECT ?s WHERE {{ ?s <{EX}label> ?l . FILTER regex(?l, "n1") }}'
        )
        assert len(result) == 1  # labels are n0,n2,...,n10 — only n10 matches "n1"
        assert EXEC_COUNTERS.rows_kernel_filtered > 0

    #: LUBM u1 filters the kernels must screen → (query, results,
    #: terms_decoded: the verdict memo's distinct ids plus the output).
    LUBM_FILTERS = {
        "name_equality": (
            f"SELECT ?s ?c WHERE {{ ?s <{UB}name> ?n . ?s <{UB}takesCourse> ?c . "
            'FILTER (?n = "UndergraduateStudent42") }',
            6,
            451,
        ),
        "email_disjunction": (
            f"SELECT ?s ?e WHERE {{ ?s <{UB}emailAddress> ?e . ?s <{UB}takesCourse> ?c . "
            'FILTER (?e = "UndergraduateStudent3@Department0.University0.edu" || '
            '?e = "UndergraduateStudent7@Department1.University1.edu") }',
            2,
            1742,
        ),
    }

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("shape", sorted(LUBM_FILTERS))
    def test_lubm_filters_reach_kernels(self, lubm_u1_store, shape, engine_name):
        query, rows, decoded = self.LUBM_FILTERS[shape]
        result = SparqlUOEngine(lubm_u1_store, bgp_engine=engine_name).execute(query)
        assert len(result) == rows
        assert result.exec_counters["rows_kernel_filtered"] > 0
        assert result.exec_counters["terms_decoded"] == decoded

    #: LUBM u1 shapes → (WHERE body, unlimited rows, unlimited
    #: (terms_decoded, rows_materialized), LIMIT 10 (terms_decoded by
    #: engine, rows_materialized)).  Whatever the expression, a LIMIT
    #: that can stop a scan or extension screens it per row, so it
    #: decodes no id of a row it never returns.
    LUBM_COUNTS = {
        "regex_two_patterns": (
            f"?s <{UB}takesCourse> ?c . ?c <{UB}name> ?n . FILTER(regex(?n, \"1\"))",
            345,
            (803, 1011),
            ({"wco": 454, "hashjoin": 454}, 676),
        ),
        "two_variable_inequality": (
            f"?s <{UB}takesCourse> ?c . ?c <{UB}name> ?n . ?s <{UB}name> ?m . "
            "FILTER(?n != ?m)",
            3240,
            (2606, 8386),
            ({"wco": 33, "hashjoin": 31}, 5156),
        ),
        "regex_one_pattern": (
            f"?c <{UB}name> ?n . FILTER(regex(?n, \"1\"))",
            666,
            (1274, 666),
            ({"wco": 17, "hashjoin": 17}, 10),
        ),
        "inequality_one_pattern": (
            f"?c <{UB}name> ?n . FILTER(?n != \"Course1\")",
            1891,
            (2774, 1891),
            ({"wco": 12, "hashjoin": 12}, 10),
        ),
    }

    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("shape", sorted(LUBM_COUNTS))
    def test_lubm_filter_exact_counts(self, lubm_u1_store, shape, engine_name):
        body, rows, (decoded, materialized), (limit_decoded, limit_materialized) = (
            self.LUBM_COUNTS[shape]
        )
        result = SparqlUOEngine(lubm_u1_store, bgp_engine=engine_name).execute(
            f"SELECT * WHERE {{ {body} }}"
        )
        assert len(result) == rows
        assert result.exec_counters["terms_decoded"] == decoded
        assert result.exec_counters["rows_materialized"] == materialized
        result = SparqlUOEngine(lubm_u1_store, bgp_engine=engine_name).execute(
            f"SELECT * WHERE {{ {body} }} LIMIT 10"
        )
        assert len(result) == 10
        assert result.exec_counters["terms_decoded"] == limit_decoded[engine_name]
        assert result.exec_counters["rows_materialized"] == limit_materialized

    def test_counters_reach_query_stats(self, store):
        result = SparqlUOEngine(store).execute(self.QUERY)
        assert "rows_kernel_filtered" in result.exec_counters
        assert "terms_decoded" in result.exec_counters


# ----------------------------------------------------------------------
# EngineOptions / PreparedQuery API
# ----------------------------------------------------------------------
class TestEngineOptions:
    def test_keyword_construction(self, store):
        engine = SparqlUOEngine(store, bgp_engine="hashjoin", mode="cp")
        assert engine.mode.value == "cp" and engine.bgp_engine.name == "hashjoin"

    def test_options_are_the_paper_configurations(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(EngineOptions)] == [
            "bgp_engine", "mode", "fixed_fraction",
        ]

    def test_options_object(self, store):
        options = EngineOptions(mode="tt", fixed_fraction=0.05)
        engine = SparqlUOEngine(store, options=options)
        assert engine.options == options
        assert engine.mode.value == "tt"

    def test_keywords_override_options(self, store):
        engine = SparqlUOEngine(
            store, options=EngineOptions(mode="tt"), mode="base"
        )
        assert engine.mode.value == "base"

    def test_unknown_option_rejected(self, store):
        with pytest.raises(TypeError, match="turbo"):
            SparqlUOEngine(store, turbo=True)
        with pytest.raises(TypeError, match="pushdown"):
            SparqlUOEngine(store, pushdown=False)  # one pipeline, no knob
        with pytest.raises(TypeError):
            SparqlUOEngine(store, "hashjoin")  # configuration is keyword-only

    def test_unknown_engine_still_value_error(self, store):
        with pytest.raises(ValueError, match="unknown BGP engine"):
            SparqlUOEngine(store, bgp_engine="mystery")

    def test_options_pickle_roundtrip(self):
        options = EngineOptions(bgp_engine="hashjoin", mode="cp")
        assert pickle.loads(pickle.dumps(options)) == options

    def test_repr_shows_only_non_defaults(self):
        assert repr(EngineOptions()) == "EngineOptions()"
        assert repr(EngineOptions(mode="cp")) == "EngineOptions(mode='cp')"

    def test_server_config_builds_options(self):
        from repro.server.config import ServerConfig

        config = ServerConfig(data="x.snap", engine="hashjoin")
        options = config.engine_options()
        assert options.bgp_engine == "hashjoin"
        assert options.mode == "full"


class TestPreparedQuery:
    TEXT = f"SELECT ?s WHERE {{ ?s <{EX}kind> ?k }}"

    def test_prepare_returns_dataclass(self, store):
        engine = SparqlUOEngine(store)
        prepared = engine.prepare(self.TEXT)
        assert isinstance(prepared, PreparedQuery)
        assert prepared.query.projection_names() == ["s"]
        assert not prepared.cached

    def test_plan_cache_returns_same_tree(self, store):
        engine = SparqlUOEngine(store)
        assert engine.prepare(self.TEXT).tree is engine.prepare(self.TEXT).tree

    def test_cache_hit_flag(self, store):
        engine = SparqlUOEngine(store)
        engine.prepare(self.TEXT)
        assert engine.prepare(self.TEXT).cached
