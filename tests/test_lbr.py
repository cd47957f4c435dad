"""Unit and property tests for the LBR baseline."""

import pytest
from hypothesis import given, settings

from repro.baselines import LBREngine, build_gosn
from repro.sparql import SelectQuery, UnsupportedFeatureError, parse_group, parse_query
from repro.storage import TripleStore

from . import oracle
from .strategies import datasets, optional_only_groups


class TestGoSN:
    def test_flat_query_single_supernode(self):
        gosn = build_gosn(parse_group("{ ?x ?p ?y . ?y ?q ?z }"))
        assert len(gosn.patterns) == 2 and not gosn.children

    def test_optional_becomes_child(self):
        gosn = build_gosn(parse_group("{ ?x ?p ?y OPTIONAL { ?y ?q ?z } }"))
        assert len(gosn.patterns) == 1
        assert len(gosn.children) == 1
        assert len(gosn.children[0].patterns) == 1

    def test_nested_optionals(self):
        gosn = build_gosn(
            parse_group("{ ?x ?p ?y OPTIONAL { ?y ?q ?z OPTIONAL { ?z ?r ?w } } }")
        )
        assert gosn.children[0].children[0].patterns

    def test_required_groups_flatten(self):
        gosn = build_gosn(
            parse_group("{ { ?x ?p ?y OPTIONAL { ?y ?q ?z } } { ?x ?r ?w } }")
        )
        assert len(gosn.patterns) == 2  # both required triples at the root
        assert len(gosn.children) == 1

    def test_union_unsupported(self):
        group = parse_group("{ { ?x ?p ?y } UNION { ?x ?q ?y } }")
        with pytest.raises(UnsupportedFeatureError):
            build_gosn(group)

    def test_counts(self):
        gosn = build_gosn(
            parse_group("{ ?x ?p ?y OPTIONAL { ?y ?q ?z } OPTIONAL { ?y ?r ?w } }")
        )
        assert gosn.descendant_count() == 3
        assert gosn.pattern_count() == 3

    def test_variables(self):
        gosn = build_gosn(parse_group("{ ?x <http://p/1> ?y OPTIONAL { ?y <http://p/2> ?z } }"))
        assert gosn.variables() == {"x", "y"}
        assert gosn.all_variables() == {"x", "y", "z"}


class TestExecution:
    def test_simple_optional(self, university_dataset, university_store):
        text = (
            "SELECT * WHERE { ?x <http://example.org/headOf> ?d "
            "OPTIONAL { ?x <http://example.org/teacherOf> ?c } }"
        )
        result = LBREngine(university_store).execute(text)
        expected = oracle.answer(parse_query(text), university_dataset)
        assert oracle.as_counter(result.solutions) == expected

    def test_nested_required_groups(self, university_dataset, university_store):
        text = (
            "SELECT * WHERE {"
            " { ?x <http://example.org/worksFor> ?d OPTIONAL { ?x <http://example.org/type> ?t } }"
            " { ?s <http://example.org/advisor> ?x OPTIONAL { ?s <http://example.org/takesCourse> ?c } } }"
        )
        result = LBREngine(university_store).execute(text)
        expected = oracle.answer(parse_query(text), university_dataset)
        assert oracle.as_counter(result.solutions) == expected

    def test_projection(self, university_store):
        text = (
            "SELECT ?x WHERE { ?x <http://example.org/headOf> ?d "
            "OPTIONAL { ?x <http://example.org/teacherOf> ?c } }"
        )
        result = LBREngine(university_store).execute(text)
        assert result.variables == ["x"]

    def test_reports_two_semijoin_passes(self, university_store):
        text = "SELECT * WHERE { ?x <http://example.org/headOf> ?d }"
        result = LBREngine(university_store).execute(text)
        assert result.semijoin_passes == 2

    def test_empty_result(self, university_store):
        text = "SELECT * WHERE { ?x <http://example.org/noSuchPredicate> ?d }"
        assert len(LBREngine(university_store).execute(text)) == 0


class TestPropertyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(datasets(), optional_only_groups())
    def test_lbr_matches_reference_on_optional_queries(self, dataset, group):
        store = TripleStore.from_dataset(dataset)
        expected = oracle.answer(SelectQuery(None, group), dataset)
        result = LBREngine(store).execute(SelectQuery(None, group))
        assert oracle.as_counter(result.solutions) == expected
