"""Unit tests for the graph-pattern AST."""

import pytest

from repro.rdf import IRI, TriplePattern, Variable
from repro.sparql import (
    GroupGraphPattern,
    OptionalExpression,
    SelectQuery,
    UnionExpression,
    parse_query,
    pattern_variables,
)

P = IRI("http://x/p")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")
T1 = TriplePattern(X, P, Y)
T2 = TriplePattern(Y, P, Z)
T3 = TriplePattern(Z, P, X)


class TestConstruction:
    def test_union_needs_two_branches(self):
        with pytest.raises(ValueError):
            UnionExpression([GroupGraphPattern([T1])])

    def test_union_branches_must_be_groups(self):
        with pytest.raises(TypeError):
            UnionExpression([T1, T2])

    def test_optional_body_must_be_group(self):
        with pytest.raises(TypeError):
            OptionalExpression(T1)

    def test_group_rejects_junk(self):
        with pytest.raises(TypeError):
            GroupGraphPattern(["nope"])

    def test_select_query_validates(self):
        with pytest.raises(TypeError):
            SelectQuery(["x"], GroupGraphPattern([T1]))
        with pytest.raises(TypeError):
            SelectQuery(None, T1)


class TestPatternVariables:
    def test_triple(self):
        assert pattern_variables(T1) == {"x", "y"}

    def test_group(self):
        assert pattern_variables(GroupGraphPattern([T1, T2])) == {"x", "y", "z"}

    def test_union_and_optional(self):
        union = UnionExpression([GroupGraphPattern([T1]), GroupGraphPattern([T2])])
        group = GroupGraphPattern(
            [union, OptionalExpression(GroupGraphPattern([T3]))]
        )
        assert pattern_variables(group) == {"x", "y", "z"}

    def test_empty_group_and_filter_bind_nothing(self):
        assert pattern_variables(GroupGraphPattern([])) == frozenset()
        where = parse_query("SELECT * WHERE { ?x <http://x/p> ?y FILTER (?z = 1) }").where
        assert pattern_variables(where) == {"x", "y"}
