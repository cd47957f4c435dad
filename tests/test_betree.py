"""Unit tests for BE-tree construction, coalescing and conversion."""

import pytest

from repro.core import BETree, BGPNode, GroupNode, OptionalNode, UnionNode
from repro.core.betree import certain_variables, coalesce_siblings
from repro.rdf import IRI, TriplePattern, Variable
from repro.sparql import parse_group

from . import oracle

P = IRI("http://x/p")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestConstruction:
    def test_single_triple(self):
        tree = BETree.from_group(parse_group("{ ?x ?p ?y }"))
        (bgp,) = tree.root.children
        assert isinstance(bgp, BGPNode) and len(bgp.patterns) == 1

    def test_coalescing_adjacent_triples(self):
        tree = BETree.from_group(parse_group("{ ?x <http://x/p> ?y . ?y <http://x/p> ?z }"))
        (bgp,) = tree.root.children
        assert len(bgp.patterns) == 2

    def test_uncoalescable_triples_stay_apart(self):
        tree = BETree.from_group(parse_group("{ ?x <http://x/p> ?y . ?a <http://x/p> ?b }"))
        assert len(tree.root.children) == 2

    def test_union_node(self):
        tree = BETree.from_group(
            parse_group("{ { ?x ?p ?y } UNION { ?x ?q ?y } }")
        )
        (union,) = tree.root.children
        assert isinstance(union, UnionNode) and len(union.branches) == 2

    def test_optional_node(self):
        tree = BETree.from_group(parse_group("{ ?x <http://x/p> ?y OPTIONAL { ?y <http://x/q> ?z } }"))
        assert isinstance(tree.root.children[1], OptionalNode)

    def test_figure2_coalesce_across_optional(self):
        """The paper's Figure 5: t1 and t6 coalesce around the OPTIONAL
        because t6's variables don't overlap the OPTIONAL body."""
        group = parse_group(
            """{
              ?x <http://x/link> <http://x/Pres> .
              { ?x <http://x/name> ?name } UNION { ?x <http://x/label> ?name }
              OPTIONAL { { ?x <http://x/same> ?same } UNION { ?same <http://x/same> ?x } }
              ?x <http://x/birth> ?birth .
            }"""
        )
        tree = BETree.from_group(group)
        first = tree.root.children[0]
        assert isinstance(first, BGPNode)
        assert len(first.patterns) == 2  # t1 + t6 coalesced
        # … and the BGP sits at t1's (leftmost) position.
        assert len(tree.root.children) == 3

    def test_unsafe_cross_optional_coalesce_blocked(self):
        """If the trailing triple shares a variable with the OPTIONAL
        body that is not certain beforehand, moving it would change
        semantics — construction must keep it after the OPTIONAL."""
        group = parse_group(
            """{
              ?x <http://x/p> ?y .
              OPTIONAL { ?x <http://x/q> ?s }
              ?x <http://x/r> ?s .
            }"""
        )
        tree = BETree.from_group(group)
        assert len(tree.root.children) == 3
        last = tree.root.children[2]
        assert isinstance(last, BGPNode) and len(last.patterns) == 1

    def test_nested_groups(self):
        tree = BETree.from_group(parse_group("{ { ?x ?p ?y . ?y ?q ?z } }"))
        (inner,) = tree.root.children
        assert isinstance(inner, GroupNode)


class TestSemanticsPreservation:
    """BE-tree construction itself must not change query results."""

    @pytest.mark.parametrize(
        "text",
        [
            "{ ?x <http://x/p> ?y . OPTIONAL { ?y <http://x/q> ?z } ?x <http://x/r> ?w }",
            "{ ?x <http://x/p> ?y . OPTIONAL { ?x <http://x/q> ?s } ?x <http://x/r> ?s }",
            "{ { ?x <http://x/p> ?y } UNION { ?x <http://x/q> ?y } ?x <http://x/r> ?z }",
        ],
    )
    def test_to_group_preserves_results(self, text, university_dataset):
        group = parse_group(text)
        tree = BETree.from_group(group)
        original = oracle.evaluate_group(group, university_dataset)
        rebuilt = oracle.evaluate_group(tree.to_group(), university_dataset)
        assert oracle.as_counter(original) == oracle.as_counter(rebuilt)


class TestHelpers:
    def test_clone_preserves_node_ids_and_structure(self):
        tree = BETree.from_group(parse_group("{ ?x ?p ?y OPTIONAL { ?y ?q ?z } }"))
        copy = tree.clone()
        originals = {n.node_id for n in tree.iter_nodes()}
        clones = {n.node_id for n in copy.iter_nodes()}
        assert originals == clones
        # Mutating the clone leaves the original alone.
        copy.root.children.clear()
        assert tree.root.children

    def test_bgp_nodes_listing(self):
        tree = BETree.from_group(
            parse_group("{ ?x ?p ?y { ?a ?p ?b } UNION { ?a ?q ?b } }")
        )
        assert len(tree.bgp_nodes()) == 3

    def test_variables(self):
        tree = BETree.from_group(parse_group("{ ?x ?p ?y OPTIONAL { ?y ?q ?z } }"))
        assert tree.root.variables() == {"x", "p", "y", "q", "z"}

    def test_pretty_contains_node_labels(self):
        tree = BETree.from_group(parse_group("{ ?x <http://x/p> ?y OPTIONAL { ?y <http://x/q> ?z } }"))
        text = tree.pretty()
        assert "GROUP" in text and "OPTIONAL" in text and "BGP" in text

    def test_union_requires_two_branches(self):
        with pytest.raises(ValueError):
            UnionNode([GroupNode()])

    def test_optional_requires_group(self):
        with pytest.raises(TypeError):
            OptionalNode(BGPNode())


class TestCertainVariables:
    def test_bgp_vars_are_certain(self):
        group = BETree.from_group(parse_group("{ ?x <http://x/p> ?y }")).root
        assert certain_variables(group.children, 1) == {"x", "y"}

    def test_optional_vars_not_certain(self):
        group = BETree.from_group(
            parse_group("{ ?x <http://x/p> ?y OPTIONAL { ?y <http://x/q> ?z } }")
        ).root
        assert certain_variables(group.children, 2) == {"x", "y"}

    def test_union_certain_is_branch_intersection(self):
        group = BETree.from_group(
            parse_group(
                "{ { ?x <http://x/p> ?y } UNION { ?x <http://x/q> ?z } }"
            )
        ).root
        assert certain_variables(group.children, 1) == {"x"}
