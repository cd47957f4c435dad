"""Unit tests for merge/inject transformations and the cost-driven
transformer (Definitions 9–10, Theorems 1–2, Algorithms 2–4)."""

import pytest

from repro.bgp import WCOJoinEngine
from repro.core import (
    BETree,
    BGPNode,
    CostModel,
    OptionalNode,
    UnionNode,
    can_inject,
    can_merge,
    decide_inject,
    decide_merge,
    multi_level_transform,
    perform_inject,
    perform_merge,
    single_level_transform,
)
from repro.rdf import Dataset, IRI, Literal
from repro.sparql import SelectQuery, parse_group
from repro.storage import TripleStore

from . import oracle

EX = "http://x/"


def tree_of(text: str) -> BETree:
    return BETree.from_group(parse_group(text))


def results_of(tree: BETree, dataset: Dataset):
    return oracle.as_counter(oracle.evaluate_group(tree.to_group(), dataset))


@pytest.fixture(scope="module")
def presidents() -> Dataset:
    """Figure 6/7's DBpedia fragment.

    ``link → Pres`` is highly selective (4 entities); ``same``, ``name``
    and ``label`` cover *every* entity (``same`` with fan-out 2), so a
    BGP anchored on ``same`` neither shrinks when coalesced nor
    amortizes its double evaluation — the unfavorable-merge regime of
    Figure 7 — while anchoring on ``link`` is the favorable regime of
    Figure 6.
    """
    d = Dataset()
    link, pres = IRI(EX + "link"), IRI(EX + "Pres")
    name, label, same = IRI(EX + "name"), IRI(EX + "label"), IRI(EX + "same")
    for i in range(300):
        p = IRI(EX + f"e{i}")
        if i < 4:
            d.add_spo(p, link, pres)
        if i % 2 == 0:
            d.add_spo(p, name, Literal(f"n{i}"))
        else:
            d.add_spo(p, label, Literal(f"n{i}"))
        d.add_spo(p, same, IRI(EX + f"ext{i}"))
        d.add_spo(p, same, IRI(EX + f"ext{i}b"))
    return d


@pytest.fixture(scope="module")
def cost_model(presidents) -> CostModel:
    return CostModel(WCOJoinEngine(TripleStore.from_dataset(presidents)))


UNION_QUERY = (
    "{ ?x <http://x/link> <http://x/Pres> ."
    "  { ?x <http://x/name> ?n } UNION { ?x <http://x/label> ?n } }"
)
OPTIONAL_QUERY = (
    "{ ?x <http://x/link> <http://x/Pres> ."
    "  OPTIONAL { ?x <http://x/same> ?s } }"
)


class TestConditions:
    def test_can_merge_positive(self):
        tree = tree_of(UNION_QUERY)
        p1, union = tree.root.children
        assert can_merge(tree.root, p1, union)

    def test_can_merge_requires_coalescable_branch(self):
        tree = tree_of(
            "{ ?x <http://x/link> <http://x/Pres> ."
            "  { ?a <http://x/name> ?n } UNION { ?a <http://x/label> ?n } }"
        )
        p1, union = tree.root.children
        assert not can_merge(tree.root, p1, union)

    def test_can_merge_rejects_empty_bgp(self):
        tree = tree_of(UNION_QUERY)
        p1, union = tree.root.children
        tree.root.children[0] = BGPNode([])
        assert not can_merge(tree.root, tree.root.children[0], union)

    def test_can_merge_blocked_by_unsafe_relocation(self):
        # P1 sits left of an OPTIONAL sharing an uncertain variable with
        # it; moving P1 into the UNION on the right would change what
        # the OPTIONAL left-joins against.
        tree = tree_of(
            "{ ?x <http://x/name> ?n ."
            "  OPTIONAL { ?x <http://x/same> ?s } "
            "  { ?x <http://x/name> ?m } UNION { ?x <http://x/label> ?m } }"
        )
        p1 = tree.root.children[0]
        union = tree.root.children[2]
        assert isinstance(union, UnionNode)
        assert not can_merge(tree.root, p1, union)

    def test_can_merge_blocked_by_optional_headed_branch(self):
        # Prefix safety: merging P1 into a branch whose group *starts*
        # with an OPTIONAL sharing unbound variables with P1 would turn
        # "P1 ⋈ (identity ⟕ X)" into "P1 ⟕ X" — not equivalent when
        # some P1 rows are incompatible with every X row (they would
        # survive bare instead of being dropped).
        tree = tree_of(
            "{ ?v1 <http://x/p> ?v2 ."
            "  { ?v1 <http://x/name> ?v2 } UNION"
            "  { OPTIONAL { ?v2 <http://x/q> ?v1 } } }"
        )
        p1, union = tree.root.children
        assert isinstance(union, UnionNode)
        assert not can_merge(tree.root, p1, union)

    def test_transform_modes_preserve_optional_headed_union_semantics(self):
        """Regression: the cost-driven transformer used to merge a BGP
        into an OPTIONAL-headed UNION branch, changing the left side of
        that branch's left join (found by the mode-equivalence property
        suite; minimized here)."""
        d = Dataset()
        s0, s1, s2 = IRI(EX + "s0"), IRI(EX + "s1"), IRI(EX + "s2")
        p0 = IRI(EX + "p0")
        d.add_spo(s0, p0, s0)
        d.add_spo(s0, p0, s2)
        d.add_spo(s0, p0, s1)
        group = parse_group(
            "{ ?v1 ?v0 ?v2 ."
            "  { ?v0 ?v0 ?v0 . ?v0 ?v0 ?v1 } UNION"
            "  { OPTIONAL { ?v0 ?v1 ?v0 } } }"
        )
        from repro.core import SparqlUOEngine

        expected = oracle.answer(SelectQuery(None, group), d)
        for mode in ("base", "tt", "cp", "full"):
            for bgp_engine in ("wco", "hashjoin"):
                engine = SparqlUOEngine.for_dataset(d, bgp_engine=bgp_engine, mode=mode)
                result = engine.execute(SelectQuery(None, group))
                assert oracle.as_counter(result) == expected, (mode, bgp_engine)

    def test_can_inject_positive(self):
        tree = tree_of(OPTIONAL_QUERY)
        p1, optional = tree.root.children
        assert can_inject(tree.root, p1, optional)

    def test_can_inject_requires_right_side(self):
        tree = tree_of(
            "{ OPTIONAL { ?x <http://x/same> ?s } ?x <http://x/link> <http://x/Pres> . }"
        )
        optional, p1 = tree.root.children
        assert isinstance(optional, OptionalNode)
        assert not can_inject(tree.root, p1, optional)

    def test_can_inject_requires_coalescable_child(self):
        tree = tree_of(
            "{ ?x <http://x/link> <http://x/Pres> . OPTIONAL { ?a <http://x/same> ?s } }"
        )
        p1, optional = tree.root.children
        assert not can_inject(tree.root, p1, optional)


class TestPerformAndUndo:
    def test_merge_action(self, presidents):
        tree = tree_of(UNION_QUERY)
        p1, union = tree.root.children
        perform_merge(tree.root, p1, union)
        # P1's slot becomes a retained empty BGP node.
        assert isinstance(tree.root.children[0], BGPNode)
        assert tree.root.children[0].is_empty()
        # Every branch now contains the coalesced patterns.
        for branch in union.branches:
            (bgp,) = branch.children
            assert len(bgp.patterns) == 2

    def test_merge_preserves_semantics(self, presidents):
        tree = tree_of(UNION_QUERY)
        before = results_of(tree, presidents)
        p1, union = tree.root.children
        perform_merge(tree.root, p1, union)
        assert results_of(tree, presidents) == before

    def test_merge_undo_restores_tree_and_identity(self, presidents):
        tree = tree_of(UNION_QUERY)
        p1, union = tree.root.children
        before = results_of(tree, presidents)
        undo = perform_merge(tree.root, p1, union)
        undo()
        assert tree.root.children[0] is p1  # identity preserved
        assert len(p1.patterns) == 1
        assert results_of(tree, presidents) == before

    def test_inject_action(self, presidents):
        tree = tree_of(OPTIONAL_QUERY)
        p1, optional = tree.root.children
        perform_inject(tree.root, p1, optional)
        # P1 keeps its occurrence…
        assert tree.root.children[0] is p1 and len(p1.patterns) == 1
        # …and the OPTIONAL's group gained the coalesced copy.
        (bgp,) = optional.group.children
        assert len(bgp.patterns) == 2

    def test_inject_preserves_semantics(self, presidents):
        tree = tree_of(OPTIONAL_QUERY)
        before = results_of(tree, presidents)
        p1, optional = tree.root.children
        perform_inject(tree.root, p1, optional)
        assert results_of(tree, presidents) == before

    def test_inject_undo(self, presidents):
        tree = tree_of(OPTIONAL_QUERY)
        p1, optional = tree.root.children
        undo = perform_inject(tree.root, p1, optional)
        undo()
        (bgp,) = optional.group.children
        assert len(bgp.patterns) == 1


class TestDecisions:
    def test_favorable_inject_has_negative_delta(self, cost_model):
        """Figure 6: selective BGP injected into a fat OPTIONAL."""
        tree = tree_of(OPTIONAL_QUERY)
        p1, optional = tree.root.children
        delta = decide_inject(cost_model, tree.root, p1, optional)
        assert delta < 0
        # decide_inject keeps profitable transformations applied.
        (bgp,) = optional.group.children
        assert len(bgp.patterns) == 2

    def test_unfavorable_merge_is_rejected(self, cost_model):
        """Figure 7: an unselective BGP should not be merged."""
        tree = tree_of(
            "{ ?x <http://x/same> ?s ."
            "  { ?x <http://x/name> ?n } UNION { ?x <http://x/label> ?n } }"
        )
        p1, union = tree.root.children
        delta = decide_merge(cost_model, tree.root, p1, union)
        probe = tree.root.children[0]
        assert probe is p1 and len(p1.patterns) == 1  # undone
        if delta < 0:
            pytest.fail("low-selectivity merge should not look profitable")

    def test_favorable_merge_has_negative_delta(self, cost_model):
        tree = tree_of(UNION_QUERY)
        p1, union = tree.root.children
        delta = decide_merge(cost_model, tree.root, p1, union)
        assert delta < 0
        # decide_merge probes and undoes; the tree must be unchanged.
        assert tree.root.children[0] is p1

    def test_decide_merge_zero_when_not_applicable(self, cost_model):
        tree = tree_of(
            "{ ?x <http://x/link> <http://x/Pres> ."
            "  { ?a <http://x/name> ?n } UNION { ?a <http://x/label> ?n } }"
        )
        p1, union = tree.root.children
        assert decide_merge(cost_model, tree.root, p1, union) == 0.0


class TestSingleLevel:
    def test_merge_applied(self, cost_model, presidents):
        tree = tree_of(UNION_QUERY)
        before = results_of(tree, presidents)
        report = single_level_transform(cost_model, tree.root)
        assert report.merges == 1
        assert results_of(tree, presidents) == before

    def test_skip_cp_equivalent(self, cost_model):
        """§6's special case: lone BGP before the operator is left to CP."""
        tree = tree_of(OPTIONAL_QUERY)
        report = single_level_transform(cost_model, tree.root, skip_cp_equivalent=True)
        assert report.transformations == 0

    def test_inject_into_multiple_optionals(self, cost_model, presidents):
        tree = tree_of(
            "{ ?x <http://x/link> <http://x/Pres> . ?x <http://x/name> ?n ."
            "  OPTIONAL { ?x <http://x/same> ?s } OPTIONAL { ?x <http://x/label> ?l } }"
        )
        before = results_of(tree, presidents)
        report = single_level_transform(cost_model, tree.root)
        assert report.injects >= 1
        assert results_of(tree, presidents) == before


class TestMultiLevel:
    def test_post_order_reaches_nested_levels(self, cost_model, presidents):
        tree = tree_of(
            "{ ?x <http://x/link> <http://x/Pres> ."
            "  OPTIONAL { ?x <http://x/name> ?n ."
            "    OPTIONAL { ?x <http://x/same> ?s } } }"
        )
        before = results_of(tree, presidents)
        report = multi_level_transform(cost_model, tree)
        assert report.considered >= 2  # outer and inner levels probed
        assert results_of(tree, presidents) == before

    def test_report_totals(self, cost_model):
        tree = tree_of(UNION_QUERY)
        report = multi_level_transform(cost_model, tree)
        assert report.transformations == report.merges + report.injects
        if report.transformations:
            assert report.total_delta < 0
