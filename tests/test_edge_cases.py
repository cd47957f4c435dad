"""Cross-module edge cases not covered by the per-module suites."""

import pytest

from repro.baselines import LBREngine
from repro.bgp import WCOJoinEngine
from repro.core import (
    BETree,
    CostModel,
    SparqlUOEngine,
    multi_level_transform,
    validate_tree,
)
from repro.datasets import DBPEDIA_QUERIES, generate_dbpedia
from repro.rdf import Dataset, IRI, Triple
from repro.sparql import parse_group, parse_query
from repro.storage import TripleStore

from . import oracle

EX = "http://example.org/"


class TestNaryUnionTransforms:
    """Theorem 1 'trivially extends' to n-ary UNIONs — verify it does."""

    def fixture_tree(self):
        return BETree.from_group(
            parse_group(
                "{ ?x <http://example.org/headOf> ?d "
                "  { ?x <http://example.org/name> ?n } "
                "  UNION { ?x <http://example.org/type> ?n } "
                "  UNION { ?x <http://example.org/teacherOf> ?n } }"
            )
        )

    def test_merge_reaches_all_three_branches(self, university_store):
        from repro.core.transform import can_merge, perform_merge

        tree = self.fixture_tree()
        p1, union = tree.root.children
        assert can_merge(tree.root, p1, union)
        perform_merge(tree.root, p1, union)
        for branch in union.branches:
            assert any(len(b.patterns) == 2 for b in branch.bgp_children())
        validate_tree(tree)

    def test_nary_semantics_preserved(self, university_store, university_dataset):
        tree = self.fixture_tree()
        before = oracle.evaluate_group(tree.to_group(), university_dataset)
        multi_level_transform(CostModel(WCOJoinEngine(university_store)), tree)
        after = oracle.evaluate_group(tree.to_group(), university_dataset)
        assert oracle.as_counter(before) == oracle.as_counter(after)


class TestRepeatedTransformations:
    """Transforming an already-transformed tree must be a no-op-or-safe."""

    def test_idempotent_on_benchmark_query(self, university_store, university_dataset):
        text = (
            "{ ?x <http://example.org/headOf> ?d "
            "  { ?x <http://example.org/name> ?n } UNION { ?x <http://example.org/type> ?n } "
            "  OPTIONAL { ?s <http://example.org/advisor> ?x } }"
        )
        tree = BETree.from_group(parse_group(text))
        model = CostModel(WCOJoinEngine(university_store))
        multi_level_transform(model, tree)
        first = oracle.evaluate_group(tree.to_group(), university_dataset)
        report = multi_level_transform(model, tree)
        second = oracle.evaluate_group(tree.to_group(), university_dataset)
        assert oracle.as_counter(first) == oracle.as_counter(second)
        validate_tree(tree)
        # The second pass may fire extra injects, but never invalidates.
        assert report.total_delta <= 0


class TestStoreMutationMidSession:
    def test_results_reflect_inserts(self):
        store = TripleStore()
        p = IRI(EX + "p")
        store.add(Triple(IRI(EX + "a"), p, IRI(EX + "b")))
        engine = SparqlUOEngine(store, mode="full")
        query = f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }}"
        assert len(engine.execute(query)) == 1
        store.add(Triple(IRI(EX + "c"), p, IRI(EX + "d")))
        assert len(engine.execute(query)) == 2

    def test_statistics_refresh_after_insert(self):
        store = TripleStore()
        p = IRI(EX + "p")
        store.add(Triple(IRI(EX + "a"), p, IRI(EX + "b")))
        assert store.statistics.for_predicate(store.lookup(p)).triples == 1
        store.add(Triple(IRI(EX + "a"), p, IRI(EX + "c")))
        assert store.statistics.for_predicate(store.lookup(p)).triples == 2


class TestLBROnDBpedia:
    @pytest.fixture(scope="class")
    def store(self):
        return TripleStore.from_dataset(generate_dbpedia(articles=400))

    @pytest.mark.parametrize("name", ["q2.1", "q2.2", "q2.3", "q2.4", "q2.5", "q2.6"])
    def test_lbr_matches_full_on_dbpedia(self, store, name):
        full = SparqlUOEngine(store, mode="full").execute(DBPEDIA_QUERIES[name])
        lbr = LBREngine(store).execute(DBPEDIA_QUERIES[name])
        assert lbr.solutions == full.solutions, name


class TestOptionalFirstGroupPruning:
    """Regression: candidates must not prune an OPTIONAL that
    left-joins against the identity (a nested group *starting* with
    OPTIONAL).  Pruning with the enclosing context's candidates could
    flip the optional side from nonempty — rows that merely fail to
    join later — to empty, and ⟕ then wrongly kept the bare row
    (found by the differential property tests on mode=full)."""

    QUERY = (
        "SELECT * WHERE { ?v1 ?v0 ?v1 . "
        "{ OPTIONAL { ?v0 ?v1 ?v2 } OPTIONAL { ?v0 ?v0 ?v0 } } }"
    )

    @pytest.fixture
    def tiny_dataset(self):
        d = Dataset()
        d.add_spo(IRI("http://x.test/s0"), IRI("http://x.test/p0"), IRI("http://x.test/s0"))
        d.add_spo(IRI("http://x.test/s1"), IRI("http://x.test/p1"), IRI("http://x.test/o1"))
        return d

    @pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
    @pytest.mark.parametrize("mode", ["base", "tt", "cp", "full"])
    def test_matches_reference_in_every_mode(self, tiny_dataset, bgp_engine, mode):
        reference = oracle.answer(parse_query(self.QUERY), tiny_dataset)
        engine = SparqlUOEngine.for_dataset(tiny_dataset, bgp_engine=bgp_engine, mode=mode)
        assert oracle.as_counter(engine.execute(self.QUERY)) == reference

    def test_pruning_still_fires_with_real_left_rows(
        self, university_store, university_dataset
    ):
        # The fix must not disable §6's pruning where it is sound: an
        # OPTIONAL evaluated after actual left rows still receives
        # candidates from them.
        engine = SparqlUOEngine(university_store, bgp_engine="wco", mode="full")
        query = (
            f"SELECT * WHERE {{ <{EX}prof0_0> <{EX}teacherOf> ?y "
            f"OPTIONAL {{ ?z <{EX}takesCourse> ?y . ?z <{EX}name> ?n }} }}"
        )
        result = engine.execute(query)
        reference = oracle.answer(parse_query(query), university_dataset)
        assert oracle.as_counter(result) == reference


class TestDegenerateQueries:
    def test_single_ground_triple_query(self, university_store):
        engine = SparqlUOEngine(university_store, mode="full")
        hit = engine.execute(
            f"SELECT * WHERE {{ <{EX}prof0_0> <{EX}worksFor> <{EX}dept0> }}"
        )
        assert len(hit) == 1 and list(hit) == [{}]
        miss = engine.execute(
            f"SELECT * WHERE {{ <{EX}prof0_0> <{EX}worksFor> <{EX}dept1> }}"
        )
        assert len(miss) == 0

    def test_union_of_identical_branches_doubles(self, university_store):
        engine = SparqlUOEngine(university_store, mode="full")
        single = engine.execute(f"SELECT * WHERE {{ ?x <{EX}headOf> ?d }}")
        doubled = engine.execute(
            f"SELECT * WHERE {{ {{ ?x <{EX}headOf> ?d }} UNION {{ ?x <{EX}headOf> ?d }} }}"
        )
        assert len(doubled) == 2 * len(single)

    def test_optional_of_empty_group(self, university_store):
        engine = SparqlUOEngine(university_store, mode="full")
        result = engine.execute(
            f"SELECT * WHERE {{ ?x <{EX}headOf> ?d OPTIONAL {{ }} }}"
        )
        assert len(result) == 3

    def test_deeply_nested_groups(self, university_store):
        engine = SparqlUOEngine(university_store, mode="full")
        result = engine.execute(
            f"SELECT * WHERE {{ {{ {{ {{ ?x <{EX}headOf> ?d }} }} }} }}"
        )
        assert len(result) == 3

    def test_projection_of_never_bound_variable(self, university_store):
        engine = SparqlUOEngine(university_store, mode="full")
        result = engine.execute(f"SELECT ?ghost WHERE {{ ?x <{EX}headOf> ?d }}")
        assert len(result) == 3
        assert all(row == {} for row in result)

    def test_empty_store(self):
        engine = SparqlUOEngine(TripleStore(), mode="full")
        assert len(engine.execute("SELECT * WHERE { ?s ?p ?o }")) == 0

    def test_query_against_empty_store_with_optional(self):
        engine = SparqlUOEngine(TripleStore(), mode="full")
        result = engine.execute(
            "SELECT * WHERE { OPTIONAL { ?s ?p ?o } }"
        )
        assert len(result) == 1  # the identity solution survives
