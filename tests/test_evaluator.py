"""Unit tests for the BGP-based evaluator (Algorithm 1 + pruning)."""

import pytest

from repro.bgp import HashJoinEngine, WCOJoinEngine
from repro.bgp.interface import decode_page
from repro.core import BETree, CandidatePolicy, ThresholdMode
from repro.core.evaluator import BGPBasedEvaluator, EvaluationTrace
from repro.sparql import parse_group
from repro.storage import TripleStore

from . import oracle

QUERIES = [
    "{ ?x <http://example.org/worksFor> ?d }",
    "{ ?x <http://example.org/worksFor> ?d . ?x <http://example.org/headOf> ?d }",
    "{ { ?x <http://example.org/headOf> ?d } UNION { ?x <http://example.org/worksFor> ?d } }",
    "{ ?x <http://example.org/worksFor> ?d OPTIONAL { ?s <http://example.org/advisor> ?x } }",
    "{ OPTIONAL { ?x <http://example.org/worksFor> ?d } }",
    "{ ?x <http://example.org/headOf> ?d { ?s <http://example.org/advisor> ?x } }",
    "{ ?x <http://example.org/worksFor> ?d OPTIONAL { ?s <http://example.org/advisor> ?x "
    "  OPTIONAL { ?s <http://example.org/takesCourse> ?c } } }",
    "{ ?x <http://example.org/headOf> ?d "
    "  { ?x <http://example.org/type> ?t } UNION { ?x <http://example.org/name> ?n } "
    "  OPTIONAL { ?x <http://example.org/teacherOf> ?c } }",
    "{ }",
]


@pytest.fixture(params=["wco", "hashjoin"])
def engine(request, university_store):
    cls = WCOJoinEngine if request.param == "wco" else HashJoinEngine
    return cls(university_store)


def reference(text, dataset):
    return oracle.evaluate_group(parse_group(text), dataset)


class TestAlgorithm1:
    @pytest.mark.parametrize("text", QUERIES)
    def test_matches_reference(self, engine, university_dataset, text):
        tree = BETree.from_group(parse_group(text))
        evaluator = BGPBasedEvaluator(engine)
        solutions = evaluator.evaluate(tree)
        result = decode_page(engine.store, solutions, solutions.schema)
        names = sorted(result.variables())
        expected = [
            {v: mu[v] for v in names if v in mu}
            for mu in reference(text, university_dataset)
        ]
        assert oracle.as_counter(result.project(names)) == oracle.as_counter(expected)

    @pytest.mark.parametrize("text", QUERIES)
    def test_pruning_preserves_results(self, engine, university_dataset, text):
        tree = BETree.from_group(parse_group(text))
        plain = BGPBasedEvaluator(engine).evaluate(tree)
        pruned = BGPBasedEvaluator(
            engine, CandidatePolicy(ThresholdMode.ADAPTIVE)
        ).evaluate(tree)
        assert plain == pruned

    def test_empty_tree_is_identity(self, engine):
        tree = BETree.from_group(parse_group("{ }"))
        result = BGPBasedEvaluator(engine).evaluate(tree)
        assert len(result) == 1 and list(result) == [{}]


class TestTrace:
    def test_trace_records_bgp_sizes(self, engine):
        tree = BETree.from_group(parse_group("{ ?x <http://example.org/worksFor> ?d }"))
        trace = EvaluationTrace()
        BGPBasedEvaluator(engine).evaluate(tree, trace)
        assert trace.bgp_evaluations == 1
        (size,) = trace.bgp_result_sizes.values()
        assert size == 12  # 3 departments × 4 professors

    def test_trace_counts_pruned_evaluations(self, engine):
        text = (
            "{ ?x <http://example.org/headOf> ?d "
            "OPTIONAL { ?x <http://example.org/teacherOf> ?c } }"
        )
        tree = BETree.from_group(parse_group(text))
        trace = EvaluationTrace()
        policy = CandidatePolicy(ThresholdMode.ADAPTIVE)
        BGPBasedEvaluator(engine, policy).evaluate(tree, trace)
        # headOf yields 3 heads < teacherOf's 12 → the optional BGP is pruned.
        assert trace.pruned_evaluations == 1

    def test_pruning_shrinks_observed_results(self, engine):
        text = (
            "{ ?x <http://example.org/headOf> ?d "
            "OPTIONAL { ?x <http://example.org/teacherOf> ?c } }"
        )
        tree = BETree.from_group(parse_group(text))
        plain_trace = EvaluationTrace()
        BGPBasedEvaluator(engine).evaluate(tree, plain_trace)
        pruned_trace = EvaluationTrace()
        BGPBasedEvaluator(engine, CandidatePolicy(ThresholdMode.ADAPTIVE)).evaluate(
            tree, pruned_trace
        )
        assert sum(pruned_trace.bgp_result_sizes.values()) < sum(
            plain_trace.bgp_result_sizes.values()
        )

    def test_candidates_cross_levels(self, engine):
        """§6: a selective BGP's results prune a nested OPTIONAL's BGP
        two levels down, which tree transformation alone cannot reach."""
        text = (
            "{ ?x <http://example.org/headOf> ?d "
            "OPTIONAL { ?s <http://example.org/advisor> ?x "
            "  OPTIONAL { ?x <http://example.org/teacherOf> ?c } } }"
        )
        tree = BETree.from_group(parse_group(text))
        trace = EvaluationTrace()
        BGPBasedEvaluator(engine, CandidatePolicy(ThresholdMode.ADAPTIVE)).evaluate(
            tree, trace
        )
        assert trace.pruned_evaluations >= 2


class TestIdentityJoin:
    """Merges leave empty BGPs behind, and each evaluates to the
    identity bag; joining with it must hand the left bag back untouched
    rather than rebuild its rows."""

    @pytest.fixture(scope="class")
    def small_lubm(self):
        from repro.datasets import generate_lubm
        from repro.rdf import Triple

        dataset = generate_lubm(
            universities=1, departments_university0=1, departments_other=1,
            faculty_per_department=3,
        )
        # Sorted triple order fixes every term id, and with them the plan.
        return dataset, TripleStore.from_triples(sorted(dataset, key=Triple.n3))

    @pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
    def test_q11_skips_identity_joins(self, small_lubm, bgp_engine):
        from repro.core.engine import SparqlUOEngine
        from repro.datasets.queries import LUBM_QUERIES
        from repro.sparql import parse_query

        dataset, store = small_lubm
        text = LUBM_QUERIES["q1.1"]
        result = SparqlUOEngine(store, bgp_engine=bgp_engine, mode="full").execute(text)
        # Two joins of 350 rows with the identity were counted before.
        assert result.exec_counters["join_rows"] == 641
        expected = oracle.execute(parse_query(text), dataset).rows
        assert oracle.as_counter([dict(mu) for mu in result]) == oracle.as_counter(expected)
