"""Ablation — is the Δ-cost gate worth it?

The paper's Figure 7 argues that transformations must be cost-gated: an
unfavorable merge duplicates a low-selectivity BGP into every UNION
branch.  This bench compares the cost-driven transformer (Algorithm 4)
against a *cost-blind* variant that applies every applicable merge and
inject, on a favorable query (selective anchor — Figure 6's regime) and
an unfavorable one (unselective anchor — Figure 7's regime).

Expected shape: identical results everywhere; cost-driven matches
cost-blind on the favorable query and avoids the penalty on the
unfavorable one.
"""

from __future__ import annotations

import pytest

from repro.bgp.interface import decode_page
from repro.core import BETree, SparqlUOEngine
from repro.core.betree import BGPNode, GroupNode, OptionalNode, UnionNode
from repro.core.evaluator import BGPBasedEvaluator, EvaluationTrace
from repro.core.joinspace import join_space
from repro.core.transform import can_inject, can_merge, perform_inject, perform_merge
from repro.sparql import parse_query

try:
    from .common import format_table, lubm_store
except ImportError:
    from common import format_table, lubm_store

#: Figure 6's regime: the anchor (a named student's memberOf) is highly
#: selective, so pushing it into the UNION/OPTIONAL helps.
FAVORABLE = """
SELECT * WHERE {
  <http://www.Department0.University0.edu/UndergraduateStudent91> ub:memberOf ?d .
  ?x ub:worksFor ?d .
  { ?x ub:teacherOf ?c } UNION { ?x ub:headOf ?d }
  OPTIONAL { ?s ub:advisor ?x }
}
"""

#: Figure 7's regime: takesCourse covers every student with fan-out 2 —
#: merging it *grows* the UNION'ed results and doubles a full scan.
UNFAVORABLE = """
SELECT * WHERE {
  ?x ub:takesCourse ?c .
  { ?x ub:emailAddress ?e } UNION { ?x ub:name ?n }
}
"""


def blind_transform(tree: BETree) -> int:
    """Apply every applicable merge/inject, post-order, no cost gate."""
    applied = 0

    def transform_level(group: GroupNode) -> None:
        nonlocal applied
        for child in group.children:
            if isinstance(child, GroupNode):
                transform_level(child)
            elif isinstance(child, UnionNode):
                for branch in child.branches:
                    transform_level(branch)
            elif isinstance(child, OptionalNode):
                transform_level(child.group)
        for p1 in list(group.children):
            if not isinstance(p1, BGPNode) or p1.is_empty():
                continue
            if p1 not in group.children:
                continue
            merged = False
            for target in group.children:
                if isinstance(target, UnionNode) and can_merge(group, p1, target):
                    perform_merge(group, p1, target)
                    applied += 1
                    merged = True
                    break
            if merged:
                continue
            for target in list(group.children):
                if isinstance(target, OptionalNode) and can_inject(group, p1, target):
                    perform_inject(group, p1, target)
                    applied += 1

    transform_level(tree.root)
    return applied


def run_blind(query_text: str):
    store = lubm_store()
    engine = SparqlUOEngine(store, bgp_engine="wco", mode="base")
    parsed = parse_query(query_text)
    tree = BETree.from_query(parsed)
    count = blind_transform(tree)
    trace = EvaluationTrace()
    evaluator = BGPBasedEvaluator(engine.bgp_engine)
    solutions = evaluator.evaluate(tree, trace)
    return solutions, join_space(tree, trace), count


def run_cost_driven(query_text: str):
    store = lubm_store()
    engine = SparqlUOEngine(store, bgp_engine="wco", mode="tt")
    result = engine.execute(query_text)
    return result


@pytest.mark.parametrize(
    "label,text", [("favorable", FAVORABLE), ("unfavorable", UNFAVORABLE)]
)
@pytest.mark.benchmark(group="ablation-costmodel")
def test_ablation_cost_driven(benchmark, label, text):
    engine = SparqlUOEngine(lubm_store(), bgp_engine="wco", mode="tt")
    parsed = parse_query(text)
    result = benchmark.pedantic(engine.execute, args=(parsed,), rounds=1, iterations=1)
    benchmark.extra_info["join_space"] = result.join_space
    benchmark.extra_info["transformations"] = result.transform_report.transformations


@pytest.mark.parametrize(
    "label,text", [("favorable", FAVORABLE), ("unfavorable", UNFAVORABLE)]
)
@pytest.mark.benchmark(group="ablation-costmodel")
def test_ablation_cost_blind(benchmark, label, text):
    def run():
        return run_blind(text)

    solutions, js, count = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["join_space"] = js
    benchmark.extra_info["transformations"] = count


def test_ablation_semantics_agree():
    for text in (FAVORABLE, UNFAVORABLE):
        blind_solutions, _, _ = run_blind(text)
        cost_driven = run_cost_driven(text)
        engine = SparqlUOEngine(lubm_store(), bgp_engine="wco", mode="base")
        base = engine.execute(text)
        decoded = decode_page(engine.store, blind_solutions, blind_solutions.schema)
        assert decoded.project(base.variables) == base.solutions
        assert cost_driven.solutions == base.solutions


def test_ablation_gate_rejects_unfavorable_merge():
    """The Δ-cost gate must refuse the Figure 7 merge that the blind
    transformer happily applies."""
    _, _, blind_count = run_blind(UNFAVORABLE)
    cost_driven = run_cost_driven(UNFAVORABLE)
    assert blind_count >= 1
    assert cost_driven.transform_report.merges == 0


if __name__ == "__main__":
    rows = []
    for label, text in (("favorable", FAVORABLE), ("unfavorable", UNFAVORABLE)):
        cost_driven = run_cost_driven(text)
        _, blind_js, blind_count = run_blind(text)
        rows.append(
            [
                label,
                cost_driven.transform_report.transformations,
                f"{cost_driven.join_space:.3g}",
                blind_count,
                f"{blind_js:.3g}",
            ]
        )
    print("Ablation: cost-driven vs cost-blind transformation (LUBM)")
    print(
        format_table(
            ["Query", "gated #transforms", "gated JS", "blind #transforms", "blind JS"],
            rows,
        )
    )
