"""BGP-based query evaluation — Algorithm 1, with §6's candidate pruning
and FILTER pushdown.

The evaluator walks a BE-tree's root group left to right, accumulating a
bag ``r`` of id-level solutions:

- BGP child          → ``r ← r ⋈ EvaluateBGP(D, bgp, cand)``
- group child        → ``r ← r ⋈ BGPBasedEvaluation(D, child, r)``
- UNION child        → ``r ← r ⋈ (∪bag over branches, each given r)``
- OPTIONAL child     → ``r ← r ⟕ BGPBasedEvaluation(D, child, r)``
- FILTER children    → group-scoped constraints, applied as early as is
  semantics-preserving (see below), at the latest when the group's last
  operator child has been evaluated.

An empty bag ends its group: once ``r`` is a real empty bag (not the
identity, which is one empty mapping), the remaining operator children
are not evaluated and ``r`` is returned — ∅ ⋈ X = ∅ ⟕ X = ∅ and every
FILTER of ∅ is ∅.  The ``operators_skipped_empty`` exec counter counts
the children skipped.  Consequently every candidate bag handed to a
child is either absent or non-empty.

Candidate pruning follows the paper's modification of Algorithm 1: the
*current* results flow into nested structures as candidates, while BGP
children are restricted by the candidates passed in from the enclosing
context.  When the current results are still the identity (nothing
evaluated yet at this level) the incoming candidates are forwarded to
BGP / group / UNION children, so pruning crosses levels — the
behaviour §6 highlights for nested OPTIONALs.  OPTIONAL children are
the exception: an OPTIONAL left-joining against the identity must see
its full optional side (pruning could flip it from nonempty — rows
that merely fail to join later — to empty, and ⟕ would then wrongly
keep the bare left row), so they receive candidates only from actual
current results.

FILTER pushdown (the only pipeline; ``tests/oracle.py`` and
:func:`repro.sparql.semantics.execute_query` are the post-filter
references it is tested against):

- a filter whose variables are all covered by a sibling BGP node is
  evaluated *inside* that BGP's scan/join pipeline (every solution of
  the whole group takes those variables' values from the BGP's rows via
  join compatibility, so filtering the BGP is filtering the group);
- a filter whose variables are *certainly bound* in the accumulated
  ``r`` (bound in every row) is applied immediately — later joins and
  left joins cannot change a certainly-bound value, so early and
  group-end application coincide;
- remaining filters run at group end with full SPARQL error semantics
  (unbound variable ⇒ error ⇒ row dropped, unless BOUND / || rescue).

Early filtering also shrinks the candidate bags flowing into nested
structures, compounding with §6's pruning.

The evaluator also records every BGP node's actual result size into an
:class:`EvaluationTrace`, from which the join-space metric JS (§7.1,
Figure 11) is computed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional as Opt, Sequence

from ..bgp.filters import CompiledFilter
from ..bgp.interface import BGPEngine
from ..obs import trace as _trace
from ..sparql.bags import Bag, join, left_join, union
from .betree import BETree, BGPNode, FilterNode, GroupNode, OptionalNode, UnionNode
from .candidates import CandidatePolicy
from .metrics import EXEC_COUNTERS

__all__ = ["EvaluationTrace", "BGPBasedEvaluator"]


class EvaluationTrace:
    """Per-node observations collected during one evaluation."""

    def __init__(self):
        #: node_id → actual result size of each evaluated BGP node.
        self.bgp_result_sizes: Dict[int, int] = {}
        #: Number of BGP evaluations that were candidate-restricted.
        self.pruned_evaluations: int = 0
        #: Number of BGP evaluations total.
        self.bgp_evaluations: int = 0
        #: Number of filters evaluated inside BGP pipelines (pushdown).
        self.pushed_filters: int = 0

    def record(self, node_id: int, size: int, pruned: bool) -> None:
        self.bgp_result_sizes[node_id] = size
        self.bgp_evaluations += 1
        if pruned:
            self.pruned_evaluations += 1

    def __repr__(self) -> str:
        return (
            f"EvaluationTrace({self.bgp_evaluations} BGP evals, "
            f"{self.pruned_evaluations} pruned, "
            f"{self.pushed_filters} filters pushed)"
        )


class BGPBasedEvaluator:
    """Algorithm 1 over a BE-tree, parameterized by engine and policy."""

    def __init__(self, engine: BGPEngine, policy: Opt[CandidatePolicy] = None):
        self.engine = engine
        self.policy = policy or CandidatePolicy()

    def evaluate(
        self,
        tree: BETree,
        trace: Opt[EvaluationTrace] = None,
        limit_hint: Opt[int] = None,
        checkpoint: Opt[Callable[[], None]] = None,
    ) -> Bag:
        """Evaluate the whole tree; returns an id-level solution bag.

        ``limit_hint`` (offset+limit of a modifier-free LIMIT query)
        allows the root group to stop producing solutions early; it is
        only forwarded where truncating is sound.

        ``checkpoint`` is the cooperative cancellation hook: a zero-arg
        callable invoked between operator evaluations and, amortized,
        inside the BGP engines' scan loops.  Raising from it (the
        deadline hook raises :class:`~repro.sparql.errors.QueryTimeoutError`)
        aborts the evaluation at the next check.
        """
        return self.evaluate_group(
            tree.root, None, trace, limit_hint=limit_hint, checkpoint=checkpoint
        )

    def evaluate_group(
        self,
        group: GroupNode,
        cand: Opt[Bag],
        trace: Opt[EvaluationTrace] = None,
        limit_hint: Opt[int] = None,
        checkpoint: Opt[Callable[[], None]] = None,
    ) -> Bag:
        """BGPBasedEvaluation(D, T(group), cand) — Algorithm 1."""
        store = self.engine.store
        pending: List[CompiledFilter] = [
            CompiledFilter(child.expression, store)
            for child in group.children
            if isinstance(child, FilterNode)
        ]
        operators = [c for c in group.children if not isinstance(c, FilterNode)]
        r: Opt[Bag] = None  # None ⇔ the join identity (nothing yet)
        tracer = _trace.ACTIVE
        for position, child in enumerate(operators):
            if r is not None and not len(r):
                # ∅ ⋈ X = ∅ ⟕ X = ∅ and every FILTER of ∅ is ∅: the
                # rest of the group cannot produce a row.
                skipped = len(operators) - position
                EXEC_COUNTERS.operators_skipped_empty += skipped
                if tracer is not None:
                    tracer.annotate(skipped=skipped)
                return r
            if checkpoint is not None:
                checkpoint()
            # Nested structures receive the *current* results as
            # candidates (the paper's Lines 7/9/15/19); BGP children
            # receive the candidates passed in from the enclosing
            # context (Line 11).  While r is still the identity, the
            # incoming candidates flow through, carrying pruning across
            # levels (§6's nested-OPTIONAL discussion).
            child_cand = r if r is not None else cand
            if isinstance(child, BGPNode):
                pushed: Sequence[CompiledFilter] = ()
                bgp_limit: Opt[int] = None
                if pending and not child.is_empty():
                    bgp_vars = child.variables()
                    pushed = [f for f in pending if f.variables <= bgp_vars]
                if (
                    limit_hint is not None
                    and r is None
                    and position == len(operators) - 1
                    and len(pushed) == len(pending)
                ):
                    # The BGP alone produces this group's solutions and
                    # every group filter runs inside it, so its output
                    # rows are final — production can stop at the hint.
                    bgp_limit = limit_hint
                if tracer is not None:
                    tracer.begin(
                        "scan", bgp=child.node_id, pushed_filters=len(pushed)
                    )
                evaluated = self._evaluate_bgp(
                    child, cand, trace, pushed, bgp_limit, checkpoint
                )
                if tracer is not None:
                    tracer.end(rows=len(evaluated))
                if pushed:
                    pending = [f for f in pending if f not in pushed]
                    if trace is not None:
                        trace.pushed_filters += len(pushed)
                r = self._join(r, evaluated, tracer, checkpoint)
            elif isinstance(child, GroupNode):
                if tracer is not None:
                    tracer.begin("group")
                evaluated = self.evaluate_group(
                    child, child_cand, trace, checkpoint=checkpoint
                )
                if tracer is not None:
                    tracer.end(rows=len(evaluated))
                r = self._join(r, evaluated, tracer, checkpoint)
            elif isinstance(child, UnionNode):
                if tracer is not None:
                    tracer.begin("union", branches=len(child.branches))
                u = Bag.empty()
                for branch in child.branches:
                    u = union(
                        u,
                        self.evaluate_group(
                            branch, child_cand, trace, checkpoint=checkpoint
                        ),
                    )
                EXEC_COUNTERS.join_rows += len(u)
                if tracer is not None:
                    tracer.end(rows=len(u))
                r = self._join(r, u, tracer, checkpoint)
            elif isinstance(child, OptionalNode):
                # Candidates are forwarded only when actual left rows
                # exist at this level (r, not child_cand): an OPTIONAL
                # left-joining against the *identity* must see its full
                # optional side.  Pruning it with the enclosing
                # context's candidates can flip a nonempty side — whose
                # rows merely fail to join *later* — into an empty one,
                # and ⟕ then wrongly keeps the bare left row ("no
                # partner" and "no compatible partner" differ exactly
                # when the left row is the empty mapping).
                if tracer is not None:
                    tracer.begin("optional")
                o = self.evaluate_group(child.group, r, trace, checkpoint=checkpoint)
                left = r if r is not None else Bag.identity()
                r = left_join(left, o, checkpoint=checkpoint)
                EXEC_COUNTERS.join_rows += len(r)
                if tracer is not None:
                    tracer.end(rows=len(r))
            else:  # pragma: no cover - tree constructor validates
                raise TypeError(f"not a BE-tree node: {child!r}")
            if pending and r is not None:
                pending, r = self._apply_certain(pending, r)
        if r is None:
            r = Bag.identity()
        for compiled in pending:
            r = compiled.apply(r)
        return r

    @staticmethod
    def _join(
        r: Opt[Bag],
        evaluated: Bag,
        tracer: "Opt[_trace.Tracer]",
        checkpoint: Opt[Callable[[], None]],
    ) -> Bag:
        """``r ⋈ evaluated`` with a trace span; identity passes through."""
        if r is None:
            return evaluated
        if tracer is not None:
            tracer.begin("join", left=len(r), right=len(evaluated))
        r = join(r, evaluated, checkpoint=checkpoint)
        EXEC_COUNTERS.join_rows += len(r)
        if tracer is not None:
            tracer.end(rows=len(r))
        return r

    @staticmethod
    def _apply_certain(pending: List[CompiledFilter], r: Bag):
        """Apply every pending filter whose variables are certainly bound
        in ``r`` — sound early, and it shrinks candidate bags."""
        if not len(r):
            return pending, r  # empty stays empty; filters are no-ops
        certain = r.certain_variables()
        still: List[CompiledFilter] = []
        for compiled in pending:
            if compiled.variables <= certain:
                r = compiled.apply(r)
            else:
                still.append(compiled)
        return still, r

    # ------------------------------------------------------------------
    # BGP leaf evaluation with candidate pruning
    # ------------------------------------------------------------------
    def _evaluate_bgp(
        self,
        node: BGPNode,
        cand: Opt[Bag],
        trace: Opt[EvaluationTrace],
        filters: Sequence[CompiledFilter] = (),
        limit: Opt[int] = None,
        checkpoint: Opt[Callable[[], None]] = None,
    ) -> Bag:
        if node.is_empty():
            return Bag.identity()
        candidates = self.policy.candidates_for(self.engine, node.patterns, cand)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.annotate(pruned=candidates is not None)
        result = self.engine.evaluate(
            node.patterns,
            candidates,
            filters=filters or None,
            limit=limit,
            checkpoint=checkpoint,
        )
        if trace is not None:
            trace.record(node.node_id, len(result), candidates is not None)
        return result
