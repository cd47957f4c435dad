"""SparqlUOEngine — the library's main entry point.

Ties the whole pipeline together, parameterized exactly like the
paper's §7.1 experimental matrix:

=========  ===================================  =========================
mode       plan-time (BE-tree transformation)   query-time (cand. pruning)
=========  ===================================  =========================
``base``   none                                 off
``tt``     cost-driven (Algorithm 4)            off
``cp``     none                                 fixed threshold (1 %)
``full``   cost-driven, CP-equivalent skipped   adaptive threshold
=========  ===================================  =========================

Typical use::

    from repro import Dataset, SparqlUOEngine
    engine = SparqlUOEngine.for_dataset(dataset, bgp_engine="wco", mode="full")
    result = engine.execute("SELECT ?x WHERE { ... }")
    for row in result:
        print(row)
"""

from __future__ import annotations

import enum
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional as Opt, Tuple, Union as U

from .. import faults as _faults
from ..obs import trace as _trace
from ..obs.counters import EXEC_COUNTERS
from ..obs.templates import lift_template
from ..bgp.hashjoin import HashJoinEngine
from ..bgp.interface import BGPEngine, decode_ids, decode_page
from ..bgp.wco import WCOJoinEngine
from ..rdf.dataset import Dataset
from ..rdf.terms import Term, Variable
from ..rdf.triple import Triple, TriplePattern
from ..sparql.algebra import (
    DeleteData,
    InsertData,
    ModifyUpdate,
    SelectQuery,
    UpdateRequest,
    pattern_variables,
)
from ..sparql.errors import QueryTimeoutError
from ..sparql.bags import UNBOUND, Bag, Mapping
from ..sparql.parser import parse_query, parse_update
from ..sparql.semantics import distinct_bag, order_bag
from ..storage.store import TripleStore
from .betree import BETree
from .candidates import CandidatePolicy, ThresholdMode
from .cost import CostModel
from .evaluator import BGPBasedEvaluator, EvaluationTrace
from .grouping import grouped_bag
from .joinspace import join_space
from .options import EngineOptions, resolve_options
from .transform import TransformReport, multi_level_transform

__all__ = [
    "EngineOptions",
    "ExecutionMode",
    "PreparedQuery",
    "QueryResult",
    "SparqlUOEngine",
    "UpdateResult",
]

_BGP_ENGINES = {
    "wco": WCOJoinEngine,
    "hashjoin": HashJoinEngine,
}


class ExecutionMode(enum.Enum):
    """The four strategies of the paper's §7.1 evaluation."""

    BASE = "base"
    TT = "tt"
    CP = "cp"
    FULL = "full"

    @property
    def transforms(self) -> bool:
        return self in (ExecutionMode.TT, ExecutionMode.FULL)

    @property
    def prunes(self) -> bool:
        return self in (ExecutionMode.CP, ExecutionMode.FULL)


@dataclass(frozen=True)
class PreparedQuery:
    """A parsed + planned query, ready to execute."""

    query: SelectQuery
    tree: BETree
    report: Opt[TransformReport]
    #: 0.0 on a plan-cache hit (nothing was parsed or transformed).
    parse_seconds: float
    transform_seconds: float
    #: Constant-lifted template ({"hash", "text", "constants"}) or None
    #: when the query could not be lifted.  Cached with the plan.
    template: Opt[dict] = None

    @property
    def cached(self) -> bool:
        """True when this plan came straight from the plan cache."""
        return self.parse_seconds == 0.0 and self.transform_seconds == 0.0


class QueryResult:
    """The outcome of one query execution, with full instrumentation."""

    def __init__(
        self,
        solutions: Bag,
        variables: List[str],
        tree: BETree,
        trace: EvaluationTrace,
        transform_report: Opt[TransformReport],
        parse_seconds: float,
        transform_seconds: float,
        execute_seconds: float,
        exec_counters: Opt[dict] = None,
        template: Opt[dict] = None,
        query: Opt[SelectQuery] = None,
    ):
        #: The answer as an id-level
        #: :class:`~repro.sparql.bags.EncodedPage` (term rows built on
        #: first read), ORDER BY and GROUP BY answers included.
        self.solutions = solutions
        self.variables = variables
        self.tree = tree
        self.trace = trace
        self.transform_report = transform_report
        self.parse_seconds = parse_seconds
        self.transform_seconds = transform_seconds
        self.execute_seconds = execute_seconds
        #: Physical execution-path counters accumulated by this query
        #: (merge vs hash joins, galloping, candidate intersections —
        #: see :data:`repro.obs.counters.EXEC_COUNTER_FIELDS`).
        self.exec_counters: dict = exec_counters or {}
        #: The query's constant-lifted template (see
        #: :func:`repro.obs.templates.lift_template`), or None.
        self.template: Opt[dict] = template
        #: The parsed query that ran (the plan cache's copy on a hit).
        self.query = query

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self.solutions)

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.transform_seconds + self.execute_seconds

    @property
    def join_space(self) -> float:
        """JS of this execution (Figure 11's quantitative metric)."""
        return join_space(self.tree, self.trace)

    def __repr__(self) -> str:
        return (
            f"QueryResult({len(self)} solutions in "
            f"{self.total_seconds * 1000:.1f} ms)"
        )


class UpdateResult:
    """The outcome of one SPARQL 1.1 UPDATE request."""

    __slots__ = (
        "added",
        "removed",
        "operations",
        "generation",
        "parse_seconds",
        "apply_seconds",
        "requested",
    )

    def __init__(
        self,
        added: int,
        removed: int,
        operations: int,
        generation: int,
        parse_seconds: float,
        apply_seconds: float,
        requested: Tuple[Triple, ...] = (),
    ):
        #: Triples actually inserted (net of duplicates already present).
        self.added = added
        #: Triples actually removed (net of absent delete targets).
        self.removed = removed
        self.operations = operations
        #: The store's write generation after the request committed.
        self.generation = generation
        self.parse_seconds = parse_seconds
        self.apply_seconds = apply_seconds
        #: Every ground triple the operations asked to insert or delete:
        #: a DATA form's own triples, a DELETE/INSERT WHERE's
        #: instantiations.  A superset of what actually changed, so
        #: no triple pattern matching none of them can see the change
        #: (the result cache's revalidation relies on this).
        self.requested = requested

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.apply_seconds

    def __repr__(self) -> str:
        return (
            f"UpdateResult(+{self.added} -{self.removed} over "
            f"{self.operations} op(s), generation={self.generation})"
        )


class SparqlUOEngine:
    """BGP-based, cost-driven SPARQL-UO query engine (the paper's system)."""

    def __init__(
        self,
        store: TripleStore,
        *,
        options: Opt[EngineOptions] = None,
        **kwargs,
    ):
        """Build an engine over ``store``.

        Configuration lives in one :class:`EngineOptions` value —
        passed whole via ``options=``, as per-knob keyword overrides
        (``mode="cp"``, ``bgp_engine="hashjoin"``, …), or both
        (keywords win).
        """
        options = resolve_options(options, kwargs)
        #: The resolved configuration (frozen; shared safely).
        self.options = options
        self.store = store
        bgp_engine = options.bgp_engine
        if isinstance(bgp_engine, str):
            try:
                bgp_engine = _BGP_ENGINES[bgp_engine](store)
            except KeyError:
                raise ValueError(
                    f"unknown BGP engine {bgp_engine!r}; "
                    f"choose from {sorted(_BGP_ENGINES)}"
                ) from None
        self.bgp_engine: BGPEngine = bgp_engine
        mode = options.mode
        self.mode = ExecutionMode(mode) if not isinstance(mode, ExecutionMode) else mode
        self.cost_model = CostModel(self.bgp_engine)
        self.policy = self._make_policy(options.fixed_fraction)
        self.evaluator = BGPBasedEvaluator(self.bgp_engine, self.policy)
        #: parsed-query → BE-tree plan cache, keyed on query text and
        #: invalidated by the store's plan token (write generation plus
        #: cheap content counts, see :meth:`_plan_token`).  Complements
        #: the BGP engines' estimate caches: repeated executions of the
        #: same query text skip parsing AND the cost-driven
        #: transformation.
        self._plan_cache: "OrderedDict[str, Tuple[tuple, SelectQuery, BETree, Opt[TransformReport], Opt[dict]]]" = (
            OrderedDict()
        )
        self._plan_cache_size = 128

    def _plan_token(self) -> tuple:
        """The store state cached plans are valid for.

        The write generation alone is not store-unique (two stores
        bulk-loaded from different files both sit at generation 1), so
        the token adds the triple and term counts — both O(1) even on
        lazily loaded snapshots.  Swapping in an unrelated store via
        :meth:`reload_store` therefore invalidates the cache, while
        reloading the snapshot this store was saved at still hits.
        """
        return (self.store.generation, len(self.store), len(self.store.dictionary))

    @classmethod
    def for_dataset(
        cls,
        dataset: Dataset,
        *,
        options: Opt[EngineOptions] = None,
        **kwargs,
    ) -> "SparqlUOEngine":
        """Build a store from a plain dataset and wrap an engine around it."""
        options = resolve_options(options, kwargs, "for_dataset")
        return cls(TripleStore.from_dataset(dataset), options=options)

    @classmethod
    def from_snapshot(
        cls,
        path: str,
        *,
        options: Opt[EngineOptions] = None,
        wal: Opt[str] = None,
        **kwargs,
    ) -> "SparqlUOEngine":
        """Start hot: wrap an engine around a persisted store snapshot.

        The snapshot is loaded lazily (mapped, index built on first
        use).  ``wal`` names a write-ahead log to recover from: frames past
        the snapshot's generation — acked updates a previous process
        logged but never compacted — are replayed into the delta
        overlay, a torn final frame is truncated (the crash signature),
        and a corrupt log raises
        :class:`~repro.storage.wal.WalCorruptError` rather than serve
        data missing acked writes.
        """
        options = resolve_options(options, kwargs, "from_snapshot")
        engine = cls(TripleStore.load(path), options=options)
        if wal:
            from ..storage.wal import recover_wal

            recovery = recover_wal(wal)
            with engine.store.bulk_replay():
                for record in recovery.records:
                    if record.generation > engine.store.generation:
                        engine.update(record.text)
        return engine

    def reload_store(self, store: TripleStore) -> None:
        """Swap the backing store, keeping the plan cache.

        Rebinds the BGP engine, cost model and evaluator to the new
        store.  Cached plans are keyed on the store's plan token
        (generation + content counts), and snapshots persist the
        generation — so reloading the snapshot this store was saved at
        (``TripleStore.load``) hits the existing plan cache, and query
        texts skip parsing and the cost-driven transformation entirely
        on the first post-reload execution; swapping in an unrelated
        store invalidates it instead.
        """
        self.store = store
        self.bgp_engine = type(self.bgp_engine)(store)
        self.cost_model = CostModel(self.bgp_engine)
        self.evaluator = BGPBasedEvaluator(self.bgp_engine, self.policy)

    def _make_policy(self, fixed_fraction: float) -> CandidatePolicy:
        if self.mode is ExecutionMode.CP:
            return CandidatePolicy(ThresholdMode.FIXED, fixed_fraction)
        if self.mode is ExecutionMode.FULL:
            return CandidatePolicy(ThresholdMode.ADAPTIVE, fixed_fraction)
        return CandidatePolicy(ThresholdMode.OFF)

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def prepare(self, query: U[str, SelectQuery]) -> PreparedQuery:
        """Parse (if needed) and plan: returns a :class:`PreparedQuery`.

        Query texts are memoized: the parsed query, the (transformed)
        BE-tree and the transform report are reused as long as the store
        has not been written to since they were planned.
        """
        cache_key: Opt[str] = query if isinstance(query, str) else None
        if cache_key is not None:
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                token, parsed, tree, report, template = cached
                if token == self._plan_token():
                    self._plan_cache.move_to_end(cache_key)
                    return PreparedQuery(parsed, tree, report, 0.0, 0.0, template)
                del self._plan_cache[cache_key]

        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.begin("parse")
        parse_start = time.perf_counter()
        if isinstance(query, str):
            query = parse_query(query)
        parse_seconds = time.perf_counter() - parse_start
        if tracer is not None:
            tracer.end()

        template = lift_template(query)

        transform_start = time.perf_counter()
        if tracer is not None:
            tracer.begin("plan")
        tree = BETree.from_query(query)
        if tracer is not None:
            tracer.end(bgps=len(tree.bgp_nodes()))
            tracer.begin("transform")
        report: Opt[TransformReport] = None
        if self.mode.transforms:
            report = multi_level_transform(
                self.cost_model,
                tree,
                skip_cp_equivalent=(self.mode is ExecutionMode.FULL),
            )
        if tracer is not None:
            tracer.end(applied=(report is not None))
        transform_seconds = time.perf_counter() - transform_start

        if cache_key is not None:
            self._plan_cache[cache_key] = (
                self._plan_token(),
                query,
                tree,
                report,
                template,
            )
            if len(self._plan_cache) > self._plan_cache_size:
                self._plan_cache.popitem(last=False)
        return PreparedQuery(query, tree, report, parse_seconds, transform_seconds, template)

    def execute(
        self,
        query: U[str, SelectQuery],
        timeout: Opt[float] = None,
        checkpoint: Opt[Callable[[], None]] = None,
    ) -> QueryResult:
        """Run the full pipeline on a query text or parsed query.

        Solution modifiers follow SPARQL 1.1's pipeline (GROUP BY →
        ORDER BY → projection → DISTINCT/REDUCED → OFFSET → LIMIT), and
        every stage runs on the evaluator's *encoded* rows — the
        dictionary is bijective, so id-row equality is term-row
        equality:

        - a LIMIT without ORDER BY / DISTINCT / GROUP BY short-circuits
          pipelined solution production inside the BGP engines
          (``limit_hint``);
        - GROUP BY folds on ids and keeps group keys as ids; ORDER BY
          decodes only its key variables' distinct ids before a stable
          sort of the id rows;
        - the result's ``solutions`` is always an
          :class:`~repro.sparql.bags.EncodedPage`: the surviving page's
          id rows (no projection copy unless DISTINCT needs one) and
          its id → term map, completed by one batch decode of the
          projected ids.  The serializers render it from the ids, and
          its term rows are built only for callers that read them;
        - FILTERs are pushed into scans / joins by the evaluator.

        ``timeout`` (seconds) arms a cooperative deadline: the
        evaluator and the BGP engines' scan loops re-enter a checkpoint
        hook that raises :class:`~repro.sparql.errors.QueryTimeoutError`
        once the wall-clock budget is exhausted.  Cancellation is
        cooperative — it fires at the next checkpoint, not instantly —
        so callers that must bound a query *hard* (the protocol
        server's worker pool) keep a kill-based backstop.  ``checkpoint``
        composes an additional caller-supplied hook (e.g. "client
        disconnected") into the same mechanism.
        """
        # Arm the deadline before planning, so parse/transform time
        # counts against the budget; the check right after fires when
        # planning alone used it up.
        check = self._make_checkpoint(timeout, checkpoint)
        prepared = self.prepare(query)
        parsed, tree, report = prepared.query, prepared.tree, prepared.report
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.annotate(
                plan_cache="hit" if prepared.cached else "miss",
                generation=self.store.generation,
                mode=self.mode.value,
            )
            if prepared.template is not None:
                tracer.annotate(template=prepared.template["hash"])
        if check is not None:
            check()

        counters_before = EXEC_COUNTERS.snapshot()
        execute_start = time.perf_counter()
        trace = EvaluationTrace()
        limit_hint = None
        if (
            parsed.limit is not None
            and not parsed.order_by
            and not parsed.deduplicates
            and not parsed.groups
        ):
            limit_hint = parsed.offset + parsed.limit
        solutions = self.evaluator.evaluate(
            tree, trace, limit_hint=limit_hint, checkpoint=check
        )
        if check is not None:
            check()  # once more before the decode/modifier phases
        names = parsed.projection_names()
        if names is None:
            names = sorted(pattern_variables(parsed.where))
        # One modifier pipeline, on id rows throughout: ``terms`` is the
        # result page's id → term map, and only what a stage reads
        # enters it.
        terms: Dict[object, object] = {UNBOUND: UNBOUND}
        if parsed.groups:
            solutions = grouped_bag(self.store, parsed, solutions, terms, checkpoint=check)
        if parsed.order_by:
            # Ordering precedes projection (keys may read non-projected
            # variables): decode just the key variables' distinct ids.
            keys = {name for c in parsed.order_by for name in c.expression.variables()}
            ids = set().union(*map(solutions.distinct_values, keys))
            decode_ids(self.store, terms, ids, check)
            solutions = order_bag(solutions, parsed.order_by, terms, check)
        if parsed.deduplicates:
            solutions = distinct_bag(solutions.project(names))
        if check is not None:
            check()
        projected = decode_page(
            self.store, solutions, names, parsed.offset, parsed.limit, check, terms
        )
        execute_seconds = time.perf_counter() - execute_start

        return QueryResult(
            solutions=projected,
            variables=list(names),
            tree=tree,
            trace=trace,
            transform_report=report,
            parse_seconds=prepared.parse_seconds,
            transform_seconds=prepared.transform_seconds,
            execute_seconds=execute_seconds,
            # Advisory (process-global counters): concurrent executions
            # in one process may bleed into each other's deltas.
            exec_counters=EXEC_COUNTERS.delta_since(counters_before),
            template=prepared.template,
            query=parsed,
        )

    # ------------------------------------------------------------------
    # SPARQL 1.1 UPDATE
    # ------------------------------------------------------------------
    def update(
        self,
        request: U[str, UpdateRequest],
        timeout: Opt[float] = None,
        checkpoint: Opt[Callable[[], None]] = None,
    ) -> UpdateResult:
        """Apply a SPARQL 1.1 UPDATE request to the backing store.

        Operations run in request order and each sees the effects of
        the previous ones (SPARQL 1.1 §3).  ``INSERT DATA`` / ``DELETE
        DATA`` apply their ground triples directly.  ``DELETE/INSERT
        ... WHERE`` evaluates the WHERE group as a select-all query
        through the ordinary read pipeline — merge joins, candidate
        pruning and the delta overlay all participate — then
        instantiates the templates per solution, silently dropping
        incomplete instantiations (unbound template variable) and
        invalid ones (e.g. a literal bound into a subject position),
        per §3.1.3.  Within one operation deletes apply before inserts.

        Writes land in the store's sorted delta overlay, and the write
        generation only advances when
        the request changed at least one triple — so generation-keyed
        plan/result caches invalidate exactly when visible state does.
        """
        check = self._make_checkpoint(timeout, checkpoint)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.begin("parse")
        parse_start = time.perf_counter()
        if isinstance(request, str):
            request = parse_update(request)
        parse_seconds = time.perf_counter() - parse_start
        if tracer is not None:
            tracer.end(operations=len(request.operations))
            tracer.begin("apply")

        added = removed = 0
        requested: List[Triple] = []
        apply_start = time.perf_counter()
        for operation in request.operations:
            if check is not None:
                check()
            if isinstance(operation, InsertData):
                inserts = [_as_triple(t) for t in operation.triples]
                requested += inserts
                got, gone = self.store.apply_update(inserts=inserts)
            elif isinstance(operation, DeleteData):
                deletes = [_as_triple(t) for t in operation.triples]
                requested += deletes
                got, gone = self.store.apply_update(deletes=deletes)
            else:
                got, gone = self._apply_modify(
                    operation, request.prefixes, check, requested
                )
            added += got
            removed += gone
        apply_seconds = time.perf_counter() - apply_start
        if tracer is not None:
            tracer.end(
                added=added, removed=removed, generation=self.store.generation
            )

        return UpdateResult(
            added=added,
            removed=removed,
            operations=len(request.operations),
            generation=self.store.generation,
            parse_seconds=parse_seconds,
            apply_seconds=apply_seconds,
            requested=tuple(requested),
        )

    def _apply_modify(
        self,
        operation: ModifyUpdate,
        prefixes: Opt[dict],
        check: Opt[Callable[[], None]],
        requested: List[Triple],
    ) -> Tuple[int, int]:
        """Evaluate one ``DELETE/INSERT ... WHERE`` against current state,
        appending its instantiated triples to ``requested``."""
        where_query = SelectQuery(None, operation.where, prefixes)
        solutions = self.execute(where_query, checkpoint=check)
        deletes: List[Triple] = []
        inserts: List[Triple] = []
        for mapping in solutions:
            binding = {Variable(name): term for name, term in mapping.items()}
            for template in operation.delete_template:
                ground = _instantiate(template, binding)
                if ground is not None:
                    deletes.append(ground)
            for template in operation.insert_template:
                ground = _instantiate(template, binding)
                if ground is not None:
                    inserts.append(ground)
        if not deletes and not inserts:
            return 0, 0
        requested += deletes
        requested += inserts
        return self.store.apply_update(inserts=inserts, deletes=deletes)

    @classmethod
    def deadline_checkpoint(cls, timeout: float) -> Callable[[], None]:
        """A standalone deadline hook, armed now for ``timeout`` seconds.

        The same closure :meth:`execute`'s ``timeout=`` arms
        internally, exposed for callers that need one budget to span
        *more* than the execute call — the protocol server's workers
        pass it both to ``execute(checkpoint=...)`` and to their
        result-serialization loop.
        """
        check = cls._make_checkpoint(timeout, None)
        assert check is not None  # timeout is not None ⇒ a hook exists
        return check

    @staticmethod
    def _make_checkpoint(
        timeout: Opt[float], extra: Opt[Callable[[], None]]
    ) -> Opt[Callable[[], None]]:
        """Compose the deadline hook and a caller-supplied hook.

        When a fault plan targeting ``engine.checkpoint`` is armed, the
        plan fires on every checkpoint tick — the deterministic way to
        fail a query *mid-evaluation* rather than at a request
        boundary.  The decision is taken once, here: an unarmed process
        builds exactly the same closures as before, so the hot ticks
        carry zero injection overhead.
        """
        plan = _faults.ACTIVE
        if plan is not None and plan.wants("engine.checkpoint"):
            inner = extra

            def extra() -> None:  # type: ignore[misc]
                plan.fire("engine.checkpoint")
                if inner is not None:
                    inner()

        if timeout is None:
            return extra
        expires = time.monotonic() + timeout

        if extra is None:

            def check() -> None:
                if time.monotonic() > expires:
                    raise QueryTimeoutError(timeout)

        else:

            def check() -> None:
                if time.monotonic() > expires:
                    raise QueryTimeoutError(timeout)
                extra()

        return check

    def explain(self, query: U[str, SelectQuery]) -> str:
        """The full plan as indented text: configuration header, the
        transform report and each reordered group's placed order (its
        children's written positions, from 0), per-BGP cost/cardinality
        estimates, the (transformed) BE-tree and the grouping plan when
        present.

        Public API (also behind ``repro query --explain``): the
        rendering is for humans and its exact shape is not stable, but
        the header's ``mode=``/``engine=`` fields and one ``BGP[id]``
        estimate line per BGP node are.
        """
        prepared = self.prepare(query)
        parsed, tree, report = prepared.query, prepared.tree, prepared.report
        lines = [f"mode={self.mode.value} engine={self.bgp_engine.name}"]
        if report is not None:
            lines.append(f"transform: {report!r}")
            for group_id, placed in report.placements:
                order = " ".join(str(position) for position in placed)
                lines.append(f"reorder GROUP[{group_id}]: written children {order}")
        for node in tree.bgp_nodes():
            if node.is_empty():
                continue
            estimate = self.bgp_engine.estimate(node.patterns)
            lines.append(
                f"BGP[{node.node_id}] estimate: cost={estimate.cost:.1f} "
                f"cardinality={estimate.cardinality:.1f}"
            )
        lines.append(tree.pretty())
        plan = parsed.group_plan()
        if plan is not None:
            lines.append(plan.pretty())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SparqlUOEngine(mode={self.mode.value}, "
            f"bgp_engine={self.bgp_engine.name}, store={self.store!r})"
        )


def _as_triple(pattern: TriplePattern) -> Triple:
    """A ground TriplePattern (validated by the AST) as a Triple."""
    return Triple(pattern.subject, pattern.predicate, pattern.object)


def _instantiate(
    template: TriplePattern, binding: "dict[Variable, Term]"
) -> Opt[Triple]:
    """Instantiate an UPDATE template under one solution mapping.

    Returns None — the instantiation is silently dropped, per SPARQL
    1.1 §3.1.3 — when a template variable is unbound in the solution or
    the substitution is not a valid RDF triple (literal subject, etc.).
    """
    try:
        # substitute() re-validates pattern positions, so an invalid
        # binding (literal subject, blank-node predicate) raises here.
        ground = template.substitute(binding)
        if ground.variables():
            return None
        return Triple(ground.subject, ground.predicate, ground.object)
    except ValueError:
        return None
