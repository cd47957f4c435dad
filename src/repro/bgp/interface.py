"""The BGP-engine interface the optimizer builds on.

The paper's central architectural claim (§4) is that SPARQL-UO
optimization can sit *above* any BGP engine, as long as the engine
exposes three capabilities:

1. ``evaluate(patterns, candidates)`` — run a BGP, optionally restricted
   by per-variable candidate sets (§6's candidate pruning);
2. ``estimate(patterns)`` — a cost + cardinality estimate for the BGP
   (§5.1's cost model consumes both);
3. transparency of its cost model, so the SPARQL-UO layer can reason in
   the same units.

:class:`BGPEngine` writes ``evaluate`` and ``estimate`` once: each
distinct pattern is encoded and counted once and ordered greedily
(:func:`~repro.bgp.plans.greedy_pattern_order`), and ``estimate``, which
takes patterns only, hands the encoded patterns and the first count to
the §5.1.2 sampler (:func:`~repro.bgp.cardinality.estimate_sequence`)
and is memoized per store generation.  An engine
supplies only what the paper says engines differ in: ``_join_steps``,
its join loop, and ``_step_costs``, its cost of each join step
(§5.1.2).  Both concrete engines (:mod:`repro.bgp.wco`,
:mod:`repro.bgp.hashjoin`) are such subclasses; so could an adapter
around an external store.

All engine-level mappings bind variable *names* to dictionary-encoded
integer ids, and every answer stays at id level up to the serializer:
:func:`decode_page` turns a bag into an id-level result page, whose
distinct ids :func:`decode_ids` decodes in one batch.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from ..obs import trace as _trace
from ..obs.counters import EXEC_COUNTERS
from ..rdf.triple import TriplePattern
from ..sparql.bags import Bag, EncodedPage, UNBOUND
from ..storage.runs import SortedIdSet
from ..storage.store import MISSING_ID, EncodedPattern, TripleStore
from .cardinality import estimate_sequence
from .plans import greedy_pattern_order

__all__ = [
    "Candidates",
    "PlanEstimate",
    "BGPEngine",
    "candidate_driver",
    "candidate_probes",
    "decode_ids",
    "decode_page",
    "ticked_rows",
]


def ticked_rows(rows: Iterable, checkpoint: Callable[[], None], mask: int = 4095) -> Iterator:
    """Wrap a row stream so ``checkpoint`` fires every ``mask + 1`` rows.

    The amortized form of the cooperative-cancellation contract: a scan
    that streams millions of rows re-enters the hook often enough for a
    deadline to abort it with bounded latency, while the per-row cost
    stays one increment and one masked branch.  ``mask`` must be
    ``2**k - 1``.
    """
    tick = 0
    for row in rows:
        tick += 1
        if not (tick & mask):
            checkpoint()
        yield row


def decode_ids(
    store: TripleStore,
    terms: Dict[object, object],
    ids: set,
    checkpoint: Optional[Callable[[], None]] = None,
) -> None:
    """Add to ``terms`` (an id → term map that holds :data:`UNBOUND` →
    :data:`UNBOUND`) the term of every id in ``ids`` it does not hold.

    The missing ids are decoded in **one** dictionary batch
    (``TripleStore.decode_many``): each id once however many cells
    repeat it, and a snapshot-backed dictionary sweeps its mapped term
    section in sorted id order instead of seeking per cell.  They are
    counted as ``terms_decoded``, inside a ``decode`` span opened only
    when ids are left to decode.  With ``checkpoint`` the batch is
    chunked and the hook fires before each chunk, so the decode of a
    huge result stays abortable.
    """
    missing = ids.difference(terms)
    if not missing:
        return
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.begin("decode")
    if checkpoint is None:
        terms.update(store.decode_many(missing))
    else:
        ordered = sorted(missing)
        for start in range(0, len(ordered), 2048):
            checkpoint()
            terms.update(store.decode_many(ordered[start : start + 2048]))
    EXEC_COUNTERS.batch_decoded_ids += len(missing)
    EXEC_COUNTERS.terms_decoded += len(missing)
    if tracer is not None:
        tracer.end(distinct_ids=len(missing))


def decode_page(
    store: TripleStore,
    bag: Bag,
    names: Sequence[str],
    offset: int = 0,
    limit: Optional[int] = None,
    checkpoint: Optional[Callable[[], None]] = None,
    terms: Optional[Dict[object, object]] = None,
) -> EncodedPage:
    """The OFFSET/LIMIT page of ``bag`` projected on ``names``, decoded
    without touching a cell.

    The page keeps ``bag``'s id rows (sliced, never copied per row)
    and maps each projected variable to its slot in them.  Its id →
    term map is ``terms`` (ORDER BY's key ids and GROUP BY's aggregate
    results may already be in it), and :func:`decode_ids` adds the
    distinct ids of the projected slots it lacks.  The serializers
    render from the ids; term rows are built only for callers that read
    :attr:`~repro.sparql.bags.Bag.rows`.
    """
    rows = bag.rows
    if offset or limit is not None:
        rows = rows[offset : None if limit is None else offset + limit]
    schema = [name for name in dict.fromkeys(names) if bag.slot(name) is not None]
    slots = {name: bag.slot(name) for name in schema}
    if terms is None:
        terms = {UNBOUND: UNBOUND}
    distinct: set = set()
    for slot in slots.values():
        distinct.update(map(itemgetter(slot), rows))
    decode_ids(store, terms, distinct, checkpoint)
    return EncodedPage(schema, rows, slots, terms)


#: Candidate restriction: variable name → permitted term ids as a
#: :class:`~repro.storage.runs.SortedIdSet` (sorted array with bisect
#: membership, ascending iteration and galloping intersection — what
#: :class:`~repro.core.candidates.CandidatePolicy` produces).
Candidates = Dict[str, SortedIdSet]


def candidate_driver(
    step: Sequence[object],
    candidates: Optional[Candidates],
    scan_size: int,
) -> Optional[Tuple[int, str]]:
    """§6's driver rule, the one both engines apply: the ``(position,
    variable)`` a scan should be driven from, or None to scan.

    ``step`` is the scan's ``(s, p, o)`` with each free position holding
    its variable name (any other value is bound), and ``scan_size`` is
    the size of the scan that driving would replace: both engines pass
    the index count of the bound positions alone, an upper bound where
    a variable repeats (``?x p ?x`` counts every ``p`` triple), so they
    choose alike.  A free endpoint whose candidate set is smaller than
    that is driven from — one indexed probe per candidate id, built by
    :func:`candidate_probes`, instead of a pass over the scan — the
    smallest such set first, the subject on a tie.  Predicate candidate
    sets never drive: they do not arise from join variables in the
    paper's fragment.
    """
    if not candidates:
        return None
    best: Optional[Tuple[int, str]] = None
    best_size = scan_size
    for position in (0, 2):
        name = step[position]
        if isinstance(name, str) and name in candidates:
            size = len(candidates[name])
            if size < best_size:
                best = (position, name)
                best_size = size
    return best


def candidate_probes(
    probe: Sequence[object],
    step: Sequence[object],
    driver: Tuple[int, str],
    ids: Iterable[int],
) -> Iterator[Tuple[object, ...]]:
    """The probes of a scan driven from ``driver``: ``probe`` once per
    candidate id in ``ids``, in their order, with every position where
    ``step`` holds the driver variable bound to that id.

    ``probe`` is the engine's scan key for the unrestricted scan and
    ``step`` the same ``(s, p, o)`` as :func:`candidate_driver` reads
    it.  Pinning every occurrence, not just the driving endpoint, keeps
    a repeated driver variable sound: ``?x p ?x`` probes ``(c, p, c)``,
    not every ``p`` triple of ``c``.
    """
    name = driver[1]
    pinned = [index for index, term in enumerate(step) if term == name]
    for candidate_id in ids:
        bound = list(probe)
        for index in pinned:
            bound[index] = candidate_id
        yield tuple(bound)


class PlanEstimate:
    """An engine's estimate for one BGP: plan cost and result cardinality.

    ``cost`` is in the engine's own cost units (sums of per-join costs,
    §5.1.2); ``cardinality`` is the estimated number of result mappings.
    Both feed the SPARQL-UO Δ-cost (Equations 1–8).
    """

    __slots__ = ("cost", "cardinality")

    def __init__(self, cost: float, cardinality: float):
        self.cost = float(cost)
        self.cardinality = float(cardinality)

    def __repr__(self) -> str:
        return f"PlanEstimate(cost={self.cost:.1f}, cardinality={self.cardinality:.1f})"


class BGPEngine:
    """A BGP engine bound to one :class:`TripleStore`: the steps every
    engine shares, around the join loop and step cost a subclass
    supplies (see the module docstring)."""

    #: Human-readable engine name (used in benchmark output).
    name = "abstract"

    def __init__(self, store: TripleStore):
        self.store = store
        self._estimate_token: Optional[Tuple[int, int]] = None
        self._estimate_cache: Dict[Tuple[TriplePattern, ...], PlanEstimate] = {}

    def evaluate(
        self,
        patterns: Sequence[TriplePattern],
        candidates: Optional[Candidates] = None,
        filters=None,
        limit: Optional[int] = None,
        checkpoint: Optional[Callable[[], None]] = None,
    ) -> Bag:
        """Evaluate the BGP, returning a bag of id-level mappings.

        ``candidates`` restricts the named variables to the given id
        sets.  Engines must apply the restriction *fully* (a solution
        binding a restricted variable outside its set never appears) —
        how early they push the filter is their own optimization choice.

        ``filters`` is an optional sequence of
        :class:`~repro.bgp.filters.CompiledFilter` whose variables are
        all covered by the BGP; every one is applied before returning
        (the join steps push them into scans/joins, and the rest run
        here).  A loop that ``limit`` or a join can stop early reads a
        filter per row (``row_predicate``); any other stream is screened
        in compare-and-compact batches (``compact``).  Both read one
        verdict memo, so the choice changes work, never results.
        ``limit`` permits — but does not require — stopping production
        after that many (post-filter) result rows.

        ``checkpoint`` is a cooperative-cancellation hook: when given,
        the join steps invoke it at least once per pattern step and
        amortized (every few thousand rows) inside scan loops, so a
        raise from it — the deadline mechanism of
        :meth:`repro.core.engine.SparqlUOEngine.execute` — aborts a
        running BGP with bounded latency.
        """
        if not patterns:
            return Bag.identity()
        if limit is not None and limit <= 0:
            return Bag.empty()
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.annotate(engine=self.name, patterns=len(patterns))
        encoded, counts = self._encode_and_count(patterns)
        if any(MISSING_ID in terms for terms in encoded.values()):
            return Bag.empty()  # a constant absent from the data
        ordered = greedy_pattern_order(patterns, counts.__getitem__)
        remaining = list(filters) if filters else []
        result = self._join_steps(
            ordered, encoded, counts, candidates, remaining, limit, checkpoint
        )
        for compiled in remaining:  # safety net; empty when the caller
            result = compiled.apply(result)  # covers vars correctly
        return result

    def estimate(self, patterns: Sequence[TriplePattern]) -> PlanEstimate:
        """Estimated cost and cardinality of evaluating the BGP: the
        first pattern's count plus each :meth:`_step_costs` term, over
        :meth:`evaluate`'s order and §5.1.2's sampled cardinalities.

        Deterministic for a fixed store, so memoized (Δ-cost probing and
        the adaptive pruning threshold repeat BGPs) for one store
        generation: a write empties the memo, so it can neither serve
        stale numbers nor keep entries no later call can reach.
        """
        if not patterns:
            return PlanEstimate(0.0, 1.0)
        token = (self.store.generation, len(self.store))
        if token != self._estimate_token:
            self._estimate_cache.clear()
            self._estimate_token = token
        key = tuple(patterns)
        cached = self._estimate_cache.get(key)
        if cached is not None:
            return cached
        encoded, counts = self._encode_and_count(patterns)
        ordered = greedy_pattern_order(patterns, counts.__getitem__)
        final_card, per_step = estimate_sequence(
            self.store, [encoded[pattern] for pattern in ordered], counts[ordered[0]]
        )
        cost = float(counts[ordered[0]])  # reading the first relation
        for step_cost in self._step_costs(ordered, encoded, counts, per_step):
            cost += step_cost
        estimate = PlanEstimate(cost, final_card)
        self._estimate_cache[key] = estimate
        return estimate

    def _encode_and_count(
        self, patterns: Sequence[TriplePattern]
    ) -> Tuple[Dict[TriplePattern, EncodedPattern], Dict[TriplePattern, int]]:
        """Each distinct pattern encoded once (one dictionary lookup per
        constant) and counted once: a repeated-variable pattern's count
        enumerates its matches, and ordering, execution and costing all
        read the same numbers."""
        encoded = {pattern: self.store.encode_pattern(pattern) for pattern in patterns}
        counts = {
            pattern: self.store.count_pattern(terms) for pattern, terms in encoded.items()
        }
        return encoded, counts

    # ------------------------------------------------------------------
    # what an engine supplies
    # ------------------------------------------------------------------
    def _join_steps(
        self,
        ordered: Sequence[TriplePattern],
        encoded: Dict[TriplePattern, EncodedPattern],
        counts: Dict[TriplePattern, int],
        candidates: Optional[Candidates],
        remaining: list,
        limit: Optional[int],
        checkpoint: Optional[Callable[[], None]],
    ) -> Bag:
        """Join ``ordered`` (no constant of it is missing) into a bag.

        ``remaining`` holds the filters not yet applied; the steps
        remove from it, in place, each filter they apply.
        """
        raise NotImplementedError

    def _step_costs(
        self,
        ordered: Sequence[TriplePattern],
        encoded: Dict[TriplePattern, EncodedPattern],
        counts: Dict[TriplePattern, int],
        per_step: Sequence[float],
    ) -> Iterator[float]:
        """The cost of joining each of ``ordered[1:]`` in turn, in the
        engine's cost units; ``per_step[k]`` is the estimated
        cardinality after ``ordered[k]``."""
        raise NotImplementedError
