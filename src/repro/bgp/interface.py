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

Both concrete engines (:mod:`repro.bgp.wco`, :mod:`repro.bgp.hashjoin`)
implement this interface; so could an adapter around an external store.

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
from ..rdf.triple import TriplePattern
from ..sparql.bags import Bag, EncodedPage, UNBOUND
from ..storage.runs import SortedIdSet
from ..storage.store import TripleStore

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
    from ..core.metrics import EXEC_COUNTERS  # lazy: core imports this module

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
    """Abstract BGP evaluation engine bound to one :class:`TripleStore`."""

    #: Human-readable engine name (used in benchmark output).
    name = "abstract"

    def __init__(self, store: TripleStore):
        self.store = store

    # ------------------------------------------------------------------
    # mandatory interface
    # ------------------------------------------------------------------
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
        all covered by the BGP; engines must apply every one before
        returning (pushing them into scans/joins is their optimization
        choice).  A loop that ``limit`` or a join can stop early reads a
        filter per row (``row_predicate``); any other stream is screened
        in compare-and-compact batches (``compact``).  Both read one
        verdict memo, so the choice changes work, never results.
        ``limit`` permits — but does not require — stopping production
        after that many (post-filter) result rows.

        ``checkpoint`` is a cooperative-cancellation hook: when given,
        engines must invoke it at least once per pattern step and are
        expected to invoke it amortized (every few thousand rows)
        inside scan loops, so a raise from it — the deadline mechanism
        of :meth:`repro.core.engine.SparqlUOEngine.execute` — aborts
        a running BGP with bounded latency.
        """
        raise NotImplementedError

    def estimate(
        self,
        patterns: Sequence[TriplePattern],
        candidates: Optional[Candidates] = None,
    ) -> PlanEstimate:
        """Estimated cost and cardinality of evaluating the BGP."""
        raise NotImplementedError

