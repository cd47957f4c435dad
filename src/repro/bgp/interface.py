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
integer ids.  :func:`decode_page` decodes a result page's distinct ids
for rendering straight from the id rows; :meth:`BGPEngine.decode_bag`
converts whole bags to term-level mappings (ordered results).
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
    Set,
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
    "decode_bag",
    "decode_page",
    "ground_pattern_present",
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


def _decode_ids(
    store: TripleStore, distinct: set, checkpoint: Optional[Callable[[], None]]
) -> Dict[object, object]:
    """id → term for ``distinct`` in one dictionary batch (plus
    UNBOUND → UNBOUND), counted as ``terms_decoded``."""
    distinct.discard(UNBOUND)
    cache: Dict[object, object]
    if checkpoint is None:
        cache = store.decode_many(distinct)
    else:
        # Chunked batches keep the cooperative deadline's amortized-tick
        # bound through the dictionary sweep (a huge result's decode must
        # stay abortable).
        ordered = sorted(distinct)
        cache = {}
        for start in range(0, len(ordered), 2048):
            checkpoint()
            cache.update(store.decode_many(ordered[start : start + 2048]))
    cache[UNBOUND] = UNBOUND
    from ..core.metrics import EXEC_COUNTERS  # lazy: core imports this module

    EXEC_COUNTERS.batch_decoded_ids += len(distinct)
    EXEC_COUNTERS.terms_decoded += len(distinct)
    return cache


def decode_bag(
    store: TripleStore, bag: Bag, checkpoint: Optional[Callable[[], None]] = None
) -> Bag:
    """Convert an id-level bag to a term-level bag, batch-decoding.

    Collects the distinct ids across the whole bag first and decodes
    them in **one** dictionary batch (``TripleStore.decode_many``):
    each id is decoded once regardless of how many cells repeat it, and
    snapshot-backed lazy dictionaries sweep their mapped term section
    in sorted id order instead of seeking per cell.  Row translation is
    then a plain dict lookup per cell.  Shared by every engine and
    baseline that decodes at the boundary.  ``checkpoint`` fires
    amortized per decoded row, so the deadline machinery also bounds
    the decode of a huge result.
    """
    rows = bag.rows
    if not rows or not bag.schema:
        return Bag.from_rows(bag.schema, list(rows))
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.begin("decode", rows=len(rows), columns=len(bag.schema))
    distinct: set = set()
    for row in rows:
        distinct.update(row)
    cache = _decode_ids(store, distinct, checkpoint)
    from ..core.metrics import EXEC_COUNTERS  # lazy: core imports this module

    EXEC_COUNTERS.decoded_cells += len(rows) * len(bag.schema)
    source = rows if checkpoint is None else ticked_rows(rows, checkpoint)
    decoded = Bag.from_rows(
        bag.schema, [tuple(cache[v] for v in row) for row in source]
    )
    if tracer is not None:
        tracer.end(distinct_ids=len(distinct))
    return decoded


def decode_page(
    store: TripleStore,
    bag: Bag,
    names: Sequence[str],
    offset: int = 0,
    limit: Optional[int] = None,
    checkpoint: Optional[Callable[[], None]] = None,
) -> EncodedPage:
    """The OFFSET/LIMIT page of ``bag`` projected on ``names``, decoded
    without touching a cell.

    The page keeps ``bag``'s id rows (sliced, never copied per row)
    and maps each projected variable to its slot in them.  Only the
    distinct ids in those slots are decoded, in the same one
    dictionary batch as :func:`decode_bag` (so ``terms_decoded`` is
    what decoding the projected page counts); the serializers render
    from the ids, and term rows are built only for callers that read
    :attr:`~repro.sparql.bags.Bag.rows`.
    """
    rows = bag.rows
    if offset or limit is not None:
        rows = rows[offset : None if limit is None else offset + limit]
    schema = [name for name in dict.fromkeys(names) if bag.slot(name) is not None]
    slots = {name: bag.slot(name) for name in schema}
    if not rows or not schema:
        return EncodedPage(schema, rows, slots, {UNBOUND: UNBOUND})
    tracer = _trace.ACTIVE
    if tracer is not None:
        tracer.begin("decode", rows=len(rows), columns=len(schema))
    distinct: set = set()
    for slot in slots.values():
        distinct.update(map(itemgetter(slot), rows))
    terms = _decode_ids(store, distinct, checkpoint)
    if tracer is not None:
        tracer.end(distinct_ids=len(distinct))
    return EncodedPage(schema, rows, slots, terms)


#: Candidate restriction: variable name → permitted term ids as a
#: :class:`~repro.storage.runs.SortedIdSet` (sorted array with bisect
#: membership, ascending iteration and galloping intersection — what
#: :class:`~repro.core.candidates.CandidatePolicy` produces).
Candidates = Dict[str, SortedIdSet]


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
        choice).  ``limit`` permits — but does not require — stopping
        production after that many (post-filter) result rows.

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

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def decode_bag(self, bag: Bag, checkpoint: Optional[Callable[[], None]] = None) -> Bag:
        """Convert id-level mappings to term-level mappings."""
        return decode_bag(self.store, bag, checkpoint)

    def _pattern_variables(self, patterns: Sequence[TriplePattern]) -> Set[str]:
        out: Set[str] = set()
        for pattern in patterns:
            out.update(v.name for v in pattern.variables())
        return out


def ground_pattern_present(store: TripleStore, pattern: TriplePattern) -> bool:
    """Existence check for a fully ground pattern."""
    encoded = store.encode_pattern(pattern)
    if any(x == -1 for x in encoded):
        return False
    return store.count_pattern(encoded) > 0
