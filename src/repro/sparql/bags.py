"""Bags of solution mappings and the operators of Section 3.

A *mapping* μ is a partial function from variables to terms.  The public
API still speaks dicts (variable *name* → value, where values are
integer term ids inside the engines and ground
:class:`~repro.rdf.terms.Term` objects in decoded results), but
internally a :class:`Bag` is **columnar**: it carries a fixed, ordered
tuple of variable names (its *schema*) and stores every solution as a
plain tuple of values aligned with that schema.  A slot left unbound by a mapping (possible after
OPTIONAL / UNION) holds the :data:`UNBOUND` sentinel.

The columnar layout is what makes the operators fast: the schema is
known up front (no per-call ``variables()`` rescans), join keys are
extracted by precomputed slot indices, and merging two compatible rows
is tuple concatenation instead of dict copy + update.  Rows whose join
key contains :data:`UNBOUND` are routed through a nested-loop fallback,
which keeps every operator exactly faithful to the paper's
compatibility definition.

The three bag operators follow the paper's definitions exactly and all
preserve duplicates (bag/multiset semantics):

- join        Ω1 ⋈ Ω2  = {μ1 ∪ μ2 | μ1 ∈ Ω1, μ2 ∈ Ω2, μ1 ~ μ2}
- union       Ω1 ∪bag Ω2 = concatenation
- left_join   Ω1 ⟕ Ω2  = (Ω1 ⋈ Ω2) ∪bag (Ω1 ∖ Ω2), where
              Ω1 ∖ Ω2  = {μ1 ∈ Ω1 | ∀ μ2 ∈ Ω2 : μ1 ≁ μ2}
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.counters import EXEC_COUNTERS

__all__ = [
    "UNBOUND",
    "Mapping",
    "Row",
    "Bag",
    "EncodedPage",
    "join",
    "join_streamed",
    "merge_join_streamed",
    "join_output_schema",
    "union",
    "left_join",
]

#: A solution mapping: variable name → value (the dict-level view).
Mapping = Dict[str, object]

#: A columnar solution row: one value per schema slot.
Row = Tuple[object, ...]


class _Unbound:
    """Singleton sentinel for an unbound schema slot."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNBOUND"

    def __bool__(self) -> bool:
        return False


#: The unbound-slot sentinel.  Always compare with ``is``.
UNBOUND = _Unbound()

#: "No key seen yet": distinct from every id and from UNBOUND.
_MISSING = object()


class Bag:
    """A multiset of solution mappings in columnar form.

    ``schema`` is the ordered tuple of variable names; ``rows`` is the
    list of value tuples.  The mapping-level API (construction from
    dicts, iteration yielding dicts, :meth:`add`) is a thin
    compatibility layer over the columns.
    """

    __slots__ = ("_schema", "_slots", "_rows", "_vars", "_certain")

    def __init__(self, mappings: Iterable[Mapping] = ()):
        materialized = list(mappings)
        names: List[str] = sorted({k for m in materialized for k in m})
        self._schema: Tuple[str, ...] = tuple(names)
        self._slots: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self._rows: List[Row] = [
            tuple(m.get(v, UNBOUND) for v in names) for m in materialized
        ]
        self._vars: Optional[FrozenSet[str]] = None
        self._certain: Optional[FrozenSet[str]] = None

    # ------------------------------------------------------------------
    # columnar constructors / accessors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Sequence[str], rows: Iterable[Row]) -> "Bag":
        """Fast path: build directly from a schema and aligned rows."""
        bag = cls.__new__(cls)
        bag._schema = tuple(schema)
        bag._slots = {n: i for i, n in enumerate(bag._schema)}
        bag._rows = rows if isinstance(rows, list) else list(rows)
        bag._vars = None
        bag._certain = None
        return bag

    @classmethod
    def empty(cls) -> "Bag":
        """The empty bag: zero solutions (a pattern that failed)."""
        return cls()

    @classmethod
    def identity(cls) -> "Bag":
        """The join identity: one empty mapping.

        This is the value of the empty group pattern ``{}`` and the
        correct initial accumulator for Algorithm 1 (the paper writes
        ``r ← ∅`` and special-cases the first join; using the identity
        bag removes the special case without changing semantics).
        """
        return cls.from_rows((), [()])

    @property
    def schema(self) -> Tuple[str, ...]:
        """The ordered variable names of the columnar layout."""
        return self._schema

    @property
    def rows(self) -> List[Row]:
        """The raw rows (treat as read-only)."""
        return self._rows

    def slot(self, name: str) -> Optional[int]:
        """The schema slot of ``name``, or None if not in the schema."""
        return self._slots.get(name)

    def add_row(self, row: Row) -> None:
        """Append one schema-aligned row."""
        if len(row) != len(self._schema):
            raise ValueError(
                f"row of width {len(row)} does not fit schema {self._schema!r}"
            )
        self._rows.append(row)
        self._vars = None
        self._certain = None

    # ------------------------------------------------------------------
    # mapping-level compatibility layer
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Mapping]:
        schema = self._schema
        for row in self._rows:
            yield {n: v for n, v in zip(schema, row) if v is not UNBOUND}

    def __bool__(self) -> bool:
        return bool(self._rows)

    def add(self, mapping: Mapping) -> None:
        """Append one dict-level mapping, widening the schema if needed."""
        extra = [k for k in mapping if k not in self._slots]
        if extra:
            self._widen(extra)
        self._rows.append(tuple(mapping.get(v, UNBOUND) for v in self._schema))
        self._vars = None
        self._certain = None

    def _widen(self, extra: Sequence[str]) -> None:
        self._schema = self._schema + tuple(extra)
        self._slots = {n: i for i, n in enumerate(self._schema)}
        pad = (UNBOUND,) * len(extra)
        self._rows = [row + pad for row in self._rows]

    def variables(self) -> FrozenSet[str]:
        """Every variable bound in at least one solution (cached)."""
        if self._vars is None:
            rows = self._rows
            self._vars = frozenset(
                name
                for i, name in enumerate(self._schema)
                if any(row[i] is not UNBOUND for row in rows)
            )
        return self._vars

    def certain_variables(self) -> FrozenSet[str]:
        """Variables bound in *every* solution (cached).

        After an OPTIONAL some solutions may leave a variable unbound;
        such a variable's observed values do not bound the values it can
        join with, so candidate pruning must restrict itself to certain
        variables.
        """
        if self._certain is None:
            rows = self._rows
            if not rows:
                self._certain = frozenset()
            else:
                self._certain = frozenset(
                    name
                    for i, name in enumerate(self._schema)
                    if all(row[i] is not UNBOUND for row in rows)
                )
        return self._certain

    def project(self, variables: Iterable[str]) -> "Bag":
        """SELECT-clause projection; unbound variables are simply absent."""
        wanted: List[str] = []
        seen = set()
        for v in variables:
            if v in self._slots and v not in seen:
                wanted.append(v)
                seen.add(v)
        idx = [self._slots[v] for v in wanted]
        return Bag.from_rows(
            tuple(wanted), [tuple(row[i] for i in idx) for row in self._rows]
        )

    def head(self, count: int) -> "Bag":
        """The first ``count`` solutions."""
        return Bag.from_rows(self._schema, self._rows[:count])

    def distinct_values(self, variable: str) -> set:
        """The set of values ``variable`` takes across all solutions."""
        i = self._slots.get(variable)
        if i is None:
            return set()
        return {row[i] for row in self._rows if row[i] is not UNBOUND}

    def counter(self) -> Counter:
        """Multiset signature used for bag-equality comparison."""
        schema = self._schema
        return Counter(
            frozenset((n, v) for n, v in zip(schema, row) if v is not UNBOUND)
            for row in self._rows
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self.counter() == other.counter()

    def __hash__(self):
        raise TypeError("Bag is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Bag({len(self)} mappings over {sorted(self.variables())})"


class EncodedPage(Bag):
    """A result page kept at id level, with a lazy term-level view.

    ``id_rows`` are the evaluator's id-level rows (possibly wider than
    the page: SELECT may keep only some of their columns); ``id_slots``
    maps each variable of ``schema`` to its slot in those rows, and
    ``terms`` maps every id the page can show to its term (plus
    :data:`UNBOUND` to itself; a GROUP BY aggregate result is a fresh
    term outside the dictionary, so it sits in the rows as itself and
    keys itself in ``terms``).  Every SELECT answer
    :meth:`~repro.core.engine.SparqlUOEngine.execute` returns is one of
    these, ORDER BY and GROUP BY answers included.  The serializers in
    :mod:`repro.sparql.results` render straight from the ids; every
    other caller sees an ordinary term-level :class:`Bag`, whose rows
    are built from ``terms`` the first time ``rows`` (or anything that
    reads them: iteration, ``==``, :meth:`project`) is touched.
    ``len``, ``schema`` and :meth:`head` stay at id level.  Read-only:
    the mutators (:meth:`add`, :meth:`add_row`) are not supported.
    """

    __slots__ = ("id_rows", "id_slots", "terms", "_term_rows")

    def __init__(
        self,
        schema: Sequence[str],
        id_rows: List[Row],
        id_slots: Dict[str, int],
        terms: Dict[object, object],
    ):
        self._schema = tuple(schema)
        self._slots = {n: i for i, n in enumerate(self._schema)}
        self._vars = None
        self._certain = None
        self.id_rows = id_rows
        self.id_slots = id_slots
        self.terms = terms
        self._term_rows: Optional[List[Row]] = None

    # Shadows Bag's ``_rows`` slot, so every inherited operator reads
    # the term rows, built on first use.
    @property
    def _rows(self) -> List[Row]:
        if self._term_rows is None:
            term = self.terms.__getitem__
            slots = [self.id_slots[name] for name in self._schema]
            self._term_rows = [
                tuple(map(term, map(row.__getitem__, slots))) for row in self.id_rows
            ]
            EXEC_COUNTERS.decoded_cells += len(self.id_rows) * len(slots)
        return self._term_rows

    def __len__(self) -> int:
        return len(self.id_rows)

    def __bool__(self) -> bool:
        return bool(self.id_rows)

    def head(self, count: int) -> "EncodedPage":
        return EncodedPage(self._schema, self.id_rows[:count], self.id_slots, self.terms)


# ----------------------------------------------------------------------
# row-level helpers shared by the operators
# ----------------------------------------------------------------------
def _rows_compatible(row1: Row, row2: Row, shared_pairs: List[Tuple[int, int]]) -> bool:
    """μ1 ~ μ2 at row level: no shared slot bound to conflicting values."""
    for i, j in shared_pairs:
        a = row1[i]
        if a is UNBOUND:
            continue
        b = row2[j]
        if b is not UNBOUND and a != b:
            return False
    return True


def _merge_rows(
    row1: Row, row2: Row, shared_pairs: List[Tuple[int, int]], tail: Row
) -> Row:
    """μ1 ∪ μ2 at row level; a shared slot takes the bound value."""
    merged = list(row1)
    for i, j in shared_pairs:
        v = row2[j]
        if v is not UNBOUND:
            merged[i] = v
    return tuple(merged) + tail


def join_output_schema(
    build_schema: Sequence[str], probe_schema: Sequence[str]
) -> Tuple[str, ...]:
    """The output schema of joining build with probe: build columns
    first, then the probe-only columns in probe order.

    The single source of truth for join column layout — callers that
    precompute per-row predicates over join output (FILTER pushdown)
    use this rather than re-deriving the order.
    """
    build = set(build_schema)
    return tuple(build_schema) + tuple(v for v in probe_schema if v not in build)


def _join_layout(bag1: Bag, schema2: Tuple[str, ...]):
    """Precompute the slot arithmetic of joining ``bag1`` with ``schema2``."""
    slots1 = bag1._slots
    out_schema = join_output_schema(bag1._schema, schema2)
    right_only = [j for j, v in enumerate(schema2) if v not in slots1]
    shared_pairs = [(slots1[v], j) for j, v in enumerate(schema2) if v in slots1]
    return out_schema, right_only, shared_pairs


def _empty_tail(row: Row) -> Row:
    return ()


def _tail_getter(right_only: List[int]):
    """Extractor for the probe-side columns appended to merged rows."""
    if not right_only:
        return _empty_tail
    if len(right_only) == 1:
        j = right_only[0]

        def tail(row: Row, _j=j) -> Row:
            return (row[_j],)

        return tail
    return itemgetter(*right_only)  # ≥ 2 indices → returns a tuple


# ----------------------------------------------------------------------
# the operators
# ----------------------------------------------------------------------
class _StopJoin(Exception):
    """Internal signal: a stop_at row budget has been reached."""


def _ticked_append(append, checkpoint, mask: int = 2047):
    """Wrap an emission callable so ``checkpoint`` fires every
    ``mask + 1`` calls (cooperative cancellation inside join loops)."""
    tick = 0

    def ticked(row):
        nonlocal tick
        tick += 1
        if not (tick & mask):
            checkpoint()
        append(row)

    return ticked


def _emit_guard(out: List[Row], keep, stop_at: Optional[int], checkpoint):
    """The shared emission wrapper: ``keep`` filtering, ``stop_at``
    budget (raises :class:`_StopJoin`) and amortized checkpoint ticks,
    layered over a plain ``list.append``."""
    append = out.append
    if keep is not None or stop_at is not None:
        raw_append = append

        def append(row, _raw=raw_append):
            if keep is None or keep(row):
                _raw(row)
                if stop_at is not None and len(out) >= stop_at:
                    raise _StopJoin

    if checkpoint is not None:
        append = _ticked_append(append, checkpoint)
    return append


def join(bag1: Bag, bag2: Bag, checkpoint=None) -> Bag:
    """Ω1 ⋈ Ω2 with a hash join on the shared schema columns.

    Rows that leave a shared variable unbound (possible after OPTIONAL)
    cannot be hashed to a single key, so they are routed through a
    nested-loop fallback against the other side — this keeps the
    operator exactly faithful to the compatibility definition.

    ``checkpoint`` (a zero-arg callable) is invoked amortized per
    emitted row; raising from it aborts the join — the cooperative
    cancellation hook of the deadline machinery.  Output size is
    exactly where a join explodes (cartesian products in particular),
    so ticking on emission is the bound that matters.
    """
    if len(bag2) < len(bag1):
        bag1, bag2 = bag2, bag1
    return _hash_join(bag1, bag2._schema, bag2._rows, checkpoint=checkpoint)


def merge_join_streamed(
    bag1: Bag,
    schema2: Sequence[str],
    rows2: Iterable[Row],
    keep=None,
    stop_at: Optional[int] = None,
    checkpoint=None,
    stats=None,
) -> Bag:
    """Ω1 ⋈ Ω2 as a *merge join* on the single shared variable.

    Preconditions (the planner's job, checked where cheap):

    - exactly one schema variable is shared (``ValueError`` otherwise);
    - ``bag1``'s rows are ascending on the shared slot (rows with
      UNBOUND there may appear anywhere — they are split out and
      handled with the nested-loop compatibility semantics of
      :func:`join`);
    - ``rows2`` arrives in ascending shared-key order (sorted runs off
      the frozen permutations, or the output of a previous merge join).

    The probe stream drives; the build side advances by *galloping*
    (exponential probe + bisect, :func:`repro.storage.runs.gallop_left`)
    so a skewed probe that skips most build keys costs O(log gap) per
    group instead of a linear walk.  Output rows come out ascending on
    the shared key, which is what lets a chain of merge joins on the
    same variable stay on the merge path.  Should a probe key ever
    arrive out of order the frontier restarts at zero — the result is
    still exact, only slower, so a planner misprediction can never
    corrupt results.

    ``keep`` / ``stop_at`` / ``checkpoint`` behave as in
    :func:`join_streamed`; ``stats`` (an
    :class:`~repro.obs.counters.ExecutionCounters`-shaped object)
    receives gallop/linear advance tallies.
    """
    from ..storage.runs import gallop_left, gallop_right

    out_schema, right_only, shared_pairs = _join_layout(bag1, tuple(schema2))
    if len(shared_pairs) != 1:
        raise ValueError(
            f"merge join needs exactly one shared variable, got {len(shared_pairs)}"
        )
    i0, j0 = shared_pairs[0]
    keys: List[int] = []
    rows: List[Row] = []
    loose_build: List[Row] = []
    for row1 in bag1._rows:
        key = row1[i0]
        if key is UNBOUND:
            loose_build.append(row1)
        else:
            keys.append(key)
            rows.append(row1)

    out: List[Row] = []
    if stop_at is not None and stop_at <= 0:
        return Bag.from_rows(out_schema, out)
    append = _emit_guard(out, keep, stop_at, checkpoint)
    tail_of = _tail_getter(right_only)
    n = len(keys)
    frontier = 0
    last_key: object = _MISSING
    lo = hi = 0
    gallops = linears = 0
    try:
        for row2 in rows2:
            key = row2[j0]
            if key is UNBOUND:
                # Loose probe: compatible with every build row.
                tail = tail_of(row2)
                for row1 in rows:
                    append(_merge_rows(row1, row2, shared_pairs, tail))
                for row1 in loose_build:
                    append(_merge_rows(row1, row2, shared_pairs, tail))
                continue
            if key != last_key:
                start = frontier if last_key is _MISSING or key > last_key else 0
                lo = gallop_left(keys, key, start, n)
                if lo - start > 1:
                    gallops += 1
                else:
                    linears += 1
                hi = gallop_right(keys, key, lo, n) if lo < n and keys[lo] == key else lo
                frontier = hi
                last_key = key
            if lo < hi:
                tail = tail_of(row2)
                for index in range(lo, hi):
                    append(rows[index] + tail)
            if loose_build:
                tail = tail_of(row2)
                for row1 in loose_build:
                    append(_merge_rows(row1, row2, shared_pairs, tail))
    except _StopJoin:
        pass
    if stats is not None:
        stats.gallop_advances += gallops
        stats.linear_advances += linears
    return Bag.from_rows(out_schema, out)


def join_streamed(
    bag1: Bag,
    schema2: Sequence[str],
    rows2: Iterable[Row],
    keep=None,
    stop_at: Optional[int] = None,
    checkpoint=None,
) -> Bag:
    """Ω1 ⋈ Ω2 where Ω2 arrives as a row stream (pipelined scans).

    Builds the hash table on the materialized side and probes with the
    stream, so the streamed relation is never materialized as a bag.

    ``keep`` (a predicate over output rows) drops rows before they are
    emitted, and ``stop_at`` aborts the probe once that many rows have
    been produced — the hooks FILTER pushdown and LIMIT short-circuit
    use to terminate pipelined production early.  ``checkpoint`` is the
    cooperative-cancellation hook (see :func:`join`).
    """
    return _hash_join(
        bag1, tuple(schema2), rows2, keep=keep, stop_at=stop_at, checkpoint=checkpoint
    )


def _hash_join(
    build: Bag,
    probe_schema: Tuple[str, ...],
    probe_rows: Iterable[Row],
    keep=None,
    stop_at: Optional[int] = None,
    checkpoint=None,
) -> Bag:
    out_schema, right_only, shared_pairs = _join_layout(build, probe_schema)
    out: List[Row] = []
    if stop_at is not None and stop_at <= 0:
        return Bag.from_rows(out_schema, out)
    # Without keep / stop_at / checkpoint this is the raw list append,
    # so the hot unfiltered loops pay no wrapper call per row.
    append = _emit_guard(out, keep, stop_at, checkpoint)
    try:
        return _hash_join_loops(
            build._rows, probe_rows, out_schema, out, append,
            _tail_getter(right_only), shared_pairs,
        )
    except _StopJoin:
        return Bag.from_rows(out_schema, out)


def _hash_join_loops(
    build_rows: List[Row],
    probe_rows: Iterable[Row],
    out_schema: Tuple[str, ...],
    out: List[Row],
    append,
    tail_of,
    shared_pairs: List[Tuple[int, int]],
) -> Bag:

    if not shared_pairs:  # cartesian product
        for row2 in probe_rows:
            tail = tail_of(row2)
            for row1 in build_rows:
                append(row1 + tail)
        return Bag.from_rows(out_schema, out)

    single = len(shared_pairs) == 1
    table: Dict[object, List[Row]] = {}
    loose_build: List[Row] = []  # build rows missing some shared var
    if single:
        # Scalar keys: no per-row tuple construction at all.
        i0, j0 = shared_pairs[0]
        for row1 in build_rows:
            key = row1[i0]
            if key is UNBOUND:
                loose_build.append(row1)
            else:
                table.setdefault(key, []).append(row1)
    else:
        get1 = itemgetter(*(i for i, _ in shared_pairs))
        get2 = itemgetter(*(j for _, j in shared_pairs))
        for row1 in build_rows:
            key = get1(row1)
            if UNBOUND in key:
                loose_build.append(row1)
            else:
                table.setdefault(key, []).append(row1)

    get_bucket = table.get
    if single and not loose_build:
        # The hottest loop in the system: engine-produced bags have no
        # loose rows and almost always join on one variable.
        for row2 in probe_rows:
            key = row2[j0]
            if key is not UNBOUND:
                bucket = get_bucket(key)
                if bucket is not None:
                    tail = tail_of(row2)
                    for row1 in bucket:
                        append(row1 + tail)
            else:  # loose probe: pair with every build row
                tail = tail_of(row2)
                for bucket in table.values():
                    for row1 in bucket:
                        append(_merge_rows(row1, row2, shared_pairs, tail))
        return Bag.from_rows(out_schema, out)

    for row2 in probe_rows:
        key = row2[j0] if single else get2(row2)
        loose_key = (key is UNBOUND) if single else (UNBOUND in key)
        tail = tail_of(row2)
        if not loose_key:
            bucket = get_bucket(key)
            if bucket is not None:
                for row1 in bucket:
                    append(row1 + tail)
        else:
            for bucket in table.values():
                for row1 in bucket:
                    if _rows_compatible(row1, row2, shared_pairs):
                        append(_merge_rows(row1, row2, shared_pairs, tail))
        for row1 in loose_build:
            if _rows_compatible(row1, row2, shared_pairs):
                append(_merge_rows(row1, row2, shared_pairs, tail))
    return Bag.from_rows(out_schema, out)


def union(bag1: Bag, bag2: Bag) -> Bag:
    """Ω1 ∪bag Ω2: concatenation, duplicates preserved.

    Schemas are merged; rows from either side are padded/permuted into
    the merged layout with UNBOUND in the missing slots.
    """
    schema1, schema2 = bag1._schema, bag2._schema
    if schema1 == schema2:
        return Bag.from_rows(schema1, bag1._rows + bag2._rows)
    # An empty side contributes no rows, so its schema can be dropped
    # wholesale — this keeps the evaluator's Bag.empty() union seed off
    # the per-row permutation path below.
    if not bag1._rows:
        return Bag.from_rows(schema2, list(bag2._rows))
    if not bag2._rows:
        return Bag.from_rows(schema1, list(bag1._rows))
    slots1 = bag1._slots
    out_schema = schema1 + tuple(v for v in schema2 if v not in slots1)
    pad = (UNBOUND,) * (len(out_schema) - len(schema1))
    out = [row + pad for row in bag1._rows]
    slots2 = bag2._slots
    # Permute right rows via itemgetter over a row widened with one
    # trailing UNBOUND slot, which stands in for every missing column.
    width2 = len(schema2)
    positions = [slots2.get(v, width2) for v in out_schema]
    if len(positions) >= 2:
        permute = itemgetter(*positions)
        widener = (UNBOUND,)
        for row2 in bag2._rows:
            out.append(permute(row2 + widener))
    else:
        for row2 in bag2._rows:
            out.append(
                tuple(UNBOUND if p == width2 else row2[p] for p in positions)
            )
    return Bag.from_rows(out_schema, out)


def left_join(bag1: Bag, bag2: Bag, checkpoint=None) -> Bag:
    """Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪bag (Ω1 ∖ Ω2) — Definition 7's d|><|.

    Implemented in one pass: for each μ1 we emit its joins if any exist,
    otherwise μ1 itself (padded with UNBOUND for Ω2's columns).  This is
    equivalent to the two-operator form but never scans Ω2 a second
    time for the difference part.  ``checkpoint`` is the
    cooperative-cancellation hook (see :func:`join`).
    """
    out_schema, right_only, shared_pairs = _join_layout(bag1, bag2._schema)
    pad = (UNBOUND,) * len(right_only)
    if not bag2:
        return Bag.from_rows(out_schema, [row + pad for row in bag1._rows])

    out: List[Row] = []
    append = _emit_guard(out, None, None, checkpoint)
    tail_of = _tail_getter(right_only)
    if not shared_pairs:  # cartesian extension
        tails = [tail_of(row2) for row2 in bag2._rows]
        for row1 in bag1._rows:
            for tail in tails:
                append(row1 + tail)
        return Bag.from_rows(out_schema, out)

    single = len(shared_pairs) == 1
    if single:
        i0, j0 = shared_pairs[0]
    else:
        get1 = itemgetter(*(i for i, _ in shared_pairs))
        get2 = itemgetter(*(j for _, j in shared_pairs))
    table: Dict[object, List[Tuple[Row, Row]]] = {}
    loose_probe: List[Tuple[Row, Row]] = []
    for row2 in bag2._rows:
        key = row2[j0] if single else get2(row2)
        entry = (row2, tail_of(row2))  # tail computed once per Ω2 row
        if (key is UNBOUND) if single else (UNBOUND in key):
            loose_probe.append(entry)
        else:
            table.setdefault(key, []).append(entry)

    get_bucket = table.get
    for row1 in bag1._rows:
        matched = False
        key = row1[i0] if single else get1(row1)
        if not ((key is UNBOUND) if single else (UNBOUND in key)):
            bucket = get_bucket(key)
            if bucket is not None:
                matched = True
                for row2, tail in bucket:
                    append(row1 + tail)
        else:
            for bucket in table.values():
                for row2, tail in bucket:
                    if _rows_compatible(row1, row2, shared_pairs):
                        matched = True
                        append(_merge_rows(row1, row2, shared_pairs, tail))
        for row2, tail in loose_probe:
            if _rows_compatible(row1, row2, shared_pairs):
                matched = True
                append(_merge_rows(row1, row2, shared_pairs, tail))
        if not matched:
            append(row1 + pad)
    return Bag.from_rows(out_schema, out)
