"""gStore-style BGP engine: worst-case-optimal vertex-at-a-time joins.

The BGP is treated as a query graph whose vertices are the
subject/object terms and whose edges are the triple patterns.  Execution
extends one query vertex at a time: for each partial result tuple, the
candidate extensions of the new vertex are enumerated from the cheapest
connecting edge's adjacency list and verified (intersected) against all
other connecting edges — the WCO join of Hogan et al. adapted to RDF
adjacency indexes, which is how gStore executes BGPs.

Partial results are columnar: a growing schema (one slot per bound
variable) plus plain tuples, so extending a partial is tuple
concatenation instead of a dict copy, and the final bag is emitted in
columnar form without conversion.

The per-vertex extension runs as a true **leapfrog intersection**:
every not-yet-processed edge whose only free variable is the vertex
being extended contributes its adjacency range as a zero-copy sorted
run, and the new vertex's values are the multi-way galloping
intersection of all those runs — plus, when the vertex carries a
candidate set, the candidate array itself (§6's pruning as one more
leapfrog operand).  The verifier edges are consumed by the
intersection, so they never run their own one-partial-at-a-time
verification scans.  Extensions the leapfrog shape does not cover
(variable predicates, two new endpoints, repeated variables) run the
generic per-edge scan loop.

Candidate sets also drive that generic loop, so §6's pruning restricts
the scan itself even where no endpoint is bound yet (a pruned BGP's
first pattern, typically): when a free endpoint's candidate set is
smaller than the scan it would filter — the rule of
:func:`~repro.bgp.interface.candidate_driver`, which the hash engine
applies too — the step seeks each candidate id with that endpoint
bound (:func:`~repro.bgp.interface.candidate_probes`, the hash
engine's seek as well), instead of reading the whole range and testing
every triple.  The choice is made per partial tuple, against that
partial's scan.  A candidate set on the other endpoint stays a
membership test.

This module holds only the join steps and their cost:
:class:`~repro.bgp.interface.BGPEngine` encodes, counts and orders the
patterns, applies leftover filters and memoizes estimates.

Cost model (paper §5.1.2):

    cost(WCOJoin({v1…vk-1}, vk)) = card({v1…vk-1}) × min_i average_size(vi, p)

i.e. for every existing partial tuple, the engine scans the cheapest
incident adjacency list at least once.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs.counters import EXEC_COUNTERS
from ..sparql.bags import Bag, Row
from ..storage.runs import leapfrog_spans
from ..storage.store import MISSING_ID, EncodedPattern
from .filters import KERNEL_CHUNK, combine_predicates as _combine, compact_rows
from .interface import (
    BGPEngine,
    Candidates,
    candidate_driver,
    candidate_probes,
    ticked_rows,
)

__all__ = ["WCOJoinEngine"]


def _compact_tail(out: List[Row], start: int, filters, schema: Sequence[str]) -> int:
    """Compare-and-compact ``out[start:]`` in place; returns the new
    already-screened length.  Order-preserving, so the extension loop can
    flush pending emissions chunk by chunk."""
    out[start:] = compact_rows(filters, schema, out[start:])
    return len(out)


class _Verifier:
    """A consumed lookahead edge: its only free variable is the vertex
    currently being extended, so it contributes one sorted adjacency run
    per partial tuple to the leapfrog intersection.

    ``anchor`` is the non-vertex endpoint — ``('const', id)`` or
    ``('slot', index)`` — and ``vertex_is_object`` says which pair
    range to take (SPO when the vertex is the object, POS when it is
    the subject).
    """

    __slots__ = ("predicate", "anchor", "vertex_is_object")

    def __init__(self, predicate: int, anchor: Tuple[str, object], vertex_is_object: bool):
        self.predicate = predicate
        self.anchor = anchor
        self.vertex_is_object = vertex_is_object


class WCOJoinEngine(BGPEngine):
    """Vertex-at-a-time worst-case-optimal join engine (gStore-like)."""

    name = "wco"

    def _join_steps(self, ordered, encoded, counts, candidates, remaining, limit, checkpoint):
        counters = EXEC_COUNTERS
        # Each pattern is a query-graph edge: its encoded (s, p, o), a
        # variable name (str) or an id (int) at each position.
        ordered_edges = [encoded[pattern] for pattern in ordered]
        schema: List[str] = []
        slots: Dict[str, int] = {}
        rows: List[Row] = [()]
        consumed: Set[int] = set()
        last = len(ordered_edges) - 1
        for index, edge in enumerate(ordered_edges):
            if index in consumed:
                continue
            if checkpoint is not None:
                checkpoint()
            verifiers: List[_Verifier] = []
            vertex = self._extension_vertex(edge, slots)
            if vertex is not None:
                verifiers = self._collect_verifiers(
                    ordered_edges, index + 1, consumed, slots, vertex
                )
            stop_at = limit if all(
                j in consumed for j in range(index + 1, last + 1)
            ) else None
            rows = self._extend(
                schema,
                slots,
                rows,
                edge,
                candidates,
                filters=remaining or None,
                stop_at=stop_at,
                checkpoint=checkpoint,
                verifiers=verifiers,
                counters=counters,
            )
            counters.rows_materialized += len(rows)
            if not rows:
                return Bag.empty()
        return Bag.from_rows(tuple(schema), rows)

    @staticmethod
    def _extension_vertex(edge: EncodedPattern, slots: Dict[str, int]) -> Optional[str]:
        """The single new endpoint variable this edge would bind, if the
        edge is a plain vertex extension (constant/bound predicate, no
        repeated free variable) — the leapfrog-eligible shape."""
        s, p, o = edge
        if isinstance(p, str) and p not in slots:
            return None
        s_new = isinstance(s, str) and s not in slots
        o_new = isinstance(o, str) and o not in slots
        if s_new == o_new:  # zero or two new endpoints (?v p ?v is two)
            return None
        return s if s_new else o  # type: ignore[return-value]

    def _collect_verifiers(
        self,
        ordered_edges: List[EncodedPattern],
        start: int,
        consumed: Set[int],
        slots: Dict[str, int],
        vertex: str,
    ) -> List[_Verifier]:
        """Consume later edges whose only free variable is ``vertex``.

        Each such edge, once the current edge binds the vertex, would
        degenerate into a per-partial membership probe; intersecting
        its adjacency run instead verifies *all* partials' extensions
        in one leapfrog pass and the edge never executes on its own.
        """
        verifiers: List[_Verifier] = []
        for j in range(start, len(ordered_edges)):
            if j in consumed:
                continue
            s, p, o = ordered_edges[j]
            if isinstance(p, str) or (s == vertex) == (o == vertex):
                continue  # variable predicate, or not one vertex occurrence
            vertex_is_object = o == vertex
            anchor_value = s if vertex_is_object else o
            if isinstance(anchor_value, str):
                slot = slots.get(anchor_value)
                if slot is None:
                    continue  # anchor not bound yet: not a pure verifier
                anchor: Tuple[str, object] = ("slot", slot)
            else:
                anchor = ("const", anchor_value)
            verifiers.append(_Verifier(p, anchor, vertex_is_object))
            consumed.add(j)
        return verifiers

    def _extend(
        self,
        schema: List[str],
        slots: Dict[str, int],
        rows: List[Row],
        edge: EncodedPattern,
        candidates: Optional[Candidates],
        filters=None,
        stop_at: Optional[int] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        verifiers: Sequence[_Verifier] = (),
        counters=None,
    ) -> List[Row]:
        """Extend every partial tuple through one edge.

        Depending on which of the edge's variables are already bound
        this is a vertex extension (adjacency enumeration), an edge
        verification (O(1) membership probe) or a predicate binding.
        The new variables and their slots are decided once per edge,
        not once per partial tuple.

        ``filters`` is a *mutable* list of compiled filters: every
        filter covered by the schema after this edge's extension runs
        on this edge's output and is removed from the list.  ``stop_at``
        aborts extension once that many (post-filter) tuples exist; it
        is ignored while uncovered filters remain, since rows could
        still be dropped later.  With ``stop_at`` armed the filters read
        their verdict memos per extended tuple, so early exit counts
        surviving rows; otherwise the emitted rows are compacted in
        :data:`~repro.bgp.filters.KERNEL_CHUNK`-row batches.

        A single-new-vertex extension with ``verifiers`` and/or a
        candidate set runs as a leapfrog intersection of sorted runs
        (see module docstring) instead of scan-then-filter.  Any other
        extension whose free endpoint carries a candidate set smaller
        than its scan seeks those ids one probe each
        (:func:`~repro.bgp.interface.candidate_driver`); everything
        after the scan — repeated-variable checks, membership tests,
        ``keep``, ``stop_at``, chunked compaction — is the same loop.
        """
        def classify(term):
            if not isinstance(term, str):
                return ("const", term)
            slot = slots.get(term)
            if slot is not None:
                return ("slot", slot)
            return ("free", term)

        cs, cp, co = map(classify, edge)
        svar = cs[1] if cs[0] == "free" else None
        pvar = cp[1] if cp[0] == "free" else None
        ovar = co[1] if co[0] == "free" else None
        # Repeated free variable in one pattern (e.g. ?x ?x ?y / ?x p ?x):
        same_so = svar is not None and svar == ovar
        same_sp = svar is not None and svar == pvar
        same_po = pvar is not None and pvar == ovar

        allowed_s = candidates.get(svar) if candidates and svar else None
        allowed_p = candidates.get(pvar) if candidates and pvar else None
        allowed_o = candidates.get(ovar) if candidates and ovar else None

        emit_p = pvar is not None and pvar != svar
        emit_o = ovar is not None and ovar != svar and ovar != pvar
        new_vars: List[str] = []
        if svar is not None:
            new_vars.append(svar)
        if emit_p:
            new_vars.append(pvar)
        if emit_o:
            new_vars.append(ovar)
        schema.extend(new_vars)
        for name in new_vars:
            slots[name] = len(slots)

        keep = None
        batch: List = []
        if filters:
            covered = set(schema)
            eligible = [f for f in filters if f.variables <= covered]
            for compiled in eligible:
                filters.remove(compiled)
            if stop_at is not None and filters:
                stop_at = None  # uncovered filters could still drop rows
            if stop_at is None:
                # The whole extension runs: compact its emitted rows in
                # chunks.
                batch = eligible
            else:
                # A LIMIT can stop the extension: screen per row, so
                # early exit counts surviving rows and decodes no id of
                # a row never returned.
                keep = _combine(eligible, schema)

        # ------------------------------------------------------------------
        # leapfrog fast path: one new endpoint vertex, runs to intersect
        # ------------------------------------------------------------------
        if pvar is None and not (same_so or same_sp or same_po):
            vertex_is_object = ovar is not None and svar is None
            vertex_is_subject = svar is not None and ovar is None
            if vertex_is_object or vertex_is_subject:
                allowed = allowed_o if vertex_is_object else allowed_s
                if verifiers or allowed is not None:
                    out = self._extend_leapfrog(
                        rows,
                        cs,
                        cp,
                        co,
                        vertex_is_object,
                        allowed.ids if allowed is not None else None,
                        verifiers,
                        keep,
                        stop_at,
                        checkpoint,
                        counters,
                    )
                    if batch:
                        _compact_tail(out, 0, batch, schema)
                    return out
        assert not verifiers  # verifiers are only collected for the fast path

        # §6's driver rule, shared with the hash engine: per partial, a
        # free endpoint whose candidate set is smaller than that
        # partial's scan is sought one candidate id at a time instead
        # of scanned and filtered.
        scan = self.store.indexes.scan
        count = self.store.indexes.count
        step = (svar, pvar, ovar)
        drivable = allowed_s is not None or allowed_o is not None

        # The generic loop probes membership per scanned triple; a
        # plain set beats bisect there, so the candidate arrays are
        # converted once per edge (they stay sorted where it matters —
        # the leapfrog path above, seeks and the hash engine's
        # intersections).
        if allowed_s is not None:
            allowed_s = set(allowed_s.ids)
        if allowed_p is not None:
            allowed_p = set(allowed_p.ids)
        if allowed_o is not None:
            allowed_o = set(allowed_o.ids)

        out: List[Row] = []
        compacted_to = 0  # out[:compacted_to] is already batch-screened
        tick = 0  # outer-loop tick: empty scans must still hit the hook
        for row in rows:
            if checkpoint is not None:
                tick += 1
                if not (tick & 4095):
                    checkpoint()
            s = cs[1] if cs[0] == "const" else (row[cs[1]] if cs[0] == "slot" else None)
            p = cp[1] if cp[0] == "const" else (row[cp[1]] if cp[0] == "slot" else None)
            o = co[1] if co[0] == "const" else (row[co[1]] if co[0] == "slot" else None)
            driver = candidate_driver(step, candidates, count(s, p, o)) if drivable else None
            if driver is None:
                triples: Iterable = scan(s, p, o)
            else:
                probes: Iterable = candidate_probes(
                    (s, p, o), step, driver, candidates[driver[1]].ids
                )
                if checkpoint is not None:
                    probes = ticked_rows(probes, checkpoint)
                triples = (triple for probe in probes for triple in scan(*probe))
            if checkpoint is not None:
                # Cancellation armed: tick amortized inside the scan, so
                # the hot timeout-less path carries no per-triple branch.
                triples = ticked_rows(triples, checkpoint)
            for ts, tp, to in triples:
                if same_so and ts != to:
                    continue
                if same_sp and ts != tp:
                    continue
                if same_po and tp != to:
                    continue
                if allowed_s is not None and ts not in allowed_s:
                    continue
                if allowed_p is not None and tp not in allowed_p:
                    continue
                if allowed_o is not None and to not in allowed_o:
                    continue
                if svar is not None:
                    if emit_p:
                        extension = (ts, tp, to) if emit_o else (ts, tp)
                    else:
                        extension = (ts, to) if emit_o else (ts,)
                elif emit_p:
                    extension = (tp, to) if emit_o else (tp,)
                else:
                    extension = (to,) if emit_o else ()
                extended = row + extension
                if keep is not None and not keep(extended):
                    continue
                out.append(extended)
                if batch and len(out) - compacted_to >= KERNEL_CHUNK:
                    compacted_to = _compact_tail(out, compacted_to, batch, schema)
                if stop_at is not None and len(out) >= stop_at:
                    return out
        if batch:
            _compact_tail(out, compacted_to, batch, schema)
        return out

    def _extend_leapfrog(
        self,
        rows: List[Row],
        cs,
        cp,
        co,
        vertex_is_object: bool,
        sorted_cand: Optional[Sequence[int]],
        verifiers: Sequence[_Verifier],
        keep,
        stop_at: Optional[int],
        checkpoint: Optional[Callable[[], None]],
        counters,
    ) -> List[Row]:
        """Per-partial leapfrog: vertex values = ∩ of all incident spans.

        For each partial tuple the base edge's adjacency range, every
        verifier edge's adjacency range and the vertex's candidate
        array are intersected with multi-way galloping —
        O(smallest · Σ log) per tuple instead of scanning the base run
        and probing sets/edges per element.  Everything runs on raw
        ``(backing, lo, hi)`` spans: no per-partial view allocation,
        and the bisects index C arrays directly.
        """
        indexes = self.store.indexes
        object_span = indexes.object_span
        subject_span = indexes.subject_span
        verifier_specs = [
            (
                verifier.predicate,
                verifier.anchor[0] == "const",
                verifier.anchor[1],
                verifier.vertex_is_object,
            )
            for verifier in verifiers
        ]
        cand_span = (
            (sorted_cand, 0, len(sorted_cand)) if sorted_cand is not None else None
        )
        out: List[Row] = []
        append = out.append
        intersections = 0
        in_total = 0
        out_total = 0
        tick = 0
        for row in rows:
            if checkpoint is not None:
                tick += 1
                if not (tick & 1023):
                    checkpoint()
            if vertex_is_object:
                s = cs[1] if cs[0] == "const" else row[cs[1]]
                p = cp[1] if cp[0] == "const" else row[cp[1]]
                base = object_span(s, p)
            else:
                p = cp[1] if cp[0] == "const" else row[cp[1]]
                o = co[1] if co[0] == "const" else row[co[1]]
                base = subject_span(p, o)
            if base[1] >= base[2]:
                continue
            spans = [base]
            empty = False
            for predicate, is_const, anchor, v_is_object in verifier_specs:
                value = anchor if is_const else row[anchor]
                span = (
                    object_span(value, predicate)
                    if v_is_object
                    else subject_span(predicate, value)
                )
                if span[1] >= span[2]:
                    empty = True
                    break
                spans.append(span)
            if empty:
                continue
            if cand_span is not None:
                spans.append(cand_span)
            if len(spans) == 1:
                arr, lo, hi = base
                values: Sequence[int] = arr[lo:hi]
            else:
                values = leapfrog_spans(spans, counters)
                intersections += 1
                in_total += sum(span[2] - span[1] for span in spans)
                out_total += len(values)
            for value in values:
                extended = row + (value,)
                if keep is not None and not keep(extended):
                    continue
                append(extended)
                if stop_at is not None and len(out) >= stop_at:
                    if counters is not None:
                        counters.candidate_intersections += intersections
                        counters.candidate_intersection_in += in_total
                        counters.candidate_intersection_out += out_total
                    return out
        if counters is not None:
            counters.candidate_intersections += intersections
            counters.candidate_intersection_in += in_total
            counters.candidate_intersection_out += out_total
        return out

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def _step_costs(self, ordered, encoded, counts, per_step):
        """WCO step cost: card(V_{k-1}) × min_i average_size(vi, p_k)."""
        edges = [encoded[pattern] for pattern in ordered]
        bound_vars = {term for term in edges[0] if isinstance(term, str)}
        for index in range(1, len(edges)):
            edge = edges[index]
            yield per_step[index - 1] * self._min_average_size(edge, bound_vars)
            bound_vars.update(term for term in edge if isinstance(term, str))

    def _min_average_size(self, edge: EncodedPattern, bound_vars: Set[str]) -> float:
        """min_i average_size(vi, p) over the edge's bound endpoints.

        When the predicate is a variable the per-predicate statistics
        cannot be used; fall back to the global average degree.
        """
        stats = self.store.statistics
        s, p, o = edge
        if isinstance(p, str):
            total = stats.total_triples
            predicates = max(stats.predicate_count(), 1)
            return max(total / predicates, 1.0)
        if p == MISSING_ID:
            return 1.0
        sizes: List[float] = []
        if not isinstance(s, str) or s in bound_vars:
            sizes.append(stats.average_size(p, "out"))
        if not isinstance(o, str) or o in bound_vars:
            sizes.append(stats.average_size(p, "in"))
        if not sizes:
            # Disconnected extension: every edge with this predicate is
            # a possible match.
            return float(stats.for_predicate(p).triples)
        return max(min(sizes), 1.0)
