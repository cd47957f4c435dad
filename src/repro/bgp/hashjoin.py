"""Jena-style BGP engine: streaming scans + binary hash/merge joins.

Each triple pattern is scanned into columnar rows, and relations are
combined pairwise in a selectivity-greedy order.  Scans are generators:
the accumulated result is the build side and each new pattern's rows
stream through as probes (``join_streamed``), so a scanned pattern is
never materialized as its own bag.  The hash cost model is Equation 9
of the paper:

    cost(BinaryJoin(V1, V2)) = 2·min(card(V1), card(V2)) + max(card(V1), card(V2))

(2× the build side plus 1× the probe side).

The store serves every scan from sorted permutation arrays, and the
engine exploits that order end-to-end:

- a scan whose binding combination makes the chosen permutation emit a
  variable in ascending order is tagged with that sort variable
  (:func:`~repro.bgp.plans.scan_sort_variable`);
- when the accumulated result and the next scan are both sorted on
  their single shared variable, the step becomes a **merge join**
  (:func:`~repro.sparql.bags.merge_join_streamed`) with galloping
  advance — cost ``card(V1) + card(V2)`` instead of Equation 9, which
  the cost model mirrors so plan-time Δ-costs match the executed path;
- a single-variable scan is served as a zero-copy sorted run; when it
  is the larger join side the merge degenerates to a **galloping
  semi-join** that skips most of the run entirely, and when the
  variable carries a sorted candidate set the run is *intersected*
  with it by range restriction instead of per-element membership
  tests (§6's candidate pruning, realized on sorted arrays).

Every order-exploiting path falls back to the hash path when its
preconditions fail (no single shared sort variable, a filter dropped
rows out of a run).

This module holds only the join steps and their cost:
:class:`~repro.bgp.interface.BGPEngine` encodes, counts and orders the
patterns, applies leftover filters and memoizes estimates.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..obs.counters import EXEC_COUNTERS
from ..rdf.triple import TriplePattern
from ..sparql.bags import (
    Bag,
    Row,
    UNBOUND,
    join,
    join_output_schema,
    join_streamed,
    merge_join_streamed,
)
from ..storage.runs import as_span, gallop_left
from ..storage.store import EncodedPattern
from .filters import combine_predicates as _combine, filtered_rows as _filtered_rows
from .interface import (
    BGPEngine,
    Candidates,
    candidate_driver,
    candidate_probes,
    ticked_rows,
)
from .plans import scan_sort_variable

__all__ = ["HashJoinEngine", "binary_join_cost", "merge_join_cost"]


def binary_join_cost(card1: float, card2: float) -> float:
    """Equation 9: hash-build twice the smaller side, probe the larger."""
    return 2.0 * min(card1, card2) + max(card1, card2)


def merge_join_cost(card1: float, card2: float) -> float:
    """Merge-join step cost: one ordered pass over each side.

    Always ≤ Equation 9 (it drops the extra build pass), so whenever a
    merge is *possible* the planner prices the step cheaper — galloping
    can only reduce the realized cost further on skew.
    """
    return card1 + card2


class HashJoinEngine(BGPEngine):
    """Scan-and-hash/merge-join BGP engine (Jena/TDB-like)."""

    name = "hashjoin"

    def _join_steps(self, ordered, encoded, counts, candidates, remaining, limit, checkpoint):
        counters = EXEC_COUNTERS
        result: Optional[Bag] = None
        #: Variable the accumulated result's rows are ascending on (the
        #: carrier of merge-join eligibility), or None when unordered.
        acc_sorted: Optional[str] = None
        last = len(ordered) - 1
        for index, pattern in enumerate(ordered):
            if checkpoint is not None:
                checkpoint()
            schema, rows, sort_var, run_values = self._scan_rows(
                pattern, encoded[pattern], candidates
            )
            if checkpoint is not None:
                # Amortized cancellation inside the streaming scan: the
                # deadline can abort a long probe mid-pattern instead of
                # only between patterns.
                rows = ticked_rows(rows, checkpoint, mask=1023)
            if remaining:
                # Pushdown stage 1: filters covered by this one scan run
                # inside the streaming scan, before any join sees the rows.
                scan_covered = set(schema)
                scan_filters = [f for f in remaining if f.variables <= scan_covered]
                if scan_filters:
                    remaining[:] = [f for f in remaining if f not in scan_filters]
                    if index == last and limit is not None:
                        # A LIMIT can stop this scan: screen per row, so
                        # no id is decoded from a row never returned.
                        rows = filter(_combine(scan_filters, schema), rows)
                    else:
                        # Compare-and-compact chunks (order-preserving,
                        # so sort tags stay truthful).
                        rows = _filtered_rows(scan_filters, schema, rows)
                    run_values = None  # rows may drop; the raw run is stale
            join_filters: List = []
            stop: Optional[int] = None
            out_schema: Optional[Tuple[str, ...]] = None
            if result is not None and (remaining or (index == last and limit is not None)):
                out_schema = join_output_schema(result.schema, schema)
                join_filters = [
                    f for f in remaining if f.variables <= set(out_schema)
                ]
                if join_filters:
                    remaining[:] = [f for f in remaining if f not in join_filters]
                stop = limit if (index == last and not remaining) else None
            if result is None:
                if index == last and not remaining and limit is not None:
                    rows = islice(rows, limit)
                result = Bag.from_rows(schema, list(rows))
                acc_sorted = sort_var
            else:
                shared = [v for v in schema if result.slot(v) is not None]
                mergeable = (
                    sort_var is not None
                    and len(shared) == 1
                    and shared[0] == sort_var
                )
                keep = None
                if join_filters:
                    if out_schema is None:
                        out_schema = join_output_schema(result.schema, schema)
                    keep = _combine(join_filters, out_schema)
                if mergeable and acc_sorted == sort_var:
                    counters.merge_joins += 1
                    if (
                        run_values is not None
                        and checkpoint is None
                        and len(run_values) > len(result)
                    ):
                        # The scan is a plain sorted run larger than the
                        # accumulated side: gallop *into* the run from
                        # the small side instead of streaming it —
                        # O(|result|·log|run|), skipping most of the run.
                        # (With a checkpoint armed, stream instead so
                        # cancellation keeps its amortized-tick bound.)
                        result = self._gallop_semi_join(
                            result, sort_var, run_values, keep, stop, counters
                        )
                    else:
                        result = merge_join_streamed(
                            result,
                            schema,
                            rows,
                            keep=keep,
                            stop_at=stop,
                            checkpoint=checkpoint,
                            stats=counters,
                        )
                    # Merge output stays ascending on the join variable.
                elif keep is not None or stop is not None:
                    # Pushdown stage 2: filters completed by this join run
                    # on its output rows as they are produced, and on the
                    # last join a LIMIT stops the probe once enough
                    # (post-filter) rows exist.
                    counters.hash_joins += 1
                    result = join_streamed(
                        result, schema, rows, keep=keep, stop_at=stop, checkpoint=checkpoint
                    )
                    acc_sorted = sort_var if mergeable else None
                elif (
                    self._scan_estimate(encoded[pattern], counts[pattern], candidates)
                    < len(result)
                ):
                    # The scan is the smaller relation: materialize it and
                    # let join() hash-build on it (Equation 9 builds on the
                    # cheaper side) instead of on the accumulated result.
                    counters.hash_joins += 1
                    result = join(
                        result, Bag.from_rows(schema, list(rows)), checkpoint=checkpoint
                    )
                    acc_sorted = None  # output follows the probe (result) order
                else:
                    counters.hash_joins += 1
                    result = join_streamed(result, schema, rows, checkpoint=checkpoint)
                    # A sorted probe drives emission in key order, so a
                    # single-shared-variable hash join preserves the
                    # probe's order even off the merge path.
                    acc_sorted = sort_var if mergeable else None
            counters.rows_materialized += len(result)
            if not result:
                return Bag.empty()
        return result

    @staticmethod
    def _gallop_semi_join(
        build: Bag,
        variable: str,
        values: Sequence[int],
        keep,
        stop_at: Optional[int],
        counters,
    ) -> Bag:
        """``build ⋉ values``: keep build rows whose ``variable`` is in
        the sorted ``values`` sequence, galloping both frontiers.

        The probe side contributes no columns (a single-variable scan
        shares its only variable), so the join degenerates to a filter
        over the build rows — emitted in build order, preserving the
        sort that made the merge eligible.
        """
        slot = build.slot(variable)
        assert slot is not None
        out: List[Row] = []
        append = out.append
        seq, frontier, n = as_span(values)
        last_key: object = None
        present = False
        probes = 0
        for row in build.rows:
            key = row[slot]
            if key is UNBOUND:
                # Unreachable from the engine's own accumulation (scans
                # bind every schema slot), handled for exactness: an
                # unbound slot is compatible with every probe value.
                for value in values:
                    merged = row[:slot] + (value,) + row[slot + 1 :]
                    if keep is None or keep(merged):
                        append(merged)
                        if stop_at is not None and len(out) >= stop_at:
                            return Bag.from_rows(build.schema, out)
                continue
            if key != last_key:
                last_key = key
                frontier = gallop_left(seq, key, frontier, n)
                probes += 1
                present = frontier < n and seq[frontier] == key
            if present:
                if keep is None or keep(row):
                    append(row)
                    if stop_at is not None and len(out) >= stop_at:
                        break
        counters.gallop_probes += probes
        counters.gallop_advances += probes
        return Bag.from_rows(build.schema, out)

    def _scan_rows(
        self,
        pattern: TriplePattern,
        encoded: EncodedPattern,
        candidates: Optional[Candidates] = None,
    ) -> Tuple[Tuple[str, ...], Iterator[Row], Optional[str], Optional[Sequence[int]]]:
        """One pattern's matches as a streaming row source plus order tags.

        Returns ``(schema, rows, sort_var, run_values)``:

        - ``sort_var`` — the variable the rows are ascending on, or
          None when no order can be promised;
        - ``run_values`` — for single-variable scans served straight
          off a permutation (possibly candidate-intersected),
          the sorted value sequence itself, enabling the galloping
          semi-join without re-materializing.

        When a variable position carries a candidate set smaller than
        the unrestricted scan, the scan is *driven* from the candidates
        (one indexed probe per candidate id) — the mechanics of §6's
        candidate pruning inside the BGP engine.  Candidate sets
        iterate ascending, so a driven scan is itself a sorted run on
        the driver variable.
        """
        schema, positions = pattern.layout()
        if not schema:  # ground pattern: existence filter
            if self.store.count_pattern(encoded) > 0:
                return (), iter([()]), None, None
            return (), iter(()), None, None

        if len(schema) == 1 and sum(1 for term in encoded if isinstance(term, str)) == 1:
            return self._rows_single_run(encoded, schema, candidates)

        driver = self._driver(encoded, candidates)
        if driver is not None:
            return (
                schema,
                self._rows_driven(encoded, schema, positions, driver, candidates),
                driver[1],
                None,
            )
        filters = self._slot_filters(schema, candidates)
        sort_var = scan_sort_variable(encoded)
        return schema, self._rows_plain(encoded, positions, filters), sort_var, None

    def _rows_single_run(
        self,
        encoded,
        schema: Tuple[str, ...],
        candidates: Optional[Candidates],
    ) -> Tuple[Tuple[str, ...], Iterator[Row], Optional[str], Optional[Sequence[int]]]:
        """A one-free-variable pattern as a zero-copy sorted run.

        The matching values are exactly one contiguous permutation
        range.  A candidate set on the variable is applied by
        galloping range intersection — the §6 pruning step priced as
        O(min·log max) instead of a per-element membership test per row.
        """
        variable = schema[0]
        s, p, o = (term if isinstance(term, int) else None for term in encoded)
        run = self.store.indexes.single_variable_run(s, p, o)
        assert run is not None  # exactly one free position by construction
        values: Sequence[int] = run
        cand = candidates.get(variable) if candidates else None
        if cand is not None:
            counters = EXEC_COUNTERS
            counters.candidate_intersections += 1
            counters.candidate_intersection_in += len(run) + len(cand)
            values = cand.intersect_run(run.values, run.start, run.stop, counters)
            counters.candidate_intersection_out += len(values)
        return schema, ((value,) for value in values), variable, values

    def _scan_estimate(
        self,
        encoded: EncodedPattern,
        count: int,
        candidates: Optional[Candidates],
    ) -> float:
        """Expected scan size for the build-side choice.

        Mirrors :meth:`_scan_rows`: when a candidate set would drive the
        scan (:func:`~repro.bgp.interface.candidate_driver`), its size is
        the better size proxy than the unrestricted pattern count.
        """
        if not candidates:
            return count
        driver = self._driver(encoded, candidates)
        return count if driver is None else min(count, len(candidates[driver[1]]))

    def _rows_plain(
        self,
        encoded,
        positions: List[int],
        filters: List[Tuple[int, Set[int]]],
    ) -> Iterator[Row]:
        for triple in self.store.match_encoded(encoded):
            row = tuple(triple[p] for p in positions)
            if not filters or all(row[s] in allowed for s, allowed in filters):
                yield row

    # ------------------------------------------------------------------
    # candidate-driven scanning
    # ------------------------------------------------------------------
    def _driver(self, encoded, candidates: Optional[Candidates]) -> Optional[Tuple[int, str]]:
        """:func:`~repro.bgp.interface.candidate_driver` for ``encoded``,
        against the index count of its bound positions (the scan size
        both engines pass)."""
        if not candidates:
            return None
        bound = (term if isinstance(term, int) else None for term in encoded)
        return candidate_driver(encoded, candidates, self.store.indexes.count(*bound))

    def _rows_driven(
        self,
        encoded,
        schema: List[str],
        positions: List[int],
        driver: Tuple[int, str],
        candidates: Optional[Candidates],
    ) -> Iterator[Row]:
        name = driver[1]
        filters = self._slot_filters(schema, candidates, skip=name)
        match = self.store.match_encoded
        for probe in candidate_probes(encoded, encoded, driver, candidates[name]):
            for triple in match(probe):
                row = tuple(triple[p] for p in positions)
                if not filters or all(row[s] in allowed for s, allowed in filters):
                    yield row

    def _slot_filters(
        self,
        schema: List[str],
        candidates: Optional[Candidates],
        skip: Optional[str] = None,
    ) -> List[Tuple[int, Set[int]]]:
        if not candidates:
            return []
        # Slot filters probe membership once per scanned row: a plain
        # set beats the sorted array's bisect there, so the candidate
        # arrays are converted once per scan.
        return [
            (slot, set(candidates[name].ids))
            for slot, name in enumerate(schema)
            if name in candidates and name != skip
        ]

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def _step_costs(self, ordered, encoded, counts, per_step):
        """Equation 9 per step, or the merge cost where the executor
        would merge: this mirrors :meth:`_join_steps`'s merge-eligibility
        tracking, so the plan Δ-cost prices merge steps as merge steps
        (the "transparent cost model" contract of §4)."""
        acc_sorted = scan_sort_variable(encoded[ordered[0]])
        seen_vars = {v.name for v in ordered[0].variables()}
        for index in range(1, len(ordered)):
            pattern = ordered[index]
            right = float(counts[pattern])
            pattern_vars = {v.name for v in pattern.variables()}
            shared = pattern_vars & seen_vars
            sort_var = scan_sort_variable(encoded[pattern])
            mergeable = (
                sort_var is not None and len(shared) == 1 and sort_var in shared
            )
            if mergeable and acc_sorted == sort_var:
                yield merge_join_cost(per_step[index - 1], right)
            else:
                yield binary_join_cost(per_step[index - 1], right)
                acc_sorted = sort_var if mergeable else None
            seen_vars |= pattern_vars
