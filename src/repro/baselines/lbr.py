"""LBR baseline (Atre, SIGMOD 2015) — the paper's Figure 13 comparator.

LBR ("Left Bit Right") optimizes SPARQL OPTIONAL (left-outer-join)
queries.  Its execution strategy, reproduced here over our store:

1. **Per-pattern materialization** — every triple pattern is evaluated
   *individually* (no BGP-level batching, no join reordering: document
   order is kept), which is the structural difference from the paper's
   BGP-based scheme.
2. **Two-pass semijoin pruning over the GoSN** — following the graph of
   join variables, each pattern's rows are semijoin-reduced against
   every connected pattern, in a forward pass and then a backward pass.
   Pruning direction respects left-outer-join semantics: a pattern may
   prune patterns in its own or a *descendant* supernode scope, never an
   ancestor's (an optional pattern must not eliminate master rows).
3. **Join phase** — master patterns are joined pairwise in document
   order; each optional child supernode is evaluated recursively and
   left-outer-joined.  Inconsistent-binding removal (LBR's
   nullification + best-match, inherited from SQL outer-join work) is
   subsumed by the exact bag-semantics ``left_join`` operator here —
   those techniques exist to repair LBR's multiway-join encoding, which
   we do not need to emulate to reproduce its cost profile.

The two semijoin scan passes plus full per-pattern materialization are
exactly the overheads §7.2 attributes to LBR.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional as Opt, Sequence, Set, Tuple, Union as U

from ..bgp.interface import decode_page
from ..rdf.triple import TriplePattern
from ..sparql.algebra import SelectQuery, pattern_variables
from ..sparql.bags import Bag, join, left_join
from ..sparql.parser import parse_query
from ..storage.store import TripleStore
from .gosn import SuperNode, build_gosn

__all__ = ["LBREngine", "LBRResult"]

#: A pattern occurrence: (scope path, pattern, materialized rows).
_Entry = Tuple[Tuple[int, ...], TriplePattern, Bag]


class LBRResult:
    """Result of one LBR execution, with phase timings."""

    def __init__(self, solutions: Bag, variables: List[str], seconds: float, semijoin_passes: int):
        self.solutions = solutions
        self.variables = variables
        self.seconds = seconds
        self.semijoin_passes = semijoin_passes

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def __repr__(self) -> str:
        return f"LBRResult({len(self)} solutions in {self.seconds * 1000:.1f} ms)"


class LBREngine:
    """LBR-style OPTIONAL query processor over a :class:`TripleStore`."""

    name = "lbr"

    def __init__(self, store: TripleStore):
        self.store = store

    def execute(self, query: U[str, SelectQuery]) -> LBRResult:
        start = time.perf_counter()
        if isinstance(query, str):
            query = parse_query(query)
        gosn = build_gosn(query)

        entries = self._materialize(gosn)
        passes = self._two_pass_semijoin(entries)
        solutions = self._join_phase(gosn, dict_by_id(entries))

        names = query.projection_names()
        if names is None:
            names = sorted(pattern_variables(query.where))
        decoded = decode_page(self.store, solutions, names)
        return LBRResult(decoded, list(names), time.perf_counter() - start, passes)

    # ------------------------------------------------------------------
    # phase 1: per-pattern materialization
    # ------------------------------------------------------------------
    def _materialize(self, gosn: SuperNode) -> List[_Entry]:
        entries: List[_Entry] = []
        self._materialize_node(gosn, (), entries)
        return entries

    def _materialize_node(
        self, node: SuperNode, scope: Tuple[int, ...], entries: List[_Entry]
    ) -> None:
        for pattern in node.patterns:
            entries.append((scope, pattern, self._scan(pattern)))
        for index, child in enumerate(node.children):
            self._materialize_node(child, scope + (index,), entries)

    def _scan(self, pattern: TriplePattern) -> Bag:
        encoded = self.store.encode_pattern(pattern)
        if any(x == -1 for x in encoded):
            return Bag.empty()
        schema, positions = pattern.layout()
        rows = [
            tuple(triple[i] for i in positions)
            for triple in self.store.match_encoded(encoded)
        ]
        return Bag.from_rows(schema, rows)

    # ------------------------------------------------------------------
    # phase 2: two-pass semijoin pruning
    # ------------------------------------------------------------------
    def _two_pass_semijoin(self, entries: List[_Entry]) -> int:
        order = list(range(len(entries)))
        for index in order:  # forward pass
            self._reduce_neighbours(entries, index)
        for index in reversed(order):  # backward pass
            self._reduce_neighbours(entries, index)
        return 2

    def _reduce_neighbours(self, entries: List[_Entry], source_index: int) -> None:
        source_scope, source_pattern, source_bag = entries[source_index]
        source_vars = {v.name for v in source_pattern.variables()}
        for target_index, (target_scope, target_pattern, target_bag) in enumerate(entries):
            if target_index == source_index:
                continue
            if not _may_prune(source_scope, target_scope):
                continue
            shared = source_vars & {v.name for v in target_pattern.variables()}
            for var in shared:
                allowed = source_bag.distinct_values(var)
                slot = target_bag.slot(var)
                # A shared var is always in the target scan's schema;
                # UNBOUND rows (none arise from scans) would be pruned.
                kept = [
                    row
                    for row in target_bag.rows
                    if slot is not None and row[slot] in allowed
                ]
                if len(kept) != len(target_bag):
                    entries[target_index] = (
                        target_scope,
                        target_pattern,
                        Bag.from_rows(target_bag.schema, kept),
                    )
                    target_bag = entries[target_index][2]

    # ------------------------------------------------------------------
    # phase 3: join phase
    # ------------------------------------------------------------------
    def _join_phase(self, gosn: SuperNode, bag_of) -> Bag:
        return self._join_node(gosn, (), bag_of)

    def _join_node(self, node: SuperNode, scope: Tuple[int, ...], bag_of) -> Bag:
        result: Opt[Bag] = None
        for pattern in node.patterns:  # document order, pairwise joins
            bag = bag_of[(scope, id(pattern))]
            result = bag if result is None else join(result, bag)
        if result is None:
            result = Bag.identity()
        for index, child in enumerate(node.children):
            child_result = self._join_node(child, scope + (index,), bag_of)
            result = left_join(result, child_result)
        return result


def dict_by_id(entries: Sequence[_Entry]) -> Dict[Tuple[Tuple[int, ...], int], Bag]:
    """Index materialized bags by (scope, pattern identity)."""
    return {(scope, id(pattern)): bag for scope, pattern, bag in entries}


def _may_prune(source_scope: Tuple[int, ...], target_scope: Tuple[int, ...]) -> bool:
    """May ``source``'s bindings semijoin-reduce ``target``?

    Allowed when the source scope is an ancestor of (or equal to) the
    target scope: required patterns prune optional ones and peers prune
    each other, but optional patterns never reduce their masters.
    """
    return target_scope[: len(source_scope)] == source_scope
