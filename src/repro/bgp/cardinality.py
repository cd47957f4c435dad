"""Sampling-based cardinality estimation (paper §5.1.2).

Estimation starts from single triple patterns, whose exact result count
comes straight from the pre-built indexes — :class:`~repro.bgp.interface.BGPEngine`
has already counted each pattern, and passes the first one's count in.
Each time a pattern is added to the joined set, we draw a bounded sample
of the current partial results, count how many extended result tuples
the sample generates, and scale the previous estimate:

    card(V_k) = max(#extend / #sample × card(V_{k-1}), 1)

The sampler works at the engine's own level, on the encoded patterns
(:data:`~repro.storage.store.EncodedPattern`: a ``str`` is a variable,
an ``int`` an id).  A sample row binds variable names to ids; each
extension probe is the next encoded pattern with the row's ids in its
variable slots, so no term is decoded or looked up.  The (bounded)
sample of extended rows doubles as the seed for the next extension
step — this matches how gStore's plan generator pipelines estimation.
"""

from __future__ import annotations

import random
import zlib
from itertools import islice
from typing import Dict, List, Sequence, Tuple

from ..rdf.dictionary import EncodedTriple
from ..storage.store import EncodedPattern, TripleStore

__all__ = ["estimate_sequence"]

#: Partial result rows sampled per extension step.
SAMPLE_SIZE = 64

#: Matches kept before sampling: index order is deterministic, and 4×
#: the sample keeps variance reasonable without scanning huge relations.
_KEEP = SAMPLE_SIZE * 4

Row = Dict[str, int]


def estimate_sequence(
    store: TripleStore, encoded_in_order: Sequence[EncodedPattern], first_count: int
) -> Tuple[float, List[float]]:
    """Estimate cardinality after each join step of an ordered BGP.

    ``encoded_in_order`` is the BGP's encoded patterns in join order and
    ``first_count`` the exact count of the first.  Returns
    ``(final_estimate, per_step_estimates)``; the list has one entry per
    pattern, giving card(V_1), card(V_2), ….

    The samples come from an RNG seeded by the ordered encoded
    patterns, so an estimate never depends on the estimates made
    before it.
    """
    if not encoded_in_order:
        return 1.0, []
    rng = random.Random(zlib.crc32(repr(list(encoded_in_order)).encode("utf-8")))
    first = encoded_in_order[0]
    card = float(first_count)
    per_step = [card]
    sample = _draw(
        [_bind({}, first, triple) for triple in islice(store.match_encoded(first), _KEEP)],
        rng,
    )
    for pattern in encoded_in_order[1:]:
        if not sample:
            # The prefix already has (estimated) zero results: stay at
            # the floor of 1 as the paper's formula prescribes.
            card = 1.0
        else:
            extended: List[Row] = []
            extend_count = 0
            for row in sample:
                # Ids are never row keys, so only variable slots change.
                probe = tuple(row.get(term, term) for term in pattern)
                for triple in store.match_encoded(probe):
                    extend_count += 1
                    if len(extended) < _KEEP:
                        extended.append(_bind(row, probe, triple))
            card = max(extend_count / len(sample) * card, 1.0)
            sample = _draw(extended, rng)
        per_step.append(card)
    return card, per_step


def _bind(row: Row, probe: EncodedPattern, triple: EncodedTriple) -> Row:
    """``row`` extended with the ids ``triple`` gives ``probe``'s variables."""
    extended = dict(row)
    for term, value in zip(probe, triple):
        if isinstance(term, str):
            extended[term] = value
    return extended


def _draw(rows: List[Row], rng: random.Random) -> List[Row]:
    return rng.sample(rows, SAMPLE_SIZE) if len(rows) > SAMPLE_SIZE else rows
