"""The term-level sampling estimator that preceded the id-level
``repro.bgp.cardinality.estimate_sequence``, kept as the reference that
``test_estimator_equivalence.py`` compares the new sampler against:
each extension probe decodes the sample row's ids, substitutes them into
the ``TriplePattern`` and re-encodes it.  Nothing under ``src/`` imports
it.  Original docstring:

Sampling-based cardinality estimation (paper §5.1.2).

Estimation starts from single triple patterns, whose exact result count
comes straight from the pre-built indexes.  Each time a pattern is added
to the joined set, we draw a bounded sample of the current partial
results, count how many extended result tuples the sample generates, and
scale the previous estimate:

    card(V_k) = max(#extend / #sample × card(V_{k-1}), 1)

The estimator also materializes the (bounded) sample of partial result
mappings, which doubles as the seed for the next extension step — this
matches how gStore's plan generator pipelines estimation.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Sequence, Tuple

from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.storage.store import TripleStore

__all__ = ["CardinalityEstimator"]

#: Default number of partial result tuples sampled per extension step.
DEFAULT_SAMPLE_SIZE = 64


class CardinalityEstimator:
    """Join-order-aware sampling estimator over one store."""

    def __init__(
        self,
        store: TripleStore,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        seed: int = 0,
    ):
        if sample_size < 1:
            raise ValueError("sample_size must be positive")
        self.store = store
        self.sample_size = sample_size
        self.seed = seed

    # ------------------------------------------------------------------
    # pattern sequences
    # ------------------------------------------------------------------
    def estimate_sequence(
        self, patterns: Sequence[TriplePattern]
    ) -> Tuple[float, List[float]]:
        """Estimate cardinality after each join step of an ordered BGP.

        Returns ``(final_estimate, per_step_estimates)``; the list has
        one entry per pattern, giving card(V_1), card(V_2), ….

        The samples come from an RNG seeded by the ordered encoded
        patterns, so an estimate never depends on the estimates made
        before it.
        """
        if not patterns:
            return 1.0, []
        encoded = [self.store.encode_pattern(pattern) for pattern in patterns]
        rng = random.Random(zlib.crc32(repr(encoded).encode("utf-8"), self.seed))
        per_step: List[float] = []
        card = float(self.store.count_pattern(encoded[0]))
        per_step.append(card)
        sample = self._initial_sample(patterns[0], rng)
        for pattern in patterns[1:]:
            card, sample = self._extend_estimate(card, sample, pattern, rng)
            per_step.append(card)
        return card, per_step

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _initial_sample(
        self, pattern: TriplePattern, rng: random.Random
    ) -> List[Dict[str, int]]:
        matches: List[Dict[str, int]] = []
        encoded = self.store.encode_pattern(pattern)
        for triple in self.store.match_encoded(encoded):
            matches.append(self._binding_from_match(pattern, triple))
            # Reservoir-free early exit: index order is deterministic;
            # sampling 4× the target keeps variance reasonable without
            # scanning huge relations.
            if len(matches) >= self.sample_size * 4:
                break
        if len(matches) > self.sample_size:
            matches = rng.sample(matches, self.sample_size)
        return matches

    def _binding_from_match(
        self, pattern: TriplePattern, triple: Tuple[int, int, int]
    ) -> Dict[str, int]:
        binding: Dict[str, int] = {}
        for term, value in zip(pattern.as_tuple(), triple):
            if isinstance(term, Variable):
                binding[term.name] = value
        return binding

    def _extend_estimate(
        self,
        card: float,
        sample: List[Dict[str, int]],
        pattern: TriplePattern,
        rng: random.Random,
    ) -> Tuple[float, List[Dict[str, int]]]:
        if not sample:
            # The prefix already has (estimated) zero results: stay at the
            # floor of 1 as the paper's formula prescribes.
            return 1.0, []
        variables = {v.name for v in pattern.variables()}
        extended: List[Dict[str, int]] = []
        extend_count = 0
        for binding in sample:
            bound = {
                Variable(name): self.store.decode(value)
                for name, value in binding.items()
                if name in variables
            }
            try:
                concrete = pattern.substitute(bound) if bound else pattern
            except ValueError:
                # The binding puts a term where the pattern grammar
                # forbids it (e.g. a literal at the predicate position
                # of `?v ?v ?v`): no triple can match this row.
                continue
            encoded = self.store.encode_pattern(concrete)
            for triple in self.store.match_encoded(encoded):
                extend_count += 1
                new_binding = dict(binding)
                new_binding.update(self._binding_from_match(concrete, triple))
                if len(extended) < self.sample_size * 4:
                    extended.append(new_binding)
        new_card = max(extend_count / len(sample) * card, 1.0)
        if len(extended) > self.sample_size:
            extended = rng.sample(extended, self.sample_size)
        return new_card, extended
