"""Candidate-pruning policy (§6).

Candidate pruning passes the current partial results into nested
UNION / OPTIONAL / group evaluation, where the values of shared
variables become *candidate sets* restricting BGP evaluation.  It only
pays off when the candidate set is smaller than what the BGP would
produce anyway, so a threshold gates its use:

- ``FIXED`` — a fraction of the store's triple count (the paper's CP
  configuration uses 1 %);
- ``ADAPTIVE`` — the engine's estimated result size for the concrete
  BGP, when available (the paper's *full* configuration), falling back
  to the fixed fraction.
- ``OFF`` — never prune (the base / TT configurations).

How a candidate set restricts evaluation is the BGP engine's side of
the contract, but both engines follow one rule
(:func:`repro.bgp.interface.candidate_driver`): a pattern step whose
free endpoint carries a set smaller than the step's scan seeks those
ids one index probe each, so pruning cuts the *scan*, not only its
output; a set on a bound or non-driving variable is a membership test
or a leapfrog operand.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Set

from ..bgp.interface import BGPEngine, Candidates
from ..rdf.triple import TriplePattern
from ..sparql.bags import Bag
from ..storage.runs import SortedIdSet

__all__ = ["ThresholdMode", "CandidatePolicy"]

#: The paper's fixed-threshold setting: 1% of the triples in the store.
DEFAULT_FIXED_FRACTION = 0.01


class ThresholdMode(enum.Enum):
    OFF = "off"
    FIXED = "fixed"
    ADAPTIVE = "adaptive"


class CandidatePolicy:
    """Decides whether / how a candidate bag restricts a BGP evaluation."""

    def __init__(
        self,
        mode: ThresholdMode = ThresholdMode.OFF,
        fixed_fraction: float = DEFAULT_FIXED_FRACTION,
    ):
        if not isinstance(mode, ThresholdMode):
            raise TypeError(f"mode must be a ThresholdMode, got {mode!r}")
        if fixed_fraction <= 0:
            raise ValueError("fixed_fraction must be positive")
        self.mode = mode
        self.fixed_fraction = fixed_fraction

    @property
    def enabled(self) -> bool:
        return self.mode is not ThresholdMode.OFF

    def threshold(
        self,
        engine: BGPEngine,
        patterns: Sequence[TriplePattern],
    ) -> float:
        """Maximum candidate-bag size for pruning to be worthwhile."""
        fixed = self.fixed_fraction * max(len(engine.store), 1)
        if self.mode is ThresholdMode.FIXED:
            return fixed
        if self.mode is ThresholdMode.ADAPTIVE:
            if patterns:
                return max(engine.estimate(patterns).cardinality, 1.0)
            return fixed
        return 0.0

    def candidates_for(
        self,
        engine: BGPEngine,
        patterns: Sequence[TriplePattern],
        candidate_bag: Optional[Bag],
    ) -> Optional[Candidates]:
        """Extract per-variable candidate sets, or None when pruning is
        off, useless (no shared variables) or over threshold.

        The evaluator never passes an empty bag: a group stops at its
        first empty accumulator, so nothing downstream of it runs."""
        if not self.enabled or candidate_bag is None:
            return None
        # Threshold first: it is O(1) with memoized estimates, while the
        # certain-variable analysis touches the candidate bag's columns
        # (once — the bag caches it) and distinct-value collection scans
        # them — for an over-threshold bag that would be pure overhead.
        if len(candidate_bag) >= self.threshold(engine, patterns):
            return None
        shared = self._shared_variables(patterns, candidate_bag)
        if not shared:
            return None
        out: Candidates = {}
        for name in shared:
            values = candidate_bag.distinct_values(name)
            if values:
                out[name] = SortedIdSet.from_ids(values)
        return out or None

    @staticmethod
    def _shared_variables(
        patterns: Sequence[TriplePattern], candidate_bag: Bag
    ) -> Set[str]:
        bgp_vars: Set[str] = set()
        for pattern in patterns:
            # Only subject/object positions can be candidate-driven.
            bgp_vars.update(v.name for v in pattern.join_variables())
        # Only variables bound in *every* candidate solution constrain
        # joinability — a variable left unbound by some OPTIONAL miss
        # is compatible with any value.
        return bgp_vars & candidate_bag.certain_variables()
