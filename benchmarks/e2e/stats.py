"""The benchmark's own arithmetic: percentiles, medians, relative spread."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "percentile",
    "tail_percentile",
    "median",
    "geomean",
    "relative_difference",
    "steady_windows",
]

#: Percentiles a latency tail may be reported at, ascending.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(samples: int, candidates: Iterable[float] = TAIL_CANDIDATES) -> float:
    """The highest candidate percentile with at least ten samples beyond it.

    A p99 read off 200 samples is the third-largest value; requiring
    ten samples past the cut keeps the reported tail from being one
    scheduler hiccup.  Falls back to the lowest candidate for tiny samples.
    """
    ordered = sorted(candidates)
    # round(): 10_000 * (100 - 99.9) / 100 is 9.999999999999431 in binary.
    supported = [p for p in ordered if round(samples * (100.0 - p) / 100.0, 6) >= 10.0]
    return supported[-1] if supported else ordered[0]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0.0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def relative_difference(first: float, second: float) -> float:
    """``|first - second|`` as a share of their mean (0.0 when both are 0)."""
    scale = (abs(first) + abs(second)) / 2.0
    return abs(first - second) / scale if scale else 0.0


def steady_windows(
    spins: Sequence[Tuple[float, float]],
    seconds: float,
    window: float = 1.0,
    tolerance: float = 1.08,
) -> List[Tuple[float, float]]:
    """The [start, end) windows of a replay during which the host ran at
    its own best speed.

    ``spins`` are (time, CPU seconds of one calibration spin).  Each
    ``window``-second slice is scored by its median spin; the reference
    is the fastest quartile of those scores, and a slice is kept when it
    is within ``tolerance`` of the reference (the faster half of the
    slices is always kept).  On a shared host the same
    instructions take 1x-5x as long from one second to the next; the
    spin does not involve the program under test, so dropping slow
    slices removes the neighbours' load and nothing the program did.
    Slices without a spin sample are dropped; with no samples at all the
    whole replay is one window.
    """
    count = max(math.ceil(seconds / window), 1)
    scores: List[Tuple[int, float]] = []
    for number in range(count):
        inside = [cpu for at, cpu in spins if number * window <= at < (number + 1) * window]
        if inside:
            scores.append((number, float(statistics.median(inside))))
    if not scores:
        return [(0.0, seconds)]
    values = [score for _, score in scores]
    # Never fewer than the faster half: a run with one quiet second
    # must not be measured on that second alone.
    limit = max(percentile(values, 25) * tolerance, percentile(values, 50))
    return [
        (number * window, min((number + 1) * window, seconds))
        for number, score in scores
        if score <= limit
    ]
