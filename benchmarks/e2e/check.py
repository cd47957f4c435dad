"""Answer checking: every reply is compared with an independent evaluation.

The oracle is an in-process ``mode="base"`` engine (no tree
transformation, no candidate pruning — the paper's reference
configuration) over the same N-Triples input the server ingested.  Comparison is
on bags of rows, never on bytes: row order is not part of a SPARQL
answer.  Checking runs after the timed replay, on one stored copy of
each distinct payload.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.core import SparqlUOEngine
from repro.sparql.results import SERIALIZERS
from repro.storage import TripleStore

from .harness import Observation
from .workloads import Request

__all__ = [
    "Oracle",
    "RunResult",
    "Verdict",
    "acked_updates",
    "canonical_rows",
    "check_replay",
    "expected_page_rows",
]


def canonical_rows(payload: bytes, fmt: str) -> Tuple[str, Counter]:
    """(header, bag of rows) of a result document in ``fmt``.

    JSON rows are their bindings re-dumped with sorted keys; CSV/TSV
    rows are the lines after the header.  Equal bags ⇔ equal answers.
    """
    text = payload.decode("utf-8")
    if fmt == "json":
        document = json.loads(text)
        header = json.dumps(document["head"]["vars"])
        rows = (json.dumps(b, sort_keys=True) for b in document["results"]["bindings"])
        return header, Counter(rows)
    lines = text.splitlines()
    return (lines[0] if lines else ""), Counter(lines[1:])


def expected_page_rows(total: int, limit: int, offset: int) -> int:
    return min(limit, max(0, total - offset))


class Oracle:
    """Expected answers, computed once per distinct query text."""

    def __init__(self, ntriples: Path):
        # Built from the input file, not the server's snapshot: the
        # snapshot is the server's to rewrite (compaction does).
        self.engine = SparqlUOEngine(TripleStore.bulk_load(str(ntriples)), mode="base")
        self._results: Dict[str, object] = {}
        self._bags: Dict[Tuple[str, str], Tuple[str, Counter]] = {}

    def result(self, query: str):
        """The base-mode :class:`QueryResult` of ``query`` (memoized)."""
        if query not in self._results:
            self._results[query] = self.engine.execute(query)
        return self._results[query]

    def bag(self, query: str, fmt: str) -> Tuple[str, Counter]:
        key = (query, fmt)
        if key not in self._bags:
            result = self.result(query)
            payload = SERIALIZERS[fmt](result.variables, result.solutions).encode("utf-8")
            self._bags[key] = canonical_rows(payload, fmt)
        return self._bags[key]


class Verdict:
    """Counts of what was attempted and what failed, with first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class RunResult(NamedTuple):
    """What either kind of run (untraced, traced) hands to the printer."""

    #: Declared metric → value: the end-to-end list or the per-layer list.
    metrics: Dict[str, float]
    #: Undeclared numbers printed beside them: name → (value, unit).
    extras: Dict[str, tuple]
    verdict: Verdict
    #: Sample count printed with every metric (requests measured).
    samples: int


def _check_read(request: Request, payload: bytes, oracle: Oracle) -> str:
    """'' when ``payload`` is a right answer to ``request``, else why not."""
    try:
        header, rows = canonical_rows(payload, request.format)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return f"unreadable {request.format} payload: {exc}"
    if request.check == "bag":
        if (header, rows) != oracle.bag(request.text, request.format):
            return "bag differs from the base-mode oracle"
    elif request.check == "page":
        params = request.params
        full_header, full = oracle.bag(str(params["unpaged"]), request.format)
        want = expected_page_rows(sum(full.values()), int(params["limit"]), int(params["offset"]))
        if header != full_header or sum(rows.values()) != want:
            return f"page has {sum(rows.values())} rows, expected {want}"
        if rows - full:
            return "page is not a sub-bag of the unpaged answer"
    elif request.check == "own":
        if sum(rows.values()) != int(request.params["rows"]):
            return f"own-key read saw {sum(rows.values())} rows, expected {request.params['rows']}"
    return ""


def check_replay(
    log: Sequence[Request],
    observations: Sequence[Observation],
    payloads: Dict[bytes, bytes],
    oracles: Dict[str, Oracle],
) -> Verdict:
    """Check every observation of a replay (``payloads``: digest → bytes).

    Non-2xx replies and transport errors (status 0) fail outright.
    Reads are checked once per distinct (request text, format, payload)
    and the verdict applied to every observation that produced it.
    Update acks must report a change and, per client, a strictly
    increasing generation; across clients no generation may repeat.
    """
    verdict = Verdict()
    memo: Dict[Tuple[str, str, str, bytes], str] = {}
    last_generation: Dict[int, int] = {}
    generations: Counter = Counter()
    for observation in observations:
        request = log[observation.index]
        verdict.attempted += 1
        if not 200 <= observation.status < 300:
            body = payloads[observation.digest][:120]
            verdict.fail(f"{request.method} {request.check} answered {observation.status}: {body!r}")
            continue
        payload = payloads[observation.digest]
        if request.check == "update":
            reason = _check_ack(request, payload, last_generation, generations)
        else:
            key = (request.text, request.format, request.check, observation.digest)
            if key not in memo:
                memo[key] = _check_read(request, payload, oracles[request.dataset])
            reason = memo[key]
        if reason:
            verdict.fail(reason)
    repeated = [g for g, n in generations.items() if n > 1]
    if repeated:
        verdict.fail(f"generation(s) {repeated[:3]} acked to more than one update")
    return verdict


def _check_ack(
    request: Request, payload: bytes, last_generation: Dict[int, int], generations: Counter
) -> str:
    try:
        ack = json.loads(payload)
        generation = int(ack["generation"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable update ack: {exc}"
    generations[generation] += 1
    previous = last_generation.get(request.client, -1)
    last_generation[request.client] = generation
    if not ack.get("changed"):
        return "update ack reports no change"
    if generation <= previous:
        return f"client {request.client} saw generation {generation} after {previous}"
    return ""


def acked_updates(log: Sequence[Request], observations: Sequence[Observation]) -> List[str]:
    """Update texts the server acknowledged, in each client's send order."""
    return [
        log[o.index].text
        for o in observations
        if log[o.index].check == "update" and 200 <= o.status < 300
    ]
