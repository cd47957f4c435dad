"""Seeded, replayable request logs — the only input the server ever sees.

``build_log(workload, seed, entities)`` turns a seed into one list of
:class:`Request` per workload.  The same seed gives byte-identical
JSONL (``dump_logs``; a unit test pins the SHA-256 property).  The
datasets themselves are fixed (``DATASET_SEED``): the paper's queries
carry hard-coded constants and q1.1's cost moves 2x with the generator
seed, so a seed-dependent dataset would drown every gated metric in
input variation.  The seed drives what varies between users, not
between deployments: request order, which entities are drawn when,
page offsets and the write stream.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Sequence
from urllib.parse import urlencode

from repro.datasets.queries import DBPEDIA_QUERIES, LUBM_QUERIES
from repro.rdf.namespaces import UB

from .spec import WORKLOADS

__all__ = [
    "DATASET_SEED",
    "LUBM_UNIVERSITIES",
    "DBPEDIA_ARTICLES",
    "CLIENTS",
    "LOG_REQUESTS",
    "Request",
    "ZipfSampler",
    "build_log",
    "canary_queries",
    "dump_logs",
    "entities_from_ntriples",
    "log_jsonl",
    "trace_prefix",
]

#: Generator seed and scales of the two datasets (the repo's "repro scale").
DATASET_SEED = 42
LUBM_UNIVERSITIES = 13
DBPEDIA_ARTICLES = 1500

#: Closed-loop client threads (= the host's 2 CPUs; each waits for its reply).
CLIENTS = 2

ACCEPT = {
    "json": "application/sparql-results+json",
    "csv": "text/csv",
    "tsv": "text/tab-separated-values",
}

#: Requests generated per workload — more than a run can send, so a
#: timed replay ends on the clock and never on an exhausted log.
LOG_REQUESTS = {
    "paper_uo": 24 * 120,
    "entity_zipf": 24_000,
    "bulk_rows": 900,
    "read_write": 24_000,
}

#: Leading requests of each log the traced run replays, single-threaded.
TRACE_PREFIX = {"paper_uo": 24 * 4, "entity_zipf": 500, "bulk_rows": 24, "read_write": 500}

ZIPF_EXPONENT = 1.1
PAGE_LIMIT = 100
#: OFFSET choices of the paging client: mostly the first page.
PAGE_OFFSETS = (0, 0, 0, 100)
#: In ``read_write`` every Nth operation of a client is an update.  The
#: issue's 20 became 10 with the run shortened from 30 s: the write
#: share doubles so several compaction cycles still complete, and p95
#: then sits inside the update latencies instead of on their edge.
UPDATE_EVERY = 10
UPDATE_TRIPLES = 5
#: Share of ``read_write`` reads that read the client's own keys back.
OWN_READ_SHARE = 0.05

BENCH_IRI = "http://e2e.bench.example/"

_UB_NAME = f"<{UB.base}name>"

BULK_QUERIES = {
    "names_email": "SELECT * WHERE { ?s ub:name ?n OPTIONAL { ?s ub:emailAddress ?e } }",
    "course_union": (
        "SELECT * WHERE { { ?x ub:takesCourse ?c } UNION { ?x ub:teacherOf ?c } "
        "OPTIONAL { ?c ub:name ?n } }"
    ),
    "lubm_q1.1": LUBM_QUERIES["q1.1"],
}


@dataclass(frozen=True)
class Request:
    """One logged operation, complete enough to send and to check."""

    client: int
    #: Which server takes it: ``lubm`` or ``dbpedia``.
    dataset: str
    method: str
    #: ``/sparql?query=...`` for reads, ``/update`` for writes.
    target: str
    #: The SPARQL text: the query of a read, the body of an update.
    text: str
    accept: str
    #: How the answer is checked: ``bag`` (bag-equal with the oracle),
    #: ``page`` (row count + sub-bag of the unpaged answer), ``own``
    #: (read-your-writes row count) or ``update`` (ack fields).
    check: str
    #: Check parameters: ``page`` → unpaged/limit/offset, ``own`` → rows.
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def format(self) -> str:
        for fmt, media_type in ACCEPT.items():
            if media_type == self.accept:
                return fmt
        return "json"


def _read(client: int, dataset: str, text: str, fmt: str, check: str, **params) -> Request:
    return Request(
        client, dataset, "GET", "/sparql?" + urlencode({"query": text}), text,
        ACCEPT[fmt], check, params,
    )


class ZipfSampler:
    """Ranks ``0..n-1`` drawn with probability ∝ ``1 / (rank+1)**s``."""

    def __init__(self, n: int, exponent: float, rng: random.Random):
        if n <= 0:
            raise ValueError("ZipfSampler needs at least one rank")
        self._cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(n))
        )
        self._rng = rng

    def draw(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return min(bisect.bisect_left(self._cumulative, point), len(self._cumulative) - 1)


def entities_from_ntriples(path: Path) -> List[str]:
    """Every subject carrying ``ub:name``, as ``<iri>``, sorted."""
    found = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            subject, predicate, _ = line.split(" ", 2)
            if predicate == _UB_NAME:
                found.add(subject)
    return sorted(found)


def entity_query(entity: str, offset: int) -> Request:
    """The SNIPPETS.md client shape (aiFactCheck ``_fetch_page``) made to run."""
    unpaged = (
        f"SELECT * WHERE {{ {{ {entity} ?p ?o }} UNION "
        f"{{ ?s ?p {entity} OPTIONAL {{ ?s ub:name ?n }} }} }}"
    )
    return _read(
        0, "lubm", f"{unpaged} LIMIT {PAGE_LIMIT} OFFSET {offset}", "json", "page",
        unpaged=unpaged, limit=PAGE_LIMIT, offset=offset,
    )


def _paper_uo(rng: random.Random, count: int) -> List[Request]:
    queries = [("lubm", text) for text in LUBM_QUERIES.values()]
    queries += [("dbpedia", text) for text in DBPEDIA_QUERIES.values()]
    log: List[Request] = []
    while len(log) < count:
        order = list(queries)
        rng.shuffle(order)
        for dataset, text in order:
            log.append(_read(len(log) % CLIENTS, dataset, text.strip(), "json", "bag"))
    return log[:count]


def _entity_stream(rng: random.Random, entities: Sequence[str]):
    # Popularity rank is fixed, not drawn: a university has thousands of
    # incoming edges and a student a dozen, so which of them heads the
    # Zipf curve moves throughput by 10% — input variation, not signal.
    # The fixed shuffle only decorrelates rank from IRI sort order.
    ranked = list(entities)
    random.Random("e2e:entity-rank").shuffle(ranked)
    sampler = ZipfSampler(len(ranked), ZIPF_EXPONENT, rng)
    while True:
        yield entity_query(ranked[sampler.draw()], rng.choice(PAGE_OFFSETS))


def _entity_zipf(rng: random.Random, entities: Sequence[str], count: int) -> List[Request]:
    stream = _entity_stream(rng, entities)
    return [replace(next(stream), client=index % CLIENTS) for index in range(count)]


def _bulk_rows(rng: random.Random, count: int) -> List[Request]:
    # The middle-sized query is sent twice per round (mix 1:2:1).  The
    # three result sizes give three latency modes; with equal shares
    # the median request falls in the gap between two of them and p50
    # jumps between modes from run to run (measured spread 0.17-0.28).
    # With half the requests in the middle mode, p50 sits inside it.
    weights = {"names_email": 1, "course_union": 2, "lubm_q1.1": 1}
    combos = [
        (text.strip(), fmt)
        for name, text in BULK_QUERIES.items()
        for fmt in ACCEPT
        for _ in range(weights[name])
    ]
    log: List[Request] = []
    while len(log) < count:
        order = list(combos)
        rng.shuffle(order)
        for text, fmt in order:
            log.append(_read(len(log) % CLIENTS, "lubm", text, fmt, "bag"))
    return log[:count]


def own_key(client: int, key: int) -> str:
    return f"<{BENCH_IRI}c{client}/k{key}>"


def own_triples(client: int, key: int) -> str:
    subject = own_key(client, key)
    return " ".join(
        f'{subject} <{BENCH_IRI}p{j}> "c{client}k{key}v{j}" .' for j in range(UPDATE_TRIPLES)
    )


def canary_queries() -> List[str]:
    """Reads over everything the write stream can have touched."""
    return [
        f"SELECT ?s ?o WHERE {{ ?s <{BENCH_IRI}p{j}> ?o }}" for j in (0, UPDATE_TRIPLES - 1)
    ]


def _read_write(rng: random.Random, entities: Sequence[str], count: int) -> List[Request]:
    """Per client: entity reads, own-key reads, and every Nth op an update.

    Clients own disjoint key ranges, and each waits for its reply, so a
    client knows the state of its own keys at every point of its log
    whatever the other client does: the final state is order-independent.
    """
    stream = _entity_stream(rng, entities)
    per_client: List[List[Request]] = []
    for client in range(CLIENTS):
        live: List[int] = []
        dead: List[int] = []
        next_key = 0
        ops: List[Request] = []
        for index in range(count // CLIENTS):
            if index % UPDATE_EVERY == UPDATE_EVERY - 1:
                # Two inserts for every delete keeps the delta growing
                # towards compaction while tombstones stay in the mix.
                if live and (index // UPDATE_EVERY) % 3 == 2:
                    key = live.pop(0)
                    dead.append(key)
                    text = f"DELETE DATA {{ {own_triples(client, key)} }}"
                else:
                    key, next_key = next_key, next_key + 1
                    live.append(key)
                    text = f"INSERT DATA {{ {own_triples(client, key)} }}"
                ops.append(Request(client, "lubm", "POST", "/update", text, ACCEPT["json"], "update"))
            elif (live or dead) and rng.random() < OWN_READ_SHARE:
                alive = bool(live) and (not dead or rng.random() < 0.7)
                key = rng.choice(live if alive else dead)
                ops.append(
                    _read(
                        client, "lubm",
                        f"SELECT ?p ?o WHERE {{ {own_key(client, key)} ?p ?o }}",
                        "json", "own", rows=UPDATE_TRIPLES if alive else 0,
                    )
                )
            else:
                ops.append(replace(next(stream), client=client))
        per_client.append(ops)
    # Interleave so the JSONL reads in rough send order; replay is per client.
    return [op for pair in zip(*per_client) for op in pair]


def build_log(workload: str, seed: int, entities: Sequence[str], count: int = 0) -> List[Request]:
    """The request log of ``workload`` for ``seed`` (``count`` 0 = full size)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    count = count or LOG_REQUESTS[workload]
    # One independent stream per workload: adding a workload or
    # resizing one log never shifts another's draws.
    rng = random.Random(f"e2e:{workload}:{seed}")
    if workload == "paper_uo":
        return _paper_uo(rng, count)
    if workload == "entity_zipf":
        return _entity_zipf(rng, entities, count)
    if workload == "bulk_rows":
        return _bulk_rows(rng, count)
    return _read_write(rng, entities, count)


def trace_prefix(workload: str, log: Sequence[Request], divisor: int = 1) -> List[Request]:
    """The fixed prefix the traced run replays (each client's order is kept)."""
    return list(log[: max(TRACE_PREFIX[workload] // divisor, 8)])


def log_jsonl(log: Sequence[Request]) -> str:
    return "".join(json.dumps(asdict(request), sort_keys=True) + "\n" for request in log)


def dump_logs(directory: Path, seed: int, entities: Sequence[str]) -> List[Path]:
    """Write the four logs of ``seed`` as ``<workload>.jsonl``."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for workload in WORKLOADS:
        path = directory / f"{workload}.jsonl"
        path.write_text(log_jsonl(build_log(workload, seed, entities)), encoding="utf-8")
        written.append(path)
    return written
