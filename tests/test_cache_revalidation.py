"""Differential test of the result cache's revalidation across writes.

An in-process harness drives :class:`~repro.server.cache.ResultCache`
the way the server does.  A miss evaluates the query, and its JSON
payload is put with the worker's pattern keys (``query_patterns``) at
the generation it ran at.  An effective update logs the triples it
requested (``UpdateResult.requested``) under every generation it
advanced.  Seeded random update streams mix INSERT DATA, DELETE DATA,
DELETE/INSERT WHERE, multi-operation requests, no-op updates and blank
nodes.  Reads of the 24 paper queries, the end-to-end benchmark's
entity template, own-key reads and ``?s ?p ?o`` run between them.

After each update, every answer ``get`` would serve must be bag-equal
to a fresh evaluation.  For a LIMIT without ORDER BY that means the
same row count and a sub-bag of the unpaged answer.  ``get`` must also
serve exactly the entries no requested triple since their stamp
matches, judged by a reference matcher over term objects.  Two mutants
show that both checks have teeth: a matcher that never matches serves
stale answers, and one that ignores the object position drops answers
no write touched.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro import SparqlUOEngine
from repro.datasets import DBPEDIA_QUERIES, LUBM_QUERIES, generate_dbpedia, generate_lubm
from repro.rdf import IRI, BlankNode, Literal, Triple, Variable
from repro.server import cache as cache_module
from repro.server.cache import CachedResult, ResultCache, query_patterns
from repro.sparql.algebra import triple_patterns
from repro.sparql.parser import parse_query
from repro.sparql.results import to_json
from repro.storage import TripleStore

BENCH = "http://e2e.bench.example/"
FRESH = "http://example.org/fresh/"
SPO = "SELECT * WHERE { ?s ?p ?o }"
PAGE = 20

UPDATES = 14
READS_PER_UPDATE = 3


def entity_query(entity: str, offset: int) -> Tuple[str, str]:
    """The benchmark's entity template: (paged text, unpaged text)."""
    unpaged = (
        f"SELECT * WHERE {{ {{ {entity} ?p ?o }} UNION "
        f"{{ ?s ?p {entity} OPTIONAL {{ ?s ub:name ?n }} }} }}"
    )
    return f"{unpaged} LIMIT {PAGE} OFFSET {offset}", unpaged


def own_key(key: int) -> str:
    return f"<{BENCH}c0/k{key}>"


def own_triples(key: int) -> str:
    subject = own_key(key)
    return " ".join(f'{subject} <{BENCH}p{j}> "c0k{key}v{j}" .' for j in range(5))


def lubm_store() -> TripleStore:
    return TripleStore.from_dataset(generate_lubm(universities=1, departments_university0=3))


def dbpedia_store() -> TripleStore:
    return TripleStore.from_dataset(generate_dbpedia(articles=300))


def lubm_reads() -> Tuple[List[str], Dict[str, str]]:
    """Query texts, and each paged text's unpaged form."""
    texts = list(LUBM_QUERIES.values()) + [SPO]
    paged: Dict[str, str] = {}
    for entity in (
        "<http://www.Department0.University0.edu>",
        "<http://www.Department1.University0.edu/UndergraduateStudent363>",
        "<http://www.Department0.University0.edu/FullProfessor0>",
    ):
        for offset in (0, PAGE):
            text, unpaged = entity_query(entity, offset)
            paged[text] = unpaged
    texts += list(paged)
    texts += [f"SELECT ?p ?o WHERE {{ {own_key(key)} ?p ?o }}" for key in range(3)]
    return texts, paged


def dbpedia_reads() -> Tuple[List[str], Dict[str, str]]:
    return list(DBPEDIA_QUERIES.values()) + [SPO], {}


def canonical(payload: bytes) -> Counter:
    bindings = json.loads(payload)["results"]["bindings"]
    return Counter(
        frozenset((name, json.dumps(value, sort_keys=True)) for name, value in row.items())
        for row in bindings
    )


def term_matches(want, got) -> bool:
    """Reference matcher: a variable, or a blank node on either side,
    matches anything; constants must be the same term."""
    if isinstance(want, (Variable, BlankNode)) or isinstance(got, BlankNode):
        return True
    return want == got


def touches(patterns, triple: Triple) -> bool:
    return any(
        term_matches(pattern.subject, triple.subject)
        and term_matches(pattern.predicate, triple.predicate)
        and term_matches(pattern.object, triple.object)
        for pattern in patterns
    )


class Harness:
    """The server's cache protocol around one in-process engine."""

    def __init__(self, store: TripleStore, bgp_engine: str, texts, paged):
        self.store = store
        self.engine = SparqlUOEngine(store, bgp_engine=bgp_engine, mode="full")
        self.cache = ResultCache(max_entries=4096)
        self.paged = paged
        self.patterns = {text: list(triple_patterns(parse_query(text).where)) for text in texts}
        #: text -> the generation its entry was last put or served at.
        self.validated: Dict[str, int] = {}
        #: generation -> the triples its update requested.
        self.changes: Dict[int, Tuple[Triple, ...]] = {}
        self._fresh: Dict[Tuple[str, int], Counter] = {}
        self.problems: List[str] = []

    def fresh(self, text: str) -> Counter:
        key = (text, self.store.generation)
        if key not in self._fresh:
            result = self.engine.execute(text)
            self._fresh[key] = canonical(to_json(result.variables, result.solutions).encode())
        return self._fresh[key]

    def agrees(self, text: str, payload: bytes) -> bool:
        served = canonical(payload)
        if text not in self.paged:
            return served == self.fresh(text)
        unpaged = self.fresh(self.paged[text])
        query = parse_query(text)
        expected_rows = max(0, min(query.limit, sum(unpaged.values()) - query.offset))
        return sum(served.values()) == expected_rows and not served - unpaged

    def read(self, text: str) -> None:
        now = self.store.generation
        entry = self.cache.get(now, "json", text)
        if entry is not None:
            self.check(text, entry, now)
            return
        result = self.engine.execute(text)
        payload = to_json(result.variables, result.solutions).encode()
        cached = CachedResult(
            payload, "application/json", len(result), 0.0,
            patterns=query_patterns(result.query),
        )
        self.cache.put(now, "json", text, cached)
        self.validated[text] = now

    def update(self, text: str) -> None:
        before = self.store.generation
        result = self.engine.update(text)
        if result.added or result.removed:
            self.cache.record_update(before, result.generation, result.requested)
            for generation in range(before + 1, result.generation + 1):
                self.changes[generation] = result.requested
        now = self.store.generation
        for cached_text in list(self.validated):
            entry = self.cache.get(now, "json", cached_text)
            should_serve = not any(
                touches(self.patterns[cached_text], triple)
                for generation in range(self.validated[cached_text] + 1, now + 1)
                for triple in self.changes[generation]
            )
            if entry is None:
                if should_serve:
                    self.problems.append(f"dropped an untouched answer: {cached_text[:60]!r}")
                continue
            if not should_serve:
                self.problems.append(f"served a touched answer: {cached_text[:60]!r}")
            self.check(cached_text, entry, now)

    def check(self, text: str, entry: CachedResult, now: int) -> None:
        self.validated[text] = now
        if not self.agrees(text, entry.payload):
            self.problems.append(f"stale answer after {text[:60]!r}")


class UpdateMaker:
    """Random SPARQL UPDATE texts aimed at the stream's own patterns."""

    def __init__(self, harness: Harness, rng: random.Random):
        self.rng = rng
        everything = harness.engine.execute(SPO)
        triples = [
            Triple(mu["s"], mu["p"], mu["o"])
            for mu in everything
            if not isinstance(mu["s"], BlankNode) and not isinstance(mu["o"], BlankNode)
        ]
        self.known: List[Triple] = rng.sample(triples, min(200, len(triples)))
        subjects, predicates, objects = set(), set(), set()
        for patterns in harness.patterns.values():
            for pattern in patterns:
                for pool, term in (
                    (subjects, pattern.subject),
                    (predicates, pattern.predicate),
                    (objects, pattern.object),
                ):
                    if not isinstance(term, Variable):
                        pool.add(term)
        for triple in self.known:
            subjects.add(triple.subject)
            predicates.add(triple.predicate)
            objects.add(triple.object)
        self.subjects = sorted(t for t in subjects if not isinstance(t, Literal))
        self.predicates = sorted(predicates)
        self.objects = sorted(objects)
        self.own_live: List[int] = []
        self.own_next = 0
        self.fresh = 0

    def _term(self, pool):
        if self.rng.random() < 0.15:
            self.fresh += 1
            return BlankNode(f"n{self.fresh}")
        return self.rng.choice(pool)

    def insert_data(self) -> str:
        picked = [
            Triple(self._term(self.subjects), self.rng.choice(self.predicates), self._term(self.objects))
            for _ in range(self.rng.randint(1, 3))
        ]
        self.known += [
            t for t in picked
            if not isinstance(t.subject, BlankNode) and not isinstance(t.object, BlankNode)
        ]
        return "INSERT DATA { " + " ".join(ground(t) for t in picked) + " }"

    def delete_data(self) -> str:
        picked = self.rng.sample(self.known, self.rng.randint(1, 3))
        return "DELETE DATA { " + " ".join(ground(t) for t in picked) + " }"

    def modify(self) -> str:
        triple = self.rng.choice([t for t in self.known if isinstance(t.subject, IRI)])
        s, p = triple.subject.n3(), triple.predicate.n3()
        other = self.rng.choice(self.predicates).n3()
        if self.rng.random() < 0.5:
            return f"DELETE {{ {s} {p} ?o }} INSERT {{ {s} {other} ?o }} WHERE {{ {s} {p} ?o }}"
        return f"DELETE {{ {s} {p} ?o }} WHERE {{ {s} {p} ?o }}"

    def noop(self) -> str:
        if self.rng.random() < 0.5:
            return "INSERT DATA { " + ground(self.rng.choice(self.known)) + " }"
        return f"DELETE DATA {{ <{FRESH}absent> <{FRESH}p> <{FRESH}o> }}"

    def own(self) -> str:
        if self.own_live and self.rng.random() < 0.4:
            return f"DELETE DATA {{ {own_triples(self.own_live.pop(0))} }}"
        self.own_live.append(self.own_next)
        self.own_next += 1
        return f"INSERT DATA {{ {own_triples(self.own_live[-1])} }}"

    def single(self) -> str:
        kind = self.rng.choice(
            (self.insert_data, self.insert_data, self.delete_data, self.modify, self.noop, self.own)
        )
        return kind()

    def __call__(self) -> str:
        if self.rng.random() < 0.2:
            return " ;\n".join(self.single() for _ in range(self.rng.randint(2, 3)))
        return self.single()


def ground(triple: Triple) -> str:
    return f"{triple.subject.n3()} {triple.predicate.n3()} {triple.object.n3()} ."


STREAMS = {"lubm": (lubm_store, lubm_reads), "dbpedia": (dbpedia_store, dbpedia_reads)}


def run_stream(dataset: str, bgp_engine: str, seed: int, stop_at_problem: bool = False) -> Harness:
    make_store, make_reads = STREAMS[dataset]
    texts, paged = make_reads()
    harness = Harness(make_store(), bgp_engine, texts, paged)
    rng = random.Random(seed)
    updates = UpdateMaker(harness, rng)
    for text in texts:  # every text resident before the first write
        harness.read(text)
    for _ in range(UPDATES):
        harness.update(updates())
        if stop_at_problem and harness.problems:
            break
        for _ in range(READS_PER_UPDATE):
            harness.read(rng.choice(texts))
    return harness


@pytest.mark.parametrize("bgp_engine", ["wco", "hashjoin"])
@pytest.mark.parametrize("dataset,seed", [("lubm", 1), ("lubm", 2), ("dbpedia", 3)])
def test_served_answers_match_fresh_evaluation(dataset, seed, bgp_engine):
    harness = run_stream(dataset, bgp_engine, seed)
    assert harness.problems == []
    stats = harness.cache.stats()
    # The stream exercised both outcomes, and never outran the log.
    assert stats["revalidated"] > 0
    assert stats["invalidated"]["changed"] > 0
    assert stats["invalidated"]["log_gap"] == 0


def test_a_matcher_that_never_matches_serves_stale_answers(monkeypatch):
    monkeypatch.setattr(cache_module, "matches", lambda pattern, change: False)
    problems = run_stream("lubm", "wco", 1, stop_at_problem=True).problems
    assert any(problem.startswith("stale answer") for problem in problems)


def test_a_matcher_that_ignores_the_object_is_caught(monkeypatch):
    def object_blind(pattern, change):
        return all(
            want is None or got is None or want == got
            for want, got in zip(pattern[:2], change[:2])
        )

    monkeypatch.setattr(cache_module, "matches", object_blind)
    problems = run_stream("lubm", "wco", 1, stop_at_problem=True).problems
    assert any(problem.startswith("dropped an untouched answer") for problem in problems)
