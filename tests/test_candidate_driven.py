"""Candidate-driven pattern steps: both BGP engines against the oracle.

When a free endpoint of a pattern step carries a candidate set smaller
than the step's scan, the engines seek each candidate id instead of
scanning the pattern and filtering (the one rule of
:func:`repro.bgp.interface.candidate_driver`).  Every case runs on a
frozen store and on the same data behind a delta overlay with pending
inserts and deletes, and must be bag-equal to ``tests/oracle.py``.
"""

from __future__ import annotations

import pytest

from repro.bgp import HashJoinEngine, WCOJoinEngine
from repro.bgp.filters import CompiledFilter
from repro.bgp.interface import decode_page
from repro.core.engine import SparqlUOEngine
from repro.rdf import Dataset, IRI, Literal, Triple, TriplePattern, Variable
from repro.sparql import parse_group
from repro.sparql.algebra import GroupGraphPattern
from repro.sparql.bags import Bag
from repro.sparql.expressions import filter_passes
from repro.storage import DeltaOverlayIndexes, SortedIdSet, TripleStore
from repro.storage.indexes import FrozenTripleIndexes

from . import oracle

EX = "http://drive.test/"
P, Q, R = IRI(EX + "p"), IRI(EX + "q"), IRI(EX + "r")
X, Y, Z, PV = Variable("x"), Variable("y"), Variable("z"), Variable("pv")
ENGINES = (WCOJoinEngine, HashJoinEngine)


def n(i: int) -> IRI:
    return IRI(EX + f"n{i}")


def m(i: int) -> IRI:
    return IRI(EX + f"m{i}")


def _base_triples():
    triples = set()
    for i in range(24):
        triples.add(Triple(n(i), P, n((i * 5 + 1) % 24)))
        triples.add(Triple(n(i), P, n((i + 7) % 24)))
        if i % 4 == 0:
            triples.add(Triple(n(i), P, n(i)))  # self-loops for ?x p ?x
        if i % 3 == 0:
            triples.add(Triple(n(i), Q, n((i + 2) % 24)))
    for i in range(6):
        triples.add(Triple(m(i), Q, Literal(f"v{i}")))  # no P triple at all
    triples.add(Triple(m(5), R, P))  # binds a predicate variable to P
    return triples


INSERTS = [
    Triple(n(1), P, n(1)),
    Triple(n(5), P, n(20)),
    Triple(m(0), P, n(3)),
    Triple(IRI(EX + "new0"), P, n(2)),
]
DELETES = [
    Triple(n(0), P, n(0)),
    Triple(n(4), P, n(21)),
    Triple(n(8), P, n(15)),
]


@pytest.fixture(scope="module", params=["frozen", "overlay"])
def live(request):
    """``(store, dataset)``: the store under test and its content as
    the oracle sees it, kept as a plain set of triples."""
    triples = _base_triples()
    store = TripleStore.from_dataset(Dataset(triples))
    if request.param == "overlay":
        store.apply_update(inserts=INSERTS, deletes=DELETES)
        assert all(store.pending_delta)
        triples = (triples - set(DELETES)) | set(INSERTS)
    return store, Dataset(triples)


def _ids(store, terms):
    return SortedIdSet.from_ids(
        term_id for term_id in map(store.lookup, terms) if term_id is not None
    )


SUBJECTS = [n(0), n(1), n(4), n(5), n(8), m(0)]
OBJECTS = [n(0), n(2), n(3), n(15), n(21)]
ABSENT = [m(1), m(2), Literal("v0"), Literal("v3")]  # carry no P triple

#: name → (patterns, variable → candidate terms).  Every candidate set
#: is smaller than the scan of the step it restricts, so that step is
#: driven.
CASES = {
    "subject": ([TriplePattern(X, P, Y)], {"x": SUBJECTS}),
    "object": ([TriplePattern(X, P, Y)], {"y": OBJECTS}),
    "both": ([TriplePattern(X, P, Y)], {"x": SUBJECTS, "y": OBJECTS}),
    "absent_ids": ([TriplePattern(X, P, Y)], {"x": ABSENT}),
    "some_absent": ([TriplePattern(X, P, Y)], {"y": ABSENT + OBJECTS[:2]}),
    "repeated": ([TriplePattern(X, P, X)], {"x": [n(0), n(1), n(4), n(13)]}),
    # More candidates than ``?x p ?x`` has self-loops, fewer than it has
    # ``p`` triples: both engines size the scan by its bound positions,
    # so both drive.
    "repeated_wide": ([TriplePattern(X, P, X)], {"x": [n(i) for i in range(0, 24, 2)]}),
    "variable_predicate": ([TriplePattern(X, PV, Y)], {"x": SUBJECTS}),
    "variable_predicate_object": ([TriplePattern(X, PV, Y)], {"y": OBJECTS, "pv": [P]}),
    "then_join": ([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)], {"x": SUBJECTS}),
    "then_verify": ([TriplePattern(X, P, Y), TriplePattern(Y, P, X)], {"y": OBJECTS}),
    # A later step whose scan reads a row slot decides per partial:
    # ?y's few out-edges against two ?z candidates, and a predicate
    # bound by the first step with both endpoints still free.
    "per_partial": ([TriplePattern(X, Q, Y), TriplePattern(Y, PV, Z)], {"z": [n(2), n(9)]}),
    "bound_predicate": ([TriplePattern(m(5), R, PV), TriplePattern(X, PV, Y)], {"x": SUBJECTS}),
}


def _candidates(store, spec):
    return {name: _ids(store, terms) for name, terms in spec.items()}


def _expected(store, dataset, patterns, candidates, filter_text=None) -> Bag:
    """The BGP by the naive oracle; a restricted variable keeps only
    solutions whose value is in its candidate set."""
    rows = oracle.evaluate_group(GroupGraphPattern(list(patterns)), dataset)
    for name, allowed in candidates.items():
        rows = [mu for mu in rows if name not in mu or store.lookup(mu[name]) in allowed]
    if filter_text is not None:
        expression = _expression(filter_text)
        rows = [mu for mu in rows if filter_passes(expression, mu)]
    return Bag(rows)


def _expression(text: str):
    return parse_group(f"{{ FILTER ({text}) }}").elements[0].expression


def _run(cls, store, patterns, candidates, filter_text=None, limit=None):
    filters = (
        [CompiledFilter(_expression(filter_text), store)] if filter_text is not None else None
    )
    bag = cls(store).evaluate(patterns, candidates, filters=filters, limit=limit)
    return decode_page(store, bag, bag.schema)


@pytest.fixture
def scans(monkeypatch):
    """Every ``(s, p, o)`` an index was asked to scan during the test: the
    overlay, and the frozen base and sealed delta under it."""
    calls = []

    def recording(original):
        def scan(self, s=None, p=None, o=None):
            calls.append((s, p, o))
            return original(self, s, p, o)

        return scan

    for cls in (FrozenTripleIndexes, DeltaOverlayIndexes):
        monkeypatch.setattr(cls, "scan", recording(cls.scan))
    return calls


@pytest.mark.parametrize("cls", ENGINES, ids=lambda cls: cls.name)
@pytest.mark.parametrize("case", sorted(CASES))
def test_driven_step_matches_oracle(live, cls, case):
    store, dataset = live
    patterns, spec = CASES[case]
    candidates = _candidates(store, spec)
    expected = _expected(store, dataset, patterns, candidates)
    assert _run(cls, store, patterns, candidates) == expected


@pytest.mark.parametrize("cls", ENGINES, ids=lambda cls: cls.name)
@pytest.mark.parametrize(
    "case", ["subject", "object", "both", "absent_ids", "bound_predicate"]
)
def test_driven_step_never_reads_the_whole_predicate(live, cls, case, scans):
    store, _ = live
    patterns, spec = CASES[case]
    _run(cls, store, patterns, _candidates(store, spec))
    p = store.lookup(P)
    assert scans, "the step ran no scan at all"
    wide = [call for call in scans if call[0] is None and call[2] is None]
    assert not [call for call in wide if call[1] in (p, None)]


@pytest.mark.parametrize("cls", ENGINES, ids=lambda cls: cls.name)
@pytest.mark.parametrize("case", ["repeated", "repeated_wide"])
def test_repeated_variable_seek_pins_both_occurrences(live, cls, case, scans):
    """``?x p ?x`` driven from ``?x`` seeks ``(c, p, c)``, once per
    candidate.  (Counting the pattern for the plan still enumerates it:
    ``count_pattern`` reads a repeated-variable pattern in full.)"""
    store, _ = live
    patterns, spec = CASES[case]
    candidates = _candidates(store, spec)
    _run(cls, store, patterns, candidates)
    p = store.lookup(P)
    seeks = [call for call in scans if call[1] == p and call != (None, p, None)]
    assert seeks and all(call[0] == call[2] is not None for call in seeks)
    assert {call[0] for call in seeks} == set(candidates["x"].ids)


@pytest.mark.parametrize("cls", ENGINES, ids=lambda cls: cls.name)
@pytest.mark.parametrize(
    "case,filter_text",
    [
        ("subject", f"?y != <{EX}n9>"),
        ("object", f"?x != <{EX}n2> && ?x != <{EX}n11>"),
        ("repeated", f"?x != <{EX}n4>"),
        ("variable_predicate", f"?pv = <{EX}p>"),
    ],
)
def test_pushed_filter_on_the_seeking_step(live, cls, case, filter_text):
    store, dataset = live
    patterns, spec = CASES[case]
    candidates = _candidates(store, spec)
    expected = _expected(store, dataset, patterns, candidates, filter_text)
    assert _run(cls, store, patterns, candidates, filter_text) == expected


@pytest.mark.parametrize("cls", ENGINES, ids=lambda cls: cls.name)
@pytest.mark.parametrize("limit", [1, 3, 50])
@pytest.mark.parametrize(
    "case,filter_text",
    [
        ("subject", None),
        ("variable_predicate", None),
        ("subject", f"?y != <{EX}n9>"),
        ("object", f"?x != <{EX}n2>"),
    ],
)
def test_limit_on_the_seeking_step(live, cls, case, filter_text, limit):
    """A LIMIT keeps some ``limit`` rows of the full answer (which rows
    is not promised without ORDER BY), never a row outside it."""
    store, dataset = live
    patterns, spec = CASES[case]
    candidates = _candidates(store, spec)
    expected = _expected(store, dataset, patterns, candidates, filter_text)
    page = _run(cls, store, patterns, candidates, filter_text, limit=limit)
    assert len(page) == min(limit, len(expected))
    assert not page.counter() - expected.counter()


UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"


@pytest.mark.parametrize("engine_name", ["wco", "hashjoin"])
@pytest.mark.parametrize(
    "entity",
    [
        "http://www.Department0.University0.edu/Course0",
        "http://www.Department0.University0.edu/FullProfessor0",
    ],
)
def test_entity_optional_reads_only_the_candidates_names(
    lubm_u1_store, engine_name, entity, monkeypatch
):
    """The entity shape's ``OPTIONAL { ?s ub:name ?n }`` is pruned by the
    ``?s`` of the entity's incoming edges, and reads exactly those
    subjects' own ``ub:name`` triples.  Before the WCO engine let
    candidates drive a step with no bound endpoint, it read all 1 906
    of LUBM u1's ``ub:name`` triples here."""
    store = lubm_u1_store
    name = store.lookup(IRI(UB + "name"))
    target = store.lookup(IRI(entity))
    subjects = {triple[0] for triple in store.indexes.scan(None, None, target)}
    own_names = sum(store.indexes.count(s, name, None) for s in subjects)
    engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
    query = (
        f"PREFIX ub: <{UB}> SELECT * WHERE {{ {{ <{entity}> ?p ?o }} UNION "
        f"{{ ?s ?p <{entity}> OPTIONAL {{ ?s ub:name ?n }} }} }}"
    )
    expected = engine.execute(query)  # warms the estimate caches
    read = []
    original = FrozenTripleIndexes.scan

    def counting(self, s=None, p=None, o=None):
        for triple in original(self, s, p, o):
            if p == name:
                read.append(triple)
            yield triple

    monkeypatch.setattr(FrozenTripleIndexes, "scan", counting)
    result = engine.execute(query)
    assert result.trace.pruned_evaluations >= 1
    assert len(read) == own_names < store.indexes.count(None, name, None)
    assert {triple[0] for triple in read} <= subjects
    assert result.solutions == expected.solutions
