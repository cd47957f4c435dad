"""The id-level sampler against the term-level estimator it replaced.

``reference_estimator`` is the earlier estimator, unchanged: per sample
row and step it decodes the row's ids, substitutes them into the
``TriplePattern`` and re-encodes the result.
``repro.bgp.cardinality.estimate_sequence`` binds the ids straight into
the encoded pattern.  Both must give the same ``(final, per_step)``
bit for bit, so every RNG draw and every probe's match count agree.

The patterns draw their variables from a pool of three, so sequences
repeat variables within and across patterns, and a variable bound to a
literal in one pattern reappears as a subject or predicate in a later
one: the reference skips that row when ``substitute`` rejects it, and
the id-level probe finds no triple.  Constants absent from the data
come up too.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.bgp.cardinality import estimate_sequence
from repro.rdf import IRI, TriplePattern, Variable
from repro.storage import TripleStore

from . import reference_estimator
from .strategies import _OBJECTS, _PREDICATES, _SUBJECTS, datasets, random_dataset

_POOL = [Variable(name) for name in "abc"]
_ABSENT = IRI("http://x.test/absent")


def _new(store, patterns):
    encoded = [store.encode_pattern(pattern) for pattern in patterns]
    return estimate_sequence(store, encoded, store.count_pattern(encoded[0]))


def _old(store, patterns):
    return reference_estimator.CardinalityEstimator(store).estimate_sequence(patterns)


def _same(store, patterns):
    old, new = _old(store, patterns), _new(store, patterns)
    assert [x.hex() for x in new[1]] == [x.hex() for x in old[1]], patterns
    assert new[0].hex() == old[0].hex(), patterns


def _random_pattern(rng: random.Random) -> TriplePattern:
    def term(constants, p_var):
        if rng.random() < p_var:
            return rng.choice(_POOL)
        return _ABSENT if rng.random() < 0.03 else rng.choice(constants)

    return TriplePattern(
        term(_SUBJECTS, 0.7), term(_PREDICATES, 0.4), term(_OBJECTS, 0.7)
    )


def test_seeded_sweep():
    """1 200 sequences of 1–4 patterns over ``random_dataset`` stores of
    5–400 triples (ten sequences per store)."""
    rng = random.Random(20250521)
    for _ in range(120):
        store = TripleStore.from_dataset(random_dataset(rng, rng.randint(5, 400)))
        for _ in range(10):
            patterns = [_random_pattern(rng) for _ in range(rng.randint(1, 4))]
            _same(store, patterns)


_terms = st.sampled_from(_POOL)


@st.composite
def _patterns(draw) -> TriplePattern:
    subject = draw(st.one_of(_terms, st.sampled_from(_SUBJECTS)))
    predicate = draw(st.one_of(_terms, st.sampled_from(_PREDICATES + [_ABSENT])))
    obj = draw(st.one_of(_terms, st.sampled_from(_OBJECTS)))
    return TriplePattern(subject, predicate, obj)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.lists(_patterns(), min_size=1, max_size=4))
def test_hypothesis_sequences(dataset, patterns):
    _same(TripleStore.from_dataset(dataset), patterns)
