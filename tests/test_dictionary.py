"""Unit tests for the term dictionary."""

import pytest

from repro.rdf import IRI, Literal, TermDictionary, Triple, Variable

A, B = IRI("http://x/a"), IRI("http://x/b")


class TestEncode:
    def test_ids_are_dense_first_seen(self):
        d = TermDictionary()
        assert d.encode(A) == 0
        assert d.encode(B) == 1
        assert d.encode(A) == 0  # stable
        assert len(d) == 2

    def test_decode_round_trip(self):
        d = TermDictionary()
        term_id = d.encode(Literal("x", language="en"))
        assert d.decode(term_id) == Literal("x", language="en")

    def test_decode_unknown_raises(self):
        with pytest.raises(KeyError):
            TermDictionary().decode(0)

    def test_variables_rejected(self):
        with pytest.raises(ValueError):
            TermDictionary().encode(Variable("x"))

    def test_lookup_never_mints(self):
        d = TermDictionary()
        assert d.lookup(A) is None
        assert len(d) == 0
        d.encode(A)
        assert d.lookup(A) == 0

    def test_contains(self):
        d = TermDictionary()
        d.encode(A)
        assert A in d and B not in d

    def test_distinct_literals_by_language(self):
        d = TermDictionary()
        one = d.encode(Literal("x", language="en"))
        two = d.encode(Literal("x", language="fr"))
        three = d.encode(Literal("x"))
        assert len({one, two, three}) == 3


class TestTriples:
    def test_encode_decode_triple(self):
        d = TermDictionary()
        t = Triple(A, B, Literal("v"))
        assert d.decode_triple(d.encode_triple(t)) == t

    def test_encode_several_triples(self):
        d = TermDictionary()
        triples = [Triple(A, B, A), Triple(B, B, B)]
        encoded = [d.encode_triple(triple) for triple in triples]
        assert len(encoded) == 2
        assert all(isinstance(x, tuple) and len(x) == 3 for x in encoded)
