"""Unit and property tests for the permutation indexes."""

import pytest
from hypothesis import given, strategies as st

from repro.rdf import TermDictionary
from repro.storage import DeltaOverlayIndexes, FrozenTripleIndexes

from .strategies import datasets


def frozen(triples):
    """The triples sorted into frozen permutations in one pass."""
    columns = zip(*set(triples)) if triples else ((), (), ())
    return FrozenTripleIndexes.from_columns(*columns)


def overlaid(triples):
    """The same triples written one by one into an overlay over an
    empty base — the shape a freshly written-to ``TripleStore()`` has."""
    idx = DeltaOverlayIndexes(frozen([]))
    for t in triples:
        idx.delta_insert(t)
    return idx


BUILDERS = pytest.mark.parametrize("build", [frozen, overlaid])


class TestInsert:
    @BUILDERS
    def test_insert_and_len(self, build):
        idx = build([(0, 1, 2)])
        assert len(idx) == 1

    def test_duplicate_rejected(self):
        idx = overlaid([])
        assert idx.delta_insert((0, 1, 2)) is True
        assert idx.delta_insert((0, 1, 2)) is False
        assert len(idx) == 1

    def test_duplicate_rows_rejected_by_from_columns(self):
        with pytest.raises(ValueError, match="duplicate rows"):
            FrozenTripleIndexes.from_columns((0, 0), (1, 1), (2, 2))

    @BUILDERS
    def test_contains(self, build):
        idx = build([(0, 1, 2)])
        assert (0, 1, 2) in idx
        assert (2, 1, 0) not in idx


@BUILDERS
class TestLookups:
    """One case per access pattern of the module table, each answered
    through the read path the engines and the statistics use."""

    @pytest.fixture
    def idx(self, build):
        return build([(0, 1, 2), (0, 1, 3), (4, 1, 2), (0, 5, 2), (4, 5, 3)])

    def test_objects_for_sp(self, idx):
        assert list(idx.object_run(0, 1)) == [2, 3]

    def test_subjects_for_po(self, idx):
        assert list(idx.subject_run(1, 2)) == [0, 4]

    def test_predicates_for_so(self, idx):
        assert list(idx.predicate_run(0, 2)) == [1, 5]

    def test_po_for_s(self, idx):
        assert [(p, o) for _, p, o in idx.scan(s=4)] == [(1, 2), (5, 3)]

    def test_so_for_p(self, idx):
        assert sorted(idx.so_for_p(5)) == [(0, 2), (4, 3)]

    def test_sp_for_o(self, idx):
        assert [(s, p) for s, p, _ in idx.scan(o=3)] == [(0, 1), (4, 5)]

    def test_missing_keys_give_empty(self, idx):
        assert list(idx.object_run(9, 9)) == []
        assert list(idx.scan(s=9)) == []
        assert idx.so_for_p(9) == []

    def test_subjects_objects_of_predicate(self, idx):
        pairs = idx.so_for_p(1)
        assert {s for s, _ in pairs} == {0, 4}
        assert {o for _, o in pairs} == {2, 3}


@BUILDERS
class TestScanAndCount:
    @given(datasets(), st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_scan_matches_naive_filter(self, build, dataset, bound):
        """For every binding combination, scan() equals a full filter."""
        dictionary = TermDictionary()
        triples = [dictionary.encode_triple(t) for t in dataset]
        idx = build(triples)
        if not triples:
            return
        probe = triples[0]
        s = probe[0] if bound[0] else None
        p = probe[1] if bound[1] else None
        o = probe[2] if bound[2] else None
        expected = sorted(
            t
            for t in set(triples)
            if (s is None or t[0] == s)
            and (p is None or t[1] == p)
            and (o is None or t[2] == o)
        )
        assert sorted(idx.scan(s, p, o)) == expected
        assert idx.count(s, p, o) == len(expected)

    def test_full_scan(self, build):
        idx = build([(0, 1, 2), (3, 4, 5)])
        assert sorted(idx.scan()) == [(0, 1, 2), (3, 4, 5)]
        assert idx.count() == 2
