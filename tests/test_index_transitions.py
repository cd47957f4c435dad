"""Concurrency regression tests for the store's index state transitions.

A snapshot-backed store serves reads from :class:`FrozenTripleIndexes`;
the first write layers a :class:`DeltaOverlayIndexes` over it.  Both
transitions — the deferred lazy build and the overlay installation —
must be atomic from a reader's point of view: build the replacement
fully, then publish it with a single attribute store.  Otherwise two
racing first-touch readers could trip the loader's one-shot assertion,
and a reader could observe a half-initialized structure.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import SparqlUOEngine
from repro.rdf import Dataset, IRI, Triple
from repro.storage import DeltaOverlayIndexes, TripleStore
from repro.storage.indexes import FrozenTripleIndexes

EX = "http://example.org/"


def _dataset(rows: int = 60) -> Dataset:
    dataset = Dataset()
    for index in range(rows):
        dataset.add_spo(
            IRI(f"{EX}s{index}"), IRI(f"{EX}p{index % 3}"), IRI(f"{EX}o{index % 7}")
        )
    return dataset


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "data.snap"
    TripleStore.from_dataset(_dataset()).save(str(path))
    return str(path)


class TestLazyBuildRace:
    def test_concurrent_first_touch_builds_once(self, snapshot):
        """N threads racing the deferred index build all see one result.

        The loader is consumed exactly once; before the lock, a second
        racer could hit ``assert self._indexes_loader is not None``.
        """
        for _ in range(20):
            store = TripleStore.load(snapshot, lazy=True)
            barrier = threading.Barrier(8)
            seen, errors = [], []

            def touch():
                try:
                    barrier.wait(5)
                    seen.append(store.indexes)
                except Exception as exc:  # noqa: BLE001 — the assertion below reports
                    errors.append(exc)

            threads = [threading.Thread(target=touch) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert not errors
            assert len(seen) == 8
            assert all(index is seen[0] for index in seen), "double build published"
            assert len(seen[0]) == 60
            store.close()


class TestOverlayWrapDuringReads:
    def test_readers_survive_concurrent_overlay_wrap(self, snapshot):
        """One engine reads in a loop while another thread writes.

        Readers must never crash and must always observe a complete
        index: every query returns either the pre-write or post-write
        result, nothing in between and nothing torn.
        """
        store = TripleStore.load(snapshot, lazy=True)
        assert isinstance(store.indexes, FrozenTripleIndexes)
        engine = SparqlUOEngine(store, bgp_engine="wco", mode="base")
        query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o }}"
        baseline = len(engine.execute(query))

        stop = threading.Event()
        observed, errors = set(), []

        def read_loop():
            try:
                while not stop.is_set():
                    observed.add(len(engine.execute(query)))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                stop.set()

        readers = [threading.Thread(target=read_loop) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            # Install the delta overlay mid-read-traffic, then a few
            # more writes into it.
            for index in range(5):
                store.add(
                    Triple(IRI(f"{EX}new{index}"), IRI(f"{EX}p0"), IRI(f"{EX}onew"))
                )
        finally:
            stop.set()
            for thread in readers:
                thread.join(10)
        assert not errors
        # Counts only ever move between the pre-write baseline and the
        # final post-write value.
        assert observed <= set(range(baseline, baseline + 6))
        final = len(engine.execute(query))
        assert final == baseline + 5
        # The store still serves the frozen sorted-run read paths,
        # through the delta overlay.
        assert isinstance(store.indexes, DeltaOverlayIndexes)
        assert isinstance(store.indexes, FrozenTripleIndexes)

    def test_overlay_preserves_contents(self, snapshot):
        store = TripleStore.load(snapshot, lazy=True)
        frozen_triples = sorted(store.indexes.all_triples())
        store.add(Triple(IRI(f"{EX}extra"), IRI(f"{EX}p0"), IRI(f"{EX}oextra")))
        overlay_triples = sorted(store.indexes.all_triples())
        assert len(overlay_triples) == len(frozen_triples) + 1
        assert set(frozen_triples) <= set(overlay_triples)
