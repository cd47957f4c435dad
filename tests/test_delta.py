"""Delta overlay equivalence: frozen base + pending writes == rebuild.

The overlay must answer the *complete* frozen read interface over the
logical set ``(base − tombstones) ∪ adds`` exactly as a
:class:`FrozenTripleIndexes` rebuilt from that set would — that is what
lets the sorted-run execution layer (merge joins, galloping, leapfrog)
keep running over pending writes.  These tests drive
randomized write sequences and compare every read entry point against
the rebuilt reference.
"""

from __future__ import annotations

import random

import pytest

from repro.storage.delta import DeltaLayer, DeltaOverlayIndexes
from repro.storage.indexes import FrozenTripleIndexes

IDS = range(1, 7)


def _freeze(triples):
    if not triples:
        return FrozenTripleIndexes.from_columns([], [], [])
    s_col, p_col, o_col = zip(*sorted(triples))
    return FrozenTripleIndexes.from_columns(s_col, p_col, o_col)


def _random_triple(rng):
    return (rng.choice(IDS), rng.choice(IDS), rng.choice(IDS))


def _build_overlay(seed, base_size=60, operations=150):
    """Random base + random interleaved writes, with a set-based mirror."""
    rng = random.Random(seed)
    base_set = {_random_triple(rng) for _ in range(base_size)}
    overlay = DeltaOverlayIndexes(_freeze(base_set))
    mirror = set(base_set)
    for _ in range(operations):
        triple = _random_triple(rng)
        if rng.random() < 0.55:
            changed = overlay.delta_insert(triple)
            assert changed == (triple not in mirror)
            mirror.add(triple)
        else:
            changed = overlay.delta_delete(triple)
            assert changed == (triple in mirror)
            mirror.discard(triple)
    return overlay, mirror


def _assert_equivalent(overlay, reference):
    assert len(overlay) == len(reference)
    assert overlay.all_triples() == reference.all_triples()
    bindings = []
    for s in (*IDS, None):
        for p in (*IDS, None):
            for o in (*IDS, None):
                bindings.append((s, p, o))
    for s, p, o in bindings:
        assert overlay.count(s, p, o) == reference.count(s, p, o), (s, p, o)
        assert list(overlay.scan(s, p, o)) == list(reference.scan(s, p, o)), (s, p, o)
        got = overlay.single_variable_run(s, p, o)
        want = reference.single_variable_run(s, p, o)
        assert (got is None) == (want is None)
        if got is not None:
            assert list(got) == list(want), (s, p, o)
    for a in IDS:
        for b in IDS:
            assert list(overlay.object_run(a, b)) == list(reference.object_run(a, b))
            assert list(overlay.subject_run(a, b)) == list(reference.subject_run(a, b))
            assert list(overlay.predicate_run(a, b)) == list(
                reference.predicate_run(a, b)
            )
            values, start, stop = overlay.object_span(a, b)
            assert list(values[start:stop]) == list(overlay.object_run(a, b))
    for x in IDS:
        assert overlay.so_for_p(x) == reference.so_for_p(x)


@pytest.mark.parametrize("seed", range(12))
def test_overlay_matches_rebuilt_reference(seed):
    overlay, mirror = _build_overlay(seed)
    reference = _freeze(mirror)
    _assert_equivalent(overlay, reference)
    # Membership agrees on hits and misses alike.
    rng = random.Random(seed + 1000)
    for _ in range(50):
        triple = _random_triple(rng)
        assert (triple in overlay) == (triple in mirror)


@pytest.mark.parametrize("seed", range(12))
def test_collapse_round_trips(seed):
    overlay, mirror = _build_overlay(seed)
    collapsed = overlay.collapse()
    assert type(collapsed) is FrozenTripleIndexes
    collapsed.validate_sorted()
    assert collapsed.all_triples() == sorted(mirror)
    # permutation_arrays over the merged view feed the snapshot writer;
    # they must round-trip through a fresh frozen store.
    rebuilt = FrozenTripleIndexes(*overlay.permutation_arrays())
    rebuilt.validate_sorted()
    assert rebuilt.all_triples() == sorted(mirror)


def test_untouched_ranges_are_zero_copy():
    base = _freeze({(1, 1, 1), (1, 1, 3), (2, 2, 2)})
    overlay = DeltaOverlayIndexes(base)
    # No pending writes at all: the base run comes back unchanged.
    assert overlay.object_run(1, 1).values is base.object_run(1, 1).values
    overlay.delta_insert((2, 2, 5))
    # Writes elsewhere must not de-optimize an untouched range.
    assert overlay.object_run(1, 1).values is base.object_run(1, 1).values
    assert list(overlay.object_run(2, 2)) == [2, 5]


def test_merged_run_is_cached_until_next_write():
    overlay = DeltaOverlayIndexes(_freeze({(1, 1, 1), (1, 1, 3)}))
    overlay.delta_insert((1, 1, 2))
    first = overlay.object_run(1, 1)
    assert list(first) == [1, 2, 3]
    assert overlay.object_run(1, 1) is first
    overlay.delta_insert((1, 1, 4))
    assert list(overlay.object_run(1, 1)) == [1, 2, 3, 4]


def test_pending_counts_and_invariants():
    base = {(1, 1, 1), (2, 2, 2)}
    overlay = DeltaOverlayIndexes(_freeze(base))
    assert overlay.pending == (0, 0)
    overlay.delta_insert((3, 3, 3))
    overlay.delta_delete((1, 1, 1))
    assert overlay.pending == (1, 1)
    assert len(overlay) == 2
    # Un-tombstoning restores the base triple without touching adds.
    assert overlay.delta_insert((1, 1, 1)) is True
    assert overlay.pending == (1, 0)
    # Deleting a pending add cancels it instead of tombstoning.
    assert overlay.delta_delete((3, 3, 3)) is True
    assert overlay.pending == (0, 0)
    assert sorted(overlay.all_triples()) == sorted(base)


def test_stacking_overlays_is_rejected():
    overlay = DeltaOverlayIndexes(_freeze({(1, 1, 1)}))
    with pytest.raises(TypeError):
        DeltaOverlayIndexes(overlay)


def test_delta_layer_seal_tracks_version():
    layer = DeltaLayer()
    assert layer.sealed_adds() is None
    layer.adds.add((1, 1, 1))
    layer.touch()
    sealed = layer.sealed_adds()
    assert sealed is not None and sealed.all_triples() == [(1, 1, 1)]
    assert layer.sealed_adds() is sealed
