"""The sorted-run execution layer: primitives, forced paths, equivalence.

Four levels of coverage:

1. unit tests for the galloping / sorted-set / leapfrog primitives in
   ``repro.storage.runs`` (boundaries, empty inputs, duplicates);
2. forced-path tests for :func:`~repro.sparql.bags.merge_join_streamed`
   — empty runs, duplicate keys, UNBOUND columns — each checked for
   exact bag equality against the hash :func:`~repro.sparql.bags.join`;
3. engine-level checks that the merge / leapfrog / intersection paths
   actually *fire* (counters observable), and hypothesis property
   tests asserting both engines × candidate shapes match the naive
   oracle (the differential suite in ``test_differential.py`` extends
   this to full queries × 300 seeds);
4. the satellite invariants: cached predicate id sets, batch decode,
   cold-built index shape and snapshot permutation verification.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp import HashJoinEngine, WCOJoinEngine
from repro.bgp.cardinality import estimate_sequence
from repro.bgp.hashjoin import binary_join_cost, merge_join_cost
from repro.bgp.interface import decode_page
from repro.core import SparqlUOEngine
from repro.core.metrics import EXEC_COUNTERS
from repro.rdf import Dataset, IRI, TriplePattern, Variable
from repro.sparql.algebra import GroupGraphPattern
from repro.sparql.bags import Bag, UNBOUND, join, merge_join_streamed
from repro.storage import (
    FrozenTripleIndexes,
    SnapshotError,
    SortedIdSet,
    SortedRun,
    TripleStore,
    gallop_intersect,
    gallop_left,
    leapfrog_intersect,
)
from repro.storage.snapshot import SnapshotReader, write_snapshot

from . import oracle
from .strategies import datasets, triple_patterns

EX = "http://x/"
P, Q, R = IRI(EX + "p"), IRI(EX + "q"), IRI(EX + "r")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestGallop:
    def test_empty_range(self):
        assert gallop_left([], 5, 0, 0) == 0

    def test_positions(self):
        seq = [1, 3, 3, 7, 9]
        for key in range(11):
            import bisect

            assert gallop_left(seq, key, 0, len(seq)) == bisect.bisect_left(seq, key)

    def test_respects_lo(self):
        seq = [1, 2, 3, 4, 5]
        assert gallop_left(seq, 1, 3, 5) == 3

    @given(
        st.lists(st.integers(0, 50), max_size=40),
        st.integers(0, 50),
        st.integers(0, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_bisect(self, values, key, lo):
        import bisect

        seq = sorted(values)
        lo = min(lo, len(seq))
        assert gallop_left(seq, key, lo, len(seq)) == bisect.bisect_left(
            seq, key, lo, len(seq)
        )


class TestSortedIdSet:
    def test_membership_len_iter(self):
        ids = SortedIdSet.from_ids([5, 1, 3, 3, 1])
        assert len(ids) == 3
        assert list(ids) == [1, 3, 5]
        assert 3 in ids and 2 not in ids and -1 not in ids and "x" not in ids

    def test_set_equality(self):
        assert SortedIdSet.from_ids([2, 1]) == {1, 2}
        assert SortedIdSet.from_ids([2, 1]) != {1, 3}
        assert SortedIdSet.from_ids([1]) == SortedIdSet.from_ids([1])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SortedIdSet.from_ids([1]))

    def test_intersect_run(self):
        ids = SortedIdSet.from_ids([1, 4, 6, 9])
        run = array("Q", [0, 1, 2, 4, 5, 9, 12])
        assert ids.intersect_run(run, 0, len(run)) == [1, 4, 9]
        assert ids.intersect_run(run, 2, 5) == [4]
        assert ids.intersect_run(run, 3, 3) == []


class TestIntersections:
    @given(
        st.lists(st.integers(0, 30), max_size=25),
        st.lists(st.integers(0, 30), max_size=25),
    )
    @settings(max_examples=80, deadline=None)
    def test_gallop_intersect_is_set_intersection(self, a, b):
        sa, sb = sorted(set(a)), sorted(set(b))
        got = gallop_intersect(sa, 0, len(sa), sb, 0, len(sb))
        assert got == sorted(set(a) & set(b))

    @given(st.lists(st.lists(st.integers(0, 15), max_size=20), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_leapfrog_is_multiway_intersection(self, groups):
        runs = [sorted(set(g)) for g in groups]
        expected = set(runs[0])
        for run in runs[1:]:
            expected &= set(run)
        assert leapfrog_intersect(runs) == sorted(expected)

    def test_leapfrog_empty_inputs(self):
        assert leapfrog_intersect([]) == []
        assert leapfrog_intersect([[], [1, 2]]) == []


class TestSortedRun:
    def test_view_semantics(self):
        backing = array("Q", [1, 3, 5, 7, 9])
        run = SortedRun(backing, 1, 4)
        assert len(run) == 3 and list(run) == [3, 5, 7]
        assert run[0] == 3 and run[2] == 7
        assert 5 in run and 9 not in run and 1 not in run
        with pytest.raises(IndexError):
            run[3]

    def test_empty(self):
        run = SortedRun(array("Q"), 0, 0)
        assert not run and list(run) == []


# ----------------------------------------------------------------------
# merge_join_streamed forced paths (vs the hash join oracle)
# ----------------------------------------------------------------------
def _merge_vs_hash(build_schema, build_rows, probe_schema, probe_rows):
    build = Bag.from_rows(build_schema, list(build_rows))
    merged = merge_join_streamed(build, probe_schema, iter(probe_rows))
    hashed = join(
        Bag.from_rows(build_schema, list(build_rows)),
        Bag.from_rows(probe_schema, list(probe_rows)),
    )
    assert merged == hashed
    return merged


class TestMergeJoinStreamed:
    def test_empty_sides(self):
        assert len(_merge_vs_hash(("a", "b"), [], ("a",), [])) == 0
        assert len(_merge_vs_hash(("a", "b"), [(1, 2)], ("a",), [])) == 0
        assert len(_merge_vs_hash(("a", "b"), [], ("a", "c"), [(1, 9)])) == 0

    def test_duplicate_keys_multiply(self):
        result = _merge_vs_hash(
            ("a", "b"),
            [(1, 10), (1, 11), (2, 20)],
            ("a", "c"),
            [(1, 7), (1, 8), (3, 9)],
        )
        assert len(result) == 4  # 2 build × 2 probe rows at key 1

    def test_skewed_keys_gallop(self):
        build = [(k, k) for k in range(0, 1000, 3)]
        probe = [(k, -k) for k in (0, 998, 999, 999)]
        result = _merge_vs_hash(("a", "b"), build, ("a", "c"), probe)
        assert len(result) == 3  # keys 0 and 999 (twice); 998 misses

    def test_unbound_build_rows(self):
        result = _merge_vs_hash(
            ("a", "b"),
            [(UNBOUND, 10), (1, 11), (2, 12)],
            ("a", "c"),
            [(1, 7), (2, 8)],
        )
        # The UNBOUND build row is compatible with both probe keys.
        assert len(result) == 4

    def test_unbound_probe_rows(self):
        result = _merge_vs_hash(
            ("a", "b"),
            [(1, 11), (2, 12)],
            ("a", "c"),
            [(UNBOUND, 7), (2, 8)],
        )
        assert len(result) == 3

    def test_rejects_multi_shared_variables(self):
        build = Bag.from_rows(("a", "b"), [(1, 2)])
        with pytest.raises(ValueError):
            merge_join_streamed(build, ("a", "b", "c"), iter([(1, 2, 3)]))

    def test_keep_and_stop(self):
        build = Bag.from_rows(("a",), [(k,) for k in range(10)])
        result = merge_join_streamed(
            build,
            ("a", "c"),
            iter([(k, k * 2) for k in range(10)]),
            keep=lambda row: row[0] % 2 == 0,
            stop_at=3,
        )
        assert [row[0] for row in result.rows] == [0, 2, 4]

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=20),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equivalence(self, build_rows, probe_rows):
        build_rows = sorted(build_rows)
        probe_rows = sorted(probe_rows)
        _merge_vs_hash(("a", "b"), build_rows, ("a", "c"), probe_rows)


# ----------------------------------------------------------------------
# engine-level path selection and equivalence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chain_store():
    d = Dataset()
    for i in range(40):
        s = IRI(EX + f"n{i}")
        d.add_spo(s, P, IRI(EX + "hub"))
        d.add_spo(s, Q, IRI(EX + f"n{(i + 1) % 40}"))
        if i % 4 == 0:
            d.add_spo(s, R, IRI(EX + "flag"))
    return TripleStore.from_dataset(d)


def oracle_bag(store, patterns, candidates=None):
    """The BGP over the store's triples by the naive oracle; candidate
    sets drop every solution binding a restricted variable outside them."""
    dataset = Dataset(map(store.dictionary.decode_triple, store.indexes.all_triples()))
    rows = oracle.evaluate_group(GroupGraphPattern(patterns), dataset)
    for name, allowed in (candidates or {}).items():
        rows = [mu for mu in rows if name not in mu or store.lookup(mu[name]) in allowed]
    return Bag(rows)


def engine_bag(cls, store, patterns, candidates=None):
    bag = cls(store).evaluate(patterns, candidates)
    return decode_page(store, bag, bag.schema)


UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
DEPT = "<http://www.Department0.University0.edu>"

#: Join shapes over LUBM: skewed (a department's members gallop into
#: the large class runs instead of streaming them) and uniform (both
#: join sides comparable), with OPTIONAL and UNION feeding candidates.
LUBM_JOINS = {
    "skewed_member_type": UB_PREFIX
    + f"SELECT ?x WHERE {{ ?x ub:memberOf {DEPT} . ?x a ub:UndergraduateStudent . }}",
    "skewed_member_type_email": UB_PREFIX
    + f"SELECT ?x ?e WHERE {{ ?x ub:memberOf {DEPT} . ?x a ub:UndergraduateStudent . "
    "?x ub:emailAddress ?e . }",
    "skewed_optional_email": UB_PREFIX
    + f"SELECT ?x ?e WHERE {{ ?x ub:memberOf {DEPT} . ?x a ub:UndergraduateStudent . "
    "OPTIONAL { ?x ub:emailAddress ?e } }",
    "uniform_advisor_chain": UB_PREFIX
    + "SELECT ?x ?a WHERE { ?x a ub:GraduateStudent . ?x ub:advisor ?a . "
    "?a a ub:FullProfessor . }",
    "uniform_member_union": UB_PREFIX
    + f"SELECT ?x WHERE {{ ?x ub:memberOf {DEPT} . "
    "{ ?x a ub:GraduateStudent } UNION { ?x a ub:UndergraduateStudent } }",
}

#: (shape, engine, mode) → (results, rows_materialized, gallop_probes,
#: merge_joins, hash_joins) on LUBM u1, seed 42.  Any growth means a
#: physical path degraded, e.g. a merge join falling back to a hash join.
LUBM_JOIN_COUNTS = {
    ("skewed_member_type", "hashjoin", "base"): (400, 808, 408, 1, 0),
    ("skewed_member_type", "hashjoin", "full"): (400, 808, 408, 1, 0),
    ("skewed_member_type", "wco", "base"): (400, 400, 408, 0, 0),
    ("skewed_member_type", "wco", "full"): (400, 400, 408, 0, 0),
    ("skewed_member_type_email", "hashjoin", "base"): (400, 1208, 408, 1, 1),
    ("skewed_member_type_email", "hashjoin", "full"): (400, 1208, 408, 1, 1),
    ("skewed_member_type_email", "wco", "base"): (400, 800, 408, 0, 0),
    ("skewed_member_type_email", "wco", "full"): (400, 800, 408, 0, 0),
    ("skewed_optional_email", "hashjoin", "base"): (400, 2548, 408, 1, 0),
    ("skewed_optional_email", "hashjoin", "full"): (400, 1208, 408, 1, 0),
    ("skewed_optional_email", "wco", "base"): (400, 2140, 408, 0, 0),
    ("skewed_optional_email", "wco", "full"): (400, 800, 408, 0, 0),
    ("uniform_advisor_chain", "hashjoin", "base"): (60, 324, 0, 1, 1),
    ("uniform_advisor_chain", "hashjoin", "full"): (60, 324, 0, 1, 1),
    ("uniform_advisor_chain", "wco", "base"): (60, 120, 204, 0, 0),
    ("uniform_advisor_chain", "wco", "full"): (60, 120, 204, 0, 0),
    ("uniform_member_union", "hashjoin", "base"): (408, 2028, 0, 0, 0),
    ("uniform_member_union", "hashjoin", "full"): (408, 928, 408, 0, 0),
    ("uniform_member_union", "wco", "base"): (408, 2028, 0, 0, 0),
    ("uniform_member_union", "wco", "full"): (408, 928, 408, 0, 0),
}


class TestEnginePaths:
    @pytest.mark.parametrize("shape,engine_name,mode", sorted(LUBM_JOIN_COUNTS))
    def test_lubm_join_counts(self, lubm_u1_store, shape, engine_name, mode):
        engine = SparqlUOEngine(lubm_u1_store, bgp_engine=engine_name, mode=mode)
        result = engine.execute(LUBM_JOINS[shape])
        counters = result.exec_counters
        observed = (len(result),) + tuple(
            counters.get(name, 0)
            for name in ("rows_materialized", "gallop_probes", "merge_joins", "hash_joins")
        )
        assert observed == LUBM_JOIN_COUNTS[shape, engine_name, mode]

    def test_merge_join_path_fires(self, chain_store):
        patterns = [
            TriplePattern(X, P, IRI(EX + "hub")),
            TriplePattern(X, R, IRI(EX + "flag")),
        ]
        before = EXEC_COUNTERS.snapshot()
        bag = engine_bag(HashJoinEngine, chain_store, patterns)
        delta = EXEC_COUNTERS.delta_since(before)
        assert delta["merge_joins"] >= 1 and delta["hash_joins"] == 0
        assert bag == oracle_bag(chain_store, patterns) and len(bag) == 10

    def test_wco_leapfrog_consumes_verifier(self, chain_store):
        patterns = [
            TriplePattern(X, P, IRI(EX + "hub")),
            TriplePattern(X, R, IRI(EX + "flag")),
        ]
        before = EXEC_COUNTERS.snapshot()
        bag = engine_bag(WCOJoinEngine, chain_store, patterns)
        delta = EXEC_COUNTERS.delta_since(before)
        assert delta["candidate_intersections"] >= 1
        assert delta["gallop_probes"] >= 1
        assert bag == oracle_bag(chain_store, patterns)

    def test_sorted_candidates_intersect_runs(self, chain_store):
        lookup = chain_store.lookup
        ids = SortedIdSet.from_ids(
            lookup(IRI(EX + f"n{i}")) for i in (0, 4, 5, 8)
        )
        patterns = [TriplePattern(X, P, IRI(EX + "hub"))]
        for cls in (HashJoinEngine, WCOJoinEngine):
            bag = engine_bag(cls, chain_store, patterns, {"x": ids})
            assert bag == oracle_bag(chain_store, patterns, {"x": ids}) and len(bag) == 4

    def test_estimate_prices_merge_cheaper(self, chain_store):
        patterns = [
            TriplePattern(X, P, IRI(EX + "hub")),
            TriplePattern(X, R, IRI(EX + "flag")),
        ]
        engine = HashJoinEngine(chain_store)
        # Greedy order scans the 10 flag rows first, then merges the 40 hub rows.
        flag_first = [chain_store.encode_pattern(p) for p in patterns[::-1]]
        _, per_step = estimate_sequence(chain_store, flag_first, 10)
        assert engine.estimate(patterns).cost == 10 + merge_join_cost(per_step[0], 40)
        assert merge_join_cost(per_step[0], 40) < binary_join_cost(per_step[0], 40)

    @settings(max_examples=40, deadline=None)
    @given(datasets(), st.lists(triple_patterns(), min_size=1, max_size=3))
    def test_both_engines_match_oracle(self, dataset, patterns):
        store = TripleStore.from_dataset(dataset)
        for cls in (HashJoinEngine, WCOJoinEngine):
            assert engine_bag(cls, store, patterns) == oracle_bag(store, patterns)

    @settings(max_examples=30, deadline=None)
    @given(datasets(), st.lists(triple_patterns(), min_size=1, max_size=2))
    def test_both_engines_match_oracle_under_candidates(self, dataset, patterns):
        store = TripleStore.from_dataset(dataset)
        ids = [store.dictionary.lookup(t.subject) for t in dataset][::2]
        if not ids:
            return
        candidates = {"v0": SortedIdSet.from_ids(ids)}
        for cls in (HashJoinEngine, WCOJoinEngine):
            assert engine_bag(cls, store, patterns, candidates) == oracle_bag(
                store, patterns, candidates
            )


# ----------------------------------------------------------------------
# satellites: index shape, batch decode, verification
# ----------------------------------------------------------------------
class TestOneIndexShape:
    def test_cold_builds_are_frozen(self, tmp_path):
        d = Dataset()
        for i in range(10):
            d.add_spo(IRI(EX + f"s{i}"), P, IRI(EX + f"o{i % 3}"))
        nt = tmp_path / "cold.nt"
        nt.write_text("".join(t.n3() + "\n" for t in d))
        cold = TripleStore.from_dataset(d)
        bulk = TripleStore.bulk_load(str(nt))
        assert type(cold.indexes) is type(bulk.indexes) is FrozenTripleIndexes
        assert cold.generation == bulk.generation == 1
        decoded = [
            sorted(map(store.dictionary.decode_triple, store.indexes.all_triples()), key=str)
            for store in (cold, bulk)
        ]
        assert decoded[0] == decoded[1] == sorted(d, key=str)

    def test_every_write_uses_the_delta_overlay(self):
        from repro.rdf import Triple
        from repro.storage import DeltaOverlayIndexes

        d = Dataset()
        d.add_spo(IRI(EX + "a"), P, IRI(EX + "b"))
        for store in (TripleStore.from_dataset(d), TripleStore()):
            size = len(store)
            assert store.add(Triple(IRI(EX + "c"), P, IRI(EX + "d")))
            assert len(store) == size + 1
            assert isinstance(store.indexes, DeltaOverlayIndexes)
            assert isinstance(store.indexes, FrozenTripleIndexes)

    def test_empty_store_is_frozen(self):
        store = TripleStore()
        assert len(store) == 0 and store.generation == 0
        assert type(store.indexes) is FrozenTripleIndexes


class TestBatchDecode:
    def test_lazy_dictionary_batch_decode(self, tmp_path):
        d = Dataset()
        for i in range(20):
            d.add_spo(IRI(EX + f"s{i}"), P, IRI(EX + f"o{i}"))
        path = str(tmp_path / "batch.snap")
        TripleStore.from_dataset(d).save(path)
        store = TripleStore.load(path, lazy=True)
        try:
            ids = list(range(len(store.dictionary)))
            batch = store.decode_many(ids[5:15] + ids[5:15])
            assert set(batch) == set(ids[5:15])
            for term_id, term in batch.items():
                assert store.decode(term_id) == term
            with pytest.raises(KeyError):
                store.decode_many([10 ** 6])
        finally:
            store.close()

    def test_decode_page_batches_per_distinct_id(self):
        d = Dataset()
        d.add_spo(IRI(EX + "a"), P, IRI(EX + "b"))
        store = TripleStore.from_dataset(d)
        a = store.lookup(IRI(EX + "a"))
        bag = Bag.from_rows(("x", "y"), [(a, a), (a, UNBOUND)])
        before = EXEC_COUNTERS.snapshot()
        decoded = decode_page(store, bag, bag.schema)
        assert EXEC_COUNTERS.delta_since(before)["decoded_cells"] == 0  # ids only
        assert decoded == Bag([{"x": IRI(EX + "a"), "y": IRI(EX + "a")},
                               {"x": IRI(EX + "a")}])
        delta = EXEC_COUNTERS.delta_since(before)
        assert delta["batch_decoded_ids"] == 1  # 'a' decoded once
        assert delta["decoded_cells"] == 4  # the term view, built for ==


class TestPermutationVerification:
    def _dataset(self):
        d = Dataset()
        for i in range(12):
            d.add_spo(IRI(EX + f"s{i}"), P, IRI(EX + f"o{i % 4}"))
        return d

    def test_valid_snapshot_verifies(self, tmp_path):
        path = str(tmp_path / "good.snap")
        TripleStore.from_dataset(self._dataset()).save(path)
        with SnapshotReader(path) as reader:
            assert reader.verify_permutations() is True

    def test_unsorted_permutations_rejected(self, tmp_path):
        store = TripleStore.from_dataset(self._dataset())
        frozen = store.indexes
        arrays = [array("Q", a) for a in frozen.permutation_arrays()]
        # Corrupt the SPO pair-key order (valid checksums, broken sort).
        arrays[0][0], arrays[0][-1] = arrays[0][-1], arrays[0][0]
        s_col, p_col, o_col = zip(*frozen.all_triples())
        path = str(tmp_path / "bad.snap")
        dictionary = store.dictionary
        write_snapshot(
            path,
            dictionary,
            (array("I", s_col), array("I", p_col), array("I", o_col)),
            generation=1,
            statistics=store.statistics,
            permutations=tuple(arrays),
        )
        with SnapshotReader(path) as reader:
            reader.verify()  # checksums are fine …
            with pytest.raises(SnapshotError, match="out of order"):
                reader.verify_permutations()  # … but the sort is not

    def test_validate_sorted_catches_third_column(self):
        frozen = FrozenTripleIndexes.from_columns([1, 1], [2, 2], [3, 4])
        frozen.validate_sorted()  # sanity: valid data passes
        bad = FrozenTripleIndexes(
            array("Q", [5, 5]), array("Q", [4, 3]),  # SPO third column descends
            array("Q", [1, 2]), array("Q", [1, 1]),
            array("Q", [1, 2]), array("Q", [1, 1]),
        )
        with pytest.raises(ValueError, match="SPO permutation out of order"):
            bad.validate_sorted()

    def test_cli_reports_permutation_check(self, tmp_path, capsys):
        from repro.cli import main

        nt = tmp_path / "tiny.nt"
        nt.write_text('<http://x/a> <http://x/p> <http://x/b> .\n')
        snap = str(tmp_path / "tiny.snap")
        assert main(["snapshot", "build", str(nt), snap]) == 0
        assert main(["snapshot", "info", snap, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "checksums     OK" in out
        assert "permutations  OK" in out


class TestCountersExposure:
    def test_cli_stats_prints_exec_counters(self, tmp_path, capsys):
        from repro.cli import main

        nt = tmp_path / "data.nt"
        nt.write_text(
            "".join(
                f"<http://x/s{i}> <http://x/p> <http://x/o{i % 3}> .\n"
                for i in range(6)
            )
        )
        snap = str(tmp_path / "data.snap")
        assert main(["snapshot", "build", str(nt), snap]) == 0
        capsys.readouterr()
        code = main(
            ["query", snap, "SELECT ?s WHERE { ?s <http://x/p> <http://x/o0> }", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# exec: " in out and "merge_joins" in out

    def test_server_metrics_aggregate_exec_counters(self):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        metrics.record_query(
            "miss", 0.01, 5, 1.0, {"merge_joins": 2, "gallop_probes": 40}
        )
        metrics.record_query("miss", 0.01, 5, 1.0, {"merge_joins": 1})
        rendered = metrics.render(
            generation=1,
            pool_stats={"alive": 1, "target": 1, "backoff_seconds": 0.0,
                        "snapshot_fallbacks": 0},
            cache_stats={},
        )
        assert 'repro_exec_path_total{counter="merge_joins"} 3' in rendered
        assert 'repro_exec_path_total{counter="gallop_probes"} 40' in rendered
