"""Snapshot persistence: round-trips, laziness, corruption handling."""

import os
import struct
import zlib
from array import array

import pytest

from repro.core import SparqlUOEngine
from repro.rdf import BlankNode, Dataset, IRI, Literal, Triple
from repro.storage import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotReader,
    TripleStore,
)
from repro.storage.indexes import FrozenTripleIndexes
from repro.storage.snapshot import decode_term_record, encode_term_record

EX = "http://example.org/"


def tricky_dataset() -> Dataset:
    """Every term kind and literal shape the format must preserve."""
    d = Dataset()
    p = IRI(EX + "p")
    d.add_spo(IRI(EX + "s1"), p, IRI(EX + "o1"))
    d.add_spo(IRI(EX + "s1"), IRI(EX + "q"), Literal("plain"))
    d.add_spo(IRI(EX + "s2"), p, Literal("hallo", language="de"))
    d.add_spo(IRI(EX + "s2"), p, Literal("HALLO", language="EN"))
    d.add_spo(
        IRI(EX + "s3"), p,
        Literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer"),
    )
    d.add_spo(BlankNode("b0"), p, Literal('esc "quotes"\nand\ttabs\\'))
    d.add_spo(IRI(EX + "s3"), p, Literal("ünïcödé ✓"))
    d.add_spo(BlankNode("b1"), IRI(EX + "q"), BlankNode("b0"))
    return d


def rows_of(result):
    return sorted(
        tuple(sorted((var, term.n3()) for var, term in row.items())) for row in result
    )


@pytest.fixture
def snap_path(tmp_path):
    return str(tmp_path / "store.snap")


class TestTermRecords:
    @pytest.mark.parametrize(
        "term",
        [
            IRI(EX + "x"),
            BlankNode("b42"),
            Literal("plain"),
            Literal("tagged", language="en-GB"),
            Literal("7", datatype="http://www.w3.org/2001/XMLSchema#int"),
            Literal(""),
            Literal("", language="fr"),
            Literal("snow ☃"),
        ],
    )
    def test_roundtrip(self, term):
        assert decode_term_record(encode_term_record(term)) == term

    def test_encoding_is_injective_across_shapes(self):
        terms = [
            IRI("x"),
            BlankNode("x"),
            Literal("x"),
            Literal("x", language="en"),
            Literal("x", datatype=EX + "dt"),
        ]
        records = {encode_term_record(t) for t in terms}
        assert len(records) == len(terms)

    def test_garbage_record_raises(self):
        with pytest.raises(SnapshotError):
            decode_term_record(b"")
        with pytest.raises(SnapshotError):
            decode_term_record(b"\xffjunk")
        with pytest.raises(SnapshotError):
            decode_term_record(bytes([3, 255, 255, 255, 255]) + b"x")


class TestRoundTrip:
    def test_queries_identical_on_both_engines(self, snap_path):
        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        loaded = TripleStore.load(snap_path)
        query = f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"
        for engine_name in ("wco", "hashjoin"):
            fresh = SparqlUOEngine(store, bgp_engine=engine_name).execute(query)
            hot = SparqlUOEngine(loaded, bgp_engine=engine_name).execute(query)
            assert rows_of(fresh) == rows_of(hot)
            assert len(fresh) > 0

    @pytest.mark.parametrize("lazy", [True, False])
    def test_contents_identical(self, snap_path, lazy):
        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        loaded = TripleStore.load(snap_path, lazy=lazy)
        assert len(loaded) == len(store)
        assert len(loaded.dictionary) == len(store.dictionary)
        original = {store.dictionary.decode_triple(t) for t in store.indexes.all_triples()}
        restored = {loaded.dictionary.decode_triple(t) for t in loaded.indexes.all_triples()}
        assert original == restored

    def test_generation_preserved(self, snap_path):
        store = TripleStore.from_dataset(tricky_dataset())
        generation = store.generation
        assert generation > 0
        store.save(snap_path)
        assert TripleStore.load(snap_path).generation == generation
        assert TripleStore.load(snap_path, lazy=False).generation == generation

    def test_statistics_preserved_without_index_build(self, snap_path):
        store = TripleStore.from_dataset(tricky_dataset())
        expected = store.statistics
        store.save(snap_path)
        loaded = TripleStore.load(snap_path)
        stats = loaded.statistics
        assert loaded._indexes is None  # stats came from the STAT section
        assert stats.total_triples == expected.total_triples
        assert sorted(stats.predicates()) == sorted(expected.predicates())
        for p in expected.predicates():
            assert stats.for_predicate(p).triples == expected.for_predicate(p).triples

    def test_lazy_lookup_without_materialization(self, snap_path):
        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        loaded = TripleStore.load(snap_path)
        present = loaded.lookup(IRI(EX + "p"))
        assert present == store.lookup(IRI(EX + "p"))
        assert loaded.lookup(IRI(EX + "never-seen")) is None
        assert not loaded.dictionary._materialized  # binary search only

    def test_lazy_lookup_remembers_found_ids_only(self, snap_path, monkeypatch):
        """A present constant is binary-searched once per dictionary,
        however many queries name it.  An absent one is searched every
        time and never remembered, so a stream of absent IRIs cannot
        grow the memo."""
        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        loaded = TripleStore.load(snap_path)
        dictionary = loaded.dictionary
        searches = []
        find_id = SnapshotReader.find_id

        def counting(reader, term):
            searches.append(term)
            return find_id(reader, term)

        monkeypatch.setattr(SnapshotReader, "find_id", counting)
        for i in range(1000):
            assert loaded.lookup(IRI(EX + f"absent{i}")) is None
        assert len(searches) == 1000
        assert dictionary._found == {}

        searches.clear()
        p = IRI(EX + "p")
        assert {loaded.lookup(p) for _ in range(5)} == {store.lookup(p)}
        assert searches == [p]

        searches.clear()
        query = f"SELECT ?s ?o ?x WHERE {{ ?s <{EX}p> ?o . ?s <{EX}q> ?x }}"
        for engine_name in ("wco", "hashjoin", "wco"):
            result = SparqlUOEngine(loaded, bgp_engine=engine_name).execute(query)
            assert rows_of(result) == rows_of(
                SparqlUOEngine(store, bgp_engine=engine_name).execute(query)
            )
        assert searches == [IRI(EX + "q")]  # p was found above
        assert not dictionary._materialized

        # materialize() and encode() keep their meaning over the memo.
        dictionary.materialize()
        assert loaded.lookup(p) == store.lookup(p)
        assert loaded.lookup(IRI(EX + "absent0")) is None
        minted = dictionary.encode(IRI(EX + "absent0"))
        assert minted == len(store.dictionary)
        assert loaded.lookup(IRI(EX + "absent0")) == minted

    def test_mutation_after_load_overlays_and_bumps_generation(self, snap_path):
        from repro.storage import DeltaOverlayIndexes

        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        loaded = TripleStore.load(snap_path)
        generation = loaded.generation
        assert isinstance(loaded.indexes, FrozenTripleIndexes)
        added = loaded.add(Triple(IRI(EX + "new"), IRI(EX + "p"), Literal("v")))
        assert added
        # Writes land in a sorted delta overlay stacked over the
        # still-frozen permutations.
        assert isinstance(loaded.indexes, DeltaOverlayIndexes)
        assert loaded.generation == generation + 1
        assert len(loaded) == len(store) + 1
        # duplicate insert still detected through the overlay
        assert not loaded.add(Triple(IRI(EX + "new"), IRI(EX + "p"), Literal("v")))
        # and a zero-effect write must not bump the generation again
        assert loaded.generation == generation + 1

    def test_save_reload_of_loaded_store(self, snap_path, tmp_path):
        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        second_path = str(tmp_path / "second.snap")
        TripleStore.load(snap_path).save(second_path)
        original = {store.dictionary.decode_triple(t) for t in store.indexes.all_triples()}
        reloaded = TripleStore.load(second_path, lazy=False)
        restored = {
            reloaded.dictionary.decode_triple(t) for t in reloaded.indexes.all_triples()
        }
        assert original == restored

    def test_empty_store_roundtrip(self, snap_path):
        TripleStore().save(snap_path)
        loaded = TripleStore.load(snap_path)
        assert len(loaded) == 0
        assert loaded.lookup(IRI(EX + "x")) is None
        assert list(loaded.indexes.scan()) == []


class TestPlanCache:
    QUERY = f"SELECT ?s WHERE {{ ?s <{EX}p> ?o . OPTIONAL {{ ?s <{EX}q> ?v }} }}"

    def test_plan_cache_hit_after_snapshot_reload(self, snap_path):
        engine = SparqlUOEngine(TripleStore.from_dataset(tricky_dataset()), mode="full")
        before = rows_of(engine.execute(self.QUERY))
        engine.store.save(snap_path)
        engine.reload_store(TripleStore.load(snap_path))
        prepared = engine.prepare(self.QUERY)
        assert prepared.parse_seconds == 0.0 and prepared.transform_seconds == 0.0  # cache hit
        assert rows_of(engine.execute(self.QUERY)) == before

    def test_plan_cache_misses_when_generation_differs(self, snap_path):
        engine = SparqlUOEngine(TripleStore.from_dataset(tricky_dataset()), mode="full")
        engine.execute(self.QUERY)
        engine.store.save(snap_path)
        loaded = TripleStore.load(snap_path)
        loaded.add(Triple(IRI(EX + "other"), IRI(EX + "p"), Literal("x")))
        engine.reload_store(loaded)
        assert engine.prepare(self.QUERY).parse_seconds > 0.0  # write bumped the generation: replanned

    def test_plan_cache_misses_for_unrelated_store_with_same_generation(self):
        store_a = TripleStore.from_dataset(tricky_dataset())
        store_b = TripleStore()
        store_b.add_all(
            Triple(IRI(EX + f"u{i}"), IRI(EX + "p"), Literal(str(i))) for i in range(5)
        )
        assert store_a.generation == store_b.generation == 1
        engine = SparqlUOEngine(store_a, mode="full")
        engine.execute(self.QUERY)
        engine.reload_store(store_b)  # same generation, different data
        assert engine.prepare(self.QUERY).parse_seconds > 0.0  # content counts differ: replanned

    def test_from_snapshot_constructor(self, snap_path):
        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        engine = SparqlUOEngine.from_snapshot(snap_path, bgp_engine="hashjoin")
        reference = SparqlUOEngine(store, bgp_engine="hashjoin")
        assert rows_of(engine.execute(self.QUERY)) == rows_of(
            reference.execute(self.QUERY)
        )


class TestCachedStore:
    def test_cache_miss_builds_then_hit_loads(self, tmp_path):
        from repro.datasets import cached_store, snapshot_path

        cold = cached_store("lubm", tmp_path, universities=1)
        cache_file = snapshot_path("lubm", tmp_path, universities=1)
        assert cache_file.exists()
        hot = cached_store("lubm", tmp_path, universities=1)
        assert len(hot) == len(cold)
        assert hot.generation == cold.generation

    def test_corrupt_cache_entry_rebuilt(self, tmp_path):
        from repro.datasets import cached_store, snapshot_path

        cached_store("lubm", tmp_path, universities=1)
        cache_file = snapshot_path("lubm", tmp_path, universities=1)
        cache_file.write_bytes(b"REPROSNPgarbage")
        rebuilt = cached_store("lubm", tmp_path, universities=1)
        assert len(rebuilt) > 0
        # the rebuild repaired the cache in place
        assert TripleStore.load(str(cache_file)).generation == rebuilt.generation

    def test_no_directory_means_no_cache(self, tmp_path, monkeypatch):
        from repro.datasets import SNAPSHOT_DIR_ENV, cached_store

        monkeypatch.delenv(SNAPSHOT_DIR_ENV, raising=False)
        store = cached_store("dbpedia", None, articles=200)
        assert len(store) > 0
        assert not list(tmp_path.iterdir())

    def test_env_var_directory(self, tmp_path, monkeypatch):
        from repro.datasets import SNAPSHOT_DIR_ENV, cached_store

        monkeypatch.setenv(SNAPSHOT_DIR_ENV, str(tmp_path))
        cached_store("dbpedia", articles=200)
        assert any(path.suffix == ".snap" for path in tmp_path.iterdir())

    def test_unknown_flavor(self, tmp_path):
        from repro.datasets import cached_store

        with pytest.raises(ValueError, match="flavor"):
            cached_store("freebase", tmp_path)


class TestCorruption:
    def saved(self, path) -> str:
        TripleStore.from_dataset(tricky_dataset()).save(path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            TripleStore.load(str(tmp_path / "nope.snap"))

    def test_bad_magic(self, snap_path):
        self.saved(snap_path)
        with open(snap_path, "r+b") as handle:
            handle.write(b"NOTASNAP")
        with pytest.raises(SnapshotError, match="bad magic"):
            TripleStore.load(snap_path)

    def test_not_even_a_header(self, snap_path):
        with open(snap_path, "wb") as handle:
            handle.write(b"xy")
        with pytest.raises(SnapshotError, match="too short"):
            TripleStore.load(snap_path)

    def test_version_mismatch(self, snap_path):
        self.saved(snap_path)
        with open(snap_path, "r+b") as handle:
            handle.seek(len(MAGIC))
            handle.write((FORMAT_VERSION + 1).to_bytes(2, "little"))
        with pytest.raises(SnapshotError, match="version"):
            TripleStore.load(snap_path)

    def test_truncated_file(self, snap_path):
        self.saved(snap_path)
        size = os.path.getsize(snap_path)
        with open(snap_path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(SnapshotError):
            TripleStore.load(snap_path, lazy=False)

    def test_corrupt_section_payload(self, snap_path):
        self.saved(snap_path)
        size = os.path.getsize(snap_path)
        with open(snap_path, "r+b") as handle:
            handle.seek(size - 9)  # inside the last section's payload
            handle.write(b"\xde\xad\xbe\xef")
        with pytest.raises(SnapshotError, match="checksum"):
            with SnapshotReader(snap_path) as reader:
                reader.verify()

    def test_corrupt_table_detected_eagerly(self, snap_path):
        self.saved(snap_path)
        with open(snap_path, "r+b") as handle:
            handle.seek(len(MAGIC) + 2 + 2 + 4 + 4 + 5)  # inside the table
            handle.write(b"\xff\xff")
        with pytest.raises(SnapshotError):
            TripleStore.load(snap_path)

    def test_reader_info_and_verify_on_good_file(self, snap_path):
        self.saved(snap_path)
        with SnapshotReader(snap_path) as reader:
            reader.verify()
            info = reader.info()
            assert info["format_version"] == FORMAT_VERSION
            assert info["triples"] == len(tricky_dataset())
            names = {name for name, _, _ in info["sections"]}
            assert {"META", "DICT", "DOFF", "TSRT", "COLS", "STAT"} <= names


def rewrite_with_wide_columns(path, columns) -> None:
    """Hand-craft the snapshot another writer could produce: the given
    s/p/o columns as 8-byte ids and no permutation sections."""
    with SnapshotReader(path) as reader, open(path, "rb") as handle:
        raw = handle.read()
        sections = {
            name.encode(): raw[offset : offset + length]
            for name, offset, length in reader.sections()
            if name not in ("PSPO", "PPOS", "POSP")
        }
    sections[b"COLS"] = b"\x08" + b"\x00" * 7 + b"".join(
        array("Q", column).tobytes() for column in columns
    )
    header, entry = struct.Struct("<8sHHII"), struct.Struct("<4sQQII")
    table = b""
    offset = header.size + entry.size * len(sections)
    for tag, payload in sections.items():
        table += entry.pack(tag, offset, len(payload), zlib.crc32(payload), 0)
        offset += len(payload)
    with open(path, "wb") as handle:
        handle.write(header.pack(MAGIC, FORMAT_VERSION, 0, len(sections), zlib.crc32(table)))
        handle.write(table)
        handle.write(b"".join(sections.values()))


class TestSnapshotWithoutPermutations:
    def test_loads_as_frozen_indexes(self, snap_path):
        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        rewrite_with_wide_columns(snap_path, zip(*store.indexes.all_triples()))
        for lazy in (True, False):
            loaded = TripleStore.load(snap_path, lazy=lazy)
            assert type(loaded.indexes) is FrozenTripleIndexes
            assert loaded.indexes.all_triples() == store.indexes.all_triples()

    def test_id_beyond_32_bits_is_corrupt_not_mispacked(self, snap_path):
        store = TripleStore.from_dataset(tricky_dataset())
        store.save(snap_path)
        s_col, p_col, o_col = (list(c) for c in zip(*store.indexes.all_triples()))
        o_col[0] = 1 << 32
        rewrite_with_wide_columns(snap_path, (s_col, p_col, o_col))
        with pytest.raises(SnapshotCorruptError, match="32 bits"):
            TripleStore.load(snap_path).indexes
        with pytest.raises(ValueError, match="32 bits"):
            FrozenTripleIndexes.from_columns(s_col, p_col, o_col)
