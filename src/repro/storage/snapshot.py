"""Versioned binary store snapshots.

The paper's workloads (LUBM / DBpedia) are measured at scales where
re-parsing N-Triples text and re-minting the term dictionary on every
process start dominates wall time.  A snapshot captures a fully built
:class:`~repro.storage.store.TripleStore` — term dictionary, triple
columns, cardinality statistics and the write generation — in a single
file that loads in one ``read()``-bound pass.

File layout (all integers little-endian)::

    offset 0   magic           8 bytes  b"REPROSNP"
               version         u16      FORMAT_VERSION
               flags           u16      reserved, must be 0
               section_count   u32
               table_crc32     u32      crc32 of the section table bytes
               section table   section_count × 28 bytes:
                                   tag      4 bytes
                                   offset   u64 (from file start)
                                   length   u64
                                   crc32    u32
                                   reserved u32 (0)
               payload sections, in table order

Sections (``STAT`` is optional, everything else required):

=========  ==========================================================
``META``   generation, triple count, term count (3 × i64)
``DOFF``   term record offsets into ``DICT``: (term_count + 1) × u64
``DICT``   concatenated term records (see :func:`encode_term_record`)
``TSRT``   term ids sorted by record bytes (term_count × id width) —
           enables binary-search constant lookup without decoding the
           whole dictionary
``COLS``   id width byte + pad, then the s, p and o id columns
``STAT``   per-predicate (predicate, triples, distinct subjects,
           distinct objects) rows, 4 × i64 each
=========  ==========================================================

Integrity: the header and section table are validated eagerly on open
(magic, version, table checksum, section bounds); each payload section
carries its own crc32, verified lazily the first time that section is
decoded.  Loading therefore touches only the bytes a query needs —
``snapshot info`` never checksums the dictionary blob, and a point
query decodes only the terms it projects.

Every failure mode raises :class:`SnapshotError`, refined into two
operationally distinct subclasses: :class:`SnapshotTornError` for
truncation and I/O failures (an interrupted write or a sick disk — the
file is *incomplete*) and :class:`SnapshotCorruptError` for checksum
mismatches and malformed contents (the file is complete but *wrong*).
``snapshot info --verify`` reports and exits differently per class;
both inherit ``SnapshotError`` so every existing handler keeps working.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import faults as _faults
from ..rdf.dictionary import TermDictionary
from ..rdf.terms import XSD_STRING, BlankNode, GroundTerm, IRI, Literal
from .indexes import FrozenTripleIndexes
from .stats import PredicateStatistics, StoreStatistics

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SnapshotError",
    "SnapshotTornError",
    "SnapshotCorruptError",
    "SnapshotReader",
    "LazyTermDictionary",
    "atomic_overwrite",
    "is_snapshot",
    "quarantine_snapshot",
    "write_snapshot",
    "encode_term_record",
    "decode_term_record",
]

MAGIC = b"REPROSNP"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sHHII")
_SECTION = struct.Struct("<4sQQII")
_META = struct.Struct("<qqq")
_STAT_ROW = struct.Struct("<qqqq")
_U32 = struct.Struct("<I")

SEC_META = b"META"
SEC_DICT_OFFSETS = b"DOFF"
SEC_DICT = b"DICT"
SEC_TERM_SORT = b"TSRT"
SEC_COLUMNS = b"COLS"
SEC_STATS = b"STAT"
#: Sorted permutation indexes (RDF-3X's SPO / POS / OSP), each a packed
#: 64-bit pair-key array plus the third-position column.  Optional:
#: written whenever ids fit 32 bits, in which case loading rebuilds
#: nothing — the arrays are the index.
SEC_PERM_SPO = b"PSPO"
SEC_PERM_POS = b"PPOS"
SEC_PERM_OSP = b"POSP"

_REQUIRED_SECTIONS = (SEC_META, SEC_DICT_OFFSETS, SEC_DICT, SEC_TERM_SORT, SEC_COLUMNS)
_PERM_SECTIONS = (SEC_PERM_SPO, SEC_PERM_POS, SEC_PERM_OSP)

# Term record kind tags (first byte of every DICT record).
_KIND_IRI = 0
_KIND_BLANK = 1
_KIND_LITERAL_PLAIN = 2
_KIND_LITERAL_LANG = 3
_KIND_LITERAL_TYPED = 4


class SnapshotError(Exception):
    """A snapshot file is missing, malformed, corrupt or incompatible."""


class SnapshotTornError(SnapshotError):
    """The file is incomplete: truncated sections, short reads, I/O
    errors mid-read — the signature of an interrupted (non-atomic)
    write or failing storage, not of bit rot."""


class SnapshotCorruptError(SnapshotError):
    """The file is complete but its contents are wrong: checksum
    mismatches, malformed term records, out-of-bounds offsets."""


def is_snapshot(path: str) -> bool:
    """True when ``path`` starts with the snapshot magic (False when
    it is unreadable)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


#: Appended to a bad snapshot's name when it is quarantined.
QUARANTINE_SUFFIX = ".corrupt"


def quarantine_snapshot(path: str) -> Optional[str]:
    """Move a bad snapshot aside (``path`` → ``path.corrupt``).

    Keeps the evidence for post-mortems while guaranteeing the next
    reader cannot trip over the same bad bytes; an existing quarantine
    file is overwritten (the newest corpse wins).  Returns the
    quarantine path, or None when the rename itself failed (read-only
    directory, file already gone) — callers treat that as "could not
    quarantine" and proceed.
    """
    target = path + QUARANTINE_SUFFIX
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target


def _fsync_directory(directory: str) -> None:
    """Persist a directory entry (the rename half of atomic publish)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # platform without directory fds (e.g. Windows)
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_overwrite(path: str) -> Iterator[BinaryIO]:
    """Crash-safe file publication: tmp file, fsync, ``os.replace``.

    The target either keeps its previous content or atomically becomes
    the complete new content — a crash (or injected fault) at any point
    can leave a stale ``*.tmp.<pid>`` behind but never a torn file
    under the final name.  Used for snapshots and for every other
    artifact whose partial write could poison a cache directory.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        if _faults.ACTIVE is not None:
            # Fires *between* the durable tmp write and the publishing
            # rename: the exact window a crash-mid-publish occupies.
            _faults.ACTIVE.fire("snapshot.write")
        os.replace(tmp_path, path)
        _fsync_directory(os.path.dirname(os.path.abspath(path)))
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


# ----------------------------------------------------------------------
# term records
# ----------------------------------------------------------------------
def encode_term_record(term: GroundTerm) -> bytes:
    """Serialize one ground term to its canonical snapshot record.

    The encoding is injective (kind tag plus, where needed, a length
    prefix), so byte-equality of records is term equality — the sorted
    term section relies on this for binary-search lookup.
    """
    if isinstance(term, IRI):
        return bytes((_KIND_IRI,)) + term.value.encode("utf-8")
    if isinstance(term, BlankNode):
        return bytes((_KIND_BLANK,)) + term.label.encode("utf-8")
    if isinstance(term, Literal):
        lexical = term.lexical.encode("utf-8")
        if term.language is not None:
            head = bytes((_KIND_LITERAL_LANG,)) + _U32.pack(len(lexical))
            return head + lexical + term.language.encode("utf-8")
        if term.datatype != XSD_STRING:
            head = bytes((_KIND_LITERAL_TYPED,)) + _U32.pack(len(lexical))
            return head + lexical + term.datatype.encode("utf-8")
        return bytes((_KIND_LITERAL_PLAIN,)) + lexical
    raise SnapshotError(f"cannot snapshot non-ground term {term!r}")


def decode_term_record(record: bytes) -> GroundTerm:
    """Inverse of :func:`encode_term_record`."""
    if not record:
        raise SnapshotCorruptError("empty term record")
    kind = record[0]
    try:
        if kind == _KIND_IRI:
            return IRI(record[1:].decode("utf-8"))
        if kind == _KIND_BLANK:
            return BlankNode(record[1:].decode("utf-8"))
        if kind == _KIND_LITERAL_PLAIN:
            return Literal(record[1:].decode("utf-8"))
        if kind in (_KIND_LITERAL_LANG, _KIND_LITERAL_TYPED):
            if len(record) < 5:
                raise SnapshotCorruptError("truncated literal record")
            (lexical_length,) = _U32.unpack_from(record, 1)
            body = record[5:]
            if lexical_length > len(body):
                raise SnapshotCorruptError("literal record length prefix out of bounds")
            lexical = body[:lexical_length].decode("utf-8")
            tail = body[lexical_length:].decode("utf-8")
            if kind == _KIND_LITERAL_LANG:
                return Literal(lexical, language=tail)
            return Literal(lexical, datatype=tail)
    except SnapshotError:
        raise
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotCorruptError(f"malformed term record: {exc}") from None
    raise SnapshotCorruptError(f"unknown term record kind {kind}")


def _id_array(typecode: str, count: int, raw: bytes) -> array:
    out = array(typecode)
    out.frombytes(raw[: count * out.itemsize])
    if sys.byteorder == "big":  # sections are little-endian on disk
        out.byteswap()
    return out


def _id_bytes(values: array) -> bytes:
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def write_snapshot(
    path: str,
    dictionary: TermDictionary,
    columns: Tuple[Sequence[int], Sequence[int], Sequence[int]],
    generation: int,
    statistics: Optional[StoreStatistics] = None,
    permutations: Optional[Tuple[Sequence[int], ...]] = None,
) -> None:
    """Serialize a store's parts into a snapshot file at ``path``.

    ``columns`` are the s, p and o id columns of equal length (one row
    per distinct triple).  ``permutations`` may pass the six arrays of
    an existing :meth:`FrozenTripleIndexes.permutation_arrays` so
    re-saving a snapshot-loaded store skips re-sorting.  The write is
    atomic: the file appears under its final name only after a
    successful ``os.replace``, so a crashed or concurrent writer can
    never leave a half-written snapshot behind.
    """
    s_col, p_col, o_col = columns
    if not (len(s_col) == len(p_col) == len(o_col)):
        raise SnapshotError("snapshot columns must have equal length")
    term_count = len(dictionary)
    triple_count = len(s_col)

    records: List[bytes] = [encode_term_record(term) for term in dictionary.terms()]
    offsets = array("Q", [0])
    total = 0
    for record in records:
        total += len(record)
        offsets.append(total)
    dict_blob = b"".join(records)

    id_typecode = "I" if term_count < (1 << 32) else "Q"
    order = sorted(range(term_count), key=records.__getitem__)
    tsrt = array(id_typecode, order)

    columns_payload = bytearray()
    columns_payload += bytes((array(id_typecode).itemsize,)) + b"\x00" * 7
    for col in (s_col, p_col, o_col):
        if not (isinstance(col, array) and col.typecode == id_typecode):
            col = array(id_typecode, col)
        columns_payload += _id_bytes(col)

    sections: List[Tuple[bytes, bytes]] = [
        (SEC_META, _META.pack(generation, triple_count, term_count)),
        (SEC_DICT_OFFSETS, _id_bytes(offsets)),
        (SEC_DICT, dict_blob),
        (SEC_TERM_SORT, _id_bytes(tsrt)),
        (SEC_COLUMNS, bytes(columns_payload)),
    ]
    if id_typecode == "I":
        arrays = permutations
        if arrays is None:
            arrays = FrozenTripleIndexes.from_columns(s_col, p_col, o_col).permutation_arrays()
        for index, tag in enumerate(_PERM_SECTIONS):
            keys, thirds = (
                part if isinstance(part, array) and part.typecode == "Q" else array("Q", part)
                for part in (arrays[2 * index], arrays[2 * index + 1])
            )
            sections.append((tag, _id_bytes(keys) + _id_bytes(thirds)))
    if statistics is not None:
        rows = bytearray()
        for p in sorted(statistics.predicates()):
            stat = statistics.for_predicate(p)
            rows += _STAT_ROW.pack(
                p, stat.triples, stat.distinct_subjects, stat.distinct_objects
            )
        sections.append((SEC_STATS, bytes(rows)))

    table = bytearray()
    offset = _HEADER.size + _SECTION.size * len(sections)
    for tag, payload in sections:
        table += _SECTION.pack(tag, offset, len(payload), zlib.crc32(payload), 0)
        offset += len(payload)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, 0, len(sections), zlib.crc32(bytes(table))
    )

    with atomic_overwrite(path) as handle:
        handle.write(header)
        handle.write(table)
        for _, payload in sections:
            handle.write(payload)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
class SnapshotReader:
    """Lazy, mmap-backed view over one snapshot file.

    Opening validates the header, version, section table checksum and
    section bounds — a truncated or foreign file fails here, cheaply.
    Payload bytes are only read (and their checksums only verified)
    when a section is first touched.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("snapshot.open")
            self._file: BinaryIO = open(path, "rb")
        except OSError as exc:
            raise SnapshotError(f"cannot open snapshot {path!r}: {exc}") from None
        try:
            self._open()
        except Exception:
            self._file.close()
            raise

    def _open(self) -> None:
        file_size = os.fstat(self._file.fileno()).st_size
        head = self._file.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise SnapshotTornError(f"{self.path!r}: file too short to be a snapshot")
        magic, version, flags, section_count, table_crc = _HEADER.unpack(head)
        if magic != MAGIC:
            raise SnapshotError(f"{self.path!r}: bad magic {magic!r} (not a snapshot)")
        if version != FORMAT_VERSION:
            raise SnapshotError(
                f"{self.path!r}: snapshot format version {version} is not "
                f"supported (this build reads version {FORMAT_VERSION})"
            )
        if flags != 0:
            raise SnapshotError(f"{self.path!r}: unknown snapshot flags {flags:#x}")
        table_bytes = self._file.read(_SECTION.size * section_count)
        if len(table_bytes) < _SECTION.size * section_count:
            raise SnapshotTornError(f"{self.path!r}: truncated section table")
        if zlib.crc32(table_bytes) != table_crc:
            raise SnapshotCorruptError(f"{self.path!r}: section table checksum mismatch")

        self._sections: Dict[bytes, Tuple[int, int, int]] = {}
        for index in range(section_count):
            tag, offset, length, crc, _ = _SECTION.unpack_from(
                table_bytes, index * _SECTION.size
            )
            if offset + length > file_size:
                raise SnapshotTornError(
                    f"{self.path!r}: section {tag!r} extends past end of file "
                    f"(truncated snapshot?)"
                )
            self._sections[tag] = (offset, length, crc)
        for tag in _REQUIRED_SECTIONS:
            if tag not in self._sections:
                raise SnapshotError(f"{self.path!r}: missing required section {tag!r}")

        self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        self._verified: Dict[bytes, bool] = {}

        meta = self._section_bytes(SEC_META)
        if len(meta) != _META.size:
            raise SnapshotCorruptError(f"{self.path!r}: malformed META section")
        self.generation, self.triple_count, self.term_count = _META.unpack(meta)
        if self.triple_count < 0 or self.term_count < 0:
            raise SnapshotCorruptError(f"{self.path!r}: negative counts in META section")

        self._dict_offsets: Optional[array] = None
        self._term_sort: Optional[array] = None
        self._columns: Optional[Tuple[array, array, array]] = None

    # ------------------------------------------------------------------
    # section access
    # ------------------------------------------------------------------
    def _section_bytes(self, tag: bytes) -> memoryview:
        try:
            offset, length, crc = self._sections[tag]
        except KeyError:
            raise SnapshotError(f"{self.path!r}: no section {tag!r}") from None
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("snapshot.read_section")
            view = memoryview(self._map)[offset : offset + length]
        except OSError as exc:
            # A real (or injected) I/O error on the mapped bytes: the
            # file is unreadable, which upper layers handle exactly
            # like a torn write — quarantine / rebuild / fall back.
            raise SnapshotTornError(
                f"{self.path!r}: I/O error reading section "
                f"{tag.decode('ascii', 'replace')!r}: {exc}"
            ) from exc
        if not self._verified.get(tag):
            if zlib.crc32(view) != crc:
                view.release()
                raise SnapshotCorruptError(
                    f"{self.path!r}: checksum mismatch in section "
                    f"{tag.decode('ascii', 'replace')!r} (corrupt snapshot)"
                )
            self._verified[tag] = True
        return view

    def verify(self) -> None:
        """Checksum every section (``snapshot info --verify``)."""
        for tag in self._sections:
            self._section_bytes(tag)

    def verify_permutations(self) -> bool:
        """Validate the sort invariants of the permutation sections.

        The merge-join / galloping execution paths assume every
        persisted permutation is strictly ascending on (pair-key,
        third-column); a snapshot violating that would silently return
        wrong join results rather than crash.  Returns False when the
        snapshot carries no permutation sections, True when they all
        validate, and raises :class:`SnapshotError` naming the first
        out-of-order row otherwise.
        """
        frozen = self.frozen_indexes()
        if frozen is None:
            return False
        try:
            frozen.validate_sorted()
        except ValueError as exc:
            raise SnapshotError(f"{self.path!r}: {exc}") from exc
        return True

    def sections(self) -> List[Tuple[str, int, int]]:
        """(name, offset, length) per section, for ``snapshot info``."""
        return [
            (tag.decode("ascii", "replace"), offset, length)
            for tag, (offset, length, _) in sorted(
                self._sections.items(), key=lambda item: item[1][0]
            )
        ]

    # ------------------------------------------------------------------
    # dictionary
    # ------------------------------------------------------------------
    def _offsets(self) -> array:
        if self._dict_offsets is None:
            raw = self._section_bytes(SEC_DICT_OFFSETS)
            expected = (self.term_count + 1) * 8
            if len(raw) < expected:
                raise SnapshotTornError(f"{self.path!r}: dictionary offsets truncated")
            self._dict_offsets = _id_array("Q", self.term_count + 1, bytes(raw))
        return self._dict_offsets

    def term_record(self, term_id: int) -> bytes:
        if not 0 <= term_id < self.term_count:
            raise KeyError(f"unknown term id {term_id}")
        offsets = self._offsets()
        blob = self._section_bytes(SEC_DICT)
        start, end = offsets[term_id], offsets[term_id + 1]
        if end < start or end > len(blob):
            raise SnapshotCorruptError(f"{self.path!r}: dictionary offsets out of bounds")
        return bytes(blob[start:end])

    def term(self, term_id: int) -> GroundTerm:
        return decode_term_record(self.term_record(term_id))

    def find_id(self, term: GroundTerm) -> Optional[int]:
        """Binary-search the sorted term section for ``term``'s id.

        O(log n) record reads; never decodes or materializes the
        dictionary — this is what keeps constant lookup in loaded
        stores proportional to what the query touches.
        """
        if self.term_count == 0:
            return None
        if self._term_sort is None:
            raw = self._section_bytes(SEC_TERM_SORT)
            typecode = "I" if self.term_count < (1 << 32) else "Q"
            expected = self.term_count * array(typecode).itemsize
            if len(raw) < expected:
                raise SnapshotTornError(f"{self.path!r}: sorted term section truncated")
            self._term_sort = _id_array(typecode, self.term_count, bytes(raw))
        target = encode_term_record(term)
        order = self._term_sort
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            candidate = self.term_record(order[mid])
            if candidate == target:
                return order[mid]
            if candidate < target:
                lo = mid + 1
            else:
                hi = mid
        return None

    # ------------------------------------------------------------------
    # triple columns and statistics
    # ------------------------------------------------------------------
    def columns(self) -> Tuple[array, array, array]:
        """The s, p and o id columns, decoded once and cached."""
        if self._columns is None:
            raw = bytes(self._section_bytes(SEC_COLUMNS))
            if len(raw) < 8:
                raise SnapshotCorruptError(f"{self.path!r}: malformed COLS section")
            width = raw[0]
            if width == 4:
                typecode = "I"
            elif width == 8:
                typecode = "Q"
            else:
                raise SnapshotCorruptError(f"{self.path!r}: unsupported id width {width}")
            stride = self.triple_count * width
            if len(raw) < 8 + 3 * stride:
                raise SnapshotTornError(f"{self.path!r}: triple columns truncated")
            body = raw[8:]
            self._columns = (
                _id_array(typecode, self.triple_count, body[:stride]),
                _id_array(typecode, self.triple_count, body[stride : 2 * stride]),
                _id_array(typecode, self.triple_count, body[2 * stride : 3 * stride]),
            )
        return self._columns

    def frozen_indexes(self) -> Optional[FrozenTripleIndexes]:
        """The persisted sorted permutations as ready-to-serve indexes.

        Returns None when the snapshot carries no permutation sections
        (64-bit ids); callers then rebuild classic indexes from the
        triple columns.  Decoding is three ``frombytes`` calls — no
        per-row work.
        """
        if any(tag not in self._sections for tag in _PERM_SECTIONS):
            return None
        n = self.triple_count
        arrays: List[array] = []
        for tag in _PERM_SECTIONS:
            raw = bytes(self._section_bytes(tag))
            if len(raw) < 16 * n:
                raise SnapshotTornError(f"{self.path!r}: permutation section {tag!r} truncated")
            arrays.append(_id_array("Q", n, raw[: 8 * n]))
            arrays.append(_id_array("Q", n, raw[8 * n : 16 * n]))
        return FrozenTripleIndexes(*arrays)

    def statistics(self) -> Optional[StoreStatistics]:
        """The persisted statistics catalog, or None if absent."""
        if SEC_STATS not in self._sections:
            return None
        raw = self._section_bytes(SEC_STATS)
        if len(raw) % _STAT_ROW.size:
            raise SnapshotCorruptError(f"{self.path!r}: malformed STAT section")
        per_predicate: Dict[int, PredicateStatistics] = {}
        for base in range(0, len(raw), _STAT_ROW.size):
            p, triples, subjects, objects = _STAT_ROW.unpack_from(raw, base)
            per_predicate[p] = PredicateStatistics(triples, subjects, objects)
        return StoreStatistics(self.triple_count, per_predicate)

    def info(self) -> Dict[str, object]:
        """Header metadata for ``snapshot info`` (touches no payloads)."""
        return {
            "path": self.path,
            "format_version": FORMAT_VERSION,
            "generation": self.generation,
            "triples": self.triple_count,
            "terms": self.term_count,
            "file_bytes": os.fstat(self._file.fileno()).st_size,
            "sections": self.sections(),
        }

    def close(self) -> None:
        if getattr(self, "_map", None) is not None:
            try:
                self._map.close()
            except BufferError:
                # A section view is still referenced (e.g. from an
                # in-flight exception traceback); the mapping is
                # released when the last view is collected.
                pass
        self._file.close()

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SnapshotReader({self.path!r}, {self.triple_count} triples, "
            f"{self.term_count} terms, generation {self.generation})"
        )


# ----------------------------------------------------------------------
# lazy dictionary
# ----------------------------------------------------------------------
class LazyTermDictionary(TermDictionary):
    """A term dictionary backed by an open snapshot.

    ``decode`` pulls single term records out of the mmap on demand (a
    query decodes only the ids its results project); ``lookup`` binary-
    searches the snapshot's sorted term section once per present term
    and remembers the id it found.  Misses are not remembered, so a
    stream of absent constants cannot grow memory (the memo holds at
    most one entry per term of the snapshot, about 80 bytes beside the
    term itself).  The full in-memory
    dictionary is materialized only when something needs it — minting
    new ids via ``encode`` or iterating ``terms()``.
    """

    def __init__(self, reader: SnapshotReader):
        super().__init__()
        self._reader = reader
        # None marks a not-yet-decoded slot; every read path fills the
        # slot before returning, so consumers only ever see terms.
        self._id_to_term = [None] * reader.term_count  # type: ignore[assignment]
        #: term → id of every term ``lookup`` found before materializing.
        self._found: Dict[GroundTerm, int] = {}
        self._materialized = False

    def decode(self, term_id: int) -> GroundTerm:
        if not 0 <= term_id < len(self._id_to_term):
            raise KeyError(f"unknown term id {term_id}")
        term = self._id_to_term[term_id]
        if term is None:
            term = self._reader.term(term_id)
            self._id_to_term[term_id] = term
        return term

    def decode_many(self, term_ids: Iterable[int]) -> Dict[int, GroundTerm]:
        """Batch decode: undecoded ids are visited in ascending order.

        Term records live contiguously in the mapped DICT section, so a
        sorted sweep touches each page once instead of seeking per
        occurrence — this is the lazy-dictionary half of batch result
        decoding (each distinct id decoded once per query, in id order).
        """
        cache = self._id_to_term
        out: Dict[int, GroundTerm] = {}
        missing: List[int] = []
        for term_id in term_ids:
            if not 0 <= term_id < len(cache):
                raise KeyError(f"unknown term id {term_id}")
            term = cache[term_id]
            if term is None:
                missing.append(term_id)
            else:
                out[term_id] = term
        if missing:
            missing.sort()
            read = self._reader.term
            for term_id in missing:
                term = cache[term_id]
                if term is None:
                    term = cache[term_id] = read(term_id)
                out[term_id] = term
        return out

    def lookup(self, term: GroundTerm) -> Optional[int]:
        if self._materialized:
            return self._term_to_id.get(term)
        term_id = self._found.get(term)
        if term_id is not None:
            return term_id
        if not isinstance(term, (IRI, BlankNode, Literal)):
            return None
        term_id = self._reader.find_id(term)
        if term_id is not None:
            self._found[term] = term_id
        return term_id

    def __contains__(self, term: GroundTerm) -> bool:
        return self.lookup(term) is not None

    def encode(self, term: GroundTerm) -> int:
        existing = self.lookup(term)
        if existing is not None:
            return existing
        self.materialize()
        return super().encode(term)

    def terms(self):
        self.materialize()
        return super().terms()

    def materialize(self) -> "LazyTermDictionary":
        """Decode every term and build the in-memory reverse map."""
        if not self._materialized:
            decode = self._reader.term
            for term_id, term in enumerate(self._id_to_term):
                if term is None:
                    self._id_to_term[term_id] = decode(term_id)
            self._term_to_id = {
                term: term_id for term_id, term in enumerate(self._id_to_term)
            }
            self._found = {}  # the full reverse map supersedes it
            self._materialized = True
        return self
