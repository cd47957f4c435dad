"""Durable writes: an append-only, CRC-per-record write-ahead log.

Without a durable log an acked ``POST /update`` lives only in the
in-memory delta overlay until background compaction folds it into the
snapshot — a parent crash or plain restart silently loses acknowledged
writes.  This module closes that hole with the standard ARIES-shaped
discipline: every committed update is appended to the log and fsynced
*before* the client sees its 2xx ack, and startup replays the log tail
into the delta overlay, so an acked update survives ``kill -9`` at any
point.  The same log is the worker pool's respawn-replay source; a
server without ``--wal`` keeps a temporary one (policy ``off``) for
that alone.

File layout (all integers little-endian)::

    offset 0   magic      8 bytes  b"REPROWAL"
               version    u16      FORMAT_VERSION
               flags      u16      reserved, must be 0
               frames, back to back:
                   length      u32   payload byte count
                   generation  u64   store generation after the update
                   payload     UTF-8 SPARQL UPDATE text
                   crc32       u32   of (length ‖ generation ‖ payload)

Each frame records the *post-commit* generation, matching the worker
pool's replay contract: a store loaded from a snapshot at generation G
replays exactly the frames with ``generation > G``, in file order.
Compaction makes a prefix of the log dead (frames at or below the new
snapshot generation) and truncates it through the same atomic tmp +
fsync + rename publish the snapshot layer uses.

Damage taxonomy — deliberately the same split as the snapshot layer's
:class:`~repro.storage.snapshot.SnapshotTornError` /
:class:`~repro.storage.snapshot.SnapshotCorruptError`:

:class:`WalTornError`
    the file is *incomplete*: a truncated final frame, a short header,
    an I/O error mid-scan — the signature of a crash mid-append.  This
    is the **expected** crash artifact; recovery truncates the log at
    the last complete frame and startup proceeds (every frame before
    the tear was fsynced before its ack, so no acked update is lost).
:class:`WalCorruptError`
    the file is complete but *wrong*: bad magic, checksum mismatch on
    a fully present frame, undecodable payload.  Re-reading will not
    help and silently dropping frames would break the durability
    contract, so corruption refuses to load (CLI exit code 3, like a
    corrupt snapshot).

Fsync policy (``always`` / ``interval`` / ``off``):

``always``     every append fsyncs inline before returning — one fsync
               per update, strongest latency ordering.
``interval``   group commit: :meth:`WriteAheadLog.sync` returns only
               once the caller's frame is on disk, but concurrent
               committers share fsyncs — the first syncer becomes the
               leader and its single fsync covers every frame appended
               before it ran; followers piggyback.  Same durability as
               ``always`` under concurrency at a fraction of the
               fsyncs; this is what keeps WAL-on ingest near the
               no-WAL baseline.
``off``        appends reach the OS (readable by replay) but fsync is
               left to the kernel's writeback — an ack may precede
               durability by the writeback window.  For bulk loads and
               tests; :meth:`WriteAheadLog.close` still fsyncs, so an
               orderly drain loses nothing.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from time import perf_counter
from typing import BinaryIO, List, NamedTuple, Optional, Tuple

from .. import faults as _faults
from .snapshot import atomic_overwrite

__all__ = [
    "FORMAT_VERSION",
    "FSYNC_POLICIES",
    "MAGIC",
    "WalCorruptError",
    "WalError",
    "WalRecord",
    "WalScan",
    "WalTornError",
    "WriteAheadLog",
    "recover_wal",
    "scan_wal",
]

MAGIC = b"REPROWAL"
FORMAT_VERSION = 1

FSYNC_POLICIES = ("always", "interval", "off")

_HEADER = struct.Struct("<8sHH")
_FRAME_HEAD = struct.Struct("<IQ")
_U32 = struct.Struct("<I")


class WalError(Exception):
    """The write-ahead log is missing, damaged or incompatible."""


class WalTornError(WalError):
    """The log is incomplete: a truncated final frame or an I/O error
    mid-scan — an interrupted append, not bit rot.  Recovery truncates
    at the last complete frame instead of refusing to start."""


class WalCorruptError(WalError):
    """The log is complete but its contents are wrong: bad magic,
    checksum mismatch on a fully present frame, undecodable payload."""


class WalRecord(NamedTuple):
    """One logged update: the store generation *after* it committed,
    plus the SPARQL UPDATE text that produced it."""

    generation: int
    text: str


class WalScan(NamedTuple):
    """What one pass over a log file found."""

    #: Complete, checksum-verified frames in file order.
    records: List[WalRecord]
    #: Byte offset just past the last complete frame — where a torn
    #: tail gets truncated, and where appends resume.
    good_offset: int
    #: Why the scan stopped early, or None when the file was clean.
    torn: Optional[str]
    #: False when the file does not exist (distinct from empty).
    exists: bool


def _frame_bytes(generation: int, text: str) -> bytes:
    payload = text.encode("utf-8")
    head = _FRAME_HEAD.pack(len(payload), generation)
    return head + payload + _U32.pack(zlib.crc32(head + payload))


def scan_wal(path: str) -> WalScan:
    """Read every complete frame of ``path``, classifying any damage.

    A torn tail (truncated final frame, short header, I/O error
    mid-read) stops the scan and is *reported*, not raised — the
    caller decides between truncating (recovery) and refusing
    (``repro wal info``).  Corruption — a complete frame whose
    checksum or payload is wrong — raises :class:`WalCorruptError`:
    frames past it cannot be trusted and dropping them silently would
    break acked-means-durable.
    """
    try:
        with open(path, "rb") as handle:
            return _scan_frames(handle)
    except FileNotFoundError:
        return WalScan([], 0, None, exists=False)
    except OSError as exc:
        # The open itself failed (permissions, a sick disk): the same
        # "incomplete evidence" class as a truncated file.
        return WalScan([], 0, f"cannot read {path!r}: {exc}", exists=True)


def _scan_frames(handle: BinaryIO) -> WalScan:
    data = handle.read()
    size = len(data)
    if size == 0:
        return WalScan([], 0, None, exists=True)
    if size < _HEADER.size:
        return WalScan([], 0, f"short header ({size} bytes)", exists=True)
    magic, version, flags = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WalCorruptError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != FORMAT_VERSION:
        raise WalCorruptError(
            f"unsupported WAL format v{version} (this build reads v{FORMAT_VERSION})"
        )
    if flags != 0:
        raise WalCorruptError(f"reserved flags set ({flags:#x})")
    records: List[WalRecord] = []
    offset = _HEADER.size
    while offset < size:
        if _faults.ACTIVE is not None:
            try:
                _faults.ACTIVE.fire("wal.replay")
            except OSError as exc:
                # An injected (or real) read error mid-scan is the torn
                # class: the bytes past this point are unavailable, not
                # provably wrong.
                return WalScan(records, offset, f"read error at {offset}: {exc}", True)
        remaining = size - offset
        if remaining < _FRAME_HEAD.size + _U32.size:
            return WalScan(
                records, offset, f"truncated frame header at offset {offset}", True
            )
        length, generation = _FRAME_HEAD.unpack_from(data, offset)
        frame_end = offset + _FRAME_HEAD.size + length + _U32.size
        if frame_end > size:
            # The length prefix promises more bytes than the file has:
            # the append was cut mid-frame (appends are sequential, so
            # nothing can follow a partial write).
            return WalScan(
                records, offset, f"truncated frame payload at offset {offset}", True
            )
        body = data[offset : offset + _FRAME_HEAD.size + length]
        (stored_crc,) = _U32.unpack_from(data, offset + _FRAME_HEAD.size + length)
        if zlib.crc32(body) != stored_crc:
            # Every byte the frame promised is present, so this is not
            # a tear — the contents are wrong.
            raise WalCorruptError(
                f"frame {len(records)} checksum mismatch at offset {offset}"
            )
        try:
            text = body[_FRAME_HEAD.size :].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WalCorruptError(
                f"frame {len(records)} payload is not UTF-8: {exc}"
            ) from None
        records.append(WalRecord(generation, text))
        offset = frame_end
    return WalScan(records, offset, None, exists=True)


class WalRecovery(NamedTuple):
    """The outcome of :func:`recover_wal`."""

    records: List[WalRecord]
    #: True when a torn tail was detected (and, where possible, cut).
    torn_tail: bool


def recover_wal(path: str) -> WalRecovery:
    """Scan ``path`` and truncate a torn tail in place.

    Returns every complete record plus whether a tear was found.  The
    truncation keeps the on-disk log parseable for the next reader; a
    failure to truncate (read-only file system) is tolerated — the
    in-memory records are already correct and the next writer will cut
    the tail when it opens the log.  Corruption propagates as
    :class:`WalCorruptError`.
    """
    scan = scan_wal(path)
    if scan.torn is None:
        return WalRecovery(scan.records, torn_tail=False)
    try:
        with open(path, "r+b") as handle:
            handle.truncate(scan.good_offset)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:
        pass
    return WalRecovery(scan.records, torn_tail=True)


def _timed_fsync(handle: BinaryIO) -> float:
    """fsync ``handle`` (the ``wal.fsync`` fault site); returns seconds."""
    if _faults.ACTIVE is not None:
        _faults.ACTIVE.fire("wal.fsync")
    started = perf_counter()
    os.fsync(handle.fileno())
    return perf_counter() - started


class WriteAheadLog:
    """The append side: recover on open, append frames, fsync per policy.

    Thread-safe.  One process owns the append handle (the serving
    parent, under its update lock); concurrent *readers* — respawn
    replay, ``repro wal info`` — open the path independently and only
    ever observe complete flushed frames, because every append reaches
    the OS in a single unbuffered write before :meth:`append` returns.
    """

    def __init__(self, path: str, policy: str = "interval"):
        if policy not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {policy!r} (choose from {FSYNC_POLICIES})"
            )
        self.path = path
        self.policy = policy
        recovery = recover_wal(path)  # WalCorruptError propagates
        #: Updates recovered from a previous process's log, in commit
        #: order; the opener replays them into its store.
        self.recovered_records: List[WalRecord] = recovery.records
        #: True when open had to cut a torn final frame — surfaced on
        #: /healthz as ``recovered_torn_tail`` (a degraded, but
        #: correct, start).
        self.recovered_torn_tail = recovery.torn_tail
        # One lock serializes appends, fsync bookkeeping and
        # truncation; the condition implements group commit.
        self._lock = threading.Lock()
        self._commit = threading.Condition(self._lock)
        self._handle = self._open_append()
        self._closed = False
        #: Records currently in the log (recovered + appended − truncated).
        self.depth = len(self.recovered_records)
        self.last_generation = (
            self.recovered_records[-1].generation if self.recovered_records else 0
        )
        #: Frames appended by *this* process (the /metrics counter).
        self.records_total = 0
        self.fsync_count = 0
        self.fsync_seconds = 0.0
        # ---- group-commit state (guarded by _lock) ----
        self._append_seq = 0
        self._synced_seq = 0
        self._flushing = False

    def _open_append(self) -> BinaryIO:
        # Unbuffered: each append hits the OS in one write, so replay
        # readers never observe a frame split across a stdio buffer.
        handle = open(self.path, "ab", buffering=0)
        if handle.tell() == 0:
            handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0))
        return handle

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, generation: int, text: str) -> int:
        """Append one committed update; returns its commit sequence.

        With policy ``always`` the frame is fsynced before returning;
        otherwise pass the sequence to :meth:`sync` to wait for
        durability (group commit).  An ``OSError`` — real or injected
        at the ``wal.append`` site — leaves the caller unacked.
        """
        frame = _frame_bytes(generation, text)
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("wal.append")
            self._handle.write(frame)
            self._append_seq += 1
            seq = self._append_seq
            self.depth += 1
            self.records_total += 1
            self.last_generation = generation
            if self.policy == "always":
                self._fsync()
                self._synced_seq = seq
        return seq

    def sync(self, seq: Optional[int] = None) -> None:
        """Block until everything up to ``seq`` (default: all appended
        frames) is durable, per policy.

        ``always`` returns immediately (append already fsynced);
        ``off`` returns immediately without durability.  ``interval``
        is leader-based group commit: the first waiter marks a flush,
        notes the last appended sequence and fsyncs *with the lock
        released*, so appends go on while the disk works.  Waiters
        covered by that fsync return without one of their own; the rest
        queue behind it, and one of them leads the next fsync for all of
        them — the fsync's own duration is the batching window.
        """
        if self.policy == "off":
            return
        with self._commit:
            if seq is None:
                seq = self._append_seq
            while self._synced_seq < seq:
                if self._flushing:
                    self._commit.wait()
                    continue
                if self._closed:
                    raise WalError("write-ahead log is closed")
                self._flushing = True
                target = self._append_seq
                handle = self._handle
                self._lock.release()
                try:
                    seconds = _timed_fsync(handle)
                finally:
                    self._lock.acquire()
                    self._flushing = False
                    self._commit.notify_all()
                self._count_fsync(seconds)
                self._synced_seq = max(self._synced_seq, target)

    def _fsync(self) -> None:
        """One fsync of the append handle (caller holds the lock)."""
        self._count_fsync(_timed_fsync(self._handle))

    def _count_fsync(self, seconds: float) -> None:
        self.fsync_seconds += seconds
        self.fsync_count += 1

    def _wait_for_flush(self) -> None:
        """Wait (lock held) until no group-commit fsync is in flight, so
        the append handle may be swapped or closed."""
        while self._flushing:
            self._commit.wait()

    # ------------------------------------------------------------------
    # reading / truncation
    # ------------------------------------------------------------------
    def records_after(self, generation: int) -> List[WalRecord]:
        """Frames with ``generation`` strictly above the given one,
        re-read from disk — respawn replay streams from here instead of
        holding an ever-growing list in parent memory."""
        scan = scan_wal(self.path)
        return [record for record in scan.records if record.generation > generation]

    def truncate_below(self, generation: int) -> int:
        """Drop frames at or below ``generation`` (compaction ran).

        The surviving tail is republished atomically (tmp + fsync +
        rename), so a crash mid-truncation leaves either the old
        complete log or the new complete log — never a torn file.
        Returns the number of frames dropped.  A torn scan (a read
        error partway through) leaves the log untouched and returns 0:
        republishing it would drop the acked frames past the tear, and
        the next compaction retries.
        """
        with self._commit:
            self._wait_for_flush()
            scan = scan_wal(self.path)
            if scan.torn is not None:
                return 0
            survivors = [r for r in scan.records if r.generation > generation]
            dropped = len(scan.records) - len(survivors)
            if dropped == 0:
                return 0
            with atomic_overwrite(self.path) as handle:
                handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION, 0))
                for record in survivors:
                    handle.write(_frame_bytes(record.generation, record.text))
            # The old handle points at the unlinked inode; reopen.
            self._handle.close()
            self._handle = self._open_append()
            self.depth = len(survivors)
            return dropped

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One consistent sample for /metrics and /healthz."""
        with self._lock:
            return {
                "depth": self.depth,
                "records_total": self.records_total,
                "fsync_count": self.fsync_count,
                "fsync_seconds": self.fsync_seconds,
                "recovered_torn_tail": self.recovered_torn_tail,
            }

    def close(self) -> None:
        """Final fsync (every policy — an orderly drain must not lose
        the writeback window) and close the append handle."""
        with self._commit:
            self._wait_for_flush()
            if self._closed:
                return
            self._closed = True
            try:
                self._fsync()
            except OSError:
                pass
            else:
                # The final fsync covers every frame: release waiters.
                self._synced_seq = self._append_seq
                self._commit.notify_all()
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path!r}, policy={self.policy!r}, "
            f"depth={self.depth})"
        )
