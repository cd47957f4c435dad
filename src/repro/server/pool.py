"""The worker-process pool: snapshot-backed query execution with
per-query timeouts and kill-and-respawn recovery.

Each worker is a separate process that opens the *same* snapshot file
mmap-lazily (``TripleStore.load(lazy=True)``), so a cold fleet of N
workers shares the page cache — the bytes one worker faults in are
warm for the others — and reaches its first answer without any eager
index build.  Workers use the ``spawn`` start method: the parent runs
a threaded HTTP server, and forking a multi-threaded process risks
inheriting held locks.

Timeout discipline is two-layered:

1. the worker arms one cooperative deadline checkpoint
   (:meth:`SparqlUOEngine.deadline_checkpoint`) covering evaluation
   *and* result serialization; a raise aborts at the next checkpoint
   and reports a clean ``timeout`` reply — the worker survives and
   keeps its warm caches;
2. the parent polls the reply pipe for ``timeout + grace`` seconds; a
   worker that blows through that (stuck outside any checkpoint, or
   dead) is killed and a fresh worker is spawned in its place.

Recovery discipline — degrade, don't die:

- a dead worker's replacement is attempted at most once inline; every
  further retry runs on the pool's own **heal thread** with
  exponential backoff plus jitter, under a respawn *budget* (at most
  ``_RESPAWN_BUDGET`` attempts per rolling window), so a snapshot that
  went bad on disk produces a short roster and a degraded
  ``/healthz`` — never a respawn storm and never a crash loop;
- a respawn that fails because the *data* cannot be loaded (the
  snapshot was rebuilt in place and is torn or corrupt) is counted as
  a **snapshot fallback**: the surviving workers keep serving the
  last-good generation from their still-open mmaps while the heal
  thread retries in the background;
- healing is timer-driven, not request-driven: an idle server heals
  too.
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple, Union

from .. import faults as _faults
from ..sparql.errors import QueryTimeoutError, SparqlError, SparqlSyntaxError
from .config import ServerConfig

__all__ = [
    "PoolError",
    "ReplyFrames",
    "WorkerPool",
    "WorkerReply",
    "failure_reply",
    "read_whole",
]

#: Wall-clock budget for a worker to open the store and report ready.
_STARTUP_TIMEOUT = 120.0
#: Respawn-storm budget: at most this many respawn attempts per rolling
#: ``respawn_window`` seconds; excess attempts wait.
_RESPAWN_BUDGET = 8


class PoolError(Exception):
    """The pool could not be brought up (bad snapshot, spawn failure)."""

    def __init__(self, message: str, data_load_failure: bool = False):
        super().__init__(message)
        #: True when a worker reported it could not *load the data*
        #: (torn/corrupt snapshot, vanished file) — the failure class
        #: the last-good-generation fallback counts and surfaces.
        self.data_load_failure = data_load_failure


def failure_reply(exc: BaseException) -> Tuple[str, str]:
    """The one exception → ``(reply kind, message)`` table, shared by
    the worker loop and ``POST /update``; ``_REPLY_STATUS`` in
    :mod:`.app` maps kinds to HTTP statuses.  ``"crashed"`` (the worker
    is exiting) reaches clients as ``"error"``."""
    if isinstance(exc, MemoryError):
        return "crashed", "worker out of memory"
    if isinstance(exc, QueryTimeoutError):
        return "timeout", str(exc)
    if isinstance(exc, SparqlSyntaxError):
        return "syntax", str(exc)
    if isinstance(exc, SparqlError):
        return "unsupported", str(exc)
    return "error", f"internal error: {type(exc).__name__}: {exc}"


class WorkerReply:
    """What one query execution came back with (or failed as)."""

    __slots__ = ("kind", "payload", "meta", "message")

    def __init__(
        self,
        kind: str,
        payload: "Union[bytes, ReplyFrames]" = b"",
        meta: Optional[Dict[str, object]] = None,
        message: str = "",
    ):
        #: "ok" | "timeout" | "syntax" | "unsupported" | "error" | "shed"
        self.kind = kind
        #: The serialized answer: ``bytes``, or with ``relay=True`` the
        #: still-unread frames of a multi-frame answer.
        self.payload = payload
        self.meta = meta or {}
        self.message = message

    def __repr__(self) -> str:
        return f"WorkerReply({self.kind!r}, {len(self.payload)} bytes)"


class ReplyFrames:
    """The raw frames of one multi-frame answer, still in the worker's
    pipe: the worker stays leased until the last frame is read.

    ``len()`` is the payload's byte count, known from the frame sizes
    the worker sent ahead.  :meth:`WorkerPool.execute` has already read
    the first frame, so a worker lost before any of the answer arrived
    fails the request rather than the response.  Iterating yields the
    frames in order and :meth:`read` joins them.  A frame that cannot be
    read (the worker died or stalled past the hard timeout, or the
    ``worker.recv`` site fired) hands the worker to the respawn path
    and raises :class:`OSError`.  :meth:`close` reads and drops the
    frames not yet read, so the pipe is in step for the worker's next
    request.  ``deadline`` (monotonic) is when the lease reaches the
    hard timeout: a relay must be done by then, however slowly its
    client reads, so a relayed lease is bounded as every other is.
    """

    __slots__ = ("_sizes", "_length", "_pool", "_worker", "_read", "_first", "deadline")

    def __init__(
        self, pool: "WorkerPool", worker: "_Worker", sizes: List[int], deadline: float
    ):
        self._sizes = tuple(sizes)
        self._length = sum(self._sizes)
        self._pool = pool
        #: None once the worker is released (idle again, or respawning).
        self._worker: Optional[_Worker] = worker
        self._read = 0
        self.deadline = deadline
        self._first: Optional[bytes] = self._next()

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[bytes]:
        first, self._first = self._first, None
        if first is not None:
            yield first
        while self._worker is not None:
            yield self._next()

    def _next(self) -> bytes:
        worker = self._worker
        assert worker is not None
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("worker.recv")
            if not worker.conn.poll(self._pool.config.hard_timeout):
                raise OSError("no frame within the hard timeout")
            frame = worker.conn.recv_bytes()
            if len(frame) != self._sizes[self._read]:
                raise OSError("frame size differs from the announced one")
        except (EOFError, OSError, ValueError, MemoryError) as exc:
            self._release(broken=True)
            raise OSError("worker died mid-reply") from exc
        self._read += 1
        if self._read == len(self._sizes):
            self._release(broken=False)
        return frame

    def _release(self, broken: bool) -> None:
        worker, self._worker = self._worker, None
        if worker is not None:
            self._pool._release(worker, broken)

    def read(self) -> bytes:
        """Every frame, joined into one payload."""
        return b"".join(self)

    def close(self) -> None:
        """Drain the unread frames and release the worker; idempotent."""
        try:
            for _ in self:
                pass
        except OSError:
            pass  # the worker is already on its way to a respawn


def _lost_reply() -> WorkerReply:
    return WorkerReply("error", message="worker died mid-query; please retry")


def read_whole(reply: WorkerReply) -> WorkerReply:
    """``reply`` with a multi-frame payload read into one ``bytes``; a
    worker lost mid-frames makes it an ``"error"`` reply, as a worker
    lost before its reply does."""
    if isinstance(reply.payload, ReplyFrames):
        try:
            reply.payload = reply.payload.read()
        except OSError:
            return _lost_reply()
    return reply


def _open_store(path: str):
    from ..rdf.ntriples import load_ntriples
    from ..storage.snapshot import MAGIC
    from ..storage.store import TripleStore

    try:
        with open(path, "rb") as handle:
            is_snapshot = handle.read(len(MAGIC)) == MAGIC
    except OSError as exc:
        raise PoolError(f"cannot read {path!r}: {exc}") from exc
    if is_snapshot:
        # Lazy: the mmap stays shared with every sibling worker and
        # terms/indexes materialize on first touch.
        return TripleStore.load(path, lazy=True)
    return TripleStore.from_dataset(load_ntriples(path))


def _worker_main(
    conn, data_path: str, options, fault_plan=None
) -> None:
    """Child-process entry point: open the store, then serve queries.

    ``options`` is the worker engine's frozen
    :class:`~repro.core.options.EngineOptions` — one pickled value
    instead of a drifting list of per-knob spawn args.

    Requests are ``("query", text, format, timeout, extras)`` tuples,
    ``("update", text, timeout)`` broadcasts or ``None`` (shut down).
    Replies are small tuples (tag first) rather than rich objects so
    the pipe traffic stays cheap to pickle.  The serialized result
    payload is produced *in the worker* — the parent relays bytes and
    never re-serializes, which also makes responses byte-identical to
    the single-process CLI path (both run the same chunk generators).
    The worker hands the result's id-level page (an
    :class:`~repro.sparql.bags.EncodedPage`: the evaluator's id rows
    plus the id → term map of its one batch decode) straight to
    :data:`~repro.sparql.results.CHUNKS`, which render each distinct id
    once without ever building a term row, and call the query's
    deadline checkpoint once per chunk of
    :data:`~repro.sparql.results.CHUNK_ROWS` rows, so one budget spans
    evaluation and serialization.

    Each chunk is encoded to UTF-8 once, as one *frame*.  A one-frame
    answer rides inside the pickled ``("ok", payload, meta)`` reply; a
    larger one sends ``("ok", frame_sizes, meta)`` and then each frame
    by raw ``send_bytes``, so the payload is never joined, pickled or
    unpickled whole (:class:`ReplyFrames` reads them in the parent).
    The reply is dropped once its last frame is sent, before the next
    request is read.

    ``fault_plan`` is the parent's parsed :class:`~repro.faults.FaultPlan`
    (pickled through the spawn args, fresh trigger state per worker) —
    a respawned worker therefore arms the *same deterministic schedule*
    its predecessor ran under.  Absent a plan, ``$REPRO_FAULTS`` is
    honored, which the spawned child inherits from the parent anyway.
    """
    import signal

    from ..core.engine import SparqlUOEngine

    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group, workers included; shutdown is the parent's job (sentinel,
    # then kill), so the workers ignore the signal rather than each
    # dumping a KeyboardInterrupt traceback mid-recv.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from ..obs import trace as _obs_trace
    from ..sparql.results import CHUNKS as chunkers
    from .cache import query_patterns

    try:
        if fault_plan is not None:
            _faults.arm(fault_plan)
        else:
            _faults.arm_from_env()
        store = _open_store(data_path)
        uo_engine = SparqlUOEngine(store, options=options)
    except BaseException as exc:  # noqa: B036 — report, then die
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    conn.send(("ready", store.generation))
    fault_seen: Dict[str, int] = {}

    def _fault_delta() -> Dict[str, int]:
        """Worker-side injections since the last reply (cumulative counts
        live on the plan; replies carry deltas so the parent can sum
        them without double counting)."""
        counts = _faults.injected_counts()
        delta = {
            site: count - fault_seen.get(site, 0)
            for site, count in counts.items()
            if count != fault_seen.get(site, 0)
        }
        fault_seen.update(counts)
        return delta

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:  # orderly shutdown
            break
        tracer = None
        try:
            if request[0] == "update":
                # A write broadcast from the parent: apply it to this
                # worker's own store (the delta overlay keeps the mmap'd
                # snapshot frozen) and ack with the resulting generation
                # so the parent can verify fleet consistency.
                _, update_text, timeout = request
                outcome = uo_engine.update(update_text, timeout=timeout)
                conn.send(
                    (
                        "updated",
                        {
                            "added": outcome.added,
                            "removed": outcome.removed,
                            "generation": store.generation,
                            "faults": _fault_delta(),
                        },
                    )
                )
                continue
            _, query, fmt, timeout, extras = request
            started = time.perf_counter()
            if extras.get("trace"):
                # One query at a time per worker, so arming the process
                # global is safe here; the parent stitches this subtree
                # under its own request span via the reply meta.
                tracer = _obs_trace.arm(
                    _obs_trace.Tracer(
                        name="worker", request_id=extras.get("request_id")
                    )
                )
            # One checkpoint spans both phases — evaluation and result
            # serialization — so the whole request shares one budget.
            check = SparqlUOEngine.deadline_checkpoint(timeout)
            # The injection point for "the worker fails on this
            # request": crash exits without a reply (the parent sees a
            # dead pipe), oom exercises the "crashed" tag below, delay
            # stalls into the hard-kill window, io_error becomes an
            # internal-error reply.
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("worker.exec")
            result = uo_engine.execute(query, checkpoint=check)
            if tracer is not None:
                tracer.begin("serialize", format=fmt)
            frames = [
                chunk.encode("utf-8")
                for chunk in chunkers[fmt](result.variables, result.solutions, check)
            ]
            if tracer is not None:
                tracer.end(bytes=sum(map(len, frames)))
            meta = {
                "rows": len(result),
                "parse_ms": round(result.parse_seconds * 1000, 3),
                "execute_ms": round(result.execute_seconds * 1000, 3),
                "total_ms": round((time.perf_counter() - started) * 1000, 3),
                "join_space": result.join_space,
                # Physical-path counters for this query (merge vs hash
                # joins, galloping, candidate intersections); the parent
                # aggregates them into /metrics.
                "exec": result.exec_counters,
                # The generation this worker actually served: a worker
                # respawned after the snapshot was rebuilt in place may
                # drift from the pool's startup generation, and cache
                # writes must be keyed on the data that produced them.
                "generation": store.generation,
                # The answer depends only on these patterns' match sets:
                # the parent's cache keeps it across writes that match
                # none of them, without parsing the query itself.
                "patterns": query_patterns(result.query),
                # Worker-side injections ride home with each reply so
                # the parent can aggregate them into /metrics.
                "faults": _fault_delta(),
            }
            if result.template is not None:
                # Feeds the parent's template-stats registry.
                meta["template"] = result.template
            if tracer is not None:
                meta["trace"] = tracer.finish()
            if len(frames) == 1:
                conn.send(("ok", frames[0], meta))
            else:
                conn.send(("ok", [len(frame) for frame in frames], meta))
                for frame in frames:
                    conn.send_bytes(frame)
        except Exception as exc:  # noqa: BLE001 — the pipe is the error channel
            # A failed update (injected delta.apply io_errors included:
            # the site fires before any mutation) leaves this worker
            # lagging the fleet; the parent respawns it through replay.
            kind, message = failure_reply(exc)
            reply: tuple = (kind, message)
            if kind == "timeout" and tracer is not None:
                # A partial trace of everything the query managed to do
                # before the deadline, open spans marked aborted.
                reply += ({"trace": tracer.finish(aborted="timeout")},)
            conn.send(reply)
            if kind == "crashed":
                # The parent replaces this worker as part of this
                # request; the replacement starts with a clean heap.
                break
        finally:
            # Released before the next request is read, so two large
            # replies never stack in this worker's peak.
            result = frames = frame = meta = None
            if tracer is not None:
                _obs_trace.disarm()
    conn.close()


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("index", "proc", "conn", "generation", "published", "lagging")

    def __init__(self, ctx, index: int, config: ServerConfig, fault_plan=None):
        self.index = index
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, config.data, config.engine_options(), fault_plan),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.generation: Optional[int] = None
        #: True once the worker has entered the idle queue for the
        #: first time.  An update broadcast only waits for published
        #: workers — a respawn mid-replay catches up from the replay
        #: log instead of stalling the broadcast.
        self.published = False
        #: True once an update broadcast ran while this worker was
        #: leased and could not wait for it: it is replaced when its
        #: lease ends instead of serving the data before the update.
        self.lagging = False

    def wait_ready(self, timeout: float) -> None:
        if not self.conn.poll(timeout):
            self.kill()
            raise PoolError(f"worker {self.index} did not become ready in {timeout:.0f}s")
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as exc:
            self.kill()
            raise PoolError(f"worker {self.index} died during startup") from exc
        if message[0] != "ready":
            self.kill()
            # Every "fatal" handshake means the worker could not open
            # the data / build its engine — the class of failure the
            # last-good-generation fallback accounting watches for.
            raise PoolError(
                f"worker {self.index} failed to start: {message[1]}",
                data_load_failure=True,
            )
        self.generation = message[1]

    def shutdown(self, join_seconds: float = 2.0) -> None:
        """Orderly stop: sentinel, join, then escalate to kill."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.proc.join(join_seconds)
        if self.proc.is_alive():
            self.kill()
        else:
            self.conn.close()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, AttributeError):  # pragma: no cover - already gone
            pass
        self.proc.join(5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class WorkerPool:
    """N workers behind an idle queue, with kill-and-respawn recovery."""

    def __init__(
        self,
        config: ServerConfig,
        on_restart: Optional[Callable[[], None]] = None,
        on_generation_drift: Optional[Callable[[int], None]] = None,
        on_snapshot_fallback: Optional[Callable[[], None]] = None,
    ):
        self.config = config
        self._on_restart = on_restart
        self._on_generation_drift = on_generation_drift
        self._on_snapshot_fallback = on_snapshot_fallback
        self._ctx = multiprocessing.get_context("spawn")
        # RLock: _replace holds it across the closed-check *and* the
        # nested _spawn, so close() cannot interleave between them.
        self._spawn_lock = threading.RLock()
        self._next_index = 0
        self._closed = False
        #: Workers lost to failed respawns, owed a retry by the healer.
        self._deficit = 0
        # ---- heal-path state (all guarded by _spawn_lock) ----
        self._consecutive_failures = 0
        self._backoff_until = 0.0  # monotonic deadline of the current backoff
        self._respawn_attempts: Deque[float] = deque()  # budget window
        self._snapshot_fallbacks = 0
        self._heal_wake = threading.Event()
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        #: Requests blocked in :meth:`_lease` (bounded by
        #: ``effective_queue_size``), guarded by ``_waiting_lock``.
        self._waiting = 0
        self._waiting_lock = threading.Lock()
        #: Orders a worker's return to the idle queue against an update
        #: broadcast marking the workers it could not lease as lagging.
        self._release_lock = threading.Lock()
        self._workers: List[_Worker] = []
        started: List[_Worker] = []
        try:
            # Start everyone first, then collect handshakes: workers
            # import and open the snapshot concurrently, so a cold
            # N-worker fleet starts in ~one worker's startup time.
            for _ in range(max(config.workers, 1)):
                started.append(self._spawn())
            for worker in started:
                worker.wait_ready(_STARTUP_TIMEOUT)
            generations = {worker.generation for worker in started}
            if len(generations) > 1:
                # The data file changed while the fleet was starting:
                # refuse to serve two data versions from one endpoint.
                raise PoolError(
                    "workers observed mixed snapshot generations "
                    f"{sorted(g for g in generations if g is not None)}; "
                    "retry once the data file is stable"
                )
            for worker in started:
                worker.published = True
                self._idle.put(worker)
        except BaseException:
            # Any startup failure — PoolError, OSError from a spawn at
            # the fd/process limit, KeyboardInterrupt mid-handshake —
            # must not leave already-started workers running.
            for worker in started:
                worker.kill()
            raise
        self.generation: int = started[0].generation or 0
        #: Target roster size; ``alive`` may run short of it while the
        #: heal thread works a deficit off.
        self.size = len(started)
        # ---- live-write state (guarded by _update_lock) ----
        #: Serializes update broadcasts against respawn replay.
        self._update_lock = threading.Lock()
        #: The respawn-replay source (see :meth:`attach_wal`): the
        #: server's write path appends every update to it before the
        #: broadcast, and a respawned worker replays every frame past
        #: the generation its snapshot loaded at before it may serve.
        self._wal = None
        #: The generation persisted in the data file — advanced by
        #: compaction (note_snapshot_generation), which also truncates
        #: the log.
        self._snapshot_generation: int = self.generation
        self._heal_thread = threading.Thread(
            target=self._heal_loop, name="repro-pool-heal", daemon=True
        )
        self._heal_thread.start()

    def _spawn(self) -> _Worker:
        with self._spawn_lock:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("worker.spawn")
            fault_plan = (
                _faults.FaultPlan(self.config.faults) if self.config.faults else None
            )
            index = self._next_index
            self._next_index += 1
            worker = _Worker(self._ctx, index, self.config, fault_plan)
            self._workers.append(worker)
            return worker

    def _replace(self, dead: _Worker) -> None:
        """Kill ``dead`` and bring a fresh worker into the idle queue.

        Runs on a background thread (see :meth:`execute`): the respawn
        blocks on a full worker startup — snapshot open, or a complete
        re-parse for N-Triples data — and the failing request's 504
        must not wait on it.

        At most one respawn is attempted inline; when the heal path is
        backing off (or the respawn budget is spent) the loss is
        recorded as a deficit for the heal thread instead — that is
        what turns "the snapshot went bad" into a degraded roster
        rather than a respawn storm.
        """
        dead.kill()
        with self._spawn_lock:
            if dead in self._workers:
                self._workers.remove(dead)
        if self._on_restart is not None:
            self._on_restart()
        with self._spawn_lock:
            if self._closed:
                return
            if not self._respawn_allowed(time.monotonic()):
                self._deficit += 1
                self._heal_wake.set()
                return
            self._respawn_attempts.append(time.monotonic())
        self._respawn_into_idle()

    def _respawn_allowed(self, now: float) -> bool:
        """Whether an attempt may run *now* (caller holds the lock)."""
        window = max(self.config.respawn_window, 0.001)
        attempts = self._respawn_attempts
        while attempts and now - attempts[0] > window:
            attempts.popleft()
        if len(attempts) >= _RESPAWN_BUDGET:
            return False
        return now >= self._backoff_until

    def _note_respawn_failure(self, data_load_failure: bool = False) -> None:
        """Record a failed attempt: deficit, backoff, fallback count."""
        with self._spawn_lock:
            self._deficit += 1
            self._consecutive_failures += 1
            backoff = min(
                max(self.config.respawn_backoff_cap, 0.0),
                max(self.config.respawn_backoff_base, 0.001)
                * (2 ** (self._consecutive_failures - 1)),
            )
            backoff *= 0.8 + 0.4 * random.random()  # ±20% jitter: no thundering herd
            self._backoff_until = time.monotonic() + backoff
            if data_load_failure:
                self._snapshot_fallbacks += 1
        if data_load_failure and self._on_snapshot_fallback is not None:
            self._on_snapshot_fallback()
        self._heal_wake.set()

    def _respawn_into_idle(self) -> None:
        """Spawn one worker into the idle queue; on failure, record a
        deficit (with backoff) that the heal thread retries later."""
        try:
            with self._spawn_lock:
                # Atomic with close(): either the pool is already closed
                # (no spawn), or the replacement lands in _workers before
                # close() snapshots the list — never an untracked process.
                if self._closed:
                    return
                replacement = self._spawn()
        except OSError:
            # Pipe/process creation failed (fd or process pressure) on
            # this daemon thread: note the deficit rather than let the
            # exception escape as a stderr traceback.
            self._note_respawn_failure()
            return
        try:
            replacement.wait_ready(_STARTUP_TIMEOUT)
        except PoolError as exc:
            # Startup worked once, so a respawn failure is either
            # transient (fd pressure) or the data file went bad under
            # us (rebuilt in place, torn write).  Either way the
            # surviving workers keep serving the generation they have
            # open; the heal thread retries on the backoff schedule.
            with self._spawn_lock:
                if replacement in self._workers:
                    self._workers.remove(replacement)
            self._note_respawn_failure(data_load_failure=exc.data_load_failure)
            return
        with self._spawn_lock:
            self._consecutive_failures = 0
            self._backoff_until = 0.0
        if (
            replacement.generation is not None
            and replacement.generation != self._snapshot_generation
            and self._on_generation_drift is not None
        ):
            # The data file changed under us *outside* the update path
            # (rebuilt in place by an operator): this worker now serves
            # different data than its still-running siblings.  Surface
            # it so the server can stop trusting generation-keyed
            # caching (full consistency needs a rolling restart).
            self._on_generation_drift(replacement.generation)
            replacement.published = True
            self._idle.put(replacement)
            return
        # The worker loaded the expected snapshot generation; replay
        # the updates the fleet has committed since that snapshot was
        # written, then publish it into the idle queue.
        if not self._replay_updates(replacement):
            with self._spawn_lock:
                if replacement in self._workers:
                    self._workers.remove(replacement)
            replacement.kill()
            self._note_respawn_failure()

    def _replay_updates(self, worker: _Worker) -> bool:
        """Bring a freshly spawned worker up to the fleet generation.

        Holds the update lock across the whole replay so a concurrent
        broadcast can neither miss this worker (it is not yet in the
        idle queue) nor race the log snapshot; publication into the
        idle queue happens under the same hold, so after this returns
        the worker sees every committed update exactly once.

        The un-compacted tail streams from the log on disk, so parent
        memory stays flat no matter how many updates separate two
        compactions.  The worker is published only if replay leaves it
        at the fleet generation: a scan cut short by a read error, or
        an update broadcast after its append failed, would otherwise
        put a worker that lacks committed updates into service.  Only
        the final generation is compared — after a crash recovery the
        recorded and the computed generation of a frame may differ
        (see ``SparqlServer._replay_wal_tail``).
        """
        with self._update_lock:
            base = worker.generation or 0
            try:
                records = self._wal.records_after(base) if self._wal is not None else []
            except OSError:
                return False
            for record in records:
                if self._send_update(worker, record.text) is None:
                    return False
            if worker.generation != self.generation:
                return False
            worker.published = True
            self._idle.put(worker)
        return True

    def _heal_loop(self) -> None:
        """Background healer: repay the respawn deficit on a timer, so
        an *idle* degraded server heals too.  The loop sleeps in short
        slices so ``close()`` (via the wake event) always exits it
        promptly, and re-evaluates the backoff/budget gates on every
        wake."""
        while True:
            with self._spawn_lock:
                if self._closed:
                    return
                deficit = self._deficit
                now = time.monotonic()
                may_attempt = deficit > 0 and self._respawn_allowed(now)
                if may_attempt:
                    self._deficit -= 1
                    self._respawn_attempts.append(now)
            if may_attempt:
                self._respawn_into_idle()
                continue
            self._heal_wake.wait(timeout=0.2 if deficit > 0 else 1.0)
            self._heal_wake.clear()

    # ------------------------------------------------------------------
    # the one request-path entry point
    # ------------------------------------------------------------------
    def _lease(self) -> Optional[_Worker]:
        """The server's one admission point: an idle worker, or None (shed).

        Each worker runs one query at a time, so the idle queue is the
        execution bound.  With no worker idle, a request waits — once,
        at most ``effective_queue_wait`` — only while fewer than
        ``effective_queue_size`` others already do; beyond that it is
        shed at once: load past the cliff costs a constant-time 503,
        not a parked thread.
        """
        try:
            return self._idle.get_nowait()
        except queue.Empty:
            pass
        with self._waiting_lock:
            if self._waiting >= self.config.effective_queue_size:
                return None
            self._waiting += 1
        try:
            return self._idle.get(timeout=self.config.effective_queue_wait)
        except queue.Empty:
            return None
        finally:
            with self._waiting_lock:
                self._waiting -= 1

    def execute(
        self,
        query: str,
        fmt: str,
        request_id: Optional[str] = None,
        trace: bool = False,
        relay: bool = False,
    ) -> WorkerReply:
        """Run one query on a leased worker; always returns a reply.

        An ``"ok"`` reply's ``payload`` is the whole answer as ``bytes``:
        the frames of a multi-frame answer are read and joined, and a
        worker lost mid-frames makes it an ``"error"`` reply, as a worker
        lost before its reply does.  With ``relay=True`` a multi-frame
        answer is left in the pipe as :class:`ReplyFrames` instead, its
        first frame already read: the worker stays leased until the
        caller has read its last frame, or has closed it, so a caller
        that relays the frames never holds the whole payload.  The
        caller must be done by ``ReplyFrames.deadline``, the lease's
        hard timeout, which is what bounds every other lease too.

        ``request_id`` and ``trace`` ride to the worker in the request's
        extras dict: the id stitches worker-side spans under the HTTP
        request's span tree, and ``trace=True`` arms the worker's
        tracer for this one query (the serialized tree comes back in
        the reply meta, on timeouts too).

        Hard-timeout and dead-worker paths return their error
        immediately and heal (kill + respawn) on a background thread,
        so the failing request costs no respawn wait.  A request that
        finds no idle worker is admitted or shed by :meth:`_lease`.
        """
        worker = self._lease()
        if worker is None:
            return WorkerReply("shed", message="server saturated; request shed")
        leased_at = time.monotonic()
        extras: Dict[str, object] = {}
        if request_id is not None:
            extras["request_id"] = request_id
        if trace:
            extras["trace"] = True
        broken = False
        relayed = False
        try:
            try:
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.fire("worker.send")
                worker.conn.send(("query", query, fmt, self.config.timeout, extras))
            except (OSError, ValueError):
                broken = True
                return WorkerReply("error", message="worker unavailable; please retry")
            try:
                responded = worker.conn.poll(self.config.hard_timeout)
            except (OSError, ValueError):
                # The pipe was closed under us (e.g. pool.close() racing
                # a daemonic handler thread at shutdown): answer rather
                # than let the exception escape the handler.
                broken = True
                return WorkerReply("error", message="server shutting down; please retry")
            if not responded:
                broken = True
                return WorkerReply(
                    "timeout",
                    message=(
                        f"query exceeded the hard deadline of "
                        f"{self.config.hard_timeout:.1f}s; worker killed"
                    ),
                )
            try:
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.fire("worker.recv")
                message = worker.conn.recv()
            except (EOFError, OSError):
                broken = True
                return _lost_reply()
            except MemoryError:
                # The reply is left unread in the pipe, which no later
                # request may read: the worker is replaced.
                broken = True
                return WorkerReply("error", message="out of memory reading the reply; please retry")
            tag = message[0]
            if tag == "ok":
                payload, meta = message[1], message[2]
                if isinstance(payload, bytes):
                    return WorkerReply("ok", payload=payload, meta=meta)
                relayed = True  # the frame sizes; ReplyFrames releases the worker
                try:
                    frames = ReplyFrames(
                        self, worker, payload, leased_at + self.config.hard_timeout
                    )
                except OSError:
                    return _lost_reply()
                reply = WorkerReply("ok", payload=frames, meta=meta)
                return reply if relay else read_whole(reply)
            if tag == "crashed":
                # The worker announced it is exiting (e.g. MemoryError):
                # replace it now instead of handing the next client a
                # dead pipe.
                broken = True
                return WorkerReply("error", message=message[1])
            # Error-class replies may carry meta too (a timed-out query's
            # partial trace rides in a third tuple element).
            meta = message[2] if len(message) > 2 else None
            return WorkerReply(tag, message=message[1], meta=meta)
        finally:
            if not relayed:
                self._release(worker, broken)

    def _release(self, worker: _Worker, broken: bool) -> None:
        """Hand a leased worker back: to the idle queue, or when its pipe
        can no longer be trusted, or it missed an update, to the respawn
        path."""
        with self._release_lock:
            if not broken and not worker.lagging:
                self._idle.put(worker)
                return
        threading.Thread(target=self._replace, args=(worker,), daemon=True).start()

    # ------------------------------------------------------------------
    # live writes
    # ------------------------------------------------------------------
    def broadcast_update(self, text: str, expected_generation: int) -> int:
        """Apply one committed UPDATE to every published worker.

        The caller (the server's write path) has already applied the
        update to its authoritative store, appended it to the log and
        owns ordering; this method propagates it under the update lock
        so broadcasts, replays and log reads are mutually serialized.

        Workers are leased from the idle queue until every published
        live worker has been collected (in-flight queries and relays
        finish first, bounded by the hard timeout of their lease).  A
        worker that dies mid-update, or acks a different generation, is
        killed and respawned — log replay brings its replacement back
        to the fleet generation.  A worker still leased when the wait
        runs out is marked lagging, so its lease holder replaces it in
        the same way instead of putting it back in the idle queue.
        Returns the number of workers that confirmed the update.
        """
        deadline = time.monotonic() + self.config.hard_timeout + 1.0
        with self._update_lock:
            leased: List[_Worker] = []
            while True:
                with self._spawn_lock:
                    reachable = sum(
                        1
                        for w in self._workers
                        if self._is_serving(w) and w.published
                    )
                if len(leased) >= reachable:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    leased.append(self._idle.get(timeout=min(0.25, remaining)))
                except queue.Empty:
                    continue
            with self._spawn_lock:
                roster = list(self._workers)
            with self._release_lock:
                # Whatever came back since the last get is updated too;
                # from here on a worker returning from a lease is checked
                # against the marks, so none slips into the idle queue
                # at the old generation.
                while True:
                    try:
                        leased.append(self._idle.get_nowait())
                    except queue.Empty:
                        break
                for worker in roster:
                    if worker.published and worker not in leased:
                        worker.lagging = True
            confirmed = 0
            broken: List[_Worker] = []
            for worker in leased:
                if self._send_update(worker, text) == expected_generation:
                    confirmed += 1
                    self._idle.put(worker)
                else:
                    broken.append(worker)
            self.generation = expected_generation
        for worker in broken:
            self._release(worker, broken=True)
        return confirmed

    def _send_update(self, worker: _Worker, text: str) -> Optional[int]:
        """Replay's and broadcast's one update exchange (update lock
        held): the generation ``worker`` acked, or None when it failed,
        died or overran the hard timeout."""
        try:
            worker.conn.send(("update", text, self.config.timeout))
            if not worker.conn.poll(self.config.hard_timeout):
                return None
            message = worker.conn.recv()
        except (EOFError, OSError, ValueError):
            return None
        if message[0] != "updated":
            return None
        worker.generation = int(message[1]["generation"])
        return worker.generation

    def note_snapshot_generation(self, generation: int) -> None:
        """The data file now persists ``generation`` (compaction ran).

        Respawned workers will load it directly; ``store.compact`` has
        already truncated the log frames at or below it.
        """
        with self._update_lock:
            self._snapshot_generation = generation

    def attach_wal(self, wal) -> None:
        """Adopt ``wal`` as the respawn-replay source.

        The server's write path appends every committed update to the
        log *before* broadcasting it, so the log covers what a
        broadcast covers and respawn replay re-reads the tail from
        disk.  A pool with no log attached replays nothing, so a
        respawn after a broadcast is refused.
        """
        with self._update_lock:
            self._wal = wal

    @property
    def pending_replay(self) -> int:
        """Updates a fresh respawn would replay (the un-compacted tail)."""
        with self._update_lock:
            return self._wal.depth if self._wal is not None else 0

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _is_serving(worker: _Worker) -> bool:
        # Ready workers only: a respawn candidate mid-handshake (which
        # may yet fail) must not flicker /healthz back to "ok".
        return worker.generation is not None and worker.proc.is_alive()

    @property
    def alive(self) -> int:
        with self._spawn_lock:
            return sum(1 for worker in self._workers if self._is_serving(worker))

    def stats(self) -> Dict[str, float]:
        """Roster health for /healthz and /metrics, in one lock hold."""
        with self._spawn_lock:
            now = time.monotonic()
            return {
                "alive": sum(1 for w in self._workers if self._is_serving(w)),
                "target": self.size,
                "deficit": self._deficit,
                "backoff_seconds": round(max(0.0, self._backoff_until - now), 3),
                "snapshot_fallbacks": self._snapshot_fallbacks,
            }

    def close(self) -> None:
        """Stop every worker; called after the HTTP server has drained."""
        with self._spawn_lock:
            self._closed = True
            workers = list(self._workers)
            self._workers.clear()
        self._heal_wake.set()
        for worker in workers:
            worker.shutdown()
        heal = getattr(self, "_heal_thread", None)
        if heal is not None and heal.is_alive():
            heal.join(2.0)
