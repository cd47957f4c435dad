"""Datasets, the server subprocess, and the closed-loop load generator."""

from __future__ import annotations

import ctypes
import hashlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.datasets import generate_dbpedia, generate_lubm
from repro.rdf.ntriples import dump_ntriples
from repro.storage import TripleStore

from . import ROOT, SRC
from .spec import SERVER
from .workloads import (
    CLIENTS,
    DATASET_SEED,
    DBPEDIA_ARTICLES,
    LUBM_UNIVERSITIES,
    Request,
)

__all__ = [
    "WORK_ROOT",
    "Observation",
    "Replay",
    "ServerProcess",
    "adopt_orphans",
    "fetch",
    "generate_inputs",
    "ingest",
    "observe",
    "replay_closed_loop",
    "scratch_directory",
    "scrape_metrics",
    "send",
    "stop_resource_tracker",
    "tree_peak_rss_mb",
]

#: Snapshots, WALs and server logs live here (git-ignored), never at the root.
WORK_ROOT = Path(__file__).resolve().parent / ".snapshots"

_STARTUP_SECONDS = 60.0
_REQUEST_SECONDS = 120.0
#: After the server itself has exited: how long its own children may
#: take to follow before the whole process group is killed.
_GROUP_EXIT_SECONDS = 10.0
_PR_SET_CHILD_SUBREAPER = 36


@contextmanager
def scratch_directory() -> Iterator[Path]:
    """A fresh directory under ``WORK_ROOT``, removed on exit."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def generate_inputs(workdir: Path, datasets: Sequence[str]) -> Dict[str, Path]:
    """Write each dataset as N-Triples (input generation — never timed)."""
    paths = {}
    for name in datasets:
        if name == "lubm":
            data = generate_lubm(universities=LUBM_UNIVERSITIES, seed=DATASET_SEED)
        else:
            data = generate_dbpedia(articles=DBPEDIA_ARTICLES, seed=DATASET_SEED)
        paths[name] = workdir / f"{name}.nt"
        dump_ntriples(data, str(paths[name]))
    return paths


def ingest(ntriples: Path, snapshot: Path) -> Tuple[float, float, int]:
    """The program's own ingest: parse N-Triples, then save a snapshot.

    Returns (ingest seconds, snapshot-save seconds, triples).
    """
    started = perf_counter()
    store = TripleStore.bulk_load(str(ntriples))
    loaded = perf_counter()
    store.save(str(snapshot))
    return loaded - started, perf_counter() - loaded, len(store)


def adopt_orphans() -> bool:
    """Make this process the one its orphaned descendants are handed to
    (Linux ``PR_SET_CHILD_SUBREAPER``), so it can wait for them.

    The server's pool runs on multiprocessing's ``spawn`` context, which
    starts a resource-tracker process that ends only once the server and
    its workers have: it outlives the server by a few milliseconds, and
    a run must not return while anything it started is alive.
    """
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_resource_tracker() -> None:
    """End this process's own multiprocessing resource tracker (started by
    an in-process ``WorkerPool``) and wait for it; otherwise it ends only
    after this process has.  Call once every pool is closed."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class ServerProcess:
    """One ``python -m repro serve`` subprocess on an OS-picked port,
    in a process group of its own so ``stop`` can account for every
    process the server started."""

    def __init__(
        self,
        snapshot: Path,
        cache_entries: int,
        wal: Optional[Path] = None,
        compact_threshold: int = 0,
    ):
        self.snapshot, self.cache_entries = snapshot, cache_entries
        self.wal, self.compact_threshold = wal, compact_threshold
        command = [
            sys.executable, "-m", "repro", "serve", str(snapshot),
            "--port", "0",
            "--workers", str(SERVER["workers"]),
            "--engine", str(SERVER["engine"]),
            "--mode", str(SERVER["mode"]),
            "--timeout", str(SERVER["timeout"]),
            "--cache-entries", str(cache_entries),
        ]
        if wal is not None:
            command += [
                "--wal", str(wal),
                "--wal-fsync", str(SERVER["wal_fsync"]),
                "--compact-threshold", str(compact_threshold),
            ]
        environment = dict(os.environ)
        inherited = environment.get("PYTHONPATH", "")
        environment["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
        adopt_orphans()
        self._stderr = open(snapshot.with_suffix(".server.log"), "ab")
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=environment,
            stdout=subprocess.PIPE, stderr=self._stderr, start_new_session=True,
        )
        self.port = 0
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> None:
        """Block until the listener line is printed and ``/healthz`` says ok."""
        assert self.process.stdout is not None
        line = self.process.stdout.readline().decode("utf-8", "replace")
        marker = "http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r} (see {self._stderr.name})")
        self.port = int(line.split(marker, 1)[1].split("/", 1)[0])
        deadline = time.monotonic() + _STARTUP_SECONDS
        while time.monotonic() < deadline:
            status, _, body = fetch(self.port, "GET", "/healthz")
            if status == 200 and json.loads(body).get("status") == "ok":
                return
            time.sleep(0.02)
        raise RuntimeError("server never reported healthy")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM (the server drains and fsyncs its WAL), then wait for
        the server and for every process it started."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._kill_group()
                self.process.wait()
        self._await_group()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _await_group(self) -> None:
        """Return once the server's process group is empty.

        Its orphans (workers, resource tracker) are this process's
        children since ``adopt_orphans``, so they are reaped here; where
        that is not available, this waits for init to reap them.
        """
        started = time.monotonic()
        killed = False
        while True:
            try:
                reaped, _ = os.waitpid(-self.pid, os.WNOHANG)
            except ChildProcessError:
                reaped = 0  # none of the group is (still) a child of ours
            if reaped:
                continue
            try:
                os.killpg(self.pid, 0)
            except ProcessLookupError:
                return
            waited = time.monotonic() - started
            if waited > _GROUP_EXIT_SECONDS and not killed:
                self._kill_group()
                killed = True
            if waited > 2 * _GROUP_EXIT_SECONDS:
                raise RuntimeError(f"processes of server group {self.pid} would not end")
            time.sleep(0.002)


def fetch(
    port: int,
    method: str,
    target: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    connection: Optional[http.client.HTTPConnection] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One request, one reply.

    Without ``connection`` this opens a socket per request and sends
    ``Connection: close`` — what urllib and SPARQLWrapper (the
    SNIPPETS.md clients) do.  Transport errors come back as status 0.
    """
    own = connection is None
    sent = dict(headers or {})
    if own:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=_REQUEST_SECONDS)
        sent["Connection"] = "close"
    assert connection is not None
    try:
        connection.request(method, target, body=body or None, headers=sent)
        response = connection.getresponse()
        payload = response.read()
        return response.status, {k.lower(): v for k, v in response.getheaders()}, payload
    except (OSError, http.client.HTTPException) as exc:
        return 0, {}, str(exc).encode("utf-8", "replace")
    finally:
        if own:
            connection.close()


def send(port: int, request: Request, connection=None) -> Tuple[int, Dict[str, str], bytes]:
    if request.method == "POST":
        return fetch(
            port, "POST", request.target, request.text.encode("utf-8"),
            {"Content-Type": "application/sparql-update", "Accept": request.accept},
            connection,
        )
    return fetch(port, "GET", request.target, b"", {"Accept": request.accept}, connection)


class Observation(NamedTuple):
    """What one request came back with."""

    index: int  # position in the log
    seconds: float
    status: int
    #: Digest of the payload; the payload itself is kept once per digest.
    digest: bytes
    #: When the reply was complete, in seconds since the replay started.
    finished: float
    #: The reply's ``X-Repro-Cache`` header: ``hit``, ``miss`` or ``""``.
    cache: str


def observe(
    port: int, index: int, request: Request, origin: float, payloads: Dict[bytes, bytes]
) -> Observation:
    """Send one request and time it; the payload is hashed, and stored
    in ``payloads`` only the first time that digest is seen."""
    started = perf_counter()
    status, headers, payload = send(port, request)
    finished = perf_counter()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    payloads.setdefault(digest, payload)
    return Observation(
        index, finished - started, status, digest, finished - origin,
        headers.get("x-repro-cache", ""),
    )


class Replay(NamedTuple):
    observations: List[Observation]
    #: digest → payload bytes, one copy per distinct reply.
    payloads: Dict[bytes, bytes]
    wall_seconds: float
    #: CPU seconds the load-generator process spent during the replay.
    cpu_seconds: float
    #: (seconds since the replay started, CPU seconds one calibration
    #: spin took) — the host's speed while the replay ran.
    spins: List[Tuple[float, float]] = []


#: The calibration spin: a fixed amount of interpreter work (~1 ms),
#: timed in *thread CPU time* so waiting for a core or the GIL does not
#: count — only the host running the same instructions slower does.
SPIN_ITERATIONS = 20_000
SPIN_PAUSE_SECONDS = 0.04


def calibration_spin() -> float:
    started = time.thread_time()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value * value
    return time.thread_time() - started


def replay_closed_loop(
    ports: Dict[str, int],
    entries: Sequence[Tuple[int, Request]],
    seconds: Optional[float] = None,
) -> Replay:
    """Replay ``entries`` — (log index, request) pairs — one thread per
    client, each sending its own requests in order and waiting for
    every reply (closed loop).  With ``seconds`` a client stops at the
    deadline; without, when its entries run out.

    Answers are not checked here — the timed loop only hashes each
    payload; checking happens after the clock stops (``check.py``).  A
    third thread records the calibration spin about 20 times a second.
    """
    per_client: List[List[Tuple[int, Request]]] = [[] for _ in range(CLIENTS)]
    for index, request in entries:
        per_client[request.client].append((index, request))
    results: List[List[Observation]] = [[] for _ in range(CLIENTS)]
    payloads: List[Dict[bytes, bytes]] = [{} for _ in range(CLIENTS)]
    spins: List[Tuple[float, float]] = []
    barrier = threading.Barrier(CLIENTS + 1)
    clock = {"start": 0.0, "deadline": float("inf")}
    done = threading.Event()

    def client(number: int) -> None:
        mine, seen = results[number], payloads[number]
        barrier.wait()
        for index, request in per_client[number]:
            if perf_counter() >= clock["deadline"]:
                break
            mine.append(observe(ports[request.dataset], index, request, clock["start"], seen))

    def calibrate() -> None:
        while not done.wait(SPIN_PAUSE_SECONDS):
            spins.append((perf_counter() - clock["start"], calibration_spin()))

    threads = [threading.Thread(target=client, args=(n,), daemon=True) for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    cpu_before = time.process_time()
    clock["start"] = perf_counter()
    if seconds is not None:
        clock["deadline"] = clock["start"] + seconds
    calibrator = threading.Thread(target=calibrate, daemon=True)
    calibrator.start()
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = perf_counter() - clock["start"]
    cpu = time.process_time() - cpu_before
    done.set()
    calibrator.join()
    merged: Dict[bytes, bytes] = {}
    for seen in payloads:
        merged.update(seen)
    observations = sorted((o for mine in results for o in mine), key=lambda o: o.index)
    return Replay(observations, merged, wall, cpu, spins)


def scrape_metrics(ports: Iterable[int]) -> Dict[str, float]:
    """``/metrics`` of every server as {sample name → value}, summed."""
    samples: Dict[str, float] = {}
    for port in ports:
        status, _, body = fetch(port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        for line in body.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                try:
                    samples[name] = samples.get(name, 0.0) + float(value)
                except ValueError:
                    continue
    return samples


def _descendants(pid: int) -> List[int]:
    found = [pid]
    for parent in found:
        for task in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                found.extend(int(child) for child in task.read_text().split())
            except OSError:
                continue  # the thread exited between glob and read
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pid`` and its descendants."""
    total_kb = 0
    for process in _descendants(pid):
        try:
            status = Path(f"/proc/{process}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0
