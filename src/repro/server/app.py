"""The HTTP front end: caching, routing, lifecycle.

``SparqlServer`` wires a TCP listener to the worker pool.  The listener
hands each accepted connection to an idle handler thread (a new one
starts only when none is idle), which serves the connection's requests
one after another: it (1) reads the request head and parses the
protocol request, (2) consults the result cache, and only then
(3) leases a worker — the pool's one admission point, which bounds the
requests waiting for a worker and sheds everything beyond them with an
immediate 503 (:meth:`~.pool.WorkerPool.execute`).  Cache hits
therefore cost no worker, no engine and no serializer; sheds cost
almost nothing at all, which is what keeps an overloaded endpoint
responsive.  Every response leaves in one ``sendmsg`` call.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import signal
import socket
import socketserver
import sys
import tempfile
import threading
import time
import uuid
from contextlib import ExitStack
from http import HTTPStatus
from time import perf_counter
from typing import List, NamedTuple, Optional, Tuple

from .. import faults as _faults
from ..obs import SlowQueryLog, TemplateRegistry
from ..obs import trace as _obs_trace
from ..sparql.errors import SparqlError
from ..storage.snapshot import SnapshotError, is_snapshot
from ..storage.wal import WalCorruptError, WriteAheadLog
from .cache import CachedResult, ResultCache
from .config import ServerConfig
from .metrics import ServerMetrics
from .pool import PoolError, WorkerPool, _open_store, failure_reply
from .protocol import (
    FORMAT_MEDIA_TYPES,
    ProtocolError,
    parse_sparql_request,
    parse_update_request,
)

__all__ = ["SparqlServer", "serve"]

#: WorkerReply.kind → HTTP status for non-ok outcomes; the one such
#: table (exceptions map to kinds in :func:`~.pool.failure_reply`).
_REPLY_STATUS = {
    "timeout": 504,
    "syntax": 400,
    "unsupported": 400,
    "error": 500,
    "shed": 503,
}

#: Per-connection socket timeout in seconds: a client that trickles
#: headers or never sends its promised body cannot park a handler
#: thread (and its fd) forever.
_SOCKET_TIMEOUT = 60.0

#: Characters a client-supplied ``X-Request-Id`` may contain; anything
#: else (or an over-long id) is replaced with a minted one, so log
#: lines and response headers never carry unvetted bytes.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: The request-head limits ``http.server`` enforces: a request line or
#: header line of at most 64 KiB (else 414 / 431), at most 100 header
#: fields (else 431).
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: A header field name (RFC 7230 §3.2.6 ``token``); whitespace before
#: the colon is not allowed (§3.2.4).
_FIELD_NAME_RE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+\Z")

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_SERVER_LINE = f"Server: repro-sparql Python/{sys.version.split()[0]}\r\n"
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (None, "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

#: (second, ``Date:`` line) — formatted once per second, not per response.
_date_line: Tuple[int, str] = (0, "")


def _date_header() -> str:
    """The RFC 7231 ``Date:`` header line for the current second."""
    global _date_line
    now = int(time.time())
    second, line = _date_line
    if second != now:
        year, month, day, hour, minute, sec, weekday = time.gmtime(now)[:7]
        line = "Date: %s, %02d %s %04d %02d:%02d:%02d GMT\r\n" % (
            _WEEKDAYS[weekday], day, _MONTHS[month], year, hour, minute, sec,
        )
        _date_line = (now, line)
    return line


class _Headers(dict):
    """A request's header fields, keyed by lower-cased name; ``get``
    takes a name in any case.  A repeated field keeps its first value,
    as ``email.message.Message.get`` does."""

    __slots__ = ()

    def get(self, name: str, default=None):  # type: ignore[override]
        return dict.get(self, name.lower(), default)


def _splice_extensions(payload: bytes, repro: dict) -> Optional[bytes]:
    """Attach ``{"extensions": {"repro": ...}}`` to a JSON result payload.

    Returns None (caller serves the original bytes) when the payload is
    not a JSON object — extension splicing must never break a response.
    """
    try:
        document = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    extensions = document.setdefault("extensions", {})
    if not isinstance(extensions, dict):
        return None
    extensions["repro"] = repro
    return (json.dumps(document) + "\n").encode("utf-8")


class _Outcome(NamedTuple):
    """One query request's answer, whichever path produced it:
    ``cache`` is ``"hit"``, ``"miss"``, ``"stale"`` or None (an error
    reply); the rest feeds /metrics, templates, the slow-query log and
    the traced ``extensions.repro`` document."""

    status: int
    content_type: str
    body: bytes
    extra: Tuple[Tuple[str, str], ...] = ()
    cache: Optional[str] = None
    rows: int = 0
    join_space: float = 0.0
    counters: Optional[dict] = None
    template: Optional[dict] = None
    generation: Optional[int] = None


def _error_outcome(status: int, message: str) -> _Outcome:
    """The one error-body shape: ``{"error": message}`` as JSON."""
    body = (json.dumps({"error": message}) + "\n").encode("utf-8")
    extra = (("Retry-After", "1"),) if status == 503 else ()
    return _Outcome(status, "application/json", body, extra)


def _entry_outcome(
    entry: CachedResult,
    cache: str,
    generation: Optional[int],
    extra: Tuple[Tuple[str, str], ...] = (),
) -> _Outcome:
    """A 200 from a result entry (fresh miss, cache hit or stale)."""
    return _Outcome(
        200, entry.content_type, entry.payload, extra, cache, entry.row_count,
        entry.join_space, entry.exec_counters, entry.template, generation,
    )


class _Handler(socketserver.BaseRequestHandler):
    """One connection's requests, read and answered one after another;
    ``self.server`` is the :class:`_HTTPServer` below."""

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def state(self) -> "SparqlServer":
        return self.server.state  # type: ignore[attr-defined]

    def setup(self) -> None:
        connection = self.request
        # Armed before any read: the pool's admission only guards
        # execution, this guards ingestion.
        connection.settimeout(_SOCKET_TIMEOUT)
        # A response leaves in one sendmsg, but a large one can be sent
        # in parts; with Nagle on, a short last part would wait for the
        # client's delayed ACK (~40 ms).
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        self.rfile = connection.makefile("rb")

    def finish(self) -> None:
        self.rfile.close()

    def handle(self) -> None:
        self._handle_one()
        while not self.close_connection:
            self._handle_one()

    def _handle_one(self) -> None:
        """Read one request head, route it, answer it; the connection
        stays open only if the head asks for that and nothing fails."""
        self.close_connection = True
        self.repro_request_id: Optional[str] = None
        self.requestline = ""
        try:
            try:
                if not self._read_head():
                    return  # the client closed, or sent an empty line
            except ProtocolError as exc:
                self._respond_error(exc.status, str(exc))
                return
            if self.command == "GET":
                self._do_get()
            elif self.command == "POST":
                self._do_post()
            else:
                self._respond_error(501, f"unsupported method {self.command!r}")
        except socket.timeout:
            # A head or body that never completed within the timeout.
            self.close_connection = True

    def _read_head(self) -> bool:
        """Parse the request line and header fields into ``command``,
        ``path`` and ``headers``; False when there is no request.  A
        head that ``http.server`` would refuse raises
        :class:`~.protocol.ProtocolError` with its status, and so does
        an obs-fold line (RFC 7230 §3.2.4)."""
        rfile = self.rfile
        raw = rfile.readline(_MAX_LINE + 1)
        if len(raw) > _MAX_LINE:
            raise ProtocolError(414, "request line too long")
        requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        self.requestline = requestline
        if len(words) != 3:
            raise ProtocolError(400, f"bad request syntax {self.requestline!r}")
        self.command, path, version = words
        major, dot, minor = version[5:].partition(".")
        if (
            not version.startswith("HTTP/")
            or not dot
            or not (major.isdigit() and minor.isdigit())
            or len(major) > 10
            or len(minor) > 10
        ):
            raise ProtocolError(400, f"bad request version {version!r}")
        version_number = (int(major), int(minor))
        if version_number >= (2, 0):
            raise ProtocolError(505, f"invalid HTTP version ({major}.{minor})")
        # "//x" is not a network-path reference here (as http.server).
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        headers = _Headers()
        count = 0
        while True:
            raw = rfile.readline(_MAX_LINE + 1)
            if len(raw) > _MAX_LINE:
                raise ProtocolError(431, "header line too long")
            if raw in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > _MAX_HEADERS:
                raise ProtocolError(431, f"more than {_MAX_HEADERS} headers")
            if raw[0] in b" \t":
                raise ProtocolError(400, "obsolete header line folding")
            name, colon, value = str(raw, "iso-8859-1").partition(":")
            if not colon or not _FIELD_NAME_RE.match(name):
                raise ProtocolError(400, "bad header line")
            headers.setdefault(name.lower(), value.strip(" \t\r\n"))
        self.headers = headers
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" or version_number >= (1, 1):
            self.close_connection = False
        if (
            version_number >= (1, 1)
            and headers.get("expect", "").lower() == "100-continue"
        ):
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _respond(
        self,
        status: int,
        content_type: str,
        body: bytes,
        extra: Tuple[Tuple[str, str], ...] = (),
        generation: Optional[int] = None,
    ) -> None:
        # Every response names the store generation it was served
        # against (clients correlate reads with their writes): an
        # answer's own generation, else the current one.  It also
        # echoes the request id minted/honored at ingress.
        if generation is None:
            generation = self.state.generation
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n",
            _SERVER_LINE,
            _date_header(),
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
            f"X-Repro-Generation: {generation}\r\n",
        ]
        if self.repro_request_id:
            head.append(f"X-Repro-Request-Id: {self.repro_request_id}\r\n")
        for name, value in extra:
            head.append(f"{name}: {value}\r\n")
        if self.close_connection:
            head.append("Connection: close\r\n")
        head.append("\r\n")
        # The emission is guarded against clients that hung up
        # mid-query (no stderr traceback, metrics still recorded).
        try:
            if _faults.ACTIVE is not None:
                # An injected io_error here stands in for the client
                # hanging up mid-response — same handler below.
                _faults.ACTIVE.fire("server.respond")
            self._send("".join(head).encode("latin-1"), body)
        except OSError:  # client went away
            self.close_connection = True
        self.state.metrics.record_response(status)
        if self.state.config.log_requests:
            sys.stderr.write(
                '%s - - [%s] "%s" %d %d\n'
                % (self.client_address[0], time.strftime("%d/%b/%Y %H:%M:%S"),
                   self.requestline, status, len(body))
            )

    def _send(self, head: bytes, body: bytes) -> None:
        """Head and body in one ``sendmsg``; a partial send goes on
        from where it stopped.  The two are never joined: a body can
        be megabytes."""
        buffers = [memoryview(head), memoryview(body)]
        connection = self.request
        while buffers:
            sent = connection.sendmsg(buffers)
            while buffers and sent >= len(buffers[0]):
                sent -= len(buffers.pop(0))
            if sent:
                buffers[0] = buffers[0][sent:]

    def _respond_error(self, status: int, message: str) -> None:
        outcome = _error_outcome(status, message)
        self._respond(outcome.status, outcome.content_type, outcome.body, outcome.extra)

    def _mint_request_id(self) -> str:
        """Honor a well-formed client ``X-Request-Id``, else mint one."""
        supplied = self.headers.get("X-Request-Id", "")
        if supplied and _REQUEST_ID_RE.match(supplied):
            return supplied
        return uuid.uuid4().hex[:16]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _do_get(self) -> None:
        self.repro_request_id = self._mint_request_id()
        if self.headers.get("Content-Length") not in (None, "0") or self.headers.get(
            "Transfer-Encoding"
        ):
            # A GET body would sit unread in the keep-alive stream and
            # be parsed as the next request line — reject it outright.
            self.close_connection = True
            self._respond_error(400, "GET requests must not carry a body")
            return
        path, _, query_string = self.path.partition("?")
        if path == "/sparql":
            self._handle_sparql("GET", query_string, b"")
        elif path == "/healthz":
            self._handle_healthz()
        elif path == "/metrics":
            self._handle_metrics()
        elif path == "/debug/templates":
            self._handle_templates(query_string)
        else:
            self._respond_error(404, f"no route for {path}")

    def _do_post(self) -> None:
        self.repro_request_id = self._mint_request_id()
        path, _, query_string = self.path.partition("?")
        if path not in ("/sparql", "/update"):
            self._respond_error(404, f"no route for {path}")
            return
        if self.headers.get("Transfer-Encoding"):
            # Bodies are only read by Content-Length; leaving chunked
            # framing unconsumed would desync the keep-alive stream.
            self.close_connection = True
            self._respond_error(411, "chunked transfer encoding not supported")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # Unparseable, or negative: read(-1) would block on the open
            # socket until the client hangs up — refuse instead.
            self.close_connection = True
            self._respond_error(400, "bad Content-Length")
            return
        if length > self.state.config.max_body_bytes:
            # Refuse before buffering: the pool's admission guards query
            # *execution*; this guards request *ingestion*.
            self.close_connection = True
            self._respond_error(413, "request body too large")
            return
        try:
            body = self.rfile.read(length) if length else b""
        except socket.timeout:
            # Promised body never arrived within the socket timeout.
            self.close_connection = True
            return
        if path == "/update":
            self._handle_update(body)
        else:
            self._handle_sparql("POST", query_string, body)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _handle_sparql(self, method: str, query_string: str, body: bytes) -> None:
        state = self.state
        try:
            request = parse_sparql_request(method, query_string, self.headers, body)
        except ProtocolError as exc:
            self._respond_error(exc.status, str(exc))
            return

        trace_header = self.headers.get("X-Repro-Trace", "")
        trace_requested = trace_header.strip().lower() in ("1", "true", "yes")
        sampled = (
            not trace_requested
            and state.config.trace_sample > 0.0
            and random.random() < state.config.trace_sample
        )
        tracer: Optional[_obs_trace.Tracer] = None
        if trace_requested or sampled:
            # A request-*local* tracer, never the armed process global:
            # the parent serves many threads at once, while the global
            # belongs to one-query-at-a-time processes (CLI, workers).
            # Worker spans come back in the reply meta and are grafted
            # under this tree.
            tracer = _obs_trace.Tracer(
                "request",
                request_id=self.repro_request_id,
                method=method,
                format=request.format,
            )

        started = perf_counter()
        # The cache is consulted *before* admission: a hit costs
        # microseconds and no worker, so popular queries keep
        # answering precisely when every worker is busy.
        # Once generations are mixed the cache itself refuses.
        if tracer is not None:
            tracer.begin("cache_lookup")
        generation = state.generation
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("cache.get")
            cached = state.cache.get(generation, request.format, request.query)
        except OSError:
            # A failing cache lookup degrades to a miss — the cache
            # is an accelerator, never a dependency.
            cached = None
        if tracer is not None:
            tracer.end(outcome="hit" if cached is not None else "miss")
        if cached is not None:
            outcome = _entry_outcome(cached, "hit", generation)
            self._finish(request, outcome, started, tracer, sampled)
        else:
            state.metrics.enter()
            try:
                outcome = self._execute(request, tracer)
                self._finish(request, outcome, started, tracer, sampled)
            finally:
                state.metrics.leave()

    def _execute(self, request, tracer: "Optional[_obs_trace.Tracer]") -> _Outcome:
        """Run the query on a leased worker: a miss, stale or error outcome."""
        state = self.state
        if tracer is not None:
            tracer.begin("pool")
        reply = state.pool.execute(
            request.query,
            request.format,
            request_id=self.repro_request_id,
            trace=tracer is not None,
        )
        if tracer is not None:
            # The worker's span tree nests under the pool span; the
            # pool span's extra time is lease, pipe and relay cost.
            tracer.graft(reply.meta.get("trace") if reply.meta else None)
            tracer.end(kind=reply.kind)
        if reply.kind != "ok":
            if reply.kind == "timeout":
                state.metrics.record_timeout()
            if reply.kind == "shed":
                state.metrics.record_shed()
            # Opt-in stale-while-error: when execution failed outright
            # ("error": a dead/failing worker; "shed": no capacity), a
            # previously cached answer — any generation — beats a 5xx.
            # Timeouts are excluded: the query is too expensive, and
            # stale data would mask that signal.
            if state.config.stale_while_error and reply.kind in ("error", "shed"):
                stale = state.cache.get_stale(request.format, request.query)
                if stale is not None:
                    return _entry_outcome(stale, "stale", None, (("X-Repro-Stale", "1"),))
            return _error_outcome(_REPLY_STATUS.get(reply.kind, 500), reply.message)
        meta = reply.meta
        content_type = FORMAT_MEDIA_TYPES[request.format]
        rows = int(meta.get("rows", 0))  # type: ignore[arg-type]
        join_space = float(meta.get("join_space", 0.0))  # type: ignore[arg-type]
        counters = meta.get("exec")
        template = meta.get("template")
        patterns = meta.get("patterns")
        fault_counts = meta.get("faults")
        if isinstance(fault_counts, dict) and fault_counts:
            state.metrics.record_fault_injections(fault_counts)
        # Cache under the generation the worker *actually served* (a
        # respawned worker may have reopened a rebuilt snapshot).
        served_generation = int(meta.get("generation", state.generation))  # type: ignore[arg-type]
        entry = CachedResult(
            reply.payload,
            content_type,
            rows,
            join_space,
            exec_counters=counters if isinstance(counters, dict) else None,
            template=template if isinstance(template, dict) else None,
            patterns=patterns if isinstance(patterns, tuple) else (),
        )
        try:
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("cache.put")
            state.cache.put(served_generation, request.format, request.query, entry)
        except OSError:
            pass  # a result that cannot be cached is still served
        return _entry_outcome(entry, "miss", served_generation)

    def _finish(
        self,
        request,
        outcome: _Outcome,
        started: float,
        tracer: "Optional[_obs_trace.Tracer]",
        sampled: bool,
    ) -> None:
        """The one exit of every query outcome: trace, record, reply."""
        state = self.state
        trace_tree = tracer.finish() if tracer is not None else None
        body = outcome.body
        # An unsampled tracer was asked for by the client: it goes back
        # in the body, error documents included.
        if tracer is not None and not sampled and outcome.content_type.endswith("json"):
            repro: dict = {"request_id": self.repro_request_id}
            if outcome.cache is not None:
                repro["cache"] = outcome.cache
                repro["generation"] = outcome.generation
                repro["exec_counters"] = outcome.counters or {}
            repro["trace"] = trace_tree
            body = _splice_extensions(body, repro) or body
        extra = outcome.extra
        if outcome.cache is not None:
            extra = (("X-Repro-Cache", outcome.cache),) + extra
        if outcome.cache == "stale":
            # Counted before the reply leaves: a client that has the
            # stale answer must already see it in /metrics.
            state.metrics.record_stale_served()
        template = outcome.template
        seconds = perf_counter() - started
        # Logged, counted and observed before the reply leaves, so a
        # client holding a reply (a 504 in particular) can already find
        # it in the slow-query log, /metrics and /debug/templates.
        self._maybe_slowlog(
            request.query,
            seconds * 1000.0,
            rows=outcome.rows if outcome.cache is not None else None,
            template=template.get("hash") if template else None,
            counters=outcome.counters,
            trace=trace_tree,
            sampled=sampled,
            timed_out=outcome.status == 504,
        )
        if outcome.cache is not None:
            # Only a miss folds its counters into the /metrics totals: a
            # hit's or stale answer's work was counted by its own miss.
            state.metrics.record_query(
                outcome.cache,
                seconds,
                outcome.rows,
                outcome.join_space,
                outcome.counters if outcome.cache == "miss" else None,
            )
            if template is not None:
                state.templates.observe(
                    template.get("hash"),
                    template.get("text"),  # type: ignore[arg-type]
                    seconds,
                    outcome.rows,
                    outcome.counters,
                )
        self._respond(outcome.status, outcome.content_type, body, extra, outcome.generation)

    def _maybe_slowlog(
        self,
        query: str,
        total_ms: float,
        *,
        kind: str = "query",
        rows: Optional[int] = None,
        template=None,
        counters=None,
        trace=None,
        sampled: bool = False,
        timed_out: bool = False,
    ) -> None:
        """Append to the slow-query log when this request qualifies."""
        state = self.state
        log = state.slowlog
        if log is None:
            return
        slow_ms = state.config.slow_query_ms
        if timed_out:
            reason = "timeout"
        elif slow_ms > 0 and total_ms >= slow_ms:
            reason = "slow"
        elif sampled:
            reason = "sample"
        else:
            return
        log.record(
            reason,
            self.repro_request_id,
            query,
            total_ms,
            kind=kind,
            rows=rows,
            template=template if isinstance(template, str) else None,
            counters=counters if isinstance(counters, dict) else None,
            trace=trace,
        )

    def _handle_update(self, body: bytes) -> None:
        """``POST /update`` — apply a SPARQL 1.1 UPDATE to the live fleet."""
        state = self.state
        started = perf_counter()
        try:
            text = parse_update_request("POST", self.headers, body)
        except ProtocolError as exc:
            self._respond_error(exc.status, str(exc))
            return
        try:
            document = state.apply_update(text)
        except (SparqlError, OSError, PoolError) as exc:
            # OSError includes injected delta.apply faults: the
            # write-path site fires before any mutation, so the store is
            # unchanged and the client may simply retry.
            kind, message = failure_reply(exc)
            self._respond_error(_REPLY_STATUS[kind], message)
            return
        # Write observability: what changed, plus how deep the unpersisted
        # delta and the respawn replay log currently run.
        document["request_id"] = self.repro_request_id
        document["replay_log"] = state.pool.pending_replay
        body_bytes = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._respond(200, "application/json", body_bytes)
        self._maybe_slowlog(
            text,
            (perf_counter() - started) * 1000.0,
            kind="update",
            rows=int(document.get("added", 0)) + int(document.get("removed", 0)),
        )

    def _handle_templates(self, query_string: str) -> None:
        """``GET /debug/templates`` — the per-template stats registry."""
        limit: Optional[int] = None
        for part in query_string.split("&"):
            name, _, value = part.partition("=")
            if name == "limit":
                try:
                    limit = max(0, int(value))
                except ValueError:
                    self._respond_error(400, "limit must be an integer")
                    return
        document = self.state.templates.snapshot(limit=limit)
        document["generation"] = self.state.generation
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._respond(200, "application/json", body)

    def _handle_healthz(self) -> None:
        """Three-state health: a short roster is *degraded but serving*.

        ``ok`` (200) — full roster; ``degraded`` (200) — some workers
        down, capacity reduced, but queries still answer, so load
        balancers must NOT eject the instance; ``unavailable`` (503) —
        no workers at all.
        """
        state = self.state
        pool_stats = state.pool.stats()
        wal_stats = state.wal_stats()
        alive = int(pool_stats["alive"])
        target = int(pool_stats["target"])
        if alive == 0:
            status, http_status = "unavailable", 503
        elif alive >= target and not state.recovered_torn_tail:
            status, http_status = "ok", 200
        else:
            # A short roster — or a startup that had to truncate a torn
            # WAL tail (every *acked* update survived, but the crash is
            # worth an operator's look) — is degraded yet serving.
            status, http_status = "degraded", 200
        document = {
            "status": status,
            "workers": target,
            "alive": alive,
            "respawn_backoff_seconds": pool_stats["backoff_seconds"],
            "snapshot_fallbacks": pool_stats["snapshot_fallbacks"],
            "generation": state.generation,
            "generation_mixed": state.generation_mixed,
            "inflight": state.metrics.inflight,
            "pending_updates": state.pool.pending_replay,
            "wal_depth": wal_stats["depth"] if wal_stats is not None else 0,
            "recovered_torn_tail": state.recovered_torn_tail,
            "cache": state.cache.stats(),
        }
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self._respond(http_status, "application/json", body)

    def _handle_metrics(self) -> None:
        state = self.state
        text = state.metrics.render(
            state.generation,
            state.pool.stats(),
            state.cache.stats(),
            state.wal_stats(),
        )
        self._respond(200, "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8"))


class _HTTPServer(socketserver.TCPServer):
    """The listener: each accepted connection goes to an idle handler
    thread through that thread's handoff queue; a new thread starts
    only when none is idle.  There is no size bound: the threads number
    the peak of concurrent connections, and a kept-alive connection
    holds its thread, so it cannot starve the others.  Handler threads
    are daemonic, so a stuck client never blocks process exit."""

    allow_reuse_address = True
    state: "SparqlServer"

    def __init__(self, address, handler) -> None:
        #: (thread, handoff queue) of each idle handler, last idle last.
        self._idle: List[Tuple[threading.Thread, "queue.SimpleQueue"]] = []
        self._idle_lock = threading.Lock()
        self._closed = False
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self._idle_lock:
            handoff = self._idle.pop()[1] if self._idle else None
        if handoff is None:
            handoff = queue.SimpleQueue()
            threading.Thread(
                target=self._serve_connections,
                args=(handoff,),
                name="repro-http-handler",
                daemon=True,
            ).start()
        handoff.put((request, client_address))

    def _serve_connections(self, handoff: "queue.SimpleQueue") -> None:
        """One handler thread: serve each connection handed over, until
        ``server_close`` hands over None."""
        me = threading.current_thread()
        while True:
            handed = handoff.get()
            if handed is None:
                return
            request, client_address = handed
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 — as socketserver: report, go on
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._idle_lock:
                if self._closed:
                    return
                self._idle.append((me, handoff))

    def server_close(self) -> None:
        """Close the listener and end every idle handler thread; a busy
        one ends when its connection does."""
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for _, handoff in idle:
            handoff.put(None)
        for thread, _ in idle:
            thread.join()


class SparqlServer:
    """The assembled service: pool + cache + metrics + HTTP listener."""

    def __init__(self, config: ServerConfig):
        if config.compact_threshold > 0 and not is_snapshot(config.data):
            # Compaction publishes a snapshot over the data file.
            raise SnapshotError(
                f"--compact-threshold needs a snapshot data file, and {config.data!r} "
                "is not one; build one with `repro snapshot build` and serve that"
            )
        self.config = config
        self.metrics = ServerMetrics()
        self.cache = ResultCache(config.cache_entries, config.cache_bytes)
        #: Per-template execution stats (GET /debug/templates, SIGUSR1
        #: dump) — fed by worker reply meta and by cache hits.
        self.templates = TemplateRegistry()
        #: The structured slow-query log, or None when not configured.
        self.slowlog: Optional[SlowQueryLog] = (
            SlowQueryLog(config.slow_query_log) if config.slow_query_log else None
        )
        # Arm fault injection before anything that hosts an injection
        # point (the pool spawn below included).  Workers arm the same
        # plan independently — it travels pickled through the spawn
        # args — so one spec drives the whole process tree.
        self._armed_faults = False
        if config.faults:
            _faults.arm(config.faults)  # FaultSpecError propagates: typos fail loudly
            self._armed_faults = True
        # Open (and recover) the write-ahead log before anything else
        # is running: a corrupt log must refuse startup (exit code 3,
        # like a corrupt snapshot) with nothing to unwind, and a torn
        # tail is truncated here so the replay below sees only complete
        # frames.  The recovered records are replayed once the pool is
        # up.  Without --wal the server still keeps a log — a temporary
        # file, never fsynced, deleted at shutdown — because the log is
        # the worker pool's only respawn-replay source; durability and
        # the WAL's /metrics and /healthz reporting stay off.
        self._durable = bool(config.wal)
        #: Startup recoveries performed (0 or 1 per process): the log
        #: held acked updates the snapshot lacked, or a torn tail was
        #: cut.  Rendered as repro_wal_recoveries_total.
        self.wal_recoveries = 0
        #: The recovery span tree (obs), set when a replay ran.
        self.recovery_trace: Optional[dict] = None
        if self._durable:
            self.wal = WriteAheadLog(config.wal, policy=config.wal_fsync)
        else:
            fd, path = tempfile.mkstemp(prefix="repro-replay-", suffix=".wal")
            os.close(fd)
            self.wal = WriteAheadLog(path, policy="off")
        #: True when open found (and truncated) a torn final frame —
        #: surfaced on /healthz as a degraded, but correct, start.
        self.recovered_torn_tail = self.wal.recovered_torn_tail
        #: Set when a respawned worker reports a different snapshot
        #: generation than the fleet started on (in-place rebuild):
        #: results from different data versions now coexist, so the
        #: result cache is cleared and bypassed — correctness degrades
        #: to miss-through, never to stale hits.
        self.generation_mixed = False
        # ---- live-write state ----
        #: Serializes POST /update handling (and compaction) so writes
        #: commit in a single total order: parent store first, then the
        #: worker fleet, then the generation the cache keys on.
        self._update_lock = threading.Lock()
        #: The parent's own authoritative engine/store, loaded lazily on
        #: the first update — read-only servers never pay for it.
        self._writer_engine = None
        self._compacting = False
        # Every failure below unwinds what is already up, newest first:
        # no worker, listener or log file outlives a failed startup.
        with ExitStack() as unwind:
            unwind.callback(self._close_wal)
            # Bind the listener *before* spawning workers: a bind
            # failure (EADDRINUSE, privileged port) must not leave N
            # freshly spawned processes parked on their pipes.
            self._httpd = _HTTPServer((config.host, config.port), _Handler)
            unwind.callback(self._httpd.server_close)
            self.pool = WorkerPool(
                config,
                on_restart=self.metrics.record_worker_restart,
                on_generation_drift=self._on_generation_drift,
                on_snapshot_fallback=self._on_snapshot_fallback,
            )
            unwind.callback(self.pool.close)
            self.generation = self.pool.generation
            # The log is appended to before every broadcast, so it is
            # what a respawned worker replays to catch up.
            self.pool.attach_wal(self.wal)
            self._replay_wal_tail()
            unwind.pop_all()
        self._httpd.state = self
        self._thread: Optional[threading.Thread] = None

    def _on_snapshot_fallback(self) -> None:
        # A respawned worker could not load the data file (rebuilt in
        # place, torn, or vanished): the still-running workers keep
        # serving the generation they have mapped while the pool's heal
        # thread retries on its backoff schedule.  Counted in
        # /metrics (repro_snapshot_fallbacks_total) via pool.stats().
        sys.stderr.write(
            f"warning: worker respawn could not load {self.config.data}; "
            f"serving last-good generation {self.generation} at reduced "
            f"capacity while the heal thread retries\n"
        )

    def _on_generation_drift(self, new_generation: int) -> None:
        self.generation_mixed = True
        self.cache.disable()  # atomic clear-and-refuse under the cache lock
        sys.stderr.write(
            f"warning: worker respawned against generation {new_generation} "
            f"(fleet started at {self.generation}); result cache disabled — "
            f"restart the server to serve one consistent snapshot\n"
        )

    # ------------------------------------------------------------------
    # live writes
    # ------------------------------------------------------------------
    def _writer(self):
        """The parent-side authoritative engine (lazily constructed)."""
        if self._writer_engine is None:
            from ..core.engine import SparqlUOEngine

            store = _open_store(self.config.data)
            # Compaction (store.compact) truncates the log's dead
            # prefix as part of publishing the snapshot.
            store.attach_wal(self.wal)
            self._writer_engine = SparqlUOEngine(
                store, options=self.config.engine_options()
            )
        return self._writer_engine

    def _replay_wal_tail(self) -> None:
        """Replay recovered WAL records past the snapshot generation.

        Runs once at startup, before the listener accepts a single
        request: every acked update the previous process logged but had
        not yet compacted is re-applied to the writer store and
        broadcast to the fresh fleet, so a ``kill -9`` between two
        compactions loses nothing.  The writer's *computed* generation
        is authoritative — a recorded generation can legitimately drift
        when an unacked (never-logged) update separated two logged ones
        before the crash — and a frame whose text no longer parses is
        corruption (exit code 3): logged frames were validated before
        being written.  A fresh (temporary) log makes this a no-op.
        """
        wal = self.wal
        records = [r for r in wal.recovered_records if r.generation > self.generation]
        if not records and not wal.recovered_torn_tail:
            return
        tracer = _obs_trace.Tracer("wal_recovery", path=self.config.wal)
        tracer.begin("replay", records=len(records))
        started = perf_counter()
        replayed = 0
        if records:
            engine = self._writer()
            with engine.store.bulk_replay():
                for record in records:
                    try:
                        result = engine.update(record.text, timeout=self.config.timeout)
                    except SparqlError as exc:
                        raise WalCorruptError(
                            f"recovered frame at generation {record.generation} "
                            f"does not parse: {exc}"
                        ) from exc
                    if not (result.added or result.removed):
                        continue
                    if result.generation != record.generation:
                        sys.stderr.write(
                            f"warning: wal replay computed generation "
                            f"{result.generation} for a frame recorded at "
                            f"{record.generation} (an unacked update preceded "
                            f"the crash); continuing with the computed value\n"
                        )
                    self.pool.broadcast_update(record.text, result.generation)
                    self.generation = result.generation
                    replayed += 1
        self.wal_recoveries = 1
        tracer.end(applied=replayed, torn_tail=wal.recovered_torn_tail)
        self.recovery_trace = tracer.finish()
        sys.stderr.write(
            f"wal: recovered {replayed} update(s) from {self.config.wal!r}"
            f"{' (torn tail truncated)' if wal.recovered_torn_tail else ''} "
            f"in {(perf_counter() - started) * 1000:.1f} ms; "
            f"serving generation {self.generation}\n"
        )

    def wal_stats(self) -> Optional[dict]:
        """One consistent WAL sample for /metrics (None without --wal)."""
        if not self._durable:
            return None
        stats = self.wal.stats()
        stats["recoveries"] = self.wal_recoveries
        return stats

    def apply_update(self, text: str) -> dict:
        """Apply one UPDATE request: parent store, then the fleet.

        The parent's store is authoritative: the update is parsed and
        applied there first, so a syntax error, an unsupported form or
        an injected ``delta.apply`` fault rejects the request before
        any worker has seen it.  Only a request that actually changed
        at least one triple is broadcast — a no-op commits nothing,
        bumps no generation, and therefore invalidates no caches.
        """
        wal_seq: Optional[int] = None
        durability_error: Optional[OSError] = None
        with self._update_lock:
            engine = self._writer()
            before = engine.store.generation
            result = engine.update(text, timeout=self.config.timeout)
            confirmed = 0
            changed = bool(result.added or result.removed)
            if changed:
                # Logged before any worker or lookup can reach the new
                # generation, so revalidation never misses a change.
                self.cache.record_update(before, result.generation, result.requested)
                # The append happens under the update lock so frame
                # order matches commit order; the fsync wait happens
                # *outside* it (below), so concurrent committers share a
                # group-commit leader's fsync instead of serializing one
                # fsync per update.
                try:
                    wal_seq = self.wal.append(result.generation, text)
                except OSError as exc:
                    # The parent store has already committed, so the
                    # fleet must still be brought along (consistency
                    # over durability) — but the client gets a 5xx: this
                    # update was never acked, may not survive a crash,
                    # and a respawn cannot replay it.
                    durability_error = exc
                confirmed = self.pool.broadcast_update(text, result.generation)
                # Advance the served generation only after the fleet
                # confirmed: queries racing the broadcast keep hitting
                # entries valid at the old generation, which still
                # describe the data their worker served.
                self.generation = result.generation
                self.metrics.record_update(result.added, result.removed)
                self._maybe_compact()
            pending = engine.store.pending_delta
        if wal_seq is not None and durability_error is None:
            # Ack-after-fsync: the frame must be durable before the
            # client can see its 2xx.
            try:
                self.wal.sync(wal_seq)
            except OSError as exc:
                durability_error = exc
        if durability_error is not None:
            raise OSError(
                f"update applied in memory but not durable "
                f"(WAL write failed: {durability_error}); treat this "
                f"update as unacked"
            ) from durability_error
        return {
            "added": result.added,
            "removed": result.removed,
            "operations": result.operations,
            "generation": result.generation,
            "changed": changed,
            "workers_confirmed": confirmed,
            "pending_delta": {"adds": pending[0], "tombstones": pending[1]},
        }

    def _maybe_compact(self) -> None:
        """Kick background compaction once the delta outgrows the threshold."""
        threshold = self.config.compact_threshold
        if threshold <= 0 or self._compacting:
            return
        store = self._writer().store
        if sum(store.pending_delta) < threshold:
            return
        self._compacting = True
        threading.Thread(
            target=self._compact, name="repro-compact", daemon=True
        ).start()

    def _compact(self) -> None:
        """Fold the writer's delta into the data file (atomic overwrite).

        Runs under the update lock so no update can land mid-write; the
        ``compact.publish`` fault site fires before any bytes move, so
        an injected failure leaves the delta intact for the next
        attempt.  On success ``store.compact`` truncates the log below
        the published generation — future respawns load the compacted
        snapshot directly and replay only what follows it.
        """
        try:
            with self._update_lock:
                store = self._writer().store
                try:
                    generation = store.compact(self.config.data)
                except OSError as exc:
                    sys.stderr.write(
                        f"warning: delta compaction failed ({exc}); "
                        f"retrying after the next update\n"
                    )
                    return
                self.pool.note_snapshot_generation(generation)
                self.metrics.record_compaction()
        finally:
            self._compacting = False

    # ------------------------------------------------------------------
    def dump_stats(self, destination: Optional[str] = None) -> None:
        """Write the template-stats registry as JSON to ``destination``
        (a path, or "-" for stderr).  The ``repro serve --stats-dump``
        SIGUSR1 handler calls this; it never raises."""
        destination = destination or self.config.stats_dump or "-"
        document = self.templates.snapshot()
        document["generation"] = self.generation
        text = json.dumps(document, sort_keys=True) + "\n"
        try:
            if destination == "-":
                sys.stderr.write(text)
                sys.stderr.flush()
            else:
                with open(destination, "w", encoding="utf-8") as handle:
                    handle.write(text)
        except OSError as exc:
            sys.stderr.write(f"warning: stats dump failed: {exc}\n")

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's pick)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> None:
        """Serve on a background thread (tests, benchmarks)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-sparql-http", daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting connections, then stop the workers.

        Idle handler threads end here; busy ones are daemonic, so
        shutdown never blocks on a stuck client.  The drain below waits
        (up to ``drain_seconds``) for in-flight queries to finish before
        the pool closes, so a SIGTERM during live traffic completes the
        accepted work instead of tearing worker pipes out from under
        it.  A handler racing
        the worker-pool close anyway gets a clean "server shutting
        down" error reply rather than a torn pipe (see
        :meth:`WorkerPool.execute`).
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        deadline = time.monotonic() + max(self.config.drain_seconds, 0.0)
        while self.metrics.inflight > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        # Close fsyncs under every policy: a drained SIGTERM/SIGINT
        # shutdown must not lose the final group-commit window (or,
        # under policy "off", the whole OS writeback window).
        self._close_wal()
        self.pool.close()
        if self._armed_faults:
            _faults.disarm()
            self._armed_faults = False

    def _close_wal(self) -> None:
        """Close the log; the temporary one (no --wal) is also deleted."""
        self.wal.close()
        if not self._durable:
            try:
                os.unlink(self.wal.path)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SparqlServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(config: ServerConfig, out=None) -> int:
    """The blocking ``repro serve`` entry point with signal handling."""
    out = out if out is not None else sys.stdout
    try:
        server = SparqlServer(config)
    except WalCorruptError as exc:
        # Mirrors the corrupt-snapshot CLI contract: complete-but-wrong
        # evidence refuses to serve (exit 3); torn tails never get here
        # — they are truncated during recovery.
        print(f"error: corrupt write-ahead log: {exc}", file=sys.stderr)
        print(
            "hint: inspect with `repro wal info`; move the file aside to "
            "start from the snapshot alone (acked updates in the log "
            "will be lost)",
            file=sys.stderr,
        )
        return 3
    except (PoolError, OSError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wal_note = (
        f" wal={config.wal}:{config.wal_fsync}" if config.wal else ""
    )
    print(
        f"serving {config.data} at {server.url}/sparql "
        f"(workers={server.pool.size} timeout={config.timeout:g}s "
        f"generation={server.generation}{wal_note})",
        file=out,
        flush=True,
    )

    def _signal_handler(signum, frame) -> None:
        # shutdown() must run off the serve_forever thread; the full
        # cleanup happens once serve_forever returns, below.
        threading.Thread(target=server._httpd.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _signal_handler)
    if config.stats_dump and hasattr(signal, "SIGUSR1"):

        def _dump_handler(signum, frame) -> None:
            # Dump off the signal frame: file I/O under a handler would
            # block the serve loop mid-accept.
            threading.Thread(target=server.dump_stats, daemon=True).start()

        previous[signal.SIGUSR1] = signal.signal(signal.SIGUSR1, _dump_handler)
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()  # idempotent with the handler's shutdown()
    print("shutdown complete", file=out, flush=True)
    return 0
