"""Tests for the SPARQL protocol server subsystem.

Unit tests exercise the protocol parser, the result cache and its
revalidation across writes and metrics without a socket; the pool
tests hold a real worker to drive admission; the HTTP tests run a
real :class:`~repro.server.app.SparqlServer` (spawned worker processes,
ephemeral port) and drive it with urllib, including the timeout,
worker-death and shedding paths.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import re
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import SparqlUOEngine
from repro.datasets.lubm import generate_lubm
from repro.server import (
    ResultCache,
    ServerConfig,
    SparqlServer,
    negotiate_format,
    parse_sparql_request,
    parse_update_request,
)
from repro.rdf import IRI, BlankNode, Literal, Triple, TriplePattern, Variable
from repro.server.cache import CachedResult, matches, triple_key
from repro.server.metrics import LatencySummary, ServerMetrics
from repro.server.pool import WorkerPool
from repro.server.protocol import ProtocolError
from repro.sparql.results import CHUNK_ROWS, to_csv, to_json, to_tsv
from repro.storage import TripleStore

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

QUERY_HEADOF = f"SELECT ?x ?y WHERE {{ ?x <{UB}headOf> ?y }}"
QUERY_OPTIONAL = (
    f"SELECT ?x ?dept ?mail WHERE {{ ?x <{UB}worksFor> ?dept "
    f"OPTIONAL {{ ?x <{UB}emailAddress> ?mail }} }}"
)
QUERY_UNION = (
    f"SELECT ?p WHERE {{ {{ ?p <{UB}headOf> ?o }} UNION {{ ?p <{UB}teacherOf> ?o }} }}"
)
#: Triple cartesian product — astronomically large, guaranteed to hit
#: any sub-second deadline long before completing.
QUERY_SLOW = "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("server") / "lubm.snap"
    TripleStore.from_dataset(generate_lubm(universities=1, seed=42)).save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def server(snapshot_path):
    config = ServerConfig(
        data=snapshot_path, port=0, workers=2, timeout=10.0, cache_entries=32
    )
    instance = SparqlServer(config)
    instance.start()
    yield instance
    instance.shutdown()


@pytest.fixture(scope="module")
def local_engine(snapshot_path):
    return SparqlUOEngine(TripleStore.load(snapshot_path), bgp_engine="wco", mode="full")


def http_get(url: str, accept=None, timeout=60):
    request = urllib.request.Request(url, headers={"Accept": accept} if accept else {})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def sparql_get(server, query, accept=None, extra_params=None, timeout=60):
    params = {"query": query}
    params.update(extra_params or {})
    url = server.url + "/sparql?" + urllib.parse.urlencode(params)
    return http_get(url, accept=accept, timeout=timeout)


# ----------------------------------------------------------------------
# protocol unit tests (no socket)
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_default_is_json(self):
        assert negotiate_format(None) == "json"
        assert negotiate_format("") == "json"
        assert negotiate_format("*/*") == "json"

    def test_exact_media_types(self):
        assert negotiate_format("application/sparql-results+json") == "json"
        assert negotiate_format("text/csv") == "csv"
        assert negotiate_format("text/tab-separated-values") == "tsv"
        assert negotiate_format("application/json") == "json"

    def test_q_values_rank(self):
        accept = "text/csv;q=0.3, text/tab-separated-values;q=0.9"
        assert negotiate_format(accept) == "tsv"
        # q above 1 is out of range, not a higher preference.
        assert negotiate_format("text/csv;q=5, text/tab-separated-values") == "tsv"
        assert negotiate_format("text/csv;q=inf, text/tab-separated-values") == "tsv"

    def test_zero_q_is_ignored(self):
        assert negotiate_format("text/csv;q=0, */*") == "json"
        # NaN ranks like an unparsable q in either header order.
        json_half = "application/sparql-results+json;q=0.5"
        assert negotiate_format(f"text/csv;q=nan, {json_half}") == "json"
        assert negotiate_format(f"{json_half}, text/csv;q=nan") == "json"

    def test_wildcard_subtype(self):
        assert negotiate_format("text/*") == "csv"  # first text/ offering

    def test_explicit_format_wins(self):
        assert negotiate_format("text/csv", explicit="tsv") == "tsv"

    def test_unknown_explicit_format(self):
        with pytest.raises(ProtocolError) as excinfo:
            negotiate_format(None, explicit="xml")
        assert excinfo.value.status == 400

    def test_not_acceptable(self):
        with pytest.raises(ProtocolError) as excinfo:
            negotiate_format("application/xml")
        assert excinfo.value.status == 406


class TestParseRequest:
    def test_get(self):
        qs = urllib.parse.urlencode({"query": "SELECT * WHERE { ?s ?p ?o }"})
        request = parse_sparql_request("GET", qs, {}, b"")
        assert request.query == "SELECT * WHERE { ?s ?p ?o }"
        assert request.format == "json"

    def test_get_missing_query(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sparql_request("GET", "", {}, b"")
        assert excinfo.value.status == 400

    def test_get_repeated_query(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sparql_request("GET", "query=a&query=b", {}, b"")
        assert excinfo.value.status == 400

    def test_post_form(self):
        body = urllib.parse.urlencode({"query": "SELECT * WHERE { ?s ?p ?o }"}).encode()
        request = parse_sparql_request(
            "POST", "", {"Content-Type": "application/x-www-form-urlencoded"}, body
        )
        assert "SELECT" in request.query

    def test_post_direct(self):
        request = parse_sparql_request(
            "POST",
            "format=csv",
            {"Content-Type": "application/sparql-query; charset=utf-8"},
            b"SELECT * WHERE { ?s ?p ?o }",
        )
        assert request.format == "csv"

    def test_post_unsupported_media_type(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sparql_request("POST", "", {"Content-Type": "text/plain"}, b"x")
        assert excinfo.value.status == 415

    def test_post_form_format_parameter(self):
        body = urllib.parse.urlencode({"query": "SELECT * {?s ?p ?o}", "format": "tsv"})
        request = parse_sparql_request(
            "POST", "", {"Content-Type": "application/x-www-form-urlencoded"}, body.encode()
        )
        assert request.format == "tsv"

    def test_empty_query_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_sparql_request("GET", "query=%20", {}, b"")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_percent_encoded_invalid_utf8_is_400(self, method):
        # %E9 is Latin-1 "é": never rewritten to U+FFFD and executed.
        encoded = "query=SELECT+*+WHERE+%7B+%3Fs+%3Fp+%22caf%E9%22+%7D"
        form = {"Content-Type": "application/x-www-form-urlencoded"}
        with pytest.raises(ProtocolError) as excinfo:
            if method == "GET":
                parse_sparql_request("GET", encoded, {}, b"")
            else:
                parse_sparql_request("POST", "", form, encoded.encode("ascii"))
        assert excinfo.value.status == 400
        assert "not valid UTF-8" in str(excinfo.value)


# ----------------------------------------------------------------------
# cache unit tests
# ----------------------------------------------------------------------
def _entry(payload: bytes = b"x", patterns=()) -> CachedResult:
    return CachedResult(payload, "application/json", 1, 0.0, patterns=patterns)


def _iri(name: str) -> IRI:
    return IRI("http://example.org/c#" + name)


#: ``?s <p> <o>`` as the worker sends it.
_PATTERN = (None, "<http://example.org/c#p>", "<http://example.org/c#o>")


class TestResultCache:
    def test_round_trip(self):
        cache = ResultCache(max_entries=4)
        cache.put(7, "json", "SELECT 1", _entry(b"payload"))
        hit = cache.get(7, "json", "SELECT 1")
        assert hit is not None and hit.payload == b"payload"

    def test_generation_keys_invalidate(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry())
        assert cache.get(2, "json", "q") is None  # newer data, different key
        assert cache.get(1, "json", "q") is not None

    def test_format_is_part_of_key(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry())
        assert cache.get(1, "csv", "q") is None

    def test_lru_eviction_by_entries(self):
        cache = ResultCache(max_entries=2)
        cache.put(1, "json", "a", _entry())
        cache.put(1, "json", "b", _entry())
        cache.get(1, "json", "a")  # refresh a
        cache.put(1, "json", "c", _entry())
        assert cache.get(1, "json", "b") is None  # LRU victim
        assert cache.get(1, "json", "a") is not None
        assert cache.evictions == 1

    def test_eviction_by_bytes(self):
        cache = ResultCache(max_entries=10, max_bytes=100)
        cache.put(1, "json", "a", _entry(b"x" * 60))
        cache.put(1, "json", "b", _entry(b"y" * 60))
        assert cache.get(1, "json", "a") is None
        assert cache.payload_bytes <= 100

    def test_oversized_entry_refused(self):
        cache = ResultCache(max_entries=10, max_bytes=10)
        assert cache.admits(10) and not cache.admits(11)
        assert not cache.put(1, "json", "a", _entry(b"z" * 11))
        assert len(cache) == 0

    def test_disabled_cache(self):
        cache = ResultCache(max_entries=0)
        assert not cache.admits(1)
        assert not cache.put(1, "json", "a", _entry())
        assert cache.get(1, "json", "a") is None


class TestRevalidation:
    def test_unmatched_write_keeps_the_entry(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry(b"a", [_PATTERN]))
        # Same predicate, other object: cannot be in ?s <p> <o>'s matches.
        cache.record_update(1, 2, [Triple(_iri("s"), _iri("p"), _iri("other"))])
        assert cache.get(2, "json", "q").payload == b"a"
        assert cache.stats()["revalidated"] == 1
        # Re-stamped: the next lookup at 2 is a plain hit.
        assert cache.get(2, "json", "q") is not None
        assert cache.stats()["revalidated"] == 1

    def test_matching_write_misses_and_keeps_the_stale_fallback(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry(b"a", [_PATTERN]))
        cache.record_update(1, 2, [Triple(_iri("x"), _iri("p"), _iri("o"))])
        assert cache.get(2, "json", "q") is None
        assert cache.stats()["invalidated"]["changed"] == 1
        assert cache.get_stale("json", "q").payload == b"a"

    def test_blank_nodes_match_anything_on_either_side(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry(b"a", [_PATTERN]))
        cache.put(1, "json", "b", _entry(b"b", [(None, "<http://example.org/c#p>", None)]))
        cache.record_update(1, 2, [Triple(_iri("s"), _iri("p"), BlankNode("b0"))])
        assert cache.get(2, "json", "q") is None
        assert cache.get(2, "json", "b") is None
        assert cache.stats()["invalidated"]["changed"] == 2

    def test_a_multi_operation_commit_covers_every_generation(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry(b"a", [_PATTERN]))
        cache.record_update(1, 3, [Triple(_iri("s"), _iri("p"), _iri("other"))])
        assert cache.get(3, "json", "q") is not None
        cache.put(3, "json", "r", _entry(b"r", [_PATTERN]))
        cache.record_update(3, 5, [Triple(_iri("s"), _iri("p"), _iri("o"))])
        assert cache.get(5, "json", "r") is None

    def test_a_gap_in_the_log_misses(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry(b"a", [_PATTERN]))
        cache.record_update(2, 3, [])  # generation 2 was never logged
        assert cache.get(3, "json", "q") is None
        assert cache.stats()["invalidated"]["log_gap"] == 1

    def test_an_oversized_commit_is_a_gap(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry(b"a", [_PATTERN]))
        unrelated = [Triple(_iri(f"s{i}"), _iri("other"), _iri("o")) for i in range(5000)]
        cache.record_update(1, 2, unrelated)
        assert cache.get(2, "json", "q") is None
        assert cache.stats()["invalidated"]["log_gap"] == 1

    def test_an_entry_without_patterns_misses_on_any_write(self):
        cache = ResultCache(max_entries=4)
        cache.put(1, "json", "q", _entry(b"a"))
        cache.record_update(1, 2, [])
        assert cache.get(2, "json", "q") is None
        assert cache.stats()["invalidated"]["no_patterns"] == 1

    def test_an_entry_newer_than_the_lookup_is_not_served(self):
        cache = ResultCache(max_entries=4)
        cache.put(2, "json", "q", _entry(b"a", [_PATTERN]))
        assert cache.get(1, "json", "q") is None
        assert cache.get(2, "json", "q") is not None
        assert sum(cache.stats()["invalidated"].values()) == 0

    def test_concurrent_writes_never_serve_a_touched_entry(self):
        """Readers revalidate while a writer logs changes and advances the
        generation; every third change matches.  An entry's payload is
        the generation it was computed at, so a hit is wrong exactly
        when a matching change lies between that and the lookup's."""
        cache = ResultCache(max_entries=8)
        current = [0]
        wrong: list = []
        done = threading.Event()
        touch = [Triple(_iri("s"), _iri("p"), _iri("o"))]
        other = [Triple(_iri("s"), _iri("p"), _iri("other"))]

        def writer() -> None:
            for generation in range(1, 1500):
                cache.record_update(generation - 1, generation, touch if generation % 3 == 0 else other)
                current[0] = generation
                time.sleep(0.0002)  # let readers see most generations
            done.set()

        def reader() -> None:
            while not done.is_set():
                generation = current[0]
                entry = cache.get(generation, "json", "q")
                if entry is None:
                    cache.put(generation, "json", "q", _entry(b"%d" % generation, [_PATTERN]))
                    continue
                computed = int(entry.payload)
                if any(g % 3 == 0 for g in range(computed + 1, generation + 1)):
                    wrong.append((computed, generation))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert cache.stats()["revalidated"] > 0

    def test_triple_keys(self):
        pattern = TriplePattern(Variable("s"), _iri("p"), Literal("v", language="EN"))
        assert triple_key(pattern) == (None, "<http://example.org/c#p>", '"v"@en')
        assert matches(triple_key(pattern), ("<x>", "<http://example.org/c#p>", '"v"@en'))
        assert not matches(triple_key(pattern), ("<x>", "<http://example.org/c#p>", '"v"'))


# ----------------------------------------------------------------------
# pool admission: the idle queue is the server's one admission point
# ----------------------------------------------------------------------
class TestPoolAdmission:
    """A real ``workers=1`` pool.  A test holds the one worker by
    leasing it from the idle queue, as an executing query or an update
    broadcast would, and hands it back with ``_idle.put``."""

    @staticmethod
    def start_waiter(pool, replies):
        """A request blocked in the pool, waiting for the held worker."""
        thread = threading.Thread(
            target=lambda: replies.append(pool.execute(QUERY_HEADOF, "json"))
        )
        thread.start()
        deadline = time.monotonic() + 10
        while pool._waiting < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._waiting == 1
        return thread

    def test_full_wait_bound_sheds_at_once(self, snapshot_path):
        config = ServerConfig(data=snapshot_path, workers=1, queue_size=1, queue_wait=30.0)
        pool = WorkerPool(config)
        try:
            held = pool._idle.get(timeout=10)
            replies = []
            waiter = self.start_waiter(pool, replies)
            started = time.perf_counter()
            reply = pool.execute(QUERY_HEADOF, "json")
            assert time.perf_counter() - started < 1.0  # no 30 s park
            assert reply.kind == "shed"
            pool._idle.put(held)
            waiter.join(30)
            assert not waiter.is_alive()
            assert [r.kind for r in replies] == ["ok"]
        finally:
            pool.close()

    def test_waiter_is_admitted_when_a_worker_returns(self, snapshot_path):
        config = ServerConfig(data=snapshot_path, workers=1, queue_size=1, queue_wait=30.0)
        pool = WorkerPool(config)
        try:
            held = pool._idle.get(timeout=10)
            replies = []
            waiter = self.start_waiter(pool, replies)
            returned = time.perf_counter()
            pool._idle.put(held)
            waiter.join(30)
            assert not waiter.is_alive()
            assert [r.kind for r in replies] == ["ok"]
            assert time.perf_counter() - returned < 10.0  # not the 30 s wait
            assert pool._waiting == 0
        finally:
            pool.close()

    def test_wait_count_survives_contention(self, snapshot_path):
        """More callers than cores race the waiter count with a short
        switch interval: every call answers ok or shed, and a lost
        update would leave the count off zero."""
        config = ServerConfig(data=snapshot_path, workers=1, queue_size=2, queue_wait=5.0)
        pool = WorkerPool(config)
        kinds = []
        lock = threading.Lock()

        def issue() -> None:
            for _ in range(4):
                kind = pool.execute(QUERY_HEADOF, "json").kind
                with lock:
                    kinds.append(kind)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=issue) for _ in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert len(kinds) == 48 and set(kinds) <= {"ok", "shed"}
        assert "ok" in kinds
        assert pool._waiting == 0

    def test_held_workers_shed_after_one_queue_wait(self, snapshot_path):
        config = ServerConfig(data=snapshot_path, workers=1, queue_wait=0.5)
        pool = WorkerPool(config)
        try:
            held = pool._idle.get(timeout=10)
            started = time.perf_counter()
            reply = pool.execute(QUERY_HEADOF, "json")
            elapsed = time.perf_counter() - started
            assert reply.kind == "shed"
            assert 0.45 <= elapsed < 1.0  # one queue_wait, not two
            pool._idle.put(held)
            assert pool.execute(QUERY_HEADOF, "json").kind == "ok"
        finally:
            pool.close()


class TestMetrics:
    def test_latency_quantiles(self):
        summary = LatencySummary()
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            summary.observe(value)
        assert summary.quantile(0.5) == 3.0
        assert summary.count == 5 and summary.total == 15.0
        assert LatencySummary().quantile(0.5) is None

    def test_render_contains_core_series(self):
        metrics = ServerMetrics()
        metrics.record_response(200)
        metrics.record_query("miss", 0.01, 5, 2.5)
        text = metrics.render(
            3,
            {"alive": 2, "target": 2, "backoff_seconds": 0.0, "snapshot_fallbacks": 0},
            {"hits": 1, "misses": 2, "entries": 1, "bytes": 10},
        )
        assert 'repro_requests_total{status="200"} 1' in text
        assert "repro_store_generation 3" in text
        assert 'repro_query_latency_seconds_count{cache="miss"} 1' in text
        assert "repro_cache_hits_total 1" in text


# ----------------------------------------------------------------------
# HTTP end-to-end
# ----------------------------------------------------------------------
class TestHttpEndpoint:
    def test_get_json(self, server, local_engine):
        status, headers, body = sparql_get(server, QUERY_HEADOF)
        assert status == 200
        assert headers["Content-Type"] == "application/sparql-results+json"
        document = json.loads(body)
        assert document["head"]["vars"] == ["x", "y"]
        assert len(document["results"]["bindings"]) == len(
            local_engine.execute(QUERY_HEADOF)
        )

    def test_payloads_byte_identical_to_local(self, server, local_engine):
        for query in (QUERY_HEADOF, QUERY_OPTIONAL, QUERY_UNION):
            result = local_engine.execute(query)
            expectations = {
                None: to_json(result.variables, result.solutions).encode(),
                "text/csv": to_csv(result.variables, result.solutions).encode(),
                "text/tab-separated-values": to_tsv(
                    result.variables, result.solutions
                ).encode(),
            }
            for accept, expected in expectations.items():
                _, _, body = sparql_get(server, query, accept=accept)
                assert body == expected

    def test_post_form_urlencoded(self, server):
        data = urllib.parse.urlencode({"query": QUERY_HEADOF}).encode()
        request = urllib.request.Request(
            server.url + "/sparql",
            data=data,
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
            assert json.loads(response.read())["head"]["vars"] == ["x", "y"]

    def test_post_direct_query(self, server):
        request = urllib.request.Request(
            server.url + "/sparql?format=tsv",
            data=QUERY_HEADOF.encode(),
            headers={"Content-Type": "application/sparql-query"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/tab-separated-values"
            )
            assert response.read().decode().splitlines()[0] == "?x\t?y"

    def test_syntax_error_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            sparql_get(server, "SELECT WHERE {")
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    @pytest.mark.parametrize(
        "query, message",
        [
            ('SELECT * WHERE { ?s ?p "x\\uZZZZ" }', "invalid escape \\u"),
            ("SELECT * WHERE { ?s ?p ?o } LIMIT \u00b2", "unexpected character"),
        ],
    )
    def test_lexical_errors_are_400(self, server, query, message):
        # A malformed \u escape or a non-ASCII digit is the client's
        # syntax error, not an internal one (500).
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            sparql_get(server, query)
        assert excinfo.value.code == 400
        assert message in json.loads(excinfo.value.read())["error"]

    def test_missing_query_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_get(server.url + "/sparql")
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http_get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_not_acceptable_is_406(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            sparql_get(server, QUERY_HEADOF, accept="application/xml")
        assert excinfo.value.code == 406

    def test_healthz(self, server):
        status, _, body = http_get(server.url + "/healthz")
        assert status == 200
        document = json.loads(body)
        assert document["status"] == "ok"
        assert document["workers"] == 2
        assert document["generation"] == server.generation

    def test_metrics_exposition(self, server):
        sparql_get(server, QUERY_HEADOF)
        status, headers, body = http_get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert 'repro_requests_total{status="200"}' in text
        assert "repro_store_generation" in text
        assert "repro_workers 2" in text

    def test_cache_hit_returns_identical_bytes(self, server):
        query = QUERY_UNION + "  # cache-probe"
        _, _, first = sparql_get(server, query)
        before = server.cache.stats()["hits"]
        _, _, second = sparql_get(server, query)
        assert second == first
        assert server.cache.stats()["hits"] == before + 1

    def test_keepalive_requests_do_not_stall(self, server):
        # A response leaves in one sendmsg, so Nagle's algorithm has no
        # second small segment to hold back for the client's delayed ACK
        # (~40 ms per request on a persistent connection); TCP_NODELAY
        # covers a large response that the kernel sends in parts.
        path = "/sparql?" + urllib.parse.urlencode({"query": QUERY_HEADOF})
        connection = http.client.HTTPConnection(
            server.config.host, server.port, timeout=60
        )
        try:
            timings = []
            for _ in range(21):  # the first request warms the result cache
                start = time.perf_counter()
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                timings.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(timings[1:]) < 0.005, timings

    def test_concurrent_mixed_queries_byte_identical(self, server, local_engine):
        queries = [QUERY_HEADOF, QUERY_OPTIONAL, QUERY_UNION] * 3
        expected = {}
        for query in set(queries):
            result = local_engine.execute(query)
            expected[query] = to_json(result.variables, result.solutions).encode()
        failures = []

        def issue(query: str) -> None:
            try:
                _, _, body = sparql_get(server, query)
                if body != expected[query]:
                    failures.append(f"mismatch for {query!r}")
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                failures.append(repr(exc))

        threads = [threading.Thread(target=issue, args=(q,)) for q in queries]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not failures


def raw_exchange(server, data: bytes) -> bytes:
    """Send ``data`` on a fresh socket; return all the server answers
    until it closes the connection."""
    with socket.create_connection((server.config.host, server.port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def raw_status(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def handler_threads():
    return [t for t in threading.enumerate() if t.name == "repro-http-handler"]


class TestFrontDoor:
    """Pooled handler threads, the request-head reader and the one-send
    response."""

    def test_sequential_connections_reuse_handler_threads(self, server):
        sparql_get(server, QUERY_HEADOF)
        before = threading.active_count()
        for _ in range(50):
            status, _, _ = sparql_get(server, QUERY_HEADOF)
            assert status == 200
        assert threading.active_count() <= before + 2

    def test_idle_kept_alive_connections_do_not_starve_a_new_one(self, server):
        path = "/sparql?" + urllib.parse.urlencode({"query": QUERY_HEADOF})
        held = []
        try:
            for _ in range(8):
                connection = http.client.HTTPConnection(
                    server.config.host, server.port, timeout=60
                )
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                held.append(connection)  # kept alive, and now idle
            status, _, _ = sparql_get(server, QUERY_HEADOF, timeout=10)
            assert status == 200
        finally:
            for connection in held:
                connection.close()

    def test_shutdown_leaves_no_handler_thread(self, snapshot_path):
        others = set(handler_threads())  # the module server's

        def own():
            return [t for t in handler_threads() if t not in others]

        config = ServerConfig(data=snapshot_path, port=0, workers=1)
        instance = SparqlServer(config)
        instance.start()
        try:
            threads = []
            for _ in range(3):
                threads.append(threading.Thread(target=sparql_get, args=(instance, QUERY_HEADOF)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert own()
        finally:
            instance.shutdown()
        # Idle threads end in shutdown; one still closing its connection
        # ends as soon as it is done.
        deadline = time.monotonic() + 5.0
        while own() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not own()

    def test_over_long_request_line_is_414(self, server):
        # Exactly one byte over the limit and no line end: the server
        # reads everything sent, so its close cannot reset the reply.
        line = b"GET /" + b"a" * (65537 - 5)
        assert raw_status(raw_exchange(server, line)) == 414

    def test_over_long_header_line_is_431(self, server):
        header = b"X-Long: " + b"a" * (65537 - 8)
        reply = raw_exchange(server, b"GET /healthz HTTP/1.1\r\n" + header)
        assert raw_status(reply) == 431

    def test_more_than_100_headers_is_431(self, server):
        head = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            b"X-H%d: v\r\n" % index for index in range(101)
        )
        assert raw_status(raw_exchange(server, head)) == 431
        # 100 are fine.
        head = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n" + b"".join(
            b"X-H%d: v\r\n" % index for index in range(99)
        )
        assert raw_status(raw_exchange(server, head + b"\r\n")) == 200

    def test_obs_fold_line_is_400(self, server):
        head = b"GET /healthz HTTP/1.1\r\nX-Folded: a\r\n b\r\n"
        assert raw_status(raw_exchange(server, head)) == 400

    def test_http2_is_505(self, server):
        assert raw_status(raw_exchange(server, b"GET /healthz HTTP/2.0\r\n")) == 505

    @pytest.mark.parametrize("name", ["Accept", "accept", "ACCEPT"])
    def test_header_names_are_case_insensitive(self, server, name):
        path = "/sparql?" + urllib.parse.urlencode({"query": QUERY_HEADOF})
        connection = http.client.HTTPConnection(server.config.host, server.port, timeout=60)
        try:
            connection.putrequest("GET", path)
            connection.putheader(name, "text/csv")
            connection.endheaders()
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/csv")

    def test_a_repeated_header_keeps_its_first_value(self, server):
        path = "/sparql?" + urllib.parse.urlencode({"query": QUERY_HEADOF})
        connection = http.client.HTTPConnection(server.config.host, server.port, timeout=60)
        try:
            connection.putrequest("GET", path)
            connection.putheader("Accept", "text/tab-separated-values")
            connection.putheader("Accept", "text/csv")
            connection.endheaders()
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert response.getheader("Content-Type").startswith("text/tab-separated-values")

    def test_a_response_leaves_in_one_send(self, server, monkeypatch):
        sparql_get(server, QUERY_OPTIONAL)  # cached: the next one is a hit
        calls = []
        for method in ("send", "sendall", "sendmsg"):
            original = getattr(socket.socket, method)

            def counted(sock, *args, _method=method, _original=original):
                if sock.getsockname()[1] == server.port:  # the server's side
                    calls.append(_method)
                return _original(sock, *args)

            monkeypatch.setattr(socket.socket, method, counted)
        status, _, body = sparql_get(server, QUERY_OPTIONAL)
        assert status == 200 and body
        assert calls == ["sendmsg"]

    def test_a_partial_send_goes_on_where_it_stopped(self, server, monkeypatch):
        _, _, expected = sparql_get(server, QUERY_OPTIONAL)
        original = socket.socket.sendmsg

        def trickle(sock, buffers, *args):
            if sock.getsockname()[1] != server.port:
                return original(sock, buffers, *args)
            # At most 100 bytes a call, often splitting head or body.
            return original(sock, [b"".join(bytes(b) for b in buffers)[:100]])

        monkeypatch.setattr(socket.socket, "sendmsg", trickle)
        status, headers, body = sparql_get(server, QUERY_OPTIONAL)
        assert status == 200 and headers["X-Repro-Cache"] == "hit"
        assert body == expected and len(body) > 200


class TestTimeoutAndShedding:
    @pytest.fixture(scope="class")
    def strict_server(self, snapshot_path):
        config = ServerConfig(
            data=snapshot_path,
            port=0,
            workers=1,
            timeout=0.75,
            queue_wait=0.2,
            cache_entries=0,
        )
        instance = SparqlServer(config)
        instance.start()
        yield instance
        instance.shutdown()

    def test_slow_query_times_out_and_server_recovers(self, strict_server):
        started = time.perf_counter()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            sparql_get(strict_server, QUERY_SLOW, timeout=30)
        assert excinfo.value.code == 504
        assert time.perf_counter() - started < 10
        # The worker survived (cooperative cancel) or was respawned —
        # either way the endpoint keeps answering.
        status, _, _ = sparql_get(strict_server, QUERY_HEADOF, timeout=60)
        assert status == 200
        assert strict_server.metrics.timeouts_total >= 1

    def test_overload_sheds_with_503(self, strict_server):
        statuses = []
        lock = threading.Lock()

        def issue() -> None:
            try:
                status, _, _ = sparql_get(strict_server, QUERY_SLOW, timeout=30)
            except urllib.error.HTTPError as exc:
                status = exc.code
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=issue) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        # 1 in flight + 2 queued; of 6 slow requests at least one must
        # be refused outright.
        assert 503 in statuses
        assert all(status in (503, 504) for status in statuses)
        # And the endpoint is alive afterwards.
        status, _, _ = sparql_get(strict_server, QUERY_HEADOF, timeout=60)
        assert status == 200


class TestIngestionGuards:
    def test_oversized_post_body_is_413(self, snapshot_path):
        config = ServerConfig(
            data=snapshot_path, port=0, workers=1, max_body_bytes=64
        )
        with SparqlServer(config) as instance:
            request = urllib.request.Request(
                instance.url + "/sparql",
                data=b"query=" + b"#" * 200,
                headers={"Content-Type": "application/x-www-form-urlencoded"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 413
            # Small bodies still work on the same server.
            status, _, _ = sparql_get(instance, QUERY_HEADOF)
            assert status == 200

    def test_bind_failure_raises_cleanly(self, server):
        # The listener binds before any worker spawns, so a taken port
        # surfaces as OSError from the constructor (and `repro serve`
        # turns it into `error: …` + exit 2) with no leaked processes.
        with pytest.raises(OSError):
            SparqlServer(dataclasses.replace(server.config, port=server.port))


class TestGenerationDrift:
    def test_drift_clears_and_bypasses_cache(self, snapshot_path):
        """After a respawned worker reports a different generation the
        cache is cleared and bypassed — stale hits become impossible,
        at the price of caching (correct-by-construction degradation)."""
        config = ServerConfig(data=snapshot_path, port=0, workers=1)
        with SparqlServer(config) as instance:
            sparql_get(instance, QUERY_HEADOF)
            assert len(instance.cache) == 1
            instance._on_generation_drift(instance.generation + 7)
            assert instance.generation_mixed
            assert len(instance.cache) == 0
            status, _, _ = sparql_get(instance, QUERY_HEADOF)  # still serves
            assert status == 200
            assert len(instance.cache) == 0  # and never re-populates
            _, _, body = http_get(instance.url + "/healthz")
            assert json.loads(body)["generation_mixed"] is True


class TestGenerationHeader:
    def test_a_miss_names_the_generation_it_was_served_at(self, snapshot_path, monkeypatch):
        """An update that commits while a miss executes must not relabel
        the miss: the client would believe the read includes that write."""
        config = ServerConfig(data=snapshot_path, port=0, workers=1, cache_entries=8)
        with SparqlServer(config) as instance:
            served = instance.generation
            execute = instance.pool.execute

            def execute_then_commit(*args, **kwargs):
                reply = execute(*args, **kwargs)
                instance.generation += 1  # a racing update commits
                return reply

            monkeypatch.setattr(instance.pool, "execute", execute_then_commit)
            _, headers, _ = sparql_get(instance, QUERY_HEADOF)
            assert headers["X-Repro-Cache"] == "miss"
            assert headers["X-Repro-Generation"] == str(served)


class TestWorkerRecovery:
    def test_killed_worker_is_respawned(self, snapshot_path):
        config = ServerConfig(data=snapshot_path, port=0, workers=1, timeout=5.0)
        restarts = []
        pool = WorkerPool(config, on_restart=lambda: restarts.append(1))
        try:
            first = pool.execute(QUERY_HEADOF, "json")
            assert first.kind == "ok"
            # Simulate a crashed worker under the pool's feet.
            victim = pool._workers[0]
            victim.proc.kill()
            victim.proc.join(10)
            reply = pool.execute(QUERY_HEADOF, "json")
            # The dead worker is detected and replaced as part of the
            # failing call; the next call runs on the fresh worker.
            assert reply.kind in ("ok", "error")
            healed = pool.execute(QUERY_HEADOF, "json")
            assert healed.kind == "ok"
            assert restarts, "restart callback never fired"
            assert pool.alive == 1
        finally:
            pool.close()


# ----------------------------------------------------------------------
# multi-frame answers: relayed frame by frame, or read whole for the cache
# ----------------------------------------------------------------------
#: Every triple of LUBM u1: 12 902 rows, four frames of CHUNK_ROWS rows.
QUERY_ALL = "SELECT * WHERE { ?s ?p ?o }"
#: Three times those rows, about 10 MB of JSON: more than the loopback
#: socket buffers hold, so relaying it blocks on a client that does not
#: read, with frames still in the worker's pipe.
QUERY_ALL_THRICE = (
    "SELECT * WHERE { { ?s ?p ?o } UNION { ?s ?p ?o } UNION { ?s ?p ?o } }"
)
SERIALIZE = {"json": to_json, "csv": to_csv, "tsv": to_tsv}


@pytest.fixture(scope="module")
def expected_bodies(local_engine):
    """(query, format) → the body the single-process path renders."""
    bodies = {}
    for query in (QUERY_ALL, QUERY_ALL_THRICE):
        result = local_engine.execute(query)
        assert len(result) > CHUNK_ROWS
        for fmt, serialize in SERIALIZE.items():
            bodies[query, fmt] = serialize(result.variables, result.solutions).encode()
    return bodies


def relay_config(snapshot_path, **overrides) -> ServerConfig:
    """One worker, so the next request is served by the same worker
    (or its replacement), and no result cache, so every multi-frame
    answer is relayed."""
    fields = dict(data=snapshot_path, port=0, workers=1, timeout=10.0, cache_entries=0)
    fields.update(overrides)
    return ServerConfig(**fields)


def request_bytes(query: str, fmt: str = "json") -> bytes:
    target = "/sparql?" + urllib.parse.urlencode({"query": query, "format": fmt})
    return f"GET {target} HTTP/1.1\r\nHost: test\r\n\r\n".encode()


def stalled_client(server, query: str) -> socket.socket:
    """A client that asks for ``query`` through a 16 KiB receive buffer
    and reads nothing yet; returns once the relay holds the worker."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
    sock.settimeout(30)
    sock.connect((server.config.host, server.port))
    sock.sendall(request_bytes(query))
    wait_for(lambda: server.pool._idle.qsize() == 0, "the relay to lease the worker")
    return sock


def read_until_closed(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def wait_for(condition, what: str, seconds: float = 30.0) -> float:
    """Poll ``condition``; returns the seconds it took."""
    started = time.monotonic()
    while not condition():
        assert time.monotonic() - started < seconds, f"timed out waiting for {what}"
        time.sleep(0.02)
    return time.monotonic() - started


def worker_pids(server):
    return [worker.proc.pid for worker in server.pool._workers]


def assert_serves_the_next_answer(server, expected_bodies) -> None:
    """The next request's whole, correct answer: a pipe left out of step
    would hand it the remains of the one before."""
    _, headers, body = sparql_get(server, QUERY_ALL)
    assert headers["X-Repro-Cache"] == "miss"
    assert body == expected_bodies[QUERY_ALL, "json"]


class TestRelayedReplies:
    @pytest.fixture(scope="class")
    def relay_server(self, snapshot_path):
        with SparqlServer(relay_config(snapshot_path)) as instance:
            yield instance

    @pytest.mark.parametrize("fmt", ["json", "csv", "tsv"])
    def test_bodies_are_byte_identical(self, relay_server, server, expected_bodies, fmt):
        expected = expected_bodies[QUERY_ALL, fmt]
        # Cache off: relayed frame by frame, every time.
        for _ in range(2):
            _, headers, body = sparql_get(relay_server, QUERY_ALL, extra_params={"format": fmt})
            assert headers["X-Repro-Cache"] == "miss"
            assert int(headers["Content-Length"]) == len(expected)
            assert body == expected
        # Cache on: the miss is read whole and admitted, then hit.
        for cache in ("miss", "hit"):
            _, headers, body = sparql_get(server, QUERY_ALL, extra_params={"format": fmt})
            assert headers["X-Repro-Cache"] == cache
            assert body == expected
        # The pool's own entry point reads every frame.
        reply = relay_server.pool.execute(QUERY_ALL, fmt)
        assert reply.kind == "ok" and reply.payload == expected

    def test_parent_never_holds_the_whole_payload(self, relay_server, expected_bodies):
        """The parent's traced peak (handler thread and client alike, in
        this process) while it serves a four-frame answer stays below
        the payload: reading the answer whole, as one pickled reply did,
        peaks at twice the payload or more."""
        import tracemalloc

        payload = len(expected_bodies[QUERY_ALL, "json"])
        connection = http.client.HTTPConnection(
            relay_server.config.host, relay_server.port, timeout=60
        )
        try:
            target = "/sparql?" + urllib.parse.urlencode({"query": QUERY_ALL})
            peaks = []
            for _ in range(2):  # the first request warms the parent's caches
                tracemalloc.start()
                try:
                    connection.request("GET", target)
                    response = connection.getresponse()
                    received = 0
                    while piece := response.read(65536):
                        received += len(piece)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert received == payload
        finally:
            connection.close()
        assert peaks[-1] < payload, (peaks, payload)

    def test_a_client_closing_mid_body_drains_the_frames(self, relay_server, expected_bodies):
        restarts = relay_server.metrics.worker_restarts_total
        pids = worker_pids(relay_server)
        sock = stalled_client(relay_server, QUERY_ALL_THRICE)
        assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK")
        sock.close()  # unread bytes: the close resets the connection
        wait_for(lambda: relay_server.pool._idle.qsize() == 1, "the worker to go back")
        assert_serves_the_next_answer(relay_server, expected_bodies)
        assert relay_server.metrics.worker_restarts_total == restarts
        assert worker_pids(relay_server) == pids

    def test_a_client_that_stops_reading_holds_its_worker_until_the_socket_timeout(
        self, relay_server, expected_bodies, monkeypatch
    ):
        from repro.server import app

        monkeypatch.setattr(app, "_SOCKET_TIMEOUT", 1.0)
        restarts = relay_server.metrics.worker_restarts_total
        sock = stalled_client(relay_server, QUERY_ALL_THRICE)
        try:
            held = wait_for(
                lambda: relay_server.pool._idle.qsize() == 1, "the socket timeout", 15.0
            )
            assert held >= 0.5  # the stall held the worker, as long as the timeout
            # The server gave up on the connection: what it sent is a
            # truncated body, then the close.
            reply = read_until_closed(sock)
            head, _, body = reply.partition(b"\r\n\r\n")
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            assert 0 < len(body) < length
        finally:
            sock.close()
        assert_serves_the_next_answer(relay_server, expected_bodies)
        assert relay_server.metrics.worker_restarts_total == restarts

    def test_a_client_that_reads_slowly_holds_its_worker_no_longer_than_the_lease(
        self, snapshot_path, expected_bodies
    ):
        """Each partial send restarts the socket timeout, so a client
        that keeps taking a little is cut off by the lease's deadline."""
        config = relay_config(snapshot_path, timeout=3.0, grace=0.5)
        with SparqlServer(config) as instance:
            sock = stalled_client(instance, QUERY_ALL_THRICE)
            try:
                received = []
                started = time.monotonic()
                while instance.pool._idle.qsize() == 0:
                    assert time.monotonic() - started < 15, "the worker never came back"
                    received.append(sock.recv(2048))
                    time.sleep(0.02)
                held = time.monotonic() - started
                reply = b"".join(received) + read_until_closed(sock)
            finally:
                sock.close()
            assert held < config.hard_timeout + 1.0
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert 0 < len(body) < len(expected_bodies[QUERY_ALL_THRICE, "json"])
            assert_serves_the_next_answer(instance, expected_bodies)
            assert instance.metrics.worker_restarts_total == 0

    def test_a_fault_before_the_outcome_still_releases_the_worker(
        self, relay_server, expected_bodies, monkeypatch
    ):
        from repro.server import app

        def failing_entry(*args, **kwargs):
            raise RuntimeError("injected")

        restarts = relay_server.metrics.worker_restarts_total
        monkeypatch.setattr(app, "CachedResult", failing_entry)
        monkeypatch.setattr(relay_server._httpd, "handle_error", lambda *args: None)
        assert raw_exchange(relay_server, request_bytes(QUERY_ALL)) == b""
        monkeypatch.undo()
        wait_for(lambda: relay_server.pool._idle.qsize() == 1, "the worker to go back")
        assert_serves_the_next_answer(relay_server, expected_bodies)
        assert relay_server.metrics.worker_restarts_total == restarts

    def test_a_worker_killed_mid_frames_is_replaced(self, relay_server, expected_bodies):
        restarts = relay_server.metrics.worker_restarts_total
        sock = stalled_client(relay_server, QUERY_ALL_THRICE)
        try:
            first = sock.recv(65536)
            assert first.startswith(b"HTTP/1.1 200 OK")
            victim = relay_server.pool._workers[0]
            victim.proc.kill()
            victim.proc.join(10)
            body = (first + read_until_closed(sock)).partition(b"\r\n\r\n")[2]
            assert 0 < len(body) < len(expected_bodies[QUERY_ALL_THRICE, "json"])
        finally:
            sock.close()
        wait_for(
            lambda: relay_server.metrics.worker_restarts_total == restarts + 1
            and relay_server.pool.alive == 1,
            "the roster to heal",
        )
        assert victim.proc.pid not in worker_pids(relay_server)
        assert_serves_the_next_answer(relay_server, expected_bodies)

    def test_an_injected_respond_error_drains_the_frames(self, snapshot_path, expected_bodies):
        config = relay_config(snapshot_path, faults="server.respond:io_error@1")
        with SparqlServer(config) as instance:
            pids = worker_pids(instance)
            reply = raw_exchange(instance, request_bytes(QUERY_ALL))
            assert reply == b""  # closed before the head went out
            wait_for(lambda: instance.pool._idle.qsize() == 1, "the worker to go back")
            assert_serves_the_next_answer(instance, expected_bodies)
            assert instance.metrics.worker_restarts_total == 0
            assert worker_pids(instance) == pids

    @pytest.mark.parametrize("frame", [1, 2])
    def test_a_recv_fault_at_a_raw_frame_replaces_the_worker(
        self, snapshot_path, expected_bodies, frame
    ):
        # Hit 1 receives the reply's frame sizes; hit 1 + n reads frame n.
        config = relay_config(snapshot_path, faults=f"worker.recv:io_error@{frame + 1}")
        with SparqlServer(config) as instance:
            pids = worker_pids(instance)
            if frame == 1:
                # Nothing of the answer was read: the request fails whole.
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    sparql_get(instance, QUERY_ALL)
                assert excinfo.value.code == 500
                assert b"worker died mid-query" in excinfo.value.read()
            else:
                reply = raw_exchange(instance, request_bytes(QUERY_ALL))
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 OK")
                assert 0 < len(body) < len(expected_bodies[QUERY_ALL, "json"])
            wait_for(
                lambda: instance.metrics.worker_restarts_total == 1
                and instance.pool.alive == 1,
                "the roster to heal",
            )
            assert worker_pids(instance) != pids
            assert_serves_the_next_answer(instance, expected_bodies)

    @pytest.fixture
    def live_copy(self, snapshot_path, tmp_path):
        """A copy of the snapshot that updates may be written against."""
        import shutil

        data = str(tmp_path / "live.snap")
        shutil.copy(snapshot_path, data)
        return data

    def test_an_update_during_a_stalled_relay_reaches_the_next_answer(self, live_copy):
        """The relay is cut at its lease's deadline, inside the update
        broadcast's wait, so the broadcast collects the worker."""
        insert = f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}"
        with SparqlServer(relay_config(live_copy, timeout=3.0, grace=0.5)) as instance:
            sock = stalled_client(instance, QUERY_ALL_THRICE)
            try:
                status, outcome = post_update(instance, insert)
            finally:
                sock.close()
            assert status == 200 and outcome["workers_confirmed"] == 1
            assert len(_live_rows(instance)) == 1
            assert instance.metrics.worker_restarts_total == 0

    def test_a_worker_leased_through_an_update_is_replaced_when_it_returns(
        self, live_copy
    ):
        """A broadcast that cannot collect a leased worker marks it, and
        giving it back respawns it through the log instead of putting
        it back in the idle queue at the old generation."""
        insert = f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}"
        with SparqlServer(relay_config(live_copy, timeout=0.5, grace=0.5)) as instance:
            pool = instance.pool
            held = pool._lease()
            try:
                status, outcome = post_update(instance, insert)
            finally:
                pool._release(held, broken=False)
            assert status == 200 and outcome["workers_confirmed"] == 0
            wait_for(
                lambda: instance.metrics.worker_restarts_total == 1
                and pool._idle.qsize() == 1,
                "the lagging worker's replacement",
            )
            assert held.proc.pid not in worker_pids(instance)
            assert len(_live_rows(instance)) == 1


# ----------------------------------------------------------------------
# stale lookup (regression: LRU order is not data freshness)
# ----------------------------------------------------------------------
class TestStaleLookup:
    def test_get_stale_prefers_highest_generation(self):
        """get_stale must return the freshest *generation*'s answer.  The
        cache holds one entry per (format, query), so a late put from an
        older generation (a slow worker finishing after a faster one
        served newer data) must not displace the newer answer, and a
        client asking at the older generation must not touch it."""
        cache = ResultCache(max_entries=8)
        cache.put(1, "json", "q", _entry(b"gen1"))
        cache.put(3, "json", "q", _entry(b"gen3"))
        assert not cache.put(2, "json", "q", _entry(b"gen2"))
        assert cache.get(1, "json", "q") is None
        stale = cache.get_stale("json", "q")
        assert stale is not None
        assert stale.payload == b"gen3"

    def test_get_stale_matches_format_and_query(self):
        cache = ResultCache(max_entries=8)
        cache.put(5, "json", "q", _entry(b"json-q"))
        cache.put(9, "csv", "q", _entry(b"csv-q"))
        cache.put(9, "json", "other", _entry(b"json-other"))
        assert cache.get_stale("json", "q").payload == b"json-q"
        assert cache.get_stale("tsv", "q") is None


# ----------------------------------------------------------------------
# update protocol unit tests (no socket)
# ----------------------------------------------------------------------
class TestParseUpdateRequest:
    def test_post_form(self):
        body = urllib.parse.urlencode({"update": "INSERT DATA { <u:a> <u:b> <u:c> }"})
        text = parse_update_request(
            "POST", {"Content-Type": "application/x-www-form-urlencoded"}, body.encode()
        )
        assert "INSERT DATA" in text

    def test_post_direct(self):
        text = parse_update_request(
            "POST",
            {"Content-Type": "application/sparql-update; charset=utf-8"},
            b"DELETE DATA { <u:a> <u:b> <u:c> }",
        )
        assert text.startswith("DELETE DATA")

    def test_get_is_405(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_update_request("GET", {}, b"")
        assert excinfo.value.status == 405

    def test_missing_form_parameter_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_update_request(
                "POST", {"Content-Type": "application/x-www-form-urlencoded"}, b"query=x"
            )
        assert excinfo.value.status == 400

    def test_wrong_content_type_is_415(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_update_request("POST", {"Content-Type": "text/plain"}, b"x")
        assert excinfo.value.status == 415

    def test_percent_encoded_invalid_utf8_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_update_request(
                "POST",
                {"Content-Type": "application/x-www-form-urlencoded"},
                b"update=INSERT+DATA+%7B+%3Cu%3Aa%3E+%3Cu%3Ab%3E+%22caf%E9%22+%7D",
            )
        assert excinfo.value.status == 400
        assert "not valid UTF-8" in str(excinfo.value)

    def test_empty_update_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_update_request(
                "POST", {"Content-Type": "application/sparql-update"}, b"  "
            )
        assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# live writes over HTTP
# ----------------------------------------------------------------------
def http_post(url, body, content_type, timeout=60):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": content_type}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def post_update(server, text, timeout=60):
    status, _, body = http_post(
        server.url + "/update", text.encode("utf-8"), "application/sparql-update", timeout
    )
    return status, json.loads(body)


EX = "http://example.org/live#"
LIVE_QUERY = f"SELECT ?s ?o WHERE {{ ?s <{EX}linked> ?o }}"


def _live_rows(server):
    status, _, body = sparql_get(server, LIVE_QUERY)
    assert status == 200
    return json.loads(body)["results"]["bindings"]


class TestLiveUpdates:
    @pytest.fixture
    def rw_server(self, snapshot_path, tmp_path):
        import shutil

        data = str(tmp_path / "live.snap")
        shutil.copy(snapshot_path, data)
        config = ServerConfig(
            data=data, port=0, workers=2, timeout=15.0, cache_entries=32
        )
        with SparqlServer(config) as instance:
            yield instance

    def test_insert_delete_and_generation(self, rw_server):
        generation0 = rw_server.generation
        assert _live_rows(rw_server) == []

        status, outcome = post_update(
            rw_server,
            f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> . "
            f"<{EX}b> <{EX}linked> <{EX}c> }}",
        )
        assert status == 200
        assert outcome["added"] == 2 and outcome["removed"] == 0
        assert outcome["changed"] is True
        assert outcome["workers_confirmed"] == 2
        assert outcome["generation"] > generation0
        # Committed writes are visible to reads with no restart, no
        # snapshot rebuild, and still through the frozen read paths.
        assert len(_live_rows(rw_server)) == 2

        # The generation-keyed cache invalidated structurally: the new
        # rows appear even though the old result was cached.
        status, outcome = post_update(
            rw_server, f"DELETE DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}"
        )
        assert status == 200
        assert outcome["removed"] == 1
        rows = _live_rows(rw_server)
        assert len(rows) == 1
        assert rows[0]["s"]["value"] == f"{EX}b"

        _, _, body = http_get(rw_server.url + "/healthz")
        health = json.loads(body)
        assert health["generation"] == rw_server.generation
        assert health["pending_updates"] == 2
        assert health["generation_mixed"] is False

    def test_noop_update_commits_nothing(self, rw_server):
        post_update(rw_server, f"INSERT DATA {{ <{EX}x> <{EX}linked> <{EX}y> }}")
        generation = rw_server.generation
        # Re-inserting the same triple changes nothing: no generation
        # bump, no broadcast, no cache invalidation (the write-path
        # invalidation fix).
        status, outcome = post_update(
            rw_server, f"INSERT DATA {{ <{EX}x> <{EX}linked> <{EX}y> }}"
        )
        assert status == 200
        assert outcome["added"] == 0 and outcome["removed"] == 0
        assert outcome["changed"] is False
        assert outcome["workers_confirmed"] == 0
        assert rw_server.generation == generation

    def test_unrelated_write_keeps_cached_answers(self, rw_server):
        assert _live_rows(rw_server) == []
        other = f"SELECT ?o WHERE {{ <{EX}a> <{EX}other> ?o }}"
        sparql_get(rw_server, other)
        post_update(rw_server, f"INSERT DATA {{ <{EX}a> <{EX}other> <{EX}b> }}")
        # LIVE_QUERY's only pattern, ?s <linked> ?o, cannot match the write.
        _, headers, body = sparql_get(rw_server, LIVE_QUERY)
        assert headers["X-Repro-Cache"] == "hit"
        assert headers["X-Repro-Generation"] == str(rw_server.generation)
        assert json.loads(body)["results"]["bindings"] == []
        _, headers, body = sparql_get(rw_server, other)
        assert headers["X-Repro-Cache"] == "miss"
        assert len(json.loads(body)["results"]["bindings"]) == 1
        text = http_get(rw_server.url + "/metrics")[2].decode()
        assert "repro_cache_revalidated_total 1\n" in text
        assert 'repro_cache_invalidated_total{reason="changed"} 1\n' in text
        assert 'repro_cache_invalidated_total{reason="log_gap"} 0\n' in text
        health = json.loads(http_get(rw_server.url + "/healthz")[2])
        assert health["cache"]["revalidated"] == 1
        assert health["cache"]["invalidated"]["changed"] == 1

    def test_where_driven_modify(self, rw_server):
        post_update(
            rw_server,
            f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> . "
            f"<{EX}c> <{EX}linked> <{EX}d> }}",
        )
        status, outcome = post_update(
            rw_server,
            f"DELETE {{ ?s <{EX}linked> ?o }} INSERT {{ ?o <{EX}linked> ?s }} "
            f"WHERE {{ ?s <{EX}linked> ?o }}",
        )
        assert status == 200
        assert outcome["added"] == 2 and outcome["removed"] == 2
        subjects = sorted(row["s"]["value"] for row in _live_rows(rw_server))
        assert subjects == [f"{EX}b", f"{EX}d"]

    def test_update_errors(self, rw_server):
        request = urllib.request.Request(
            rw_server.url + "/update",
            data=b"INSERT DATA { this is not sparql",
            headers={"Content-Type": "application/sparql-update"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        request = urllib.request.Request(
            rw_server.url + "/update",
            data=b"LOAD <http://example.org/file.nt>",
            headers={"Content-Type": "application/sparql-update"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        generation = rw_server.generation
        request = urllib.request.Request(
            rw_server.url + "/update",
            data=f"update=INSERT+DATA+%7B+%3C{EX}a%3E+%3C{EX}name%3E+%22caf%E9%22+%7D".encode(),
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert b"not valid UTF-8" in excinfo.value.read()
        assert rw_server.generation == generation

    def test_lexical_errors_are_400_and_release_the_update_lock(self, rw_server):
        def rejected(body):
            request = urllib.request.Request(
                rw_server.url + "/update",
                data=body,
                headers={"Content-Type": "application/sparql-update"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            return excinfo.value.code, json.loads(excinfo.value.read())["error"]

        generation = rw_server.generation
        # Every lexical error gets a response, not a closed connection.
        status, message = rejected(b'INSERT DATA { <http://a> <http://b> "x\\u12" }')
        assert status == 400 and "invalid escape \\u" in message
        # Each '<' probes for an IRI under the update lock: the probes
        # must stay linear so the lock is released within the bound.
        started = time.perf_counter()
        status, message = rejected(b"<" * (1 << 20))
        assert time.perf_counter() - started < 5.0
        assert status == 400 and message.startswith("expected an update operation")
        assert rw_server.generation == generation
        status, outcome = post_update(rw_server, f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}")
        assert status == 200 and outcome["added"] == 1

    def test_update_of_braces_is_rejected_at_its_first_token(self, rw_server):
        # The parser pulls tokens lazily: a 2 MiB body of one-character
        # tokens is rejected at its first token, not after lexing all.
        request = urllib.request.Request(
            rw_server.url + "/update",
            data=b"{" * (2 << 20),
            headers={"Content-Type": "application/sparql-update"},
        )
        generation = rw_server.generation
        started = time.perf_counter()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert time.perf_counter() - started < 0.5
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"].startswith(
            "expected an update operation"
        )
        assert rw_server.generation == generation

    def test_compaction_folds_delta_and_truncates_replay(self, snapshot_path, tmp_path):
        import shutil

        data = str(tmp_path / "compact.snap")
        shutil.copy(snapshot_path, data)
        config = ServerConfig(
            data=data, port=0, workers=1, timeout=15.0, compact_threshold=1
        )
        with SparqlServer(config) as instance:
            status, outcome = post_update(
                instance, f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}"
            )
            assert status == 200 and outcome["changed"] is True
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if (
                    instance.metrics.compactions_total
                    and instance.pool.pending_replay == 0
                ):
                    break
                time.sleep(0.05)
            assert instance.metrics.compactions_total == 1
            assert instance.pool.pending_replay == 0
            # The data file now persists the post-update generation and
            # the folded triple; a cold store sees both.
            compacted = TripleStore.load(data)
            try:
                assert compacted.generation == instance.generation
                from repro.rdf import IRI, TriplePattern

                pattern = TriplePattern(
                    IRI(f"{EX}a"), IRI(f"{EX}linked"), IRI(f"{EX}b")
                )
                assert len(list(compacted.match(pattern))) == 1
            finally:
                compacted.close()
            # Queries still answer after compaction.
            assert len(_live_rows(instance)) == 1

    def test_compaction_refuses_an_ntriples_data_file(self, tmp_path, capsys):
        """Compaction publishes a binary snapshot over the data file, so
        a positive threshold on an N-Triples file refuses to start
        rather than overwrite the user's text."""
        from repro.rdf.ntriples import dump_ntriples
        from repro.server import serve
        from repro.storage.snapshot import SnapshotError

        data = str(tmp_path / "data.nt")
        dump_ntriples(generate_lubm(universities=1, seed=42), data)
        before = open(data, "rb").read()
        config = ServerConfig(
            data=data, port=0, workers=1, timeout=15.0, compact_threshold=1
        )
        with pytest.raises(SnapshotError, match="repro snapshot build"):
            with SparqlServer(config):
                pass
        assert serve(config) == 2
        assert "repro snapshot build" in capsys.readouterr().err
        assert open(data, "rb").read() == before

    def test_respawned_worker_replays_updates(self, rw_server):
        post_update(rw_server, f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}")
        # Kill one worker; the pool heals it and must replay the update
        # before the replacement serves.
        victim = rw_server.pool._workers[0]
        victim.proc.kill()
        victim.proc.join(10)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if rw_server.pool.alive == 2 and all(
                w.generation == rw_server.generation
                for w in rw_server.pool._workers
                if w.generation is not None
            ):
                break
            # Touch the pool so the dead worker is detected promptly; a
            # query landing on the corpse yields a transient 500.
            try:
                sparql_get(rw_server, LIVE_QUERY)
            except urllib.error.HTTPError:
                pass
            time.sleep(0.1)
        assert rw_server.pool.alive == 2
        # Every query — whichever worker serves it — sees the write.
        for _ in range(4):
            assert len(_live_rows(rw_server)) == 1
        assert rw_server.generation_mixed is False


# ----------------------------------------------------------------------
# durability: WAL-backed acked-means-durable updates
# ----------------------------------------------------------------------
class TestDurability:
    def _config(self, data, wal, **overrides):
        defaults = dict(
            data=data, port=0, workers=2, timeout=15.0, wal=wal,
            wal_fsync="interval",
        )
        defaults.update(overrides)
        return ServerConfig(**defaults)

    @pytest.fixture
    def live_paths(self, snapshot_path, tmp_path):
        import shutil

        data = str(tmp_path / "durable.snap")
        shutil.copy(snapshot_path, data)
        return data, str(tmp_path / "durable.wal")

    def _crash(self, instance):
        """Tear the server down the way kill -9 would look from the
        next process: no drain, no WAL close, no pool farewell."""
        instance._httpd.shutdown()
        instance._httpd.server_close()
        instance.pool.close()

    def test_acked_updates_survive_crash_and_restart(self, live_paths):
        data, wal = live_paths
        instance = SparqlServer(self._config(data, wal))
        instance.start()
        try:
            for name in ("b", "c"):
                status, outcome = post_update(
                    instance, f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}{name}> }}"
                )
                assert status == 200 and outcome["changed"] is True
            generation = instance.generation
        finally:
            self._crash(instance)

        with SparqlServer(self._config(data, wal)) as recovered:
            # The snapshot on disk never saw the updates (no compaction
            # ran); the WAL replay alone restores the acked state.
            assert recovered.generation == generation
            assert recovered.wal_recoveries == 1
            assert recovered.recovered_torn_tail is False
            objects = sorted(row["o"]["value"] for row in _live_rows(recovered))
            assert objects == [f"{EX}b", f"{EX}c"]
            # The recovery is traced for the obs layer.
            assert recovered.recovery_trace is not None
            assert recovered.recovery_trace["name"] == "wal_recovery"

    def test_healthz_and_metrics_surface_wal_state(self, live_paths):
        data, wal = live_paths
        with SparqlServer(self._config(data, wal)) as instance:
            post_update(instance, f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}")
            _, _, body = http_get(instance.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["wal_depth"] == 1
            assert health["recovered_torn_tail"] is False
            _, _, body = http_get(instance.url + "/metrics")
            text = body.decode()
            assert "repro_wal_enabled 1" in text
            assert "repro_wal_depth 1" in text
            assert "repro_wal_records_total 1" in text
            assert "repro_wal_recoveries_total 0" in text
            assert "repro_wal_fsync_seconds_count" in text

    def test_wal_disabled_metrics_render_zeros(self, server):
        _, _, body = http_get(server.url + "/metrics")
        text = body.decode()
        assert "repro_wal_enabled 0" in text
        _, _, body = http_get(server.url + "/healthz")
        health = json.loads(body)
        assert health["wal_depth"] == 0

    def test_torn_tail_recovery_is_degraded_but_serving(self, live_paths):
        data, wal = live_paths
        instance = SparqlServer(self._config(data, wal))
        instance.start()
        try:
            for name in ("b", "c"):
                post_update(
                    instance, f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}{name}> }}"
                )
        finally:
            self._crash(instance)
        # The crash tore the final frame mid-append.
        blob = open(wal, "rb").read()
        open(wal, "wb").write(blob[:-4])

        with SparqlServer(self._config(data, wal)) as recovered:
            assert recovered.recovered_torn_tail is True
            # The complete first frame replayed; the torn second is cut.
            objects = [row["o"]["value"] for row in _live_rows(recovered)]
            assert objects == [f"{EX}b"]
            _, _, body = http_get(recovered.url + "/healthz")
            health = json.loads(body)
            assert health["status"] == "degraded"
            assert health["recovered_torn_tail"] is True
            _, _, body = http_get(recovered.url + "/metrics")
            assert "repro_wal_recoveries_total 1" in body.decode()

    def test_corrupt_wal_refuses_startup(self, live_paths):
        from repro.storage.wal import WalCorruptError

        data, wal = live_paths
        instance = SparqlServer(self._config(data, wal))
        instance.start()
        try:
            post_update(instance, f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}")
        finally:
            self._crash(instance)
        blob = bytearray(open(wal, "rb").read())
        blob[-6] ^= 0xFF  # inside the frame payload: CRC now wrong
        open(wal, "wb").write(bytes(blob))
        with pytest.raises(WalCorruptError):
            SparqlServer(self._config(data, wal))

    def test_respawned_worker_streams_replay_from_wal(self, live_paths):
        data, wal = live_paths
        with SparqlServer(self._config(data, wal)) as instance:
            post_update(instance, f"INSERT DATA {{ <{EX}a> <{EX}linked> <{EX}b> }}")
            # pending_replay reads the log's depth.
            assert instance.pool.pending_replay == 1
            victim = instance.pool._workers[0]
            victim.proc.kill()
            victim.proc.join(10)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if instance.pool.alive == 2 and all(
                    w.generation == instance.generation
                    for w in instance.pool._workers
                    if w.generation is not None
                ):
                    break
                try:
                    sparql_get(instance, LIVE_QUERY)
                except urllib.error.HTTPError:
                    pass
                time.sleep(0.1)
            assert instance.pool.alive == 2
            for _ in range(4):
                assert len(_live_rows(instance)) == 1

    def test_replay_log_without_wal_is_temporary(self, snapshot_path, tmp_path, monkeypatch):
        """WAL off: respawns replay from a temporary log that neither a
        failed startup nor a normal shutdown leaves behind."""
        import tempfile

        from repro.server.pool import PoolError

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def leftovers():
            return sorted(path.name for path in tmp_path.glob("repro-replay-*"))

        missing = ServerConfig(data=str(tmp_path / "missing.snap"), port=0, workers=1)
        with pytest.raises(PoolError):
            SparqlServer(missing)
        assert leftovers() == []

        config = ServerConfig(data=snapshot_path, port=0, workers=1, timeout=15.0)
        with SparqlServer(config) as instance:
            assert leftovers() == [os.path.basename(instance.wal.path)]
        assert leftovers() == []
