"""Observability tests: spans, templates, slow-query log, HTTP tracing.

Unit tests cover the :mod:`repro.obs` pieces in isolation (tracer
nesting and abort semantics, constant lifting, the bounded registry,
the size-bounded JSONL log).  Engine-level tests assert the span tree
is well-formed across both BGP engines and under LIMIT
early-exit and timeout abort.  HTTP tests run a real server and check
the full propagation story: header-activated traces stitched across
the pool under one request id, cache-hit counters, the
``/debug/templates`` registry, the slow-query log on disk, and a
Prometheus text-format lint of the whole ``/metrics`` exposition.
"""

from __future__ import annotations

import contextlib
import json
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import SparqlUOEngine
from repro.datasets.lubm import generate_lubm
from repro.obs import SlowQueryLog, TemplateRegistry, lift_template, render_trace
from repro.obs import trace as obs_trace
from repro.rdf import Dataset, IRI, Literal, dump_ntriples
from repro.server import ServerConfig, SparqlServer
from repro.server.app import _Handler
from repro.sparql.errors import QueryTimeoutError
from repro.sparql.parser import is_update_request, parse_query
from repro.storage import TripleStore

EX = "http://example.org/"
UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
QUERY_SLOW = "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i }"


@pytest.fixture(autouse=True)
def _always_disarmed():
    """No test may leak an armed process-global tracer."""
    yield
    obs_trace.disarm()


def _small_dataset() -> Dataset:
    d = Dataset()
    for i in range(12):
        d.add_spo(IRI(EX + f"s{i}"), IRI(EX + "p"), IRI(EX + f"o{i % 3}"))
        d.add_spo(IRI(EX + f"s{i}"), IRI(EX + "name"), Literal(f"n{i}"))
        d.add_spo(
            IRI(EX + f"s{i}"),
            IRI(EX + "score"),
            Literal(str(i), datatype="http://www.w3.org/2001/XMLSchema#integer"),
        )
    return d


@pytest.fixture(scope="module")
def small_store():
    return TripleStore.from_dataset(_small_dataset())


def assert_well_formed(node, _path="root"):
    """Every span: a name, a closed non-negative ms, recursive children."""
    assert isinstance(node, dict), _path
    assert isinstance(node.get("name"), str) and node["name"], _path
    assert isinstance(node.get("ms"), (int, float)) and node["ms"] >= 0, _path
    for index, child in enumerate(node.get("children", ())):
        assert_well_formed(child, f"{_path}/{node['name']}[{index}]")
    json.dumps(node)  # the wire representation must serialize


def span_names(node):
    names = [node.get("name")]
    for child in node.get("children", ()):
        names.extend(span_names(child))
    return names


class _CountingTracer(obs_trace.Tracer):
    """A real tracer that also counts every call an armed site makes."""

    ops = 0

    def begin(self, name, **meta):
        self.ops += 1
        return super().begin(name, **meta)

    def end(self, **meta):
        self.ops += 1
        super().end(**meta)

    def annotate(self, **meta):
        self.ops += 1
        super().annotate(**meta)

    def graft(self, subtree):
        self.ops += 1
        super().graft(subtree)


#: A filter-heavy COUNT over thousands of LUBM rows: scan, kernel
#: filter and group fold all run per row underneath their sites.
FILTER_HEAVY_COUNT = (
    f"SELECT (COUNT(*) AS ?n) WHERE {{ ?s a <{UB}UndergraduateStudent> . "
    f"?s <{UB}takesCourse> ?c . FILTER (?c != <{UB}nothing>) }}"
)


def find_span(node, name):
    if node.get("name") == name:
        return node
    for child in node.get("children", ()):
        found = find_span(child, name)
        if found is not None:
            return found
    return None


# ----------------------------------------------------------------------
# tracer unit tests
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans(self):
        tracer = obs_trace.Tracer("query")
        tracer.begin("parse")
        tracer.end(tokens=7)
        tracer.begin("scan")
        tracer.begin("decode")
        tracer.end()
        tracer.end(rows=3)
        tree = tracer.finish()
        assert_well_formed(tree)
        assert [c["name"] for c in tree["children"]] == ["parse", "scan"]
        scan = tree["children"][1]
        assert [c["name"] for c in scan["children"]] == ["decode"]
        assert scan["meta"]["rows"] == 3
        assert tree["children"][0]["meta"]["tokens"] == 7

    def test_end_imbalance_tolerated(self):
        tracer = obs_trace.Tracer("query")
        tracer.end()  # nothing open beyond the root
        tracer.end()
        tree = tracer.finish()
        assert tree["name"] == "query" and not tree.get("children")

    def test_finish_closes_open_spans_marked_aborted(self):
        tracer = obs_trace.Tracer("query")
        tracer.begin("scan")
        tracer.begin("decode")  # both left open, as after an exception
        tree = tracer.finish(aborted="timeout")
        assert_well_formed(tree)
        assert tree["aborted"] == "timeout"
        scan = tree["children"][0]
        assert scan["aborted"] == "timeout"
        assert scan["children"][0]["aborted"] == "timeout"

    def test_finish_idempotent(self):
        tracer = obs_trace.Tracer("query")
        tracer.begin("scan")
        first = tracer.finish()
        second = tracer.finish(aborted="late")  # must not re-mark
        assert second["children"][0].get("aborted") is None
        assert first["children"][0]["name"] == second["children"][0]["name"]

    def test_request_id_lands_in_root_meta(self):
        tree = obs_trace.Tracer("worker", request_id="req-1").finish()
        assert tree["meta"]["request_id"] == "req-1"

    def test_graft_round_trips_serialized_subtree(self):
        worker = obs_trace.Tracer("worker", request_id="abc")
        worker.begin("scan")
        worker.end(rows=5)
        subtree = worker.finish()

        parent = obs_trace.Tracer("request")
        parent.begin("pool")
        parent.graft(subtree)
        parent.end()
        tree = parent.finish()
        assert_well_formed(tree)
        grafted = find_span(tree, "worker")
        assert grafted is not None
        assert grafted["meta"]["request_id"] == "abc"
        assert find_span(grafted, "scan")["meta"]["rows"] == 5

    def test_graft_ignores_junk(self):
        parent = obs_trace.Tracer("request")
        parent.graft(None)
        parent.graft("not a dict")  # type: ignore[arg-type]
        parent.graft({"no_name": True})
        assert parent.finish().get("children") is None

    def test_counter_deltas_scoped_to_span(self, small_store):
        engine = SparqlUOEngine(small_store, bgp_engine="hashjoin")
        tracer = obs_trace.arm(obs_trace.Tracer("query"))
        try:
            engine.execute(f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o0> }}")
        finally:
            tree = tracer.finish()
            obs_trace.disarm()
        decode = find_span(tree, "decode")
        assert decode is not None
        assert decode["counters"]["terms_decoded"] > 0
        # The root's interval covers the children's, so its counter
        # delta includes theirs.
        assert tree["counters"]["terms_decoded"] >= decode["counters"]["terms_decoded"]

    def test_render_trace_annotated_tree(self):
        tracer = obs_trace.Tracer("query")
        tracer.begin("scan", bgp=0)
        tracer.begin("decode")
        tracer.end()
        tracer.end(rows=2)
        text = render_trace(tracer.finish())
        lines = text.splitlines()
        assert lines[0].startswith("query (")
        assert any("|- scan" in line or "`- scan" in line for line in lines)
        assert any("`- decode" in line for line in lines)
        assert any("rows=2" in line for line in lines)

    def test_render_marks_aborts(self):
        tracer = obs_trace.Tracer("query")
        tracer.begin("scan")
        text = render_trace(tracer.finish(aborted="timeout"))
        assert "!aborted=timeout" in text


# ----------------------------------------------------------------------
# constant lifting
# ----------------------------------------------------------------------
class TestLiftTemplate:
    def lift(self, text):
        lifted = lift_template(parse_query(text))
        assert lifted is not None
        return lifted

    def test_same_shape_different_constants_fold(self):
        a = self.lift(f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o1> }}")
        b = self.lift(f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o2> }}")
        assert a["hash"] == b["hash"]
        assert a["text"] == b["text"]
        assert a["constants"] == 1

    def test_different_shapes_do_not_fold(self):
        a = self.lift(f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o1> }}")
        b = self.lift(f"SELECT ?x WHERE {{ <{EX}o1> <{EX}p> ?x }}")
        assert a["hash"] != b["hash"]

    def test_predicates_stay_concrete(self):
        a = self.lift(f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }}")
        b = self.lift(f"SELECT ?x WHERE {{ ?x <{EX}q> ?y }}")
        assert a["hash"] != b["hash"]
        assert a["constants"] == 0

    def test_rdf_type_class_stays_concrete(self):
        a = self.lift(f"SELECT ?x WHERE {{ ?x a <{UB}FullProfessor> }}")
        b = self.lift(f"SELECT ?x WHERE {{ ?x a <{UB}Lecturer> }}")
        assert a["hash"] != b["hash"]
        assert a["constants"] == 0

    def test_repeated_constant_shares_placeholder(self):
        lifted = self.lift(
            f"SELECT ?x ?y WHERE {{ ?x <{EX}p> <{EX}o1> . ?y <{EX}q> <{EX}o1> }}"
        )
        assert lifted["constants"] == 1
        other = self.lift(
            f"SELECT ?x ?y WHERE {{ ?x <{EX}p> <{EX}o1> . ?y <{EX}q> <{EX}o2> }}"
        )
        assert lifted["hash"] != other["hash"]  # sharing is structural

    def test_filter_constants_lift(self):
        a = self.lift(
            f'SELECT ?x WHERE {{ ?x <{EX}name> ?n FILTER (?n = "alice") }}'
        )
        b = self.lift(
            f'SELECT ?x WHERE {{ ?x <{EX}name> ?n FILTER (?n = "bob") }}'
        )
        assert a["hash"] == b["hash"]

    def test_limit_offset_are_parameters(self):
        a = self.lift(f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }} LIMIT 10")
        b = self.lift(f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }} LIMIT 500 OFFSET 20")
        unpaged = self.lift(f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }}")
        # Different page sizes fold; paged vs unpaged is structural.
        assert a["hash"] != b["hash"]  # OFFSET presence is structure
        assert (
            self.lift(f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }} LIMIT 99")["hash"]
            == a["hash"]
        )
        assert a["hash"] != unpaged["hash"]

    def test_unliftable_input_returns_none(self):
        assert lift_template("not a parsed query") is None
        assert lift_template(None) is None

    def test_optional_union_filter_shapes_lift(self):
        lifted = self.lift(
            f"SELECT ?x ?m WHERE {{ "
            f"{{ ?x <{EX}p> <{EX}o1> }} UNION {{ ?x <{EX}q> <{EX}o2> }} "
            f"OPTIONAL {{ ?x <{EX}name> ?m }} }}"
        )
        assert lifted["constants"] == 2


class TestIsUpdateRequest:
    def test_queries_are_not_updates(self):
        assert not is_update_request("SELECT ?x WHERE { ?x ?p ?o }")
        assert not is_update_request("PREFIX ex: <http://x/> SELECT * WHERE { ?s ex:p ?o }")

    def test_updates_detected(self):
        assert is_update_request("INSERT DATA { <urn:a> <urn:b> <urn:c> }")
        assert is_update_request("DELETE DATA { <urn:a> <urn:b> <urn:c> }")
        assert is_update_request(
            "PREFIX ex: <http://x/> DELETE WHERE { ?s ex:p ?o }"
        )

    def test_unlexable_text_is_not_an_update(self):
        assert not is_update_request("INSERT DATA { broken")
        assert not is_update_request("@@@@")


# ----------------------------------------------------------------------
# the template registry
# ----------------------------------------------------------------------
class TestTemplateRegistry:
    def test_observe_accumulates(self):
        registry = TemplateRegistry()
        for i in range(10):
            registry.observe("t1", "SELECT …", seconds=0.010 * (i + 1), rows=i)
        entry = registry.get("t1")
        assert entry["count"] == 10
        assert entry["rows_total"] == sum(range(10))
        assert entry["latency_ms"]["p50"] == pytest.approx(60.0, rel=0.2)
        assert entry["latency_ms"]["p99"] >= entry["latency_ms"]["p50"]

    def test_counters_aggregate(self):
        registry = TemplateRegistry()
        registry.observe("t1", "q", 0.01, 1, {"rows_materialized": 5})
        registry.observe("t1", "q", 0.01, 1, {"rows_materialized": 7, "hash_joins": 1})
        entry = registry.get("t1")
        assert entry["counters"] == {"rows_materialized": 12, "hash_joins": 1}

    def test_bounded_lru_eviction(self):
        registry = TemplateRegistry(max_templates=4)
        for i in range(8):
            registry.observe(f"t{i}", "q", 0.001)
        assert len(registry) == 4
        assert registry.evicted == 4
        assert registry.get("t0") is None
        assert registry.get("t7") is not None
        # A re-observed template moves to the warm end.
        registry.observe("t4", "q", 0.001)
        registry.observe("t8", "q", 0.001)
        assert registry.get("t4") is not None

    def test_snapshot_busiest_first_and_limit(self):
        registry = TemplateRegistry()
        for _ in range(3):
            registry.observe("busy", "q1", 0.001)
        registry.observe("quiet", "q2", 0.001)
        snapshot = registry.snapshot()
        assert [e["template"] for e in snapshot["templates"]] == ["busy", "quiet"]
        assert snapshot["tracked"] == 2
        limited = registry.snapshot(limit=1)
        assert [e["template"] for e in limited["templates"]] == ["busy"]

    def test_none_digest_ignored(self):
        registry = TemplateRegistry()
        registry.observe(None, None, 0.001)
        assert len(registry) == 0


# ----------------------------------------------------------------------
# the slow-query log
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_entries_are_jsonl(self, tmp_path):
        log = SlowQueryLog(str(tmp_path / "slow.jsonl"))
        log.record(
            "slow", "req-1", "SELECT 1", 12.5,
            rows=3, template="abcd", counters={"hash_joins": 1},
            trace={"name": "query", "ms": 12.0},
        )
        log.record("timeout", None, "SELECT 2", 1000.0)
        lines = (tmp_path / "slow.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["reason"] == "slow"
        assert first["request_id"] == "req-1"
        assert first["template"] == "abcd"
        assert first["trace"]["name"] == "query"
        assert json.loads(lines[1])["reason"] == "timeout"

    def test_compaction_keeps_newest(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(str(path), max_entries=5)
        for i in range(13):  # crosses the 2×max_entries threshold
            log.record("slow", f"r{i}", "q", float(i))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) <= 10
        assert lines[-1]["request_id"] == "r12"
        # Compaction kept a suffix: the oldest lines are gone.
        assert all(int(entry["request_id"][1:]) >= 3 for entry in lines)

    def test_unwritable_path_never_raises(self):
        log = SlowQueryLog("/nonexistent-dir/slow.jsonl")
        log.record("slow", "r", "q", 1.0)  # silently dropped


# ----------------------------------------------------------------------
# engine-level tracing
# ----------------------------------------------------------------------
class TestEngineTracing:
    def _traced(self, engine, query, **kwargs):
        tracer = obs_trace.arm(obs_trace.Tracer("query"))
        try:
            result = engine.execute(query, **kwargs)
        finally:
            tree = tracer.finish()
            obs_trace.disarm()
        return result, tree

    @pytest.mark.parametrize("engine_name", ["wco", "hashjoin"])
    def test_span_tree_across_engines(self, small_store, engine_name):
        engine = SparqlUOEngine(small_store, bgp_engine=engine_name)
        query = (
            f"SELECT ?x ?n WHERE {{ ?x <{EX}p> <{EX}o0> . ?x <{EX}name> ?n "
            f'FILTER (?n != "n1") }}'
        )
        plain = engine.execute(query)
        traced, tree = self._traced(engine, query)
        assert traced.solutions == plain.solutions  # tracing is transparent
        assert_well_formed(tree)
        names = span_names(tree)
        assert "scan" in names and "decode" in names
        assert tree["meta"]["generation"] == small_store.generation
        assert tree["meta"]["template"] == traced.template["hash"]

    @pytest.mark.parametrize("engine_name", ["wco", "hashjoin"])
    def test_site_census_does_not_grow_with_rows(
        self, lubm_u1_store, lubm_u2_store, engine_name
    ):
        """Sites fire per operator, never per row: the warm query's
        tracer calls are the same at one and two universities, so the
        disarmed cost is a constant number of ``is None`` checks."""
        ops = []
        for store in (lubm_u1_store, lubm_u2_store):
            engine = SparqlUOEngine(store, bgp_engine=engine_name)
            plain = engine.execute(FILTER_HEAVY_COUNT)  # warms the plan cache
            tracer = obs_trace.arm(_CountingTracer("query"))
            try:
                traced = engine.execute(FILTER_HEAVY_COUNT)
            finally:
                tree = tracer.finish()
                obs_trace.disarm()
            assert traced.solutions == plain.solutions
            assert {"scan", "group_fold"} <= set(span_names(tree))
            ops.append(tracer.ops)
        assert ops == [8, 8]

    def test_cold_prepare_spans(self, small_store):
        engine = SparqlUOEngine(small_store, bgp_engine="hashjoin")
        _, tree = self._traced(engine, f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }}")
        names = span_names(tree)
        assert {"parse", "plan", "transform"} <= set(names)
        assert tree["meta"]["plan_cache"] == "miss"
        # A second run hits the plan cache: no parse/plan spans.
        _, warm = self._traced(engine, f"SELECT ?x WHERE {{ ?x <{EX}p> ?y }}")
        assert "parse" not in span_names(warm)
        assert warm["meta"]["plan_cache"] == "hit"

    def test_limit_early_exit_tree_well_formed(self, small_store):
        for engine_name in ("wco", "hashjoin"):
            engine = SparqlUOEngine(small_store, bgp_engine=engine_name)
            result, tree = self._traced(
                engine, f"SELECT ?x ?n WHERE {{ ?x <{EX}name> ?n }} LIMIT 2"
            )
            assert len(result) == 2
            assert_well_formed(tree)
            assert find_span(tree, "scan") is not None

    def test_timeout_partial_trace_marked(self, small_store):
        engine = SparqlUOEngine(small_store, bgp_engine="hashjoin")
        tracer = obs_trace.arm(obs_trace.Tracer("query"))
        # Four patterns: 36**4 rows on this store, far past the budget
        # (the three-pattern product can finish inside 20 ms).
        query = QUERY_SLOW.replace(" }", " . ?j ?k ?l }")
        try:
            with pytest.raises(QueryTimeoutError):
                engine.execute(query, timeout=0.02)
        finally:
            tree = tracer.finish(aborted="timeout")
            obs_trace.disarm()
        assert_well_formed(tree)  # every span closed despite the abort
        assert tree["aborted"] == "timeout"

    def test_group_fold_span(self, small_store):
        engine = SparqlUOEngine(small_store, bgp_engine="hashjoin")
        _, tree = self._traced(
            engine,
            f"SELECT ?o (COUNT(?x) AS ?n) WHERE {{ ?x <{EX}p> ?o }} GROUP BY ?o",
        )
        fold = find_span(tree, "group_fold")
        assert fold is not None
        assert fold["meta"]["groups"] == 3

    def test_filter_kernel_span(self, small_store):
        engine = SparqlUOEngine(small_store, bgp_engine="hashjoin")
        # A group-level filter over two patterns runs through
        # CompiledFilter.apply, which records the kernel span.
        _, tree = self._traced(
            engine,
            f"SELECT ?x ?n WHERE {{ "
            f"{{ ?x <{EX}name> ?n }} "
            f'FILTER (?n = "n3") }}',
        )
        assert find_span(tree, "filter_kernel") is not None or find_span(
            tree, "filter"
        ) is not None

    def test_update_spans(self, tmp_path):
        store = TripleStore.from_dataset(_small_dataset())
        engine = SparqlUOEngine(store)
        tracer = obs_trace.arm(obs_trace.Tracer("query"))
        try:
            result = engine.update(
                f"INSERT DATA {{ <{EX}new> <{EX}p> <{EX}o9> }}"
            )
        finally:
            tree = tracer.finish()
            obs_trace.disarm()
        assert result.added == 1
        assert_well_formed(tree)
        apply_span = find_span(tree, "apply")
        assert apply_span["meta"]["added"] == 1
        assert apply_span["meta"]["generation"] == store.generation

    def test_query_result_carries_template(self, small_store):
        engine = SparqlUOEngine(small_store, bgp_engine="wco")
        a = engine.execute(f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o0> }}")
        b = engine.execute(f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o1> }}")
        assert a.template is not None
        assert a.template["hash"] == b.template["hash"]


# ----------------------------------------------------------------------
# CLI activation
# ----------------------------------------------------------------------
class TestCliTrace:
    @pytest.fixture
    def data_file(self, tmp_path):
        path = tmp_path / "data.nt"
        dump_ntriples(_small_dataset(), str(path))
        return str(path)

    def run(self, argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_trace_tree_printed(self, data_file):
        code, output = self.run(
            ["query", data_file, f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o0> }}", "--trace"]
        )
        assert code == 0
        assert "# trace:" in output
        assert re.search(r"query \(\d+\.\d+ ms\)", output)
        assert "scan" in output

    def test_trace_json(self, data_file, capsys):
        code, output = self.run(
            [
                "query", data_file,
                f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o0> }}",
                "--trace=json", "--format", "json",
            ]
        )
        assert code == 0
        # Machine-readable payload stays clean: the trace goes to stderr.
        document = json.loads(output)
        assert "results" in document
        tree = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert_well_formed(tree)

    def test_cli_update_stats(self, data_file):
        code, output = self.run(
            [
                "query", data_file,
                f"INSERT DATA {{ <{EX}zz> <{EX}p> <{EX}o0> }}",
                "--stats", "--trace",
            ]
        )
        assert code == 0
        assert "update OK: 1 added, 0 removed" in output
        assert "delta depth" in output
        assert "apply" in output  # the trace shows the apply span

    def test_cli_update_noop(self, data_file):
        code, output = self.run(
            ["query", data_file, f"DELETE DATA {{ <{EX}absent> <{EX}p> <{EX}o0> }}"]
        )
        assert code == 0
        assert "update OK: 0 added, 0 removed" in output

    def test_disarmed_after_cli_run(self, data_file):
        self.run(
            ["query", data_file, f"SELECT ?x WHERE {{ ?x <{EX}p> <{EX}o0> }}", "--trace"]
        )
        assert obs_trace.ACTIVE is None


# ----------------------------------------------------------------------
# HTTP propagation: one server, the whole observability loop
# ----------------------------------------------------------------------
def http_get(url, headers=None, timeout=60):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def http_post(url, body, content_type, headers=None, timeout=60):
    all_headers = {"Content-Type": content_type}
    all_headers.update(headers or {})
    request = urllib.request.Request(url, data=body, headers=all_headers)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


@contextlib.contextmanager
def saturated(pool, query):
    """Hold every worker and fill the pool's wait bound with real
    waiters, so the next miss takes the overload path and is shed."""
    held = [pool._idle.get(timeout=30) for _ in range(pool.size)]
    waiters = [
        threading.Thread(target=pool.execute, args=(query, "json"))
        for _ in range(pool.config.effective_queue_size)
    ]
    for waiter in waiters:
        waiter.start()
    try:
        deadline = time.monotonic() + 10
        while pool._waiting < len(waiters) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._waiting == len(waiters)
        yield
    finally:
        for worker in held:
            pool._idle.put(worker)
        for waiter in waiters:
            waiter.join(30)
        assert not any(waiter.is_alive() for waiter in waiters)


class TestServerObservability:
    QUERY = f"SELECT ?x ?y WHERE {{ ?x <{UB}headOf> ?y }}"

    @pytest.fixture(scope="class")
    def obs_server(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs")
        snap = tmp / "lubm.snap"
        TripleStore.from_dataset(generate_lubm(universities=1, seed=42)).save(str(snap))
        log_path = tmp / "slow.jsonl"
        config = ServerConfig(
            data=str(snap),
            port=0,
            workers=2,
            timeout=2.0,
            cache_entries=32,
            trace_sample=1.0,  # every request sampled into the log
            slow_query_ms=0.0,
            slow_query_log=str(log_path),
        )
        instance = SparqlServer(config)
        instance.start()
        yield instance, str(log_path)
        instance.shutdown()

    def get(self, server, query, headers=None):
        url = server.url + "/sparql?" + urllib.parse.urlencode({"query": query})
        return http_get(url, headers=headers)

    def test_trace_header_stitches_worker_under_request(self, obs_server):
        server, _ = obs_server
        status, headers, body = self.get(
            server,
            self.QUERY + " #trace-miss",
            headers={"X-Repro-Trace": "1", "X-Request-Id": "trace-req-1"},
        )
        assert status == 200
        assert headers["X-Repro-Request-Id"] == "trace-req-1"
        repro = json.loads(body)["extensions"]["repro"]
        assert repro["request_id"] == "trace-req-1"
        assert repro["cache"] == "miss"
        assert repro["exec_counters"]["rows_materialized"] > 0
        tree = repro["trace"]
        assert_well_formed(tree)
        assert tree["meta"]["request_id"] == "trace-req-1"
        pool_span = find_span(tree, "pool")
        assert pool_span is not None
        worker = find_span(pool_span, "worker")
        assert worker is not None
        assert worker["meta"]["request_id"] == "trace-req-1"
        assert find_span(worker, "scan") is not None
        assert find_span(worker, "serialize") is not None
        # Per-operator child timings nest inside the reported total.
        child_ms = sum(c["ms"] for c in tree.get("children", ()))
        assert child_ms <= tree["ms"] * 1.05

    def test_cache_hit_returns_recorded_counters(self, obs_server):
        server, _ = obs_server
        query = self.QUERY + " #hit-case"
        self.get(server, query)  # miss populates the cache
        status, headers, body = self.get(
            server, query, headers={"X-Repro-Trace": "1"}
        )
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        repro = json.loads(body)["extensions"]["repro"]
        assert repro["cache"] == "hit"
        # The bugfix: hot queries report the counters recorded when the
        # entry was computed instead of silently omitting them.
        assert repro["exec_counters"]["rows_materialized"] > 0
        assert find_span(repro["trace"], "cache_lookup") is not None

    def test_request_id_minted_when_invalid(self, obs_server):
        server, _ = obs_server
        _, headers, _ = self.get(
            server, self.QUERY, headers={"X-Request-Id": "bad id with junk!"}
        )
        minted = headers["X-Repro-Request-Id"]
        assert minted != "bad id with junk!"
        assert re.fullmatch(r"[A-Za-z0-9._-]{1,64}", minted)

    def test_generation_header_on_all_responses(self, obs_server):
        server, _ = obs_server
        for path in ("/healthz", "/metrics", "/debug/templates"):
            _, headers, _ = http_get(server.url + path)
            assert headers["X-Repro-Generation"] == str(server.generation), path

    def test_update_reports_write_depth_and_generation(self, obs_server):
        server, _ = obs_server
        before = server.generation
        status, headers, body = http_post(
            server.url + "/update",
            f"INSERT DATA {{ <{EX}obs1> <{EX}p> <{EX}o1> }}".encode(),
            "application/sparql-update",
        )
        assert status == 200
        document = json.loads(body)
        assert document["added"] == 1 and document["removed"] == 0
        assert document["generation"] == before + 1
        assert document["pending_delta"]["adds"] >= 1
        assert document["replay_log"] >= 1
        assert document["request_id"]
        assert headers["X-Repro-Generation"] == str(before + 1)

    def test_debug_templates_accumulates_query_family(self, obs_server):
        server, _ = obs_server
        # One shape, many constants: the production replay pattern.
        for i in range(4):
            self.get(
                server,
                f"SELECT ?p WHERE {{ ?s ?p <{UB.rstrip('#')}#Course{i}> }}",
            )
        status, _, body = http_get(server.url + "/debug/templates")
        assert status == 200
        document = json.loads(body)
        assert document["tracked"] >= 1
        by_count = document["templates"]
        family = [
            e for e in by_count if e["count"] >= 4 and "?__c0" in e["text"]
        ]
        assert family, "the replayed family should share one lifted template"
        entry = family[0]
        assert entry["latency_ms"]["p50"] > 0
        assert entry["latency_ms"]["p99"] >= entry["latency_ms"]["p50"]
        assert entry["counters"]
        # Busiest-first ordering and the limit parameter.
        counts = [e["count"] for e in by_count]
        assert counts == sorted(counts, reverse=True)
        _, _, limited = http_get(server.url + "/debug/templates?limit=1")
        assert len(json.loads(limited)["templates"]) == 1

    def test_slow_query_log_fills(self, obs_server):
        server, log_path = obs_server
        self.get(server, self.QUERY + " #slowlog-case")
        entries = [
            json.loads(line)
            for line in open(log_path, encoding="utf-8")
            if line.strip()
        ]
        assert entries
        sampled = [e for e in entries if e["reason"] == "sample"]
        assert sampled, "trace_sample=1.0 must log every query"
        entry = sampled[-1]
        assert entry["request_id"]
        assert entry["template"]
        assert entry["total_ms"] > 0
        assert "query" in entry

    def test_timeout_logged_and_trace_partial(self, obs_server):
        server, log_path = obs_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server, QUERY_SLOW, headers={"X-Repro-Trace": "1"})
        assert excinfo.value.code == 504
        document = json.loads(excinfo.value.read())
        assert "error" in document
        tree = document["extensions"]["repro"]["trace"]
        assert_well_formed(tree)
        worker = find_span(tree, "worker")
        assert worker is not None and worker["aborted"] == "timeout"
        entries = [
            json.loads(line)
            for line in open(log_path, encoding="utf-8")
            if line.strip()
        ]
        timeouts = [e for e in entries if e["reason"] == "timeout"]
        assert timeouts and timeouts[-1]["trace"] is not None

    @pytest.mark.parametrize(
        ("outcome", "status", "cache"),
        [
            ("miss", 200, "miss"),
            ("hit", 200, "hit"),
            ("syntax", 400, None),
            ("timeout", 504, None),
            ("shed", 503, None),
            ("admission", 503, None),
        ],
    )
    def test_response_contract(self, obs_server, monkeypatch, outcome, status, cache):
        """Every query outcome answers with the same headers and, when
        traced, the same ``extensions.repro`` keys; an answered query is
        in /debug/templates before its reply leaves."""
        server, _ = obs_server
        query = {
            "miss": self.QUERY + " #contract-miss",
            "hit": self.QUERY + " #contract-hit",
            "syntax": "SELECT ?x WHERE { ?x",
            "timeout": QUERY_SLOW,
            "shed": self.QUERY + " #contract-shed",
            "admission": self.QUERY + " #contract-admission",
        }[outcome]
        if outcome == "hit":
            self.get(server, query)
        if outcome == "shed":
            from repro.server.pool import WorkerReply

            monkeypatch.setattr(
                server.pool,
                "execute",
                lambda *args, **kwargs: WorkerReply("shed", message="no worker"),
            )

        def observed():
            return sum(e["count"] for e in server.templates.snapshot()["templates"])

        at_reply = []
        respond = _Handler._respond

        def spy(handler, *args, **kwargs):
            at_reply.append(observed())
            return respond(handler, *args, **kwargs)

        monkeypatch.setattr(_Handler, "_respond", spy)
        for traced in (False, True):
            before = observed()
            shed_before = server.metrics.shed_total
            request_id = f"contract-{outcome}-{int(traced)}"
            headers = {"X-Request-Id": request_id}
            if traced:
                headers["X-Repro-Trace"] = "1"
            text = query if outcome != "miss" else f"{query}-{int(traced)}"
            overload = (
                saturated(server.pool, self.QUERY)
                if outcome == "admission"
                else contextlib.nullcontext()
            )
            try:
                with overload:
                    got, got_headers, body = self.get(server, text, headers=headers)
            except urllib.error.HTTPError as exc:
                got, got_headers, body = exc.code, dict(exc.headers), exc.read()
            assert got == status
            assert at_reply[-1] == before + (cache is not None)
            assert got_headers.get("X-Repro-Cache") == cache
            assert got_headers["X-Repro-Generation"] == str(server.generation)
            assert got_headers["X-Repro-Request-Id"] == request_id
            document = json.loads(body)
            if status >= 400:
                assert "error" in document
            if status == 503:
                assert got_headers["Retry-After"] == "1"
                assert server.metrics.shed_total == shed_before + 1
            if not traced:
                assert "repro" not in document.get("extensions", {})
                continue
            repro = document["extensions"]["repro"]
            assert repro["request_id"] == request_id
            assert repro.get("cache") == cache
            assert_well_formed(repro["trace"])

    def test_live_metrics_exposition_lints(self, obs_server):
        server, _ = obs_server
        self.get(server, self.QUERY + " #metrics-traffic")
        _, _, body = http_get(server.url + "/metrics")
        text = body.decode("utf-8")
        errors, series = lint_prometheus(text)
        assert not errors, "\n".join(errors)
        assert any(name == "repro_query_seconds_bucket" for name, _ in series)
        check_histogram_monotone(text, "repro_query_seconds")

    def test_stats_dump_writes_registry(self, obs_server, tmp_path):
        server, _ = obs_server
        self.get(server, self.QUERY + " #dump-case")
        destination = tmp_path / "stats.json"
        server.dump_stats(str(destination))
        document = json.loads(destination.read_text())
        assert document["templates"]
        assert document["generation"] == server.generation


# ----------------------------------------------------------------------
# Prometheus text-format lint
# ----------------------------------------------------------------------
def lint_prometheus(text: str):
    """Grammar lint: HELP/TYPE per family, unique series, sane buckets."""
    sample_re = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
    )
    helped, typed, seen_series = set(), set(), set()
    families = {}
    errors = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            typed.add(parts[2])
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            errors.append(f"unexpected comment: {line!r}")
            continue
        match = sample_re.match(line)
        if match is None:
            errors.append(f"unparseable sample: {line!r}")
            continue
        name = match.group("name")
        series = (name, match.group("labels") or "")
        if series in seen_series:
            errors.append(f"duplicate series: {line!r}")
        seen_series.add(series)
        try:
            float(match.group("value"))
        except ValueError:
            errors.append(f"non-numeric value: {line!r}")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and families.get(stripped) in ("histogram", "summary"):
                family = stripped
                break
        if family not in typed:
            errors.append(f"sample before TYPE: {line!r}")
        if family not in helped:
            errors.append(f"sample before HELP: {line!r}")
    return errors, seen_series


def check_histogram_monotone(text: str, family: str):
    """Each label set's buckets must be cumulative and end at +Inf=count."""
    buckets = {}
    counts = {}
    for line in text.splitlines():
        bucket = re.match(
            rf'^{family}_bucket\{{(?P<labels>.*?),?le="(?P<le>[^"]+)"\}} (?P<v>\d+)$',
            line,
        )
        if bucket:
            key = bucket.group("labels")
            le = bucket.group("le")
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.setdefault(key, []).append((bound, int(bucket.group("v"))))
        count = re.match(rf"^{family}_count\{{(?P<labels>[^}}]*)\}} (?P<v>\d+)$", line)
        if count:
            counts[count.group("labels")] = int(count.group("v"))
    assert buckets, f"no {family}_bucket series found"
    for key, series in buckets.items():
        bounds = [bound for bound, _ in series]
        values = [value for _, value in series]
        assert bounds == sorted(bounds), f"{key}: bucket bounds out of order"
        assert bounds[-1] == float("inf"), f"{key}: missing +Inf bucket"
        assert values == sorted(values), f"{key}: non-monotone cumulative buckets"
        label_key = key.rstrip(",")
        assert values[-1] == counts[label_key], f"{key}: +Inf != count"


class TestPrometheusExposition:
    def test_full_exposition_lints(self):
        from repro.server.metrics import ServerMetrics

        metrics = ServerMetrics()
        metrics.record_query("miss", 0.004, 10, 2.0, {"rows_materialized": 10})
        metrics.record_query("miss", 0.030, 5, 1.0)
        metrics.record_query("hit", 0.0005, 10, 2.0)
        metrics.record_query("stale", 0.0007, 1, 1.0)
        metrics.record_timeout()
        metrics.record_update(3, 1)
        metrics.record_shed()
        metrics.record_response(200)
        metrics.record_response(504)
        text = metrics.render(
            generation=3,
            pool_stats={"alive": 2, "target": 2},
            cache_stats={"entries": 1, "hits": 1, "misses": 2, "evictions": 0},
        )
        errors, series = lint_prometheus(text)
        assert not errors, "\n".join(errors)
        assert any(name == "repro_query_seconds_bucket" for name, _ in series)
        check_histogram_monotone(text, "repro_query_seconds")

    def test_histogram_buckets_count_observations(self):
        from repro.server.metrics import HISTOGRAM_BUCKETS, LatencySummary

        summary = LatencySummary()
        summary.observe(0.0009)  # first bucket (le=0.001)
        summary.observe(0.003)   # le=0.005
        summary.observe(99.0)    # beyond every bound: only +Inf sees it
        assert summary.buckets[0] == 1
        assert summary.buckets[HISTOGRAM_BUCKETS.index(0.005)] == 1
        assert sum(summary.buckets) == 2
        assert summary.count == 3
