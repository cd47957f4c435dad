"""What is declared is what is printed, and the logs replay byte for byte."""

import hashlib
import json
import re
from collections import Counter

import pytest

from benchmarks.e2e import ROOT, spec
from benchmarks.e2e.cli import declared_only
from benchmarks.e2e.workloads import (
    CLIENTS,
    LOG_REQUESTS,
    build_log,
    log_jsonl,
    trace_prefix,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

ENTITIES = [f"<http://www.Department{d}.University0.edu/Person{n}>" for d in range(4) for n in range(50)]


def test_benchmark_json_is_the_spec_written_out():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared == spec.manifest()


def test_names_units_and_bounds_fit_the_contract():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOADS)
    assert all(NAME.match(name) for name in names)
    assert max(Counter(names).values()) == 1
    assert all(UNIT.match(m.unit) for m in spec.END_TO_END + spec.PER_LAYER)
    assert all(m.better in ("higher", "lower") for m in spec.END_TO_END + spec.PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    setup = {m.name: m for m in spec.END_TO_END}["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert 2 <= len(spec.WORKLOADS) <= 8 and all(len(why) <= 200 for why in spec.WORKLOADS.values())
    assert len(spec.PER_LAYER) <= 128 and 1 <= spec.RUN_SECONDS <= 60
    assert set(spec.EXACT_COUNTS) <= {m.name for m in spec.PER_LAYER}


def test_every_declared_metric_is_printed_for_every_workload():
    """Every run goes through ``declared_only``: it passes exactly the
    declared list (all metrics are declared on all four workloads) and
    refuses anything else, so a printed list cannot drift from
    ``BENCHMARK.json``."""
    for trace, table in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        exact = {metric.name: 1.0 for metric in table}
        assert declared_only(exact, trace) == exact
        with pytest.raises(RuntimeError, match="missing"):
            declared_only(dict(list(exact.items())[1:]), trace)
        with pytest.raises(RuntimeError, match="undeclared"):
            declared_only(dict(exact, extra_metric=1.0), trace)


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_same_seed_gives_byte_identical_logs(workload):
    def digest(seed):
        log = build_log(workload, seed, ENTITIES, count=400)
        return hashlib.sha256(log_jsonl(log).encode("utf-8")).hexdigest()

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_logs_hold_what_the_workloads_promise():
    assert set(LOG_REQUESTS) == set(spec.WORKLOADS)
    paper = build_log("paper_uo", 1, ENTITIES, count=48)
    assert len({request.text for request in paper[:24]}) == 24  # one round = all 24 queries
    assert {request.dataset for request in paper} == {"lubm", "dbpedia"}
    bulk = Counter((r.text, r.accept) for r in build_log("bulk_rows", 1, ENTITIES, count=12))
    assert sorted(bulk.values()) == [1] * 6 + [2] * 3  # 3 queries x 3 formats, mix 1:2:1
    zipf = build_log("entity_zipf", 1, ENTITIES, count=400)
    assert {request.check for request in zipf} == {"page"}
    assert {request.client for request in zipf} == set(range(CLIENTS))

    mixed = build_log("read_write", 1, ENTITIES, count=400)
    for client in range(CLIENTS):
        mine = [request for request in mixed if request.client == client]
        assert [i for i, r in enumerate(mine) if r.check == "update"] == list(range(9, len(mine), 10))
        live = set()
        for request in mine:
            if request.check == "update":
                key = request.text.split(">", 1)[0].rsplit("/", 1)[1]
                if request.text.startswith("INSERT"):
                    assert key not in live
                    live.add(key)
                else:
                    live.remove(key)  # only ever deletes its own earlier insert
                assert f"/c{client}/" in request.text
    assert [r.client for r in trace_prefix("read_write", mixed)] == [r.client for r in mixed[:500]]
