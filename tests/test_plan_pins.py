"""Plan pins: the optimizer's decisions and numbers on the 24 paper
queries, bit for bit.

For each query of Appendix A, on LUBM u1 (``lubm_u1_store``) and a
seeded 600-article DBpedia store, with the ``wco`` and ``hashjoin``
engines in mode ``full``, ``plan_pins.json`` records:

- ``repr(TransformReport)``, its ``total_delta`` as ``float.hex()`` and
  each reordered group's placed order;
- every BGP node's :class:`~repro.bgp.interface.PlanEstimate` in the
  transformed tree, in tree order, cost and cardinality as
  ``float.hex()``;
- the answer count;
- the query's execution counters.

Node ids come from a process-wide counter, so they are not recorded.

A refactor of the engines, the estimator or the transformer that keeps
these identical changes no plan and no execution path.  A change that
means to move them regenerates the file and says why::

    PYTHONPATH=src python tests/test_plan_pins.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

import pytest

from repro.core import SparqlUOEngine
from repro.datasets import generate_dbpedia
from repro.datasets.queries import DBPEDIA_QUERIES, GROUP1, GROUP2, LUBM_QUERIES
from repro.storage import TripleStore

GOLDEN = os.path.join(os.path.dirname(__file__), "plan_pins.json")
ENGINES = ("wco", "hashjoin")
QUERIES = {"lubm": LUBM_QUERIES, "dbpedia": DBPEDIA_QUERIES}
NAMES = GROUP1 + GROUP2


def dbpedia_store() -> TripleStore:
    return TripleStore.from_dataset(generate_dbpedia(articles=600, seed=7))


def pin(store: TripleStore, engine_name: str, text: str) -> Dict[str, object]:
    """One query's record, planned and run on a fresh engine."""
    engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
    prepared = engine.prepare(text)
    report = prepared.report
    estimates: List[List[str]] = []
    for node in prepared.tree.bgp_nodes():
        if node.is_empty():
            continue
        estimate = engine.bgp_engine.estimate(node.patterns)
        estimates.append([estimate.cost.hex(), estimate.cardinality.hex()])
    result = engine.execute(text)
    return {
        "report": repr(report),
        "total_delta": report.total_delta.hex(),
        "placements": [list(placed) for _, placed in report.placements],
        "estimates": estimates,
        "answers": len(result),
        "exec_counters": dict(sorted(result.exec_counters.items())),
    }


def _golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def stores(lubm_u1_store):
    return {"lubm": lubm_u1_store, "dbpedia": dbpedia_store()}


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("dataset", sorted(QUERIES))
def test_plans_match_pins(stores, dataset, engine_name):
    golden = _golden()
    store = stores[dataset]
    for name in NAMES:
        key = f"{dataset}/{engine_name}/{name}"
        assert pin(store, engine_name, QUERIES[dataset][name]) == golden[key], key


def _regenerate() -> None:
    sys.path.insert(0, os.path.dirname(__file__))
    from conftest import _lubm_store

    stores = {"lubm": _lubm_store(1), "dbpedia": dbpedia_store()}
    records = {
        f"{dataset}/{engine_name}/{name}": pin(
            stores[dataset], engine_name, QUERIES[dataset][name]
        )
        for dataset in sorted(QUERIES)
        for engine_name in ENGINES
        for name in NAMES
    }
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    _regenerate()
