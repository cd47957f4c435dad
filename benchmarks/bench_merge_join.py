"""Sorted-run execution benchmark: merge joins + galloping pruning.

Join-heavy LUBM shapes — skewed (a tiny anchored pattern joined
against a large sorted class run) and uniform (chains whose join sides
are comparable) — executed on a snapshot-backed store by both engines
× candidate pruning off (``mode=base``) and on (``mode=full``).  Three
machine-independent observables are recorded alongside the wall time:

- ``rows_materialized`` — rows emitted into result bags (the paper's
  "wasted intermediate results" at the physical level);
- ``probe_count`` — galloping probes + candidate-intersection inputs
  (the work the sorted paths actually did);
- ``merge_joins`` / ``hash_joins`` — which physical plan ran.

``check_regression.py`` gates ``results``, ``rows_materialized`` and
``probe_count`` against the committed ``BENCH_pr5.json``: a growth
means an execution path silently degraded (e.g. a merge join falling
back to a hash join) whatever the wall time on this host says.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(__file__))

from common import bench_record, emit_bench_json, format_table, lubm_store  # noqa: E402

from repro.core import SparqlUOEngine  # noqa: E402
from repro.core.metrics import EXEC_COUNTERS  # noqa: E402

PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
DEPT = "<http://www.Department0.University0.edu>"

#: name → SPARQL text.
QUERIES = {
    # Skewed: ~30 department members gallop into the 3000-strong
    # UndergraduateStudent run instead of streaming it.
    "skewed_member_type": (
        PREFIX
        + "SELECT ?x WHERE { ?x ub:memberOf "
        + DEPT
        + " . ?x a ub:UndergraduateStudent . }"
    ),
    # Skewed, deeper: the same semi-join feeding a third join.
    "skewed_member_type_email": (
        PREFIX
        + "SELECT ?x ?e WHERE { ?x ub:memberOf "
        + DEPT
        + " . ?x a ub:UndergraduateStudent . ?x ub:emailAddress ?e . }"
    ),
    # Skewed + OPTIONAL: candidate pruning feeds the optional side.
    "skewed_optional_email": (
        PREFIX
        + "SELECT ?x ?e WHERE { ?x ub:memberOf "
        + DEPT
        + " . ?x a ub:UndergraduateStudent . "
        + "OPTIONAL { ?x ub:emailAddress ?e } }"
    ),
    # Uniform: advisor chain, both join sides in the hundreds.
    "uniform_advisor_chain": (
        PREFIX
        + "SELECT ?x ?a WHERE { ?x a ub:GraduateStudent . "
        + "?x ub:advisor ?a . ?a a ub:FullProfessor . }"
    ),
    # Uniform + UNION: candidates flow into both class branches.
    "uniform_member_union": (
        PREFIX
        + "SELECT ?x WHERE { ?x ub:memberOf "
        + DEPT
        + " . { ?x a ub:GraduateStudent } UNION { ?x a ub:UndergraduateStudent } }"
    ),
}

ENGINES = ("hashjoin", "wco")
MODES = ("base", "full")  # candidate pruning off / on
ROUNDS = int(os.environ.get("MERGE_BENCH_ROUNDS", "7"))


def _best_wall(engine: SparqlUOEngine, query: str) -> Dict[str, object]:
    """Best-of-N execution wall time plus the run's exec counters."""
    engine.execute(query)  # warm the plan cache and lazy structures
    best = float("inf")
    rows = 0
    counters: Dict[str, int] = {}
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = engine.execute(query)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            rows = len(result)
            counters = result.exec_counters
    return {"wall_ms": best * 1000, "rows": rows, "counters": counters}


def main() -> int:
    store = lubm_store()
    records: List[Dict] = []
    table_rows: List[List] = []

    for engine_name in ENGINES:
        for mode in MODES:
            engine = SparqlUOEngine(store, bgp_engine=engine_name, mode=mode)
            for name, query in QUERIES.items():
                run = _best_wall(engine, query)
                counters = run["counters"]
                probe_count = counters.get("gallop_probes", 0)
                records.append(
                    bench_record(
                        "merge_join",
                        name,
                        engine_name,
                        mode,
                        run["wall_ms"],
                        results=run["rows"],
                        rows_materialized=counters.get("rows_materialized", 0),
                        probe_count=probe_count,
                        intersection_in=counters.get("candidate_intersection_in", 0),
                        merge_joins=counters.get("merge_joins", 0),
                        hash_joins=counters.get("hash_joins", 0),
                        candidates_on=mode == "full",
                    )
                )
                table_rows.append(
                    [
                        name,
                        engine_name,
                        mode,
                        f"{run['wall_ms']:.2f}",
                        run["rows"],
                        counters.get("rows_materialized", 0),
                        probe_count,
                        counters.get("merge_joins", 0),
                        counters.get("hash_joins", 0),
                    ]
                )

    print(
        format_table(
            ["query", "engine", "mode", "ms", "rows", "rows_mat", "probes", "merge", "hash"],
            table_rows,
        )
    )
    # The counters singleton is process-global; reset so a later bench
    # in the same process starts clean.
    EXEC_COUNTERS.reset()

    if "--emit" in sys.argv:
        # Fresh measurements land under the bench's own name; the
        # committed PR-5 baseline (BENCH_pr5.json) is a snapshot of the
        # same records, so check_regression pairs them by record key
        # without the fresh run clobbering its own baseline file.
        path = emit_bench_json("merge_join", records)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
