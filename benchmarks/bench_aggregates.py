"""Zero-decode aggregation and filter-kernel benchmark (PR 8).

Three comparisons on the LUBM store, each across both BGP engines:

1. **Kernel filters** — filter-heavy shapes (a selective equality
   FILTER over a high-fanout BGP).
   Eligible predicates run as vectorized compare-and-compact passes
   over encoded-id columns; ``rows_kernel_filtered`` counts the rows
   screened and must be non-zero.

2. **Aggregate vs decode-then-count** — ``COUNT(*)`` folded inside the
   engine over encoded ids against the pre-aggregation baseline: run
   the plain SELECT, materialize (decode) every row, and count in
   Python.  The pure COUNT must record ``terms_decoded == 0`` (the
   zero-decode acceptance gate).

3. **High-fanout GROUP BY** — group thousands of rows by course and by
   advisor, folding COUNT / COUNT(DISTINCT) on ids; the baseline
   decodes every row and groups with a Python dict.

``python benchmarks/bench_aggregates.py`` prints the tables; ``--emit``
writes ``BENCH_aggregates.json`` (``BENCH_pr8.json`` is the committed
baseline ``check_regression.py`` gates against — including the
``terms_decoded`` / ``rows_kernel_filtered`` counter bands).  Exits
non-zero if a fold disagrees with its decode-then-count baseline or a
pure COUNT decodes a term.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Dict, List

from repro.core import SparqlUOEngine

try:
    from .common import bench_record, emit_bench_json, format_table, lubm_store
except ImportError:
    from common import bench_record, emit_bench_json, format_table, lubm_store

REPEATS = 5

#: Kernel-eligible FILTER shapes (equality / comparison over one var).
KERNEL_QUERIES = {
    "name_equality": """
        SELECT ?s ?c WHERE {
          ?s ub:name ?n .
          ?s ub:takesCourse ?c .
          FILTER (?n = "UndergraduateStudent42")
        }
    """,
    "email_disjunction": """
        SELECT ?s ?e WHERE {
          ?s ub:emailAddress ?e .
          ?s ub:takesCourse ?c .
          FILTER (?e = "UndergraduateStudent3@Department0.University0.edu" ||
                  ?e = "UndergraduateStudent7@Department1.University1.edu")
        }
    """,
}

#: Pure COUNT: the zero-decode acceptance gate (terms_decoded == 0 —
#: no FILTER, so not even the kernel verdict memo touches the
#: dictionary).
PURE_COUNT = "SELECT (COUNT(*) AS ?n) WHERE { ?s ub:takesCourse ?c }"
PURE_SELECT = "SELECT ?s ?c WHERE { ?s ub:takesCourse ?c }"

#: filter-heavy COUNT.  The aggregate folds on ids behind a batch kernel; the baseline
#: decodes every row and counts in Python.  (The kernel memo decodes each *distinct* filtered id once, so
#: terms_decoded is bounded by distinct courses, not result rows.)
FILTER_HEAVY_COUNT = """
    SELECT (COUNT(*) AS ?n) WHERE {
      ?s a ub:UndergraduateStudent .
      ?s ub:takesCourse ?c .
      FILTER (?c != ub:nothing)
    }
"""
FILTER_HEAVY_SELECT = """
    SELECT ?s ?c WHERE {
      ?s a ub:UndergraduateStudent .
      ?s ub:takesCourse ?c .
      FILTER (?c != ub:nothing)
    }
"""

GROUP_QUERIES = {
    "count_by_course": (
        """
        SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s ub:takesCourse ?c }
        GROUP BY ?c
        """,
        """
        SELECT ?s ?c WHERE { ?s ub:takesCourse ?c }
        """,
        "c",
    ),
    "students_by_advisor": (
        """
        SELECT ?a (COUNT(DISTINCT ?s) AS ?n) WHERE {
          ?s ub:advisor ?a . ?s ub:takesCourse ?c
        } GROUP BY ?a
        """,
        """
        SELECT ?s ?a WHERE { ?s ub:advisor ?a . ?s ub:takesCourse ?c }
        """,
        "a",
    ),
}


def run(engine: SparqlUOEngine, query: str):
    """Median wall time over REPEATS plus the last run's result."""
    times: List[float] = []
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = engine.execute(query)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2] * 1000.0, result


def decode_then_count(engine: SparqlUOEngine, query: str):
    """The pre-aggregation baseline: decode every row, count in Python."""
    times: List[float] = []
    count = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = engine.execute(query)
        count = sum(1 for _ in result)  # iterating materializes decoded rows
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2] * 1000.0, count


def decode_then_group(engine: SparqlUOEngine, query: str, key: str):
    """Decode every row, group with a Python dict (the old workflow)."""
    times: List[float] = []
    groups: Counter = Counter()
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = engine.execute(query)
        groups = Counter(mu.get(key) for mu in result)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2] * 1000.0, groups


def main() -> int:
    store = lubm_store()
    records: List[Dict] = []
    failures: List[str] = []

    print(f"store: {store!r}\n")
    print("== filter kernels: batch compare-and-compact ==")
    rows = []
    for engine_name in ("wco", "hashjoin"):
        kernel_engine = SparqlUOEngine(store, bgp_engine=engine_name)
        for query_name, query in KERNEL_QUERIES.items():
            kernel_ms, kernel_result = run(kernel_engine, query)
            screened = kernel_result.exec_counters["rows_kernel_filtered"]
            if screened == 0:
                failures.append(
                    f"{engine_name}/{query_name}: eligible filter never hit "
                    "the batch kernel path"
                )
            rows.append(
                [engine_name, query_name, len(kernel_result), screened,
                 f"{kernel_ms:.2f}"]
            )
            records.append(
                bench_record(
                    "kernel_filters", query_name, engine_name, "kernels", kernel_ms,
                    results=len(kernel_result),
                    rows_kernel_filtered=screened,
                    terms_decoded=kernel_result.exec_counters["terms_decoded"],
                )
            )
    print(format_table(
        ["engine", "query", "results", "rows screened", "kernel ms"], rows))

    print("\n== COUNT(*): in-engine fold vs decode-then-count ==")
    rows = []
    for engine_name in ("wco", "hashjoin"):
        engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
        for query_name, agg_query, flat_query in (
            ("pure_count", PURE_COUNT, PURE_SELECT),
            ("filter_heavy_count", FILTER_HEAVY_COUNT, FILTER_HEAVY_SELECT),
        ):
            agg_ms, agg_result = run(engine, agg_query)
            base_ms, base_count = decode_then_count(engine, flat_query)
            (solution,) = list(agg_result)
            folded = int(solution["n"].lexical)
            if folded != base_count:
                failures.append(
                    f"{engine_name}/{query_name}: COUNT folded {folded}, "
                    f"baseline counted {base_count}"
                )
            decoded = agg_result.exec_counters["terms_decoded"]
            if query_name == "pure_count" and decoded != 0:
                failures.append(
                    f"{engine_name}: pure COUNT decoded {decoded} terms (must be 0)"
                )
            speedup = base_ms / agg_ms if agg_ms > 0 else float("inf")
            # BENCH_pr8's filter-heavy ratio was taken against a per-row
            # filter loop that no longer exists, so only the pure COUNT
            # ratio is recorded for check_regression to gate.
            gated = {"speedup": round(speedup, 2)} if query_name == "pure_count" else {}
            rows.append(
                [engine_name, query_name, folded, decoded, f"{agg_ms:.2f}",
                 f"{base_ms:.2f}", f"{speedup:.2f}x"]
            )
            records.append(
                bench_record(
                    "aggregate_vs_decode", query_name, engine_name,
                    "full", agg_ms,
                    results=folded, terms_decoded=decoded,
                    rows_kernel_filtered=agg_result.exec_counters[
                        "rows_kernel_filtered"
                    ],
                    decode_wall_ms=round(base_ms, 3),
                    **gated,
                )
            )
    print(format_table(
        ["engine", "query", "count", "terms decoded", "aggregate ms",
         "decode+count ms", "speedup"], rows))

    print("\n== high-fanout GROUP BY vs decode-then-group ==")
    rows = []
    for engine_name in ("wco", "hashjoin"):
        engine = SparqlUOEngine(store, bgp_engine=engine_name, mode="full")
        for query_name, (grouped, flat, key) in GROUP_QUERIES.items():
            agg_ms, agg_result = run(engine, grouped)
            base_ms, base_groups = decode_then_group(engine, flat, key)
            if query_name == "count_by_course":
                engine_groups = {
                    mu[key]: int(mu["n"].lexical) for mu in agg_result
                }
                if engine_groups != dict(base_groups):
                    failures.append(f"{engine_name}/{query_name}: group mismatch")
            elif len(agg_result) != len(base_groups):
                failures.append(
                    f"{engine_name}/{query_name}: {len(agg_result)} groups "
                    f"vs baseline {len(base_groups)}"
                )
            speedup = base_ms / agg_ms if agg_ms > 0 else float("inf")
            rows.append(
                [engine_name, query_name, len(agg_result),
                 agg_result.exec_counters["terms_decoded"],
                 f"{agg_ms:.2f}", f"{base_ms:.2f}", f"{speedup:.2f}x"]
            )
            records.append(
                bench_record(
                    "group_by", query_name, engine_name, "full", agg_ms,
                    results=len(agg_result),
                    terms_decoded=agg_result.exec_counters["terms_decoded"],
                    rows_kernel_filtered=agg_result.exec_counters[
                        "rows_kernel_filtered"
                    ],
                    decode_wall_ms=round(base_ms, 3), speedup=round(speedup, 2),
                )
            )
    print(format_table(
        ["engine", "query", "groups", "terms decoded", "group ms",
         "decode+dict ms", "speedup"], rows))

    if "--emit" in sys.argv:
        path = emit_bench_json("aggregates", records)
        print(f"\nwrote {path}")
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
