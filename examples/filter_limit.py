"""FILTER + LIMIT example: pushdown through the BE-tree.

Generates a one-university LUBM graph, then runs a query that combines
a selective REGEX FILTER with LIMIT paging.  The engine evaluates the
filter *inside* the columnar scan pipeline (shrinking every join it
feeds) and stops producing solutions at the page boundary; for
comparison the same page query runs without its LIMIT, which
materializes every solution.

Run with:  python examples/filter_limit.py
"""

import time

from repro import SparqlUOEngine
from repro.datasets import generate_lubm

QUERY = """
    SELECT ?student ?name ?course WHERE {
      ?student a ub:UndergraduateStudent .
      ?student ub:name ?name .
      ?student ub:takesCourse ?course .
      FILTER (REGEX(?name, "^UndergraduateStudent[0-9]$"))
    }
    ORDER BY ?name LIMIT 5
"""

PAGE_QUERY = """
    SELECT ?student ?course WHERE {
      ?student ub:takesCourse ?course .
      ?student ub:memberOf ?dept .
    }
    LIMIT 8
"""


def timed(engine: SparqlUOEngine, query: str):
    start = time.perf_counter()
    result = engine.execute(query)
    return result, (time.perf_counter() - start) * 1000.0


def main() -> None:
    dataset = generate_lubm(universities=1)
    print(f"LUBM graph: {dataset.statistics()['triples']} triples")

    engine = SparqlUOEngine.for_dataset(dataset, bgp_engine="wco", mode="full")

    print("\n-- filtered, ordered page (FILTER + ORDER BY + LIMIT 5) --")
    result, _ = timed(engine, QUERY)
    for row in result:
        print(f"  {row['name'].lexical:28s} {row['course'].value}")

    print("\n-- LIMIT early termination (no ORDER BY) --")
    page, page_ms = timed(engine, PAGE_QUERY)
    full, full_ms = timed(engine, PAGE_QUERY.replace("LIMIT 8", ""))
    page_rows = sum(page.trace.bgp_result_sizes.values())
    full_rows = sum(full.trace.bgp_result_sizes.values())
    print(f"  LIMIT 8:  {len(page)} results, {page_rows} BGP rows materialized, {page_ms:.2f} ms")
    print(f"  no LIMIT: {len(full)} results, {full_rows} BGP rows materialized, {full_ms:.2f} ms")
    print(f"  early termination materialized {full_rows - page_rows} fewer rows")

    print("\n-- plan (BE-tree with the filter in place) --")
    print(engine.explain(QUERY))


if __name__ == "__main__":
    main()
