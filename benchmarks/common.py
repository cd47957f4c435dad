"""Shared infrastructure for the benchmark harness.

Stores are built once per process (module-level caches) and snapshot-
cached across processes (``benchmarks/.snapshots/``, see
``repro.datasets.cached_store``), at "repro scale": the paper's
datasets hold 0.5–2 G triples on a 256 GB server; ours hold tens of
thousands on a laptop.  Absolute numbers therefore differ by
construction — the benches exist to reproduce the *shapes*: which
strategy wins per query, by roughly what factor, and how times scale
(see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, List

from repro.core import ExecutionMode, QueryResult, SparqlUOEngine
from repro.datasets import SNAPSHOT_DIR_ENV, cached_store
from repro.storage import TripleStore

__all__ = [
    "lubm_store",
    "dbpedia_store",
    "engine_for",
    "MODES",
    "BGP_ENGINES",
    "GROUP1",
    "GROUP2",
    "format_table",
    "bench_record",
    "emit_bench_json",
]

#: Repository root — machine-readable benchmark output lands here.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: The four strategies of §7.1 and the two host BGP engines.
MODES = ("base", "tt", "cp", "full")
BGP_ENGINES = ("wco", "hashjoin")

GROUP1 = ["q1.1", "q1.2", "q1.3", "q1.4", "q1.5", "q1.6"]
GROUP2 = ["q2.1", "q2.2", "q2.3", "q2.4", "q2.5", "q2.6"]

#: Default repro scales.  LUBM needs >= 13 universities so q2.5/q2.6's
#: University12 exists; DBpedia's article count balances runtime vs the
#: heavy-tailed wikilink shape.
LUBM_UNIVERSITIES = 13
DBPEDIA_ARTICLES = 1500

#: Where benches cache store snapshots across processes.  Every bench
#: in a run (and every run on a machine / CI job) reuses the same
#: prebuilt snapshot instead of regenerating and re-encoding the
#: dataset; override with $REPRO_SNAPSHOT_DIR, point it at an empty
#: directory to force a rebuild.
SNAPSHOT_DIR = Path(
    os.environ.get(SNAPSHOT_DIR_ENV) or Path(__file__).resolve().parent / ".snapshots"
)


@lru_cache(maxsize=None)
def lubm_store(universities: int = LUBM_UNIVERSITIES) -> TripleStore:
    # lazy=False: benches time queries against a fully materialized
    # store, not first-touch index builds.
    return cached_store(
        "lubm", SNAPSHOT_DIR, universities=universities, lazy=False
    )


@lru_cache(maxsize=None)
def dbpedia_store(articles: int = DBPEDIA_ARTICLES) -> TripleStore:
    return cached_store("dbpedia", SNAPSHOT_DIR, articles=articles, lazy=False)


def store_for(dataset: str) -> TripleStore:
    if dataset == "lubm":
        return lubm_store()
    if dataset == "dbpedia":
        return dbpedia_store()
    raise ValueError(f"unknown dataset {dataset!r}")


def engine_for(dataset: str, bgp_engine: str, mode: str) -> SparqlUOEngine:
    return SparqlUOEngine(store_for(dataset), bgp_engine=bgp_engine, mode=mode)


def record(result: QueryResult) -> Dict[str, float]:
    """The per-run observations every bench attaches as extra_info."""
    return {
        "results": len(result),
        "execute_ms": round(result.execute_seconds * 1000, 3),
        "transform_ms": round(result.transform_seconds * 1000, 3),
        "join_space": result.join_space,
    }


def bench_record(
    bench: str, query: str, engine: str, mode: str, wall_ms: float, **extra
) -> Dict:
    """One machine-readable benchmark observation.

    The fixed fields (bench, query, engine, mode, wall_ms) are the
    cross-PR perf-trajectory schema; bench-specific observations
    (join_space, result counts, speedups, scale knobs) ride along as
    extra keys.
    """
    out: Dict = {
        "bench": bench,
        "query": query,
        "engine": engine,
        "mode": mode,
        "wall_ms": round(wall_ms, 3),
    }
    out.update(extra)
    return out


def emit_bench_json(name: str, records: List[Dict]) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root and return its path.

    Published atomically (the snapshot layer's tmp + fsync + rename
    helper): an interrupted run can never leave a truncated file — the
    same discipline the ``.snapshots/`` store cache gets from
    ``cached_store``.
    """
    from repro.storage import atomic_overwrite

    path = REPO_ROOT / f"BENCH_{name}.json"
    with atomic_overwrite(str(path)) as handle:
        handle.write(
            (json.dumps(records, indent=2, sort_keys=True) + "\n").encode("utf-8")
        )
    return path


def format_table(headers: List[str], rows: List[List]) -> str:
    """Fixed-width text table (the shape the paper's tables print in)."""
    columns = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(columns):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
