"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the common workflows:

``query``     run a SPARQL-UO query over an N-Triples file or a binary
              store snapshot (detected by magic, so ``data.snap`` and
              ``data.nt`` are interchangeable here)::

                  python -m repro query data.nt "SELECT ?x WHERE { … }"
                  python -m repro query data.snap -f query.rq --mode base
                  python -m repro query data.snap -f query.rq --format json

``serve``     expose a snapshot as a SPARQL 1.1 Protocol HTTP endpoint
              backed by a pool of worker processes::

                  python -m repro serve data.snap --workers 4 --timeout 10

``generate``  write a synthetic benchmark dataset (optionally also as a
              snapshot)::

                  python -m repro generate lubm out.nt --universities 2
                  python -m repro generate dbpedia out.nt --articles 1000 --snapshot out.snap

``snapshot``  build and inspect persistent binary store snapshots::

                  python -m repro snapshot build data.nt data.snap
                  python -m repro snapshot info data.snap --verify

``wal``       inspect a write-ahead log (frame inventory, torn/corrupt
              verdict with the same exit codes as ``snapshot info``)::

                  python -m repro wal info updates.wal

``stats``     print Table-2-style statistics for an N-Triples file.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .core.engine import EngineOptions, SparqlUOEngine
from .datasets.dbpedia import generate_dbpedia
from .datasets.lubm import generate_lubm
from .rdf.ntriples import dump_ntriples, load_ntriples
from .sparql.errors import SparqlError
from .storage.snapshot import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotReader,
    SnapshotTornError,
    is_snapshot,
)
from .storage.store import TripleStore

__all__ = ["main", "build_parser"]


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _load_store(path: str) -> TripleStore:
    """A queryable store from either a snapshot or an N-Triples file.

    Snapshots are checksummed up front (``verify=True``): the CLI has
    no rebuild path, so payload corruption must surface here as the
    handled ``error: ...`` exit, not as a traceback from a lazy first
    touch mid-query.
    """
    if is_snapshot(path):
        return TripleStore.load(path, verify=True)
    return TripleStore.from_dataset(load_ntriples(path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPARQL-UO query engine (BE-tree transformations + candidate pruning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run a SPARQL query over an N-Triples file")
    query.add_argument("data", help="N-Triples file to query")
    query.add_argument("sparql", nargs="?", help="query text (or use -f)")
    query.add_argument("-f", "--file", help="read the query from a file")
    query.add_argument(
        "--mode",
        choices=["base", "tt", "cp", "full"],
        default="full",
        help="execution strategy (paper §7.1); default: full",
    )
    query.add_argument(
        "--engine",
        choices=["wco", "hashjoin"],
        default="wco",
        help="host BGP engine; default: wco (gStore-style)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the plan: BE-tree, transform report, BGP cost estimates",
    )
    query.add_argument("--stats", action="store_true", help="print execution statistics")
    query.add_argument(
        "--trace",
        nargs="?",
        const="tree",
        choices=["tree", "json"],
        default=None,
        help="record per-operator spans and print the trace after the "
        "results (tree: EXPLAIN-ANALYZE-style annotated tree; json: "
        "the raw span tree)",
    )
    query.add_argument(
        "--limit", type=_non_negative_int, default=None, help="print at most N rows"
    )
    query.add_argument(
        "--format",
        choices=["table", "json", "csv", "tsv"],
        default="table",
        help="result rendering: human-readable table (default) or the "
        "W3C SPARQL 1.1 results formats",
    )

    serve = sub.add_parser(
        "serve", help="serve a snapshot as a SPARQL 1.1 Protocol endpoint"
    )
    serve.add_argument("data", help="store snapshot (.snap; .nt accepted but slower)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=2, help="worker processes")
    serve.add_argument(
        "--timeout", type=float, default=30.0, help="per-query budget in seconds"
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=0,
        help="requests allowed to wait for a worker before 503 (0: 2x workers)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="result-cache capacity in entries (0 disables caching)",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="result-cache capacity in payload bytes",
    )
    serve.add_argument(
        "--engine", choices=["wco", "hashjoin"], default="wco", help="worker BGP engine"
    )
    serve.add_argument(
        "--mode", choices=["base", "tt", "cp", "full"], default="full"
    )
    serve.add_argument(
        "--log-requests", action="store_true", help="log every request to stderr"
    )
    serve.add_argument(
        "--drain",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait up to this long for in-flight "
        "queries to finish before closing the worker pool",
    )
    serve.add_argument(
        "--stale-while-error",
        action="store_true",
        help="serve a cached result from any generation (tagged "
        "X-Repro-Stale: 1) when execution fails, instead of a 5xx",
    )
    serve.add_argument(
        "--faults",
        default="",
        metavar="SPEC",
        help="fault-injection spec for chaos testing, e.g. "
        "'worker.exec:crash@3;cache.get:io_error@0.1#seed=7' "
        "(see repro.faults; defaults to $REPRO_FAULTS)",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability (0..1) of tracing a request that did not ask "
        "for a trace; sampled traces feed the slow-query log",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="log queries slower than this to the slow-query log "
        "(0 disables the latency trigger)",
    )
    serve.add_argument(
        "--slow-query-log",
        default="",
        metavar="PATH",
        help="JSONL file for slow/sampled/timed-out queries "
        "(size-bounded; see README Observability)",
    )
    serve.add_argument(
        "--stats-dump",
        default="",
        metavar="PATH",
        help="write the template-stats registry to this file on SIGUSR1 "
        "('-' for stderr)",
    )
    serve.add_argument(
        "--compact-threshold",
        type=int,
        default=0,
        metavar="TRIPLES",
        help="fold the live-write delta into the data file (atomic "
        "overwrite) once it holds this many pending adds+tombstones; "
        "0 disables background compaction.  The data file must be a "
        "snapshot (make one with `repro snapshot build`): serve refuses "
        "to start on N-Triples, which compaction would overwrite",
    )
    serve.add_argument(
        "--wal",
        default="",
        metavar="PATH",
        help="write-ahead log: every committed POST /update is appended "
        "and fsynced here before its 2xx ack, and startup replays the "
        "un-compacted tail, so acked updates survive kill -9; empty "
        "disables durability (the pre-WAL behaviour)",
    )
    serve.add_argument(
        "--wal-fsync",
        choices=["always", "interval", "off"],
        default="interval",
        help="WAL fsync policy: 'always' fsyncs per update, 'interval' "
        "group-commits (concurrent updates share fsyncs, every ack "
        "still waits for durability; default), 'off' leaves fsync to "
        "OS writeback (acks may precede durability)",
    )

    generate = sub.add_parser("generate", help="write a synthetic benchmark dataset")
    generate.add_argument("flavor", choices=["lubm", "dbpedia"])
    generate.add_argument("output", help="output .nt path")
    generate.add_argument("--universities", type=int, default=1, help="LUBM scale knob")
    generate.add_argument("--articles", type=int, default=1000, help="DBpedia scale knob")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument(
        "--snapshot",
        metavar="PATH",
        help="also write a binary store snapshot of the generated data",
    )

    snapshot = sub.add_parser("snapshot", help="build / inspect binary store snapshots")
    snapshot_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)

    build = snapshot_sub.add_parser(
        "build", help="bulk-load an N-Triples file into a snapshot"
    )
    build.add_argument("data", help="input .nt file")
    build.add_argument("output", help="output snapshot path")

    info = snapshot_sub.add_parser("info", help="print snapshot header metadata")
    info.add_argument("snapshot", help="snapshot file")
    info.add_argument(
        "--verify",
        action="store_true",
        help="additionally checksum every section",
    )

    wal = sub.add_parser("wal", help="inspect write-ahead logs")
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)
    wal_info = wal_sub.add_parser(
        "info",
        help="print WAL frame metadata (every frame is CRC-checked; "
        "exit 2 on a torn tail, 3 on corruption)",
    )
    wal_info.add_argument("wal", help="write-ahead log file")

    stats = sub.add_parser("stats", help="print dataset statistics (Table 2 shape)")
    stats.add_argument("data", help="N-Triples file")

    return parser


def _read_query(args) -> str:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    if args.sparql:
        return args.sparql
    raise SystemExit("error: provide the query inline or via -f/--file")


def _command_query(args, out) -> int:
    load_start = time.perf_counter()
    try:
        store = _load_store(args.data)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    load_seconds = time.perf_counter() - load_start

    engine = SparqlUOEngine(
        store, options=EngineOptions(bgp_engine=args.engine, mode=args.mode)
    )
    text = _read_query(args)

    if args.explain:
        print(engine.explain(text), file=out)
        return 0

    from .sparql.parser import is_update_request

    tracer = None
    if args.trace:
        from .obs import trace as _obs_trace

        # The CLI is a one-query process: arming the global is exactly
        # the worker discipline, and every engine span lands under it.
        tracer = _obs_trace.arm(_obs_trace.Tracer("query"))

    if is_update_request(text):
        return _run_update(engine, text, args, out, tracer)

    try:
        result = engine.execute(text)
    except SparqlError as exc:
        if tracer is not None:
            _finish_trace(tracer, args, sys.stderr, aborted=type(exc).__name__)
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format != "table":
        from .sparql.results import WRITERS

        solutions = result.solutions
        if args.limit is not None:
            solutions = solutions.head(args.limit)  # still id-level: renders N rows
        # Streamed chunk by chunk: no second in-memory copy of the payload.
        WRITERS[args.format](out, result.variables, solutions)
        if args.format == "json":
            out.write("\n")
    else:
        print("\t".join(f"?{v}" for v in result.variables), file=out)
        shown = result.solutions
        if args.limit is not None:
            shown = shown.head(args.limit)
        for row in shown:
            cells = [row[v].n3() if v in row else "" for v in result.variables]
            print("\t".join(cells), file=out)
        if len(shown) < len(result):
            print(f"… ({len(result) - len(shown)} more rows)", file=out)

    if args.stats:
        report = result.transform_report
        # Stats must not corrupt a machine-readable payload: with
        # --format json/csv/tsv they go to stderr instead.
        stats_out = out if args.format == "table" else sys.stderr
        print(
            f"# {len(result)} rows | load {load_seconds * 1000:.1f} ms | "
            f"parse {result.parse_seconds * 1000:.1f} ms | "
            f"transform {result.transform_seconds * 1000:.1f} ms | "
            f"execute {result.execute_seconds * 1000:.1f} ms | "
            f"join space {result.join_space:.3g} | "
            f"transformations {report.transformations if report else 0} | "
            f"pruned BGP evals {result.trace.pruned_evaluations}",
            file=stats_out,
        )
        counters = result.exec_counters
        print(
            "# exec: "
            + " | ".join(f"{name} {value}" for name, value in counters.items()),
            file=stats_out,
        )
        print(
            f"# decode: {counters.get('terms_decoded', 0)} terms materialized | "
            f"{counters.get('batch_decoded_ids', 0)} batch-decoded ids | "
            f"{counters.get('rows_kernel_filtered', 0)} rows batch-screened",
            file=stats_out,
        )
        if result.template is not None:
            print(f"# template: {result.template['hash']}", file=stats_out)
    if tracer is not None:
        _finish_trace(tracer, args, out if args.format == "table" else sys.stderr)
    return 0


def _finish_trace(tracer, args, stream, aborted=None) -> None:
    """Print the finished span tree (annotated tree or raw JSON)."""
    import json as _json

    from .obs import trace as _obs_trace

    tree = tracer.finish(aborted=aborted)
    _obs_trace.disarm()
    if args.trace == "json":
        print(_json.dumps(tree), file=stream)
    else:
        print("# trace:", file=stream)
        print(_obs_trace.render_trace(tree), file=stream)


def _run_update(engine, text, args, out, tracer) -> int:
    """``repro query`` with UPDATE text: apply it and report what moved."""
    try:
        result = engine.update(text)
    except SparqlError as exc:
        if tracer is not None:
            _finish_trace(tracer, args, sys.stderr, aborted=type(exc).__name__)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"update OK: {result.added} added, {result.removed} removed "
        f"({result.operations} operation{'s' if result.operations != 1 else ''}, "
        f"generation {result.generation})",
        file=out,
    )
    if args.stats:
        adds, tombstones = engine.store.pending_delta
        print(
            f"# parse {result.parse_seconds * 1000:.1f} ms | "
            f"apply {result.apply_seconds * 1000:.1f} ms | "
            f"delta depth {adds} adds + {tombstones} tombstones pending",
            file=out,
        )
    if tracer is not None:
        _finish_trace(tracer, args, out)
    return 0


def _command_serve(args, out) -> int:
    import os

    from . import faults
    from .server import ServerConfig, serve as run_server

    config = ServerConfig(
        data=args.data,
        host=args.host,
        port=args.port,
        workers=args.workers,
        timeout=args.timeout,
        queue_size=args.queue_size,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        engine=args.engine,
        mode=args.mode,
        log_requests=args.log_requests,
        drain_seconds=args.drain,
        stale_while_error=args.stale_while_error,
        compact_threshold=args.compact_threshold,
        trace_sample=args.trace_sample,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log,
        stats_dump=args.stats_dump,
        wal=args.wal,
        wal_fsync=args.wal_fsync,
        # One resolved spec drives the parent and every worker; the
        # env var is the no-flag path chaos harnesses use.
        faults=args.faults or os.environ.get(faults.ENV_VAR, ""),
    )
    try:
        return run_server(config, out=out)
    except faults.FaultSpecError as exc:
        print(f"error: bad --faults spec: {exc}", file=sys.stderr)
        return 2


def _command_generate(args, out) -> int:
    if args.flavor == "lubm":
        dataset = generate_lubm(universities=args.universities, seed=args.seed)
    else:
        dataset = generate_dbpedia(articles=args.articles, seed=args.seed)
    dump_ntriples(dataset, args.output)
    stats = dataset.statistics()
    print(f"wrote {stats['triples']} triples to {args.output}", file=out)
    if args.snapshot:
        TripleStore.from_dataset(dataset).save(args.snapshot)
        print(f"wrote snapshot to {args.snapshot}", file=out)
    return 0


def _command_snapshot(args, out) -> int:
    if args.snapshot_command == "build":
        start = time.perf_counter()
        store = TripleStore.bulk_load(args.data)
        store.save(args.output)
        elapsed = time.perf_counter() - start
        print(
            f"wrote snapshot of {len(store)} triples "
            f"({len(store.dictionary)} terms) to {args.output} "
            f"in {elapsed * 1000:.1f} ms",
            file=out,
        )
        return 0
    try:
        with SnapshotReader(args.snapshot) as reader:
            info = reader.info()
            permutations_ok = None
            if args.verify:
                reader.verify()
                # Beyond checksums: the merge-join / galloping paths
                # assume the persisted permutations are sorted; validate
                # that invariant at inspection time instead of letting a
                # bad snapshot silently degrade (or corrupt) execution.
                permutations_ok = reader.verify_permutations()
            print(f"path          {info['path']}", file=out)
            print(f"format        v{info['format_version']}", file=out)
            print(f"generation    {info['generation']}", file=out)
            print(f"triples       {info['triples']}", file=out)
            print(f"terms         {info['terms']}", file=out)
            print(f"file bytes    {info['file_bytes']}", file=out)
            for name, offset, length in info["sections"]:
                print(f"section {name}  offset={offset}  bytes={length}", file=out)
            if args.verify:
                print("checksums     OK", file=out)
                if permutations_ok:
                    print("permutations  OK (sorted pair-keys, run boundaries)", file=out)
                else:
                    print("permutations  absent (indexes rebuild on load)", file=out)
    except SnapshotCorruptError as exc:
        # The file is structurally complete but its contents are wrong
        # (checksum mismatch, malformed records): re-reading will not
        # help; the snapshot must be rebuilt from source data.
        print(f"error: corrupt snapshot: {exc}", file=sys.stderr)
        print(
            "hint: quarantine the file (mv to *.corrupt) and rebuild with "
            "'repro snapshot build'; a running server keeps serving its "
            "last-good generation meanwhile",
            file=sys.stderr,
        )
        return 3
    except SnapshotTornError as exc:
        # Truncated or unreadable — typically an interrupted non-atomic
        # copy, a partial download, or an underlying I/O error.
        print(f"error: torn/unreadable snapshot: {exc}", file=sys.stderr)
        print(
            "hint: the file is incomplete — restore it from its source or "
            "rebuild with 'repro snapshot build' (writes are atomic: an "
            "interrupted build never leaves a torn file at the target path)",
            file=sys.stderr,
        )
        return 2
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _command_wal(args, out) -> int:
    """``repro wal info``: frame inventory plus the torn/corrupt verdict.

    Exit codes mirror ``snapshot info``: 0 clean, 2 torn (incomplete —
    the expected crash artifact, truncated automatically on the next
    server start), 3 corrupt (complete but wrong — refuses to load).
    """
    import os

    from .storage.wal import WalCorruptError, scan_wal

    try:
        scan = scan_wal(args.wal)
    except WalCorruptError as exc:
        print(f"error: corrupt write-ahead log: {exc}", file=sys.stderr)
        print(
            "hint: frames past the corruption cannot be trusted; restore "
            "the log from backup or move it aside and accept the loss of "
            "its acked updates",
            file=sys.stderr,
        )
        return 3
    if not scan.exists:
        print(f"error: no such write-ahead log: {args.wal}", file=sys.stderr)
        return 2
    print(f"path          {args.wal}", file=out)
    print(f"file bytes    {os.path.getsize(args.wal)}", file=out)
    print(f"records       {len(scan.records)}", file=out)
    if scan.records:
        print(f"generations   {scan.records[0].generation}..{scan.records[-1].generation}", file=out)
        payload = sum(len(record.text.encode("utf-8")) for record in scan.records)
        print(f"update bytes  {payload}", file=out)
    if scan.torn is not None:
        print(f"torn tail     {scan.torn}", file=out)
        print(
            "hint: the final append was interrupted (crash signature); "
            "the next `repro serve --wal` truncates the tail and replays "
            "every complete frame — no acked update is lost",
            file=sys.stderr,
        )
        return 2
    print("integrity     OK (all frames complete, checksums match)", file=out)
    return 0


def _command_stats(args, out) -> int:
    dataset = load_ntriples(args.data)
    stats = dataset.statistics()
    for key in ("triples", "entities", "predicates", "literals"):
        print(f"{key:12s} {stats[key]}", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "query":
        return _command_query(args, out)
    if args.command == "serve":
        return _command_serve(args, out)
    if args.command == "generate":
        return _command_generate(args, out)
    if args.command == "snapshot":
        return _command_snapshot(args, out)
    if args.command == "wal":
        return _command_wal(args, out)
    if args.command == "stats":
        return _command_stats(args, out)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
