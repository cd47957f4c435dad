"""Benchmark-regression gate: compare fresh bench JSON against committed
``BENCH_*.json`` baselines within a tolerance band.

Usage (what the CI ``bench-regression`` job runs)::

    python benchmarks/check_regression.py \\
        --baseline BENCH_pr1.json --baseline BENCH_pr3.json \\
        --fresh BENCH_bags_micro.json --fresh BENCH_snapshot_load.json

Records pair up on (bench, query, engine, mode) plus any scale knobs
present (universities / articles).  For each pair the gate checks, in
order of preference, the most machine-independent observable available:

``results``     result cardinality — must match **exactly** (a mismatch
                is a correctness regression, no tolerance).
``speedup``     ratio of two timings taken on the *same* host in the
                same run (e.g. columnar vs seed operators, snapshot
                load vs re-ingest) — robust across machines.  Fails
                when ``fresh < baseline / tolerance``.
``join_space``  the paper's deterministic plan-quality metric — fails
                when ``fresh > baseline * js_tolerance`` (tight band:
                it should be bit-stable).
``rows_materialized`` / ``probe_count`` / ``terms_decoded``
                deterministic physical-execution counters (rows emitted
                into result bags, galloping probes performed, dictionary
                ids materialized into terms) — fail when
                ``fresh > baseline * counter_tolerance``; a growth
                here means an execution path silently degraded (e.g.
                merge joins falling back to hash joins, or an aggregate
                starting to decode) even if wall time on the CI host
                looks fine.  A ``terms_decoded`` baseline of 0 is the
                zero-decode gate: *any* fresh decode fails.
``rows_kernel_filtered``
                floor-checked (``fresh < baseline / counter_tolerance``
                fails): this counter measures rows screened by the
                vectorized filter kernels, so a regression is a *drop*
                — eligible predicates falling back to the per-row loop.
``overhead_pct``
                the disarmed-tracer overhead bound from
                ``bench_trace_overhead.py`` — fails when fresh exceeds
                ``min(baseline * 50, 2.0)``: the generous relative
                band absorbs host-dependent check pricing while still
                catching an accidentally instrumented hot loop (the
                deterministic site count jumping orders of magnitude),
                and the absolute 2% acceptance bar always applies.
``wall_ms``     raw wall time — only meaningful when baseline and fresh
                come from comparable hosts, so it is gated behind
                ``--wall-tolerance`` and skipped otherwise (CI runners
                are not the laptops that recorded the baselines).

Exit status: 0 when every compared pair is inside its band, 1 otherwise
(and 2 for usage errors).  ``--require-coverage`` additionally fails
when a baseline record has no fresh counterpart, so a silently skipped
bench cannot masquerade as a pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Extra keys that disambiguate records sharing (bench, query, engine,
#: mode) — scale sweeps emit one record per knob value.  ``variant``
#: (the build a record was measured at) is deliberately NOT part of the
#: key: cross-PR pairing matches a fresh record to any build's baseline.
SCALE_KEYS = ("universities", "articles", "scale")

Key = Tuple


def record_key(record: Dict) -> Key:
    base = (
        record.get("bench"),
        record.get("query"),
        record.get("engine"),
        record.get("mode"),
    )
    extras = tuple((key, record[key]) for key in SCALE_KEYS if key in record)
    return base + extras


def load_records(paths: List[str]) -> List[Dict]:
    records: List[Dict] = []
    for path in paths:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot read {path}: {exc}")
        if not isinstance(payload, list):
            raise SystemExit(f"error: {path} is not a list of bench records")
        records.extend(payload)
    return records


def merge_baselines(records: List[Dict]) -> Dict[Key, Dict]:
    """Fold duplicate baseline keys into their best observation.

    Baseline files may carry both ``variant: seed`` and current-code
    rows for the same key; the gate compares against the best (max
    speedup, min join_space / wall), i.e. the strongest bar on record.
    """
    merged: Dict[Key, Dict] = {}
    for record in records:
        key = record_key(record)
        slot = merged.setdefault(key, {})
        for field, better in (
            ("speedup", max),
            ("join_space", min),
            ("wall_ms", min),
            ("rows_materialized", min),
            ("probe_count", min),
            ("terms_decoded", min),
            ("rows_kernel_filtered", max),
            ("overhead_pct", min),
        ):
            if field in record:
                value = record[field]
                slot[field] = better(slot[field], value) if field in slot else value
        if "results" in record:
            slot.setdefault("results", record["results"])
    return merged


def check(
    baselines: Dict[Key, Dict],
    fresh: List[Dict],
    tolerance: float,
    js_tolerance: float,
    wall_tolerance: Optional[float],
    counter_tolerance: float = 1.1,
) -> Tuple[List[str], List[str], int]:
    failures: List[str] = []
    notes: List[str] = []
    compared = 0
    covered = set()
    for record in fresh:
        key = record_key(record)
        base = baselines.get(key)
        if base is None:
            continue
        covered.add(key)
        label = "/".join(str(part) for part in key[:4])
        checked_any = False
        if "results" in record and "results" in base:
            compared += 1
            checked_any = True
            if record["results"] != base["results"]:
                failures.append(
                    f"{label}: result count {record['results']} != "
                    f"baseline {base['results']} (correctness regression)"
                )
        if "speedup" in record and "speedup" in base:
            compared += 1
            checked_any = True
            floor = base["speedup"] / tolerance
            if record["speedup"] < floor:
                failures.append(
                    f"{label}: speedup {record['speedup']:.2f}x below "
                    f"{floor:.2f}x (baseline {base['speedup']:.2f}x / "
                    f"tolerance {tolerance:g})"
                )
        if "join_space" in record and "join_space" in base:
            compared += 1
            checked_any = True
            ceiling = base["join_space"] * js_tolerance
            if record["join_space"] > ceiling:
                failures.append(
                    f"{label}: join space {record['join_space']:.4g} above "
                    f"{ceiling:.4g} (baseline {base['join_space']:.4g} * "
                    f"tolerance {js_tolerance:g})"
                )
        for field in ("rows_materialized", "probe_count", "terms_decoded"):
            if field in record and field in base:
                compared += 1
                checked_any = True
                ceiling = base[field] * counter_tolerance
                if record[field] > ceiling:
                    failures.append(
                        f"{label}: {field} {record[field]} above "
                        f"{ceiling:.0f} (baseline {base[field]} * "
                        f"tolerance {counter_tolerance:g} — an execution "
                        f"path degraded)"
                    )
        if "rows_kernel_filtered" in record and "rows_kernel_filtered" in base:
            compared += 1
            checked_any = True
            floor = base["rows_kernel_filtered"] / counter_tolerance
            if record["rows_kernel_filtered"] < floor:
                failures.append(
                    f"{label}: rows_kernel_filtered "
                    f"{record['rows_kernel_filtered']} below {floor:.0f} "
                    f"(baseline {base['rows_kernel_filtered']} / tolerance "
                    f"{counter_tolerance:g} — kernels fell back to the "
                    f"row loop)"
                )
        if "overhead_pct" in record and "overhead_pct" in base:
            compared += 1
            checked_any = True
            ceiling = min(base["overhead_pct"] * 50, 2.0)
            if record["overhead_pct"] > ceiling:
                failures.append(
                    f"{label}: disarmed-tracer overhead bound "
                    f"{record['overhead_pct']:.4f}% above {ceiling:.4f}% "
                    f"(baseline {base['overhead_pct']:.4f}% — a hot loop "
                    f"grew instrumentation or the 2% bar was crossed)"
                )
        if wall_tolerance is not None and "wall_ms" in record and "wall_ms" in base:
            compared += 1
            checked_any = True
            ceiling = base["wall_ms"] * wall_tolerance
            if record["wall_ms"] > ceiling:
                failures.append(
                    f"{label}: wall {record['wall_ms']:.2f} ms above "
                    f"{ceiling:.2f} ms (baseline {base['wall_ms']:.2f} ms * "
                    f"tolerance {wall_tolerance:g})"
                )
        if not checked_any:
            notes.append(f"{label}: no comparable metric, skipped")
    uncovered = [key for key in baselines if key not in covered]
    if uncovered:
        benches = sorted({str(key[0]) for key in uncovered})
        notes.append(
            f"uncovered baseline: {len(uncovered)} record key(s) with no fresh "
            f"counterpart (benches: {', '.join(benches)})"
        )
    return failures, notes, compared


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when fresh benchmark records regress past committed baselines"
    )
    parser.add_argument(
        "--baseline", action="append", default=[], help="committed BENCH_*.json (repeatable)"
    )
    parser.add_argument(
        "--fresh", action="append", default=[], help="freshly measured bench JSON (repeatable)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="allowed speedup shrink factor (default 1.5: fresh speedup may "
        "be at most 1.5x smaller than baseline)",
    )
    parser.add_argument(
        "--js-tolerance",
        type=float,
        default=1.05,
        help="allowed join-space growth factor (default 1.05)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=None,
        help="compare raw wall times with this growth factor (off by "
        "default: baselines were recorded on different hardware)",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=1.1,
        help="allowed growth factor for deterministic execution counters "
        "(rows_materialized, probe_count; default 1.1)",
    )
    parser.add_argument(
        "--require-coverage",
        action="store_true",
        help="fail if any baseline record has no fresh counterpart",
    )
    args = parser.parse_args(argv)
    if not args.baseline or not args.fresh:
        parser.error("need at least one --baseline and one --fresh file")

    baselines = merge_baselines(load_records(args.baseline))
    fresh = load_records(args.fresh)
    failures, notes, compared = check(
        baselines,
        fresh,
        args.tolerance,
        args.js_tolerance,
        args.wall_tolerance,
        args.counter_tolerance,
    )

    for note in notes:
        print(f"note: {note}")
    print(
        f"compared {compared} metric(s) across {len(fresh)} fresh / "
        f"{len(baselines)} baseline record keys"
    )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}")
        print(f"{len(failures)} regression(s) found")
        return 1
    if args.require_coverage and any(note.startswith("uncovered") for note in notes):
        print("coverage check failed: baseline records without fresh counterparts")
        return 1
    if compared == 0:
        print("error: nothing compared — key mismatch between fresh and baseline?")
        return 1
    print("benchmark regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
