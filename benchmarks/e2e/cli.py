"""Command line: one workload for the driver, or the whole suite for people.

Driver form (one run, one JSON object on the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload entity_zipf --seed 3 --seconds 12 --trace 0

Suite form (all four workloads, untraced then traced)::

    python3 benchmarks/e2e/run.py --seed 1 [--smoke] [--aa] [--dump-logs DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .endtoend import SETUPS, run_end_to_end
from .check import RunResult
from .harness import WORK_ROOT, generate_inputs, scratch_directory
from .spec import END_TO_END, EXACT_COUNTS, PER_LAYER, RUN_SECONDS, SERVER, WORKLOADS, units
from .stats import relative_difference
from .traced import run_traced
from .workloads import dump_logs, entities_from_ntriples

__all__ = ["declared_only", "main"]

#: ``--smoke`` divides every count by this (seconds, set-ups, prefix).
SMOKE_DIVISOR = 20


def declared_only(metrics: Dict[str, float], trace: int) -> Dict[str, float]:
    """``metrics`` if it holds exactly the declared names, else an error:
    a run must never print a metric list that ``BENCHMARK.json`` does not."""
    declared = {metric.name for metric in (PER_LAYER if trace else END_TO_END)}
    if set(metrics) != declared:
        raise RuntimeError(
            f"metrics differ from the declaration: missing {sorted(declared - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - declared)}"
        )
    return metrics


def _run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> RunResult:
    """Run once and print the table; the declared list is enforced here."""
    if trace:
        result = run_traced(workload, seed, SMOKE_DIVISOR if smoke else 1)
        kind = "per-layer (traced prefix)"
    else:
        result = run_end_to_end(
            workload, seed, seconds, setups=1 if smoke else SETUPS,
            log_divisor=SMOKE_DIVISOR if smoke else 1,
        )
        kind = "end-to-end (untraced)"
        if result.extras["load_average_1m"][0] > (os.cpu_count() or 1) / 2:
            print(f"# noisy: load average exceeded cpus/2 when {workload} started")
    declared_only(result.metrics, trace)
    verdict = result.verdict
    for reason in verdict.reasons:
        print(f"# check failed: {reason}")
    print(
        f"## {workload}: {kind}; samples={result.samples} "
        f"attempted={verdict.attempted} failed={verdict.failed}"
    )
    unit_of = units()
    for name, value in result.metrics.items():
        print(f"{workload:12s} {name:38s} {value:14.6g} {unit_of[name]:6s} n={result.samples}")
    for name, (value, unit) in result.extras.items():
        print(f"{workload:12s} {name:38s} {value:14.6g} {unit:6s} (not gated)")
    return result


def _driver_line(result: RunResult) -> str:
    unit_of = units()
    return json.dumps(
        {
            "correct": result.verdict.failed == 0,
            "attempted": max(result.verdict.attempted, 1),
            "failed": result.verdict.failed,
            "metrics": {
                name: {"value": value, "unit": unit_of[name]}
                for name, value in result.metrics.items()
            },
        }
    )


def _run_suite(seed: int, seconds: float, smoke: bool) -> Dict[str, Dict[str, float]]:
    """All workloads, untraced then traced; returns workload → metric → value."""
    table: Dict[str, Dict[str, float]] = {}
    all_correct = True
    for workload in WORKLOADS:
        table[workload] = {}
        for trace in (0, 1):
            result = _run_one(workload, seed, seconds, trace, smoke)
            all_correct = all_correct and result.verdict.failed == 0
            table[workload].update(result.metrics)
            table[workload].update({name: value for name, (value, _) in result.extras.items()})
    table["_suite"] = {"correct": float(all_correct)}
    return table


def _compare(first: Dict[str, Dict[str, float]], second: Dict[str, Dict[str, float]]) -> int:
    """The A/A table; returns the number of disagreements."""
    bounds = {metric.name: metric.bound for metric in END_TO_END}
    disagreements = 0
    print("## A/A: same code, same seed, two runs")
    print(f"{'workload':12s} {'metric':38s} {'first':>14s} {'second':>14s} {'rel.diff':>9s} {'bound':>7s}")
    for workload in WORKLOADS:
        for name, value in first[workload].items():
            other = second[workload].get(name, float("nan"))
            difference = relative_difference(value, other)
            verdict = ""
            if name in bounds:
                limit = f"{bounds[name]:.2f}"
                if difference > bounds[name]:
                    verdict = "  <-- beyond its bound"
            elif name in EXACT_COUNTS:
                limit = "exact"
                if value != other:
                    verdict = "  <-- exact count differs"
            else:
                limit = "-"
            disagreements += bool(verdict)
            print(
                f"{workload:12s} {name:38s} {value:14.6g} {other:14.6g} "
                f"{difference:9.4f} {limit:>7s}{verdict}"
            )
    return disagreements


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload (driver form)")
    parser.add_argument("--seed", type=int, default=1, help="request-log seed")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="length of each timed replay")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and fail on disagreement beyond the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every count / {SMOKE_DIVISOR}: exercises the harness, gates nothing")
    parser.add_argument("--dump-logs", metavar="DIR", help="write the four request logs and exit")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    # A terminated run must still stop its servers: turn SIGTERM into an
    # exception so every ``finally`` on the way out runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seconds = args.seconds / SMOKE_DIVISOR if args.smoke else args.seconds
    print(
        f"# benchmarks.e2e seed={args.seed} seconds={seconds:g} cpus={os.cpu_count()} "
        f"load_average_1m={os.getloadavg()[0]:.2f} server={json.dumps(SERVER, sort_keys=True)}"
    )
    if args.dump_logs:
        with scratch_directory() as workdir:
            entities = entities_from_ntriples(generate_inputs(workdir, ["lubm"])["lubm"])
            for path in dump_logs(Path(args.dump_logs), args.seed, entities):
                print(path)
        return 0
    if args.workload:
        print(_driver_line(_run_one(args.workload, args.seed, seconds, args.trace, args.smoke)))
        return 0

    first = _run_suite(args.seed, seconds, args.smoke)
    results = {"seed": args.seed, "seconds": seconds, "cpus": os.cpu_count(), "runs": [first]}
    status = 0 if first["_suite"]["correct"] else 1
    if args.aa:
        second = _run_suite(args.seed, seconds, args.smoke)
        results["runs"].append(second)
        disagreements = _compare(first, second)
        print(f"## A/A disagreements: {disagreements}")
        if disagreements or not second["_suite"]["correct"]:
            status = 1
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    out = WORK_ROOT / f"results-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"# results written to {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
