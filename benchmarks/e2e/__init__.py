"""End-to-end benchmark: seeded request logs replayed over the real HTTP server.

One command prints every end-to-end and per-layer metric by name::

    python3 benchmarks/e2e/run.py --seed 1           # all four workloads
    python3 benchmarks/e2e/run.py --workload paper_uo --seed 1 --seconds 10 --trace 0

See ``README.md`` next to this file for the metric glossary, the
workloads and how to cite a number.  The package imports ``repro`` and
the standard library only.
"""

import sys
from pathlib import Path

#: Repository root (the directory holding ``BENCHMARK.json`` and ``src/``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

# The program under test runs from source, never installed.  Spawned
# pool workers inherit ``sys.path``; the server subprocess is handed
# ``SRC`` through its environment (see ``harness.ServerProcess``).
if not (SRC / "repro").is_dir():
    raise ImportError(f"benchmarks.e2e measures the program in {SRC / 'repro'}, which is missing")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
