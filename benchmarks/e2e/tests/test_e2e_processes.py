"""A stopped server leaves no process behind — not even the pool's
multiprocessing resource tracker, which outlives the server itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]

# Run in a child: ``ServerProcess`` makes its process the reaper of
# orphaned descendants, which must not leak into the pytest process.
SCRIPT = """
import os, sys
sys.path.insert(0, {root!r})
from pathlib import Path
from benchmarks.e2e.harness import ServerProcess, ingest

work = Path({work!r})
(work / "tiny.nt").write_text('<http://x/s> <http://x/p> "o" .\\n', encoding="utf-8")
ingest(work / "tiny.nt", work / "tiny.snap")
server = ServerProcess(work / "tiny.snap", cache_entries=0)
os.killpg(server.pid, 0)  # the group exists while the server runs
server.stop()
try:
    os.killpg(server.pid, 0)
except ProcessLookupError:
    print("group empty")
"""


def test_stop_waits_for_every_process_of_the_server(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(root=str(ROOT), work=str(tmp_path))],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "group empty"
