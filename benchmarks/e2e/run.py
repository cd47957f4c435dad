"""Script entry point named by ``BENCHMARK.json``'s ``command``.

Puts the repository root on ``sys.path`` so the ``benchmarks.e2e``
package resolves whatever the caller's working directory is.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
