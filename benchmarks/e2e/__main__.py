"""``python -m benchmarks.e2e`` — same entry point as ``run.py``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
