"""Smoke tests: the shipped examples run and print what they promise."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "Figure 1(a)" in out and "Figure 1(b)" in out
    assert "George Walker Bush" in out
    assert "(no reference)" in out  # OPTIONAL kept an unmatched president
    assert "GROUP" in out  # explain output


def test_incomplete_profiles():
    out = run_example("incomplete_profiles.py")
    assert "professor profiles" in out
    assert "candidate-restricted" in out
    # Pruning materializes strictly fewer rows than base.
    base_line = next(line for line in out.splitlines() if line.strip().startswith("base"))
    full_line = next(line for line in out.splitlines() if line.strip().startswith("full"))
    base_rows = int(base_line.split("rows materialized")[0].split(",")[-1].strip())
    full_rows = int(full_line.split("rows materialized")[0].split(",")[-1].strip())
    assert full_rows < base_rows


def test_filter_limit():
    out = run_example("filter_limit.py")
    assert "FILTER + ORDER BY + LIMIT 5" in out
    assert "UndergraduateStudent0" in out
    assert "FILTER REGEX" in out  # the filter shows up in the plan
    # LIMIT early termination materializes strictly fewer BGP rows.
    page_line = next(l for l in out.splitlines() if l.strip().startswith("LIMIT 8:"))
    full_line = next(l for l in out.splitlines() if l.strip().startswith("no LIMIT:"))
    page_rows = int(page_line.split("results,")[1].split("BGP rows")[0].strip())
    full_rows = int(full_line.split("results,")[1].split("BGP rows")[0].strip())
    assert page_line.split(":")[1].split()[0] == "8"
    assert page_rows < full_rows


@pytest.mark.slow
def test_knowledge_fusion():
    out = run_example("knowledge_fusion.py")
    assert "strategy" in out and "full" in out
    assert "transformed plan" in out


@pytest.mark.slow
def test_engine_comparison_quick():
    out = run_example("engine_comparison.py", "--quick")
    assert "LUBM / wco" in out and "DBpedia / wco" in out
