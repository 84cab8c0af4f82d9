"""Smoke tests: every example script runs to completion and prints sensible output."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def _run_example(name, capsys, argv=None):
    path = EXAMPLES_DIR / name
    assert path.exists(), f"example {name} is missing"
    old_argv = sys.argv
    sys.argv = [str(path)] + list(argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_examples_directory_has_at_least_three_examples():
    scripts = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 3
    assert "quickstart.py" in scripts


def test_quickstart(capsys):
    output = _run_example("quickstart.py", capsys)
    assert "GRANTED" in output and "DENIED" in output
    assert "authorized audience" in output
    assert "dan" not in output.split("authorized audience:")[1]  # the minor is excluded


def test_paper_walkthrough(capsys):
    """Figures 1-7 and the worked example, byte for byte against the pinned output."""
    output = _run_example("paper_walkthrough.py", capsys)
    golden = Path(__file__).with_name("golden") / "paper_walkthrough.txt"
    assert output == golden.read_text(encoding="utf-8")


def test_photo_sharing(capsys):
    output = _run_example("photo_sharing.py", capsys)
    assert "synthetic network" in output
    assert "hub owner" in output
    assert "audit log" in output


def test_enterprise_collaboration(capsys):
    output = _run_example("enterprise_collaboration.py", capsys)
    assert "policy analysis: 0 errors" in output
    assert "salary-review" in output
    assert output.count("audience size = ") == 4  # one line per backend


def test_scalability_study_with_small_sizes(capsys):
    output = _run_example("scalability_study.py", capsys, argv=["30", "60"])
    assert "backend comparison" in output
    assert "cluster-index" in output and "bfs" in output
