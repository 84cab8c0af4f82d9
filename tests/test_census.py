"""``tools/census.py`` over one root: the report's format and its contents."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _census():
    spec = importlib.util.spec_from_file_location("census", REPO / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_walkthrough_census_report(tmp_path):
    census = _census()
    report_path = tmp_path / "census.md"
    assert census.main(["--roots", "walkthrough", "--output", str(report_path)]) == 0
    report = report_path.read_text(encoding="utf-8")
    lines = report.splitlines()

    assert lines[0] == "# Function census of `src/repro`"
    assert "- `walkthrough`: `python examples/paper_walkthrough.py`" in lines
    assert [line for line in lines if line.startswith("## ")] == [
        "## Roots", "## Summary", "## Called by no root",
    ]
    summary = dict(
        re.fullmatch(r"- (defined|called by some root|called by no root): (\d+)", line).groups()
        for line in lines
        if re.fullmatch(r"- (defined|called by some root|called by no root): \d+", line)
    )
    defined = int(summary["defined"])
    called = int(summary["called by some root"])
    uncalled = int(summary["called by no root"])
    assert defined == called + uncalled == len(census.defined_functions())
    assert called > 0 and uncalled > 0

    # One heading per module, "(uncalled of defined)", then one bullet per
    # function; the bullets add up to the summary.
    headings = [line for line in lines if line.startswith("### ")]
    heading = re.compile(r"### `(repro/[\w/]+\.py)` \((\d+) of (\d+)\)( — .+)?")
    bullet = re.compile(r"- `[\w.<>]+`")
    bullets = 0
    for line in headings:
        match = heading.fullmatch(line)
        assert match, line
        assert int(match.group(2)) <= int(match.group(3)), line
        kept = match.group(1).startswith("repro/testing/")
        assert (match.group(4) == " — reference implementation, kept") == kept, line
        bullets += int(match.group(2))
    assert bullets == uncalled == sum(1 for line in lines if bullet.fullmatch(line))

    # The walkthrough parses expressions and draws the paper's graph; it
    # never starts a server.
    assert "- `PathExpression.parse`" not in lines
    assert "- `paper_graph`" not in lines
    assert "- `ServingServer.start`" in lines
