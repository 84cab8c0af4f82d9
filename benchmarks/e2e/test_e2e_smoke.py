"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e -q``).

Not under ``testpaths``, so the tier-1 suite is unchanged.  A 300-user,
8-second pass over all four workloads, untraced and traced: every metric
name of ``BENCHMARK.json`` is printed exactly once with its unit, nothing
failed, the oracle agreed with every answer it checked, and a seed generated
the same requests both times.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Request hash per workload, to check a seed always generates the same bytes.
HASHES = {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "8", "--trace", str(trace), "--users", "300"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    printed = [line.split() for line in lines[:-1] if not line.startswith("#")]
    for metric in expected:
        name = metric["name"]
        assert NAME.fullmatch(name)
        assert result["metrics"][name]["unit"] == metric["unit"]
        rows = [row for row in printed if row and row[0] == name]
        assert len(rows) == 1, f"{name} printed {len(rows)} times"
        assert rows[0][-1] == metric["unit"]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    checked = next(line for line in lines if line.startswith("# oracle:"))
    assert int(checked.split()[3]) >= 500 and " 0 mismatches" in checked
    if workload.startswith("lib"):  # the traced run draws the same requests
        request_hash = next(line for line in lines if line.startswith("# request_hash:"))
        assert HASHES.setdefault(workload, request_hash) == request_hash
