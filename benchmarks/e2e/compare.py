"""Compare two sets of runs under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` is the parent's runs, ``B`` the change's; each file holds the rows
``run.py --append`` wrote.  One row is printed per (end-to-end metric,
workload):

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  either side's run-to-run spread (interquartile range over
                median) is wider than the bound, so the runs cannot tell

Exits 1 when any row regressed.  Two sets of runs of the *same* code agree
when no row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from common import END_TO_END


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values of the untraced runs in one file."""
    values: Dict[Tuple[str, str], List[float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("trace"):
                continue
            for name, metric in row["metrics"].items():
                if name in END_TO_END:
                    values.setdefault((row["workload"], name), []).append(metric["value"])
    return values


def spread(values: List[float]) -> float:
    """Interquartile range over the median (0 with fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def verdict(name: str, parent: List[float], change: List[float]) -> Tuple[str, float]:
    """``(verdict, change)`` with change > 0 meaning worse, as a share of the
    parent's median."""
    spec = END_TO_END[name]
    before, after = statistics.median(parent), statistics.median(change)
    worse = (after - before) / abs(before)
    if spec["better"] == "higher":
        worse = -worse
    if worse > spec["bound"]:
        return "regressed", worse
    if max(spread(parent), spread(change)) > spec["bound"]:
        return "unresolved", worse
    return "ok", worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    regressed = False
    print(f"{'workload':14s} {'metric':14s} {'parent':>11s} {'change':>11s} {'worse by':>9s} "
          f"{'bound':>6s} {'spread A':>8s} {'spread B':>8s}  verdict")
    for key in sorted(parent):
        if key not in change:
            continue
        workload, name = key
        word, worse = verdict(name, parent[key], change[key])
        regressed |= word == "regressed"
        print(f"{workload:14s} {name:14s} {statistics.median(parent[key]):11.4f} "
              f"{statistics.median(change[key]):11.4f} {worse:+9.3f} "
              f"{END_TO_END[name]['bound']:6.2f} {spread(parent[key]):8.3f} "
              f"{spread(change[key]):8.3f}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
