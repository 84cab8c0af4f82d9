"""PERF-7 — multi-source owner-bitset audience sweep.

The multi-source sweep (``audience_sweep``) keeps an owner bitmask per
``(node, state)`` slot and propagates *new* bits only, so overlapping owner
frontiers are traversed once.  (The per-owner sweep it replaced is gone;
the committed PERF-7 artefact records its 3.6-11.5x loss.  The reverse
sweep and its direction planner are gone too; docs/benchmarks.md keeps
their last numbers under "Historical artefacts of removed paths".)

The experiment times, on the 5000-user scalability graph (300 users in
``BENCH_SMOKE=1`` mode, the CI smoke job), one sweep per expression and
owner count, and checks its audiences against the cache-free reference walk
of :mod:`repro.testing.oracle` — for every owner in smoke mode, for an
evenly spread sample of ``REFERENCE_SAMPLE`` owners per row at full size
(the reference costs about 0.2 s per hub owner there).

Artifacts: ``benchmarks/results/BENCH_audience_multisource.json`` and
``perf7_audience_multisource.txt``.  Runnable directly:
``PYTHONPATH=src python benchmarks/bench_audience_multisource.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.reachability.compiled_search import AutomatonCache, audience_sweep
from repro.testing.oracle import reference_targets

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SIZE = 300 if SMOKE else 5000
OWNER_COUNTS = (16,) if SMOKE else (64, 128, 256)
#: Owners per row checked against the reference walk (every owner if fewer).
REFERENCE_SAMPLE = 16 if SMOKE else 8

#: Frontier-heavy audience policies — the shapes the ROADMAP open item named
#: (`*`-direction walks, deep friend balls) with the selective accepts real
#: rules have (a rare final label, an attribute threshold).  Per owner the
#: product walk explores a large, heavily shared neighbourhood and accepts a
#: modest audience.
EXPRESSIONS = (
    "friend*[1,4]{age >= 60}",
    "friend+[1,5]/parent+[1]",
    "friend*[1,4]/colleague+[1]",
    "friend*[1,3]/parent+[1]{age >= 40}",
)


def _timed(function):
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def run_benchmark() -> dict:
    graph = preferential_attachment_graph(SIZE, edges_per_node=3, seed=71)
    snapshot = compile_graph(graph)
    automata = AutomatonCache()
    node_count = snapshot.number_of_nodes()

    # Owners are the active users whose audiences are worth materializing in
    # bulk — the highest-degree hubs.  Their frontiers overlap the most,
    # which is the regime the multi-source sweep exists for.
    by_degree = sorted(
        range(node_count),
        key=lambda node: -(snapshot.out_degree(node) + snapshot.in_degree(node)),
    )

    rows = []
    user_of = snapshot.node_ids
    for text in EXPRESSIONS:
        expression = PathExpression.parse(text)
        automaton = automata.get(expression, snapshot)
        for owner_count in OWNER_COUNTS:
            owners = by_degree[: min(owner_count, node_count)]
            seconds, sweep = _timed(
                lambda: audience_sweep(snapshot, automaton, owners)
            )
            step = max(1, len(owners) // REFERENCE_SAMPLE)
            for position in range(0, len(owners), step)[:REFERENCE_SAMPLE]:
                owner = user_of[owners[position]]
                got = {user_of[node] for node in sweep.audiences[position]}
                want = reference_targets(graph, owner, expression)
                assert got == want, (text, owner_count, owner)

            rows.append(
                {
                    "expression": text,
                    "owners": len(owners),
                    "audience_nodes": sum(len(a) for a in sweep.audiences),
                    "forward_seconds": seconds,
                }
            )

    return {
        "experiment": "PERF-7 multi-source owner-bitset audience sweep",
        "smoke": SMOKE,
        "users": graph.number_of_users(),
        "relationships": graph.number_of_relationships(),
        "owner_counts": list(OWNER_COUNTS),
        "rows": rows,
    }


def _format_table(summary: dict) -> str:
    lines = [
        "PERF-7 — multi-source owner-bitset audience sweep",
        f"graph: {summary['users']} users, {summary['relationships']} relationships"
        + (" (SMOKE)" if summary["smoke"] else ""),
        "",
        f"{'expression':<36} {'owners':>6} {'audience':>9} {'sweep s':>8}",
        "-" * 62,
    ]
    for row in summary["rows"]:
        lines.append(
            f"{row['expression']:<36} {row['owners']:>6} "
            f"{row['audience_nodes']:>9} {row['forward_seconds']:>8.3f}"
        )
    return "\n".join(lines)


def test_sweep_matches_the_reference_walk():
    summary = run_benchmark()
    print()
    print(_format_table(summary))


if __name__ == "__main__":
    summary = run_benchmark()
    table = _format_table(summary)
    print()
    print(table)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_audience_multisource.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        (RESULTS_DIR / "perf7_audience_multisource.txt").write_text(
            table + "\n", encoding="utf-8"
        )
