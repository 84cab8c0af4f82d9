"""PERF-7 — multi-source owner-bitset audience sweep and its direction planner.

The multi-source sweep (``audience_sweep``) keeps an owner bitmask per
``(node, state)`` slot and propagates *new* bits only, so overlapping owner
frontiers are traversed once; a direction planner chooses between sweeping
forward from the owners and backward from the whole vertex set over the
reversed automaton.  (The per-owner sweep it replaced is gone; the committed
PERF-7 artefact records its 3.6-11.5x loss.)

The experiment measures, on the 5000-user scalability graph (300 users in
``BENCH_SMOKE=1`` mode, the CI smoke job), for each expression and owner
count: the sweep pinned forward, pinned reverse, and the planner's ``auto``
choice.

A second experiment exercises the planner's **reverse arm** for real (the
ROADMAP open item): a huge-owner-set workload — audiences for 25% / 50% /
100% of the vertex set at once — over an expression whose forward first step
fans out hard (``friend*``) into a selective final label (``parent``).
Reversed, the rare label becomes the *first* step and prunes the frontier
immediately; as the owner set approaches |V| the forward sweep's only
advantage (narrower owner masks) vanishes, and the planner must flip to
``reverse`` at the 100% row.

All variants must materialize identical audiences.  Artifacts:
``benchmarks/results/BENCH_audience_multisource.json`` and
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

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SIZE = 300 if SMOKE else 5000
OWNER_COUNTS = (16,) if SMOKE else (64, 128, 256)

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

#: The reverse-arm workload: a hub-heavy ``*`` walk into a rare final label.
#: Reversed (``parent-[1]/friend*[1,3]``) the selective label leads, so a
#: whole-vertex-set owner batch is cheaper to sweep backwards.
REVERSE_ARM_EXPRESSION = "friend*[1,3]/parent+[1]"

#: Owner-set sizes for the reverse-arm experiment, as fractions of |V|.
REVERSE_ARM_FRACTIONS = (0.25, 0.5, 1.0)


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
    for text in EXPRESSIONS:
        expression = PathExpression.parse(text)
        automaton = automata.get(expression, snapshot)
        for owner_count in OWNER_COUNTS:
            owners = by_degree[: min(owner_count, node_count)]
            forward_seconds, forward = _timed(
                lambda: audience_sweep(snapshot, automaton, owners, direction="forward")
            )
            reverse_seconds, reverse = _timed(
                lambda: audience_sweep(snapshot, automaton, owners, direction="reverse")
            )
            auto_seconds, auto = _timed(
                lambda: audience_sweep(snapshot, automaton, owners)
            )

            # Every direction must materialize identical audiences.
            reference = [set(audience) for audience in forward.audiences]
            for name, sweep in (("reverse", reverse), ("auto", auto)):
                got = [set(audience) for audience in sweep.audiences]
                assert got == reference, (text, owner_count, name)

            rows.append(
                {
                    "expression": text,
                    "owners": len(owners),
                    "audience_nodes": sum(len(a) for a in reference),
                    "forward_seconds": forward_seconds,
                    "reverse_seconds": reverse_seconds,
                    "auto_seconds": auto_seconds,
                    "auto_direction": auto.plan.direction,
                    "planned_forward_cost": auto.plan.forward_cost,
                    "planned_reverse_cost": auto.plan.reverse_cost,
                }
            )

    # ---- reverse-arm experiment: huge owner sets, selective first step ----
    expression = PathExpression.parse(REVERSE_ARM_EXPRESSION)
    automaton = automata.get(expression, snapshot)
    reverse_rows = []
    for fraction in REVERSE_ARM_FRACTIONS:
        owners = by_degree[: max(1, int(node_count * fraction))]
        forward_seconds, forward = _timed(
            lambda: audience_sweep(snapshot, automaton, owners, direction="forward")
        )
        auto_seconds, auto = _timed(
            lambda: audience_sweep(snapshot, automaton, owners)
        )
        reference = [set(audience) for audience in forward.audiences]
        assert [set(a) for a in auto.audiences] == reference, fraction
        reverse_rows.append(
            {
                "expression": REVERSE_ARM_EXPRESSION,
                "owners": len(owners),
                "fraction": fraction,
                "forward_seconds": forward_seconds,
                "auto_seconds": auto_seconds,
                "auto_direction": auto.plan.direction,
                "planned_forward_cost": auto.plan.forward_cost,
                "planned_reverse_cost": auto.plan.reverse_cost,
            }
        )

    return {
        "experiment": "PERF-7 multi-source owner-bitset audience sweep",
        "smoke": SMOKE,
        "users": graph.number_of_users(),
        "relationships": graph.number_of_relationships(),
        "owner_counts": list(OWNER_COUNTS),
        "rows": rows,
        "reverse_arm_rows": reverse_rows,
    }


def _format_table(summary: dict) -> str:
    lines = [
        "PERF-7 — multi-source owner-bitset audience sweep",
        f"graph: {summary['users']} users, {summary['relationships']} relationships"
        + (" (SMOKE)" if summary["smoke"] else ""),
        "",
        f"{'expression':<28} {'owners':>6} {'forward s':>10} {'reverse s':>10} "
        f"{'auto s':>8} {'plan':>8}",
        "-" * 76,
    ]
    for row in summary["rows"]:
        lines.append(
            f"{row['expression']:<28} {row['owners']:>6} "
            f"{row['forward_seconds']:>10.3f} {row['reverse_seconds']:>10.3f} "
            f"{row['auto_seconds']:>8.3f} {row['auto_direction']:>8}"
        )
    lines += [
        "",
        "reverse arm — huge owner sets over a selective-first-step expression:",
        f"{'expression':<28} {'owners':>6} {'forward s':>10} {'auto s':>8} {'plan':>8}",
        "-" * 66,
    ]
    for row in summary["reverse_arm_rows"]:
        lines.append(
            f"{row['expression']:<28} {row['owners']:>6} "
            f"{row['forward_seconds']:>10.3f} {row['auto_seconds']:>8.3f} "
            f"{row['auto_direction']:>8}"
        )
    return "\n".join(lines)


def _planner_flips_to_reverse(summary: dict) -> bool:
    """The whole-vertex-set owner batch must be planned as a reverse sweep."""
    full = [row for row in summary["reverse_arm_rows"] if row["fraction"] == 1.0]
    return bool(full) and all(row["auto_direction"] == "reverse" for row in full)


def test_sweep_directions_agree_and_the_planner_flips_to_reverse():
    summary = run_benchmark()
    print()
    print(_format_table(summary))
    assert _planner_flips_to_reverse(summary), summary["reverse_arm_rows"]


if __name__ == "__main__":
    import sys

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
    sys.exit(0 if _planner_flips_to_reverse(summary) else 1)
