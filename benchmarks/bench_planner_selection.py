"""PERF-10 — planner-driven backend auto-selection (the PR 5 service layer).

Two promises of the `GraphService` query planner are measured:

1. **Warm-path overhead** — a stream of repeated reach queries is replayed
   through the service with auto-selection and with a pinned backend; both
   paths end in the engines' decision memos, so the difference isolates
   planning (one plan-cache probe plus three integer comparisons: epoch,
   the service's plan generation, and stability against ``revisit_at``).
   Acceptance: auto <= 1.05x the pinned replay (overhead < 5%).  A raw
   ``ReachabilityEngine`` replay is reported as context for the facade's
   total overhead.

2. **Mixed-stream win** — a churn-then-analyze stream over one graph:

   * *phase 1* interleaves mutation bursts with cheap point queries
     (``friend+[1]``): every burst stales the indexes and resets the
     service's stability counter;
   * *phase 2* is a long, **denial-heavy** tail of forward-only point
     queries on the now-quiet graph (7 in 8 requesters are not reachable
     from the owner by *any* forward path — the common case of access
     control: most of the network is not in the audience).

   Pinned ``bfs`` / ``dfs`` explore the owner's whole reachable ball for
   every denial; pinned ``cluster-index`` does too, more slowly, *and*
   rebuilds its index after every phase-1 burst (the service refuses to
   serve from a stale index); pinned ``transitive-closure`` answers denials
   in O(1) but pays its enormous build once per phase-1 burst.  Auto stays
   online while writes keep arriving — the build estimate never amortizes
   over a stability that keeps resetting — then, with the observed
   unreachable rate feeding the closure's prune discount and stability
   accruing, flips mid-tail, builds the closure once, and prunes the rest.
   Acceptance: auto beats **every** single pinned backend on total
   wall-clock and routes through at least two distinct backends.

Artifacts: ``benchmarks/results/BENCH_planner_selection.json`` and
``perf10_planner_selection.txt``.  Runnable directly:
``PYTHONPATH=src python benchmarks/bench_planner_selection.py``
(``BENCH_SMOKE=1`` shrinks the stream and keeps only the agreement
assertions — timing floors need full size).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path

import pytest

from repro.graph.generators import preferential_attachment_graph
from repro.reachability.engine import ReachabilityEngine
from repro.service import GraphService
from repro.workloads.generator import WorkloadSpec, apply_churn_op, build_workload

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SIZE = 120 if SMOKE else 500
EDGES_PER_NODE = 5
SEED = 61

# Overhead experiment.
WARM_PAIRS = 8 if SMOKE else 40
WARM_ROUNDS = 5 if SMOKE else 40
WARM_REPEATS = 3 if SMOKE else 15
WARM_EXPRESSION = "friend+[1,2]"
OVERHEAD_CEILING = 1.05  # auto <= 1.05x pinned

# Mixed-stream experiment.
CHURN_BURSTS = 3 if SMOKE else 10
BURST_SIZE = 4
CHEAP_PER_BURST = 5
TAIL_QUERIES = 40 if SMOKE else 5000
REACHABLE_EVERY = 8  # 1 tail query in 8 is a grant; the rest are denials
CHEAP_EXPRESSION = "friend+[1]"
TAIL_EXPRESSIONS = (
    "friend+[1,3]/colleague+[1,2]",
    "friend+[1,4]",
    "friend+[1,2]/parent+[1,2]/colleague+[1,2]",
)
PINNED_CONTENDERS = ("bfs", "dfs", "cluster-index", "transitive-closure")


def _pairs(graph, count: int, stride: int = 13):
    users = sorted(graph.users(), key=str)
    return [
        (users[(i * stride) % len(users)], users[(i * stride * 5 + 3) % len(users)])
        for i in range(count)
    ]


# ---------------------------------------------------------------- overhead


def overhead_experiment() -> dict:
    graph = preferential_attachment_graph(SIZE, edges_per_node=3, seed=SEED)
    # Reachable-only pairs (one edge away): the warm stream must measure
    # planning overhead, not trip the denial-rate feedback into an index
    # build mid-measurement.
    pairs = [
        (rel.source, rel.target)
        for rel in graph.relationships()
        if rel.label == "friend"
    ][:WARM_PAIRS] or _pairs(graph, WARM_PAIRS)

    def service_replays(*services: GraphService) -> list:
        """Best-of-``WARM_REPEATS`` replay time per service, repeats interleaved."""

        def one_round(service):
            for source, target in pairs:
                service.reach(source, target, WARM_EXPRESSION, collect_witness=False)

        for service in services:
            one_round(service)  # warm: memos and plan cache populated
        best = [float("inf")] * len(services)
        # Alternating the services spreads machine noise over both sides.
        for _ in range(WARM_REPEATS):
            for index, service in enumerate(services):
                started = time.perf_counter()
                for _round in range(WARM_ROUNDS):
                    one_round(service)
                best[index] = min(best[index], time.perf_counter() - started)
        return best

    def engine_replay() -> float:
        engine = ReachabilityEngine(graph, "bfs")
        for source, target in pairs:
            engine.is_reachable(source, target, WARM_EXPRESSION)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _round in range(WARM_ROUNDS):
                for source, target in pairs:
                    engine.is_reachable(source, target, WARM_EXPRESSION)
            best = min(best, time.perf_counter() - started)
        return best

    auto_seconds, pinned_seconds = service_replays(
        GraphService(graph), GraphService(graph, default_backend="bfs")
    )
    raw_seconds = engine_replay()
    queries = len(pairs) * WARM_ROUNDS
    return {
        "queries": queries,
        "auto_seconds": auto_seconds,
        "pinned_seconds": pinned_seconds,
        "raw_engine_seconds": raw_seconds,
        "auto_us_per_query": 1e6 * auto_seconds / queries,
        "pinned_us_per_query": 1e6 * pinned_seconds / queries,
        "raw_us_per_query": 1e6 * raw_seconds / queries,
        "overhead_ratio": auto_seconds / pinned_seconds,
        "overhead_ceiling": OVERHEAD_CEILING,
    }


# ------------------------------------------------------------ mixed stream


def _forward_ball(graph, source):
    """Forward-reachable set of ``source`` over any labels (dict API)."""
    seen = {source}
    queue = deque([source])
    while queue:
        user = queue.popleft()
        for neighbor in graph.successors(user):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def _mixed_stream_material():
    """Base workload + the tail's pair list (pre-classified on the final graph).

    The tail pairs are chosen against the *post-churn* graph (every strategy
    replays the same deterministic bursts): 7 of 8 targets sit outside the
    source's forward-reachable ball — a denial by any forward-only rule —
    and every 8th inside it.
    """
    workload = build_workload(
        WorkloadSpec(
            users=SIZE,
            seed=SEED,
            family_options=(("edges_per_node", EDGES_PER_NODE),),
            churn_bursts=CHURN_BURSTS,
            churn_burst_size=BURST_SIZE,
            churn_attribute_fraction=0.0,  # structural churn: indexes must stale
        )
    )
    final = workload.graph.copy()
    for burst in workload.churn:
        for op in burst:
            apply_churn_op(final, op)
    users = sorted(final.users(), key=str)
    tail_pairs = []
    cursor = 0
    for source in users:
        ball = _forward_ball(final, source)
        inside = sorted(ball - {source}, key=str)
        outside = [user for user in users if user not in ball]
        if not inside or not outside:
            continue
        # A run of denials plus one grant per source keeps the mix exact.
        for _ in range(REACHABLE_EVERY - 1):
            if len(tail_pairs) >= TAIL_QUERIES:
                break
            tail_pairs.append((source, outside[cursor % len(outside)]))
            cursor += 1
        if len(tail_pairs) >= TAIL_QUERIES:
            break
        tail_pairs.append((source, inside[cursor % len(inside)]))
        if len(tail_pairs) >= TAIL_QUERIES:
            break
    if len(tail_pairs) < TAIL_QUERIES:
        # Tiny smoke graphs can be fully forward-connected (no denials to
        # stage); pad with arbitrary pairs — the smoke run only asserts that
        # every strategy answers identically.
        tail_pairs.extend(_pairs(final, TAIL_QUERIES - len(tail_pairs), stride=29))
    cheap_pairs = _pairs(workload.graph, CHEAP_PER_BURST * CHURN_BURSTS)
    return workload, cheap_pairs, tail_pairs


def _replay_stream(service: GraphService, bursts, cheap_pairs, tail_pairs):
    """Run the churn-then-analyze stream; returns (seconds, decisions, routing)."""
    decisions = []
    started = time.perf_counter()
    cheap_cursor = 0
    for burst in bursts:
        for op in burst:
            apply_churn_op(service.graph, op)
        for _ in range(CHEAP_PER_BURST):
            source, target = cheap_pairs[cheap_cursor % len(cheap_pairs)]
            cheap_cursor += 1
            result = service.reach(
                source, target, CHEAP_EXPRESSION, collect_witness=False
            )
            decisions.append(result.reachable)
    for index, (source, target) in enumerate(tail_pairs):
        expression = TAIL_EXPRESSIONS[index % len(TAIL_EXPRESSIONS)]
        result = service.reach(source, target, expression, collect_witness=False)
        decisions.append(result.reachable)
    elapsed = time.perf_counter() - started
    routing = {
        name: engine.cache_hits + engine.cache_misses
        for name, engine in service._engines.items()
    }
    return elapsed, decisions, routing


def _replay_mode(mode: str):
    """Replay the mixed stream under one mode on a fresh graph (same seed, bursts)."""
    workload, cheap_pairs, tail_pairs = _mixed_stream_material()
    pin = None if mode == "planner-auto" else mode
    service = GraphService(workload.graph, default_backend=pin)
    return _replay_stream(service, workload.churn, cheap_pairs, tail_pairs)


def mixed_stream_experiment() -> dict:
    rows = []
    decisions_by_mode = {}
    denials = None
    for mode in ("planner-auto",) + PINNED_CONTENDERS:
        elapsed, decisions, routing = _replay_mode(mode)
        decisions_by_mode[mode] = decisions
        denials = sum(1 for reachable in decisions if not reachable)
        rows.append(
            {
                "mode": mode,
                "seconds": elapsed,
                "queries": len(decisions),
                "backends_used": sorted(
                    name for name, count in routing.items() if count
                ),
            }
        )
    # Whatever was routed where, every strategy must answer identically.
    reference = decisions_by_mode["planner-auto"]
    for mode, decisions in decisions_by_mode.items():
        assert decisions == reference, f"{mode} diverged from planner-auto"

    auto_row = next(row for row in rows if row["mode"] == "planner-auto")
    pinned_rows = [row for row in rows if row["mode"] != "planner-auto"]
    best_pinned = min(pinned_rows, key=lambda row: row["seconds"])
    for row in rows:
        row["vs_auto"] = row["seconds"] / auto_row["seconds"]
    return {
        "rows": rows,
        "queries": auto_row["queries"],
        "denials": denials,
        "auto_seconds": auto_row["seconds"],
        "auto_backends_used": auto_row["backends_used"],
        "best_pinned_mode": best_pinned["mode"],
        "best_pinned_seconds": best_pinned["seconds"],
        "win_ratio": best_pinned["seconds"] / auto_row["seconds"],
    }


# ------------------------------------------------------------------ harness


def run_benchmark() -> dict:
    overhead = overhead_experiment()
    mixed = mixed_stream_experiment()
    return {
        "experiment": "PERF-10 planner-driven backend auto-selection",
        "smoke": SMOKE,
        "users": SIZE,
        "overhead": overhead,
        "mixed_stream": {
            "churn_bursts": CHURN_BURSTS,
            "burst_size": BURST_SIZE,
            "cheap_per_burst": CHEAP_PER_BURST,
            "tail_queries": TAIL_QUERIES,
            "reachable_every": REACHABLE_EVERY,
            **mixed,
        },
    }


def _format_table(summary: dict) -> str:
    overhead = summary["overhead"]
    mixed = summary["mixed_stream"]
    lines = [
        "PERF-10 — planner-driven backend auto-selection",
        f"graph: {summary['users']} users" + (" (SMOKE)" if summary["smoke"] else ""),
        "",
        f"warm-path overhead ({overhead['queries']} memo-hit reach queries):",
        f"{'path':<18} {'us/query':>10}",
        "-" * 30,
        f"{'service auto':<18} {overhead['auto_us_per_query']:>10.2f}",
        f"{'service pinned':<18} {overhead['pinned_us_per_query']:>10.2f}",
        f"{'raw engine':<18} {overhead['raw_us_per_query']:>10.2f}",
        f"planning overhead: {100 * (overhead['overhead_ratio'] - 1):+.1f}% "
        f"(ceiling {100 * (overhead['overhead_ceiling'] - 1):.0f}%)",
        "",
        "mixed stream (churn+cheap phase, then a denial-heavy analysis tail):",
        f"{CHURN_BURSTS} bursts x {BURST_SIZE} mutations + {CHEAP_PER_BURST} cheap "
        f"queries, then {mixed['queries'] - CHURN_BURSTS * CHEAP_PER_BURST} "
        f"forward-only tail queries ({mixed['denials']}/{mixed['queries']} denied)",
        f"{'mode':<20} {'seconds':>9} {'vs auto':>8}   backends used",
        "-" * 68,
    ]
    for row in mixed["rows"]:
        lines.append(
            f"{row['mode']:<20} {row['seconds']:>9.3f} {row['vs_auto']:>7.2f}x   "
            f"{', '.join(row['backends_used'])}"
        )
    lines.append(
        f"auto wins by {mixed['win_ratio']:.2f}x over the best pinned backend "
        f"({mixed['best_pinned_mode']})"
    )
    return "\n".join(lines)


def _meets_targets(summary: dict) -> bool:
    overhead_ok = (
        summary["overhead"]["overhead_ratio"] <= summary["overhead"]["overhead_ceiling"]
    )
    mixed = summary["mixed_stream"]
    win_ok = mixed["win_ratio"] > 1.0
    adaptive_ok = len(mixed["auto_backends_used"]) >= 2
    return overhead_ok and win_ok and adaptive_ok


def test_planner_overhead_and_mixed_stream_win():
    summary = run_benchmark()
    print()
    print(_format_table(summary))
    if SMOKE:
        # Decision agreement was already asserted inside the experiment;
        # timings are noise at smoke size.
        return
    assert _meets_targets(summary), summary


@pytest.mark.skipif(SMOKE, reason="the smoke graph is too small to flip")
def test_auto_flips_to_the_closure_on_the_denial_tail():
    """Auto answers like pinned ``bfs`` and flips to the closure mid-tail.

    The flip depends on counts (stability, observed denials), not on the
    clock, so this holds deterministically at full size: a warm route that
    never re-plans would stay on ``bfs`` for the whole tail.
    """
    _seconds, auto_decisions, routing = _replay_mode("planner-auto")
    _seconds, bfs_decisions, _routing = _replay_mode("bfs")
    assert auto_decisions == bfs_decisions
    used = {name for name, count in routing.items() if count}
    assert used == {"bfs", "transitive-closure"}, routing


if __name__ == "__main__":
    import sys

    summary = run_benchmark()
    table = _format_table(summary)
    print()
    print(table)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_planner_selection.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        (RESULTS_DIR / "perf10_planner_selection.txt").write_text(
            table + "\n", encoding="utf-8"
        )
    sys.exit(0 if (summary["smoke"] or _meets_targets(summary)) else 1)
