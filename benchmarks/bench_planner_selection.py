"""PERF-10 — auto routing and the denial filter over a mixed stream.

Two promises of the `GraphService` query planner are measured:

1. **Warm-path overhead** — a stream of repeated reach queries is replayed
   through the service with auto-selection and with a pinned backend; both
   paths end in the engines' decision memos, so the difference isolates
   routing (one route-table probe, one epoch comparison, one plan probe).
   Acceptance: auto <= 1.05x the pinned replay (overhead < 5%).  A raw
   ``ReachabilityEngine`` replay is reported as context for the facade's
   total overhead.

2. **Mixed-stream win** — a churn-then-analyze stream over one graph:

   * *phase 1* interleaves mutation bursts with cheap point queries
     (``friend+[1]``): every burst stales the indexes;
   * *phase 2* is a long, **denial-heavy** tail of forward-only point
     queries on the now-quiet graph (7 in 8 requesters are not reachable
     from the owner by *any* forward path — the common case of access
     control: most of the network is not in the audience).

   Auto runs every query on the ``bfs`` walk.  A forward-only walk that
   ends in a denial adds the CSR entries it scanned to the snapshot's
   denial work; once that reaches what a denial-filter build reads (one
   offset per user plus every forward entry), the filter — the SCC
   condensation of the forward adjacency, with one reachability bitset per
   component — is built once, and every later forward-only query whose
   target lies outside the source's forward reach is denied without a
   walk.  Phase-1 bursts drop the filter and its work with every
   structural patch, so it is built at the tail's epoch only.  Pinned
   ``bfs`` is the same walk, filter included; pinned ``cluster-index``
   explores the owner's reachable ball for every denial *and* rebuilds its
   index after every phase-1 burst (the service refuses to serve from a
   stale index); pinned ``transitive-closure`` answers denials in O(1) but
   pays its enormous build once per phase-1 burst.
   Acceptance: auto is within 1.10x of pinned ``bfs`` on total wall-clock
   (it runs the same walk, so the two tie up to noise, and each row is
   the best of three alternated replays) and faster than each index pin, and the filter prunes exactly the tail denials that lie
   outside the source's forward reach from the first pruned query on (the
   denials walked before the build paid for it).

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

from unittest import mock

import pytest

from repro.graph.generators import preferential_attachment_graph
from repro.reachability import compiled_search
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
PINNED_CONTENDERS = ("bfs", "cluster-index", "transitive-closure")
INDEX_PINS = ("cluster-index", "transitive-closure")
BFS_TIE_CEILING = 1.10  # auto <= 1.10x pinned bfs: the same walk, up to noise
TIE_REPEATS = 1 if SMOKE else 3


def _pairs(graph, count: int, stride: int = 13):
    users = sorted(graph.users(), key=str)
    return [
        (users[(i * stride) % len(users)], users[(i * stride * 5 + 3) % len(users)])
        for i in range(count)
    ]


# ---------------------------------------------------------------- overhead


def overhead_experiment() -> dict:
    graph = preferential_attachment_graph(SIZE, edges_per_node=3, seed=SEED)
    # Reachable-only pairs (one edge away): every warm answer is a memo hit
    # of a grant, so the stream measures planning overhead, not walks or a
    # denial-filter build.
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
            one_round(service)  # warm: memos and route plans populated
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
    """Base workload, the tail's pair list and which tail targets lie
    outside their source's forward-reachable ball on the final graph.

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
    unreachable = [
        target not in _forward_ball(final, source) for source, target in tail_pairs
    ]
    return workload, cheap_pairs, tail_pairs, unreachable


def _replay_stream(service: GraphService, bursts, cheap_pairs, tail_pairs):
    """Run the churn-then-analyze stream.

    Returns (seconds, decisions, routing, the tail indices the denial
    filter answered).
    """
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
    pruned = []
    for index, (source, target) in enumerate(tail_pairs):
        expression = TAIL_EXPRESSIONS[index % len(TAIL_EXPRESSIONS)]
        result = service.reach(source, target, expression, collect_witness=False)
        decisions.append(result.reachable)
        if "filter_pruned" in result.counters:
            pruned.append(index)
    elapsed = time.perf_counter() - started
    routing = {
        name: info["hits"] + info["misses"]
        for name, info in service.cache_info().items()
    }
    return elapsed, decisions, routing, pruned


def _replay_mode(mode: str):
    """Replay the mixed stream under one mode on a fresh graph (same seed, bursts).

    Returns ``_replay_stream``'s tuple plus the tail's forward-unreachable flags.
    """
    workload, cheap_pairs, tail_pairs, unreachable = _mixed_stream_material()
    pin = None if mode == "planner-auto" else mode
    service = GraphService(workload.graph, default_backend=pin)
    return _replay_stream(service, workload.churn, cheap_pairs, tail_pairs) + (
        unreachable,
    )


def _expected_prunes(pruned, unreachable):
    """The forward-unreachable tail indices from the first pruned one on."""
    first = pruned[0] if pruned else len(unreachable)
    return [index for index in range(first, len(unreachable)) if unreachable[index]]


def mixed_stream_experiment() -> dict:
    rows = []
    decisions_by_mode = {}
    denials = None
    for mode in ("planner-auto",) + PINNED_CONTENDERS:
        elapsed, decisions, routing, pruned, unreachable = _replay_mode(mode)
        decisions_by_mode[mode] = decisions
        if mode == "planner-auto":
            auto_pruned = pruned
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
    # Auto and pinned bfs run the same walk, so one replay each would let
    # machine noise decide between them; take the best of alternated repeats.
    for _repeat in range(TIE_REPEATS - 1):
        for row in rows:
            if row["mode"] in ("planner-auto", "bfs"):
                row["seconds"] = min(row["seconds"], _replay_mode(row["mode"])[0])
    # Whatever was routed where, every strategy must answer identically.
    reference = decisions_by_mode["planner-auto"]
    for mode, decisions in decisions_by_mode.items():
        assert decisions == reference, f"{mode} diverged from planner-auto"

    seconds = {row["mode"]: row["seconds"] for row in rows}
    auto_seconds = seconds["planner-auto"]
    best_index = min(INDEX_PINS, key=seconds.__getitem__)
    for row in rows:
        row["vs_auto"] = row["seconds"] / auto_seconds
    return {
        "rows": rows,
        "queries": rows[0]["queries"],
        "denials": denials,
        "auto_seconds": auto_seconds,
        "auto_backends_used": rows[0]["backends_used"],
        "tail_forward_unreachable": sum(unreachable),
        "filter_pruned": len(auto_pruned),
        "expected_prunes": len(_expected_prunes(auto_pruned, unreachable)),
        "prunes_exact": auto_pruned == _expected_prunes(auto_pruned, unreachable),
        "bfs_ratio": auto_seconds / seconds["bfs"],
        "bfs_tie_ceiling": BFS_TIE_CEILING,
        "best_index_mode": best_index,
        "index_win_ratio": seconds[best_index] / auto_seconds,
    }


# ------------------------------------------------------------------ harness


def run_benchmark() -> dict:
    overhead = overhead_experiment()
    mixed = mixed_stream_experiment()
    return {
        "experiment": "PERF-10 auto routing and the denial filter",
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
        "PERF-10 — auto routing and the denial filter",
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
        f"denial filter: {mixed['filter_pruned']} of the "
        f"{mixed['tail_forward_unreachable']} forward-unreachable tail queries "
        f"answered without a walk "
        f"({mixed['tail_forward_unreachable'] - mixed['expected_prunes']} walked "
        f"before the build; exact: {mixed['prunes_exact']})"
    )
    lines.append(
        f"auto vs pinned bfs: {mixed['bfs_ratio']:.2f}x the time "
        f"(ceiling {mixed['bfs_tie_ceiling']:.2f}x: the same walk)"
    )
    ratio, best = mixed["index_win_ratio"], mixed["best_index_mode"]
    if ratio > 1.0:
        lines.append(f"auto wins by {ratio:.2f}x over the best index pin ({best})")
    else:
        lines.append(f"auto loses to the best index pin ({best}) ({ratio:.2f}x)")
    return "\n".join(lines)


def _meets_targets(summary: dict) -> bool:
    overhead_ok = (
        summary["overhead"]["overhead_ratio"] <= summary["overhead"]["overhead_ceiling"]
    )
    mixed = summary["mixed_stream"]
    win_ok = mixed["bfs_ratio"] <= mixed["bfs_tie_ceiling"] and mixed["index_win_ratio"] > 1.0
    prunes_ok = mixed["prunes_exact"] and mixed["filter_pruned"] == mixed["expected_prunes"] > 0
    return overhead_ok and win_ok and prunes_ok


def test_planner_overhead_and_mixed_stream_win():
    summary = run_benchmark()
    print()
    print(_format_table(summary))
    if SMOKE:
        # Decision agreement was already asserted inside the experiment;
        # timings are noise at smoke size.
        return
    assert _meets_targets(summary), summary


class _CountedFilter(compiled_search.DenialFilter):
    """The denial filter, recording the epoch of every build."""

    epochs = []

    def __init__(self, snapshot) -> None:
        _CountedFilter.epochs.append(snapshot.epoch)
        super().__init__(snapshot)


@pytest.mark.skipif(SMOKE, reason="the smoke graph is fully forward-connected")
def test_auto_answers_like_bfs_and_the_filter_prunes_the_tail_denials():
    """Full size, counts only (no clock).

    Auto answers exactly as pinned ``bfs``; the filter is built once, at
    the tail's epoch; and it answers exactly the tail queries whose target
    lies outside the source's forward-reachable ball (``_forward_ball`` on
    the final graph), from the first pruned one on.
    """
    _CountedFilter.epochs = []
    with mock.patch.object(compiled_search, "DenialFilter", _CountedFilter):
        workload, cheap_pairs, tail_pairs, unreachable = _mixed_stream_material()
        service = GraphService(workload.graph)
        _seconds, auto_decisions, routing, pruned = _replay_stream(
            service, workload.churn, cheap_pairs, tail_pairs
        )
    assert _CountedFilter.epochs == [workload.graph.epoch]
    assert set(routing) == {"bfs"}
    _seconds, bfs_decisions, _routing, _pruned, _unreachable = _replay_mode("bfs")
    assert auto_decisions == bfs_decisions
    assert pruned and pruned == _expected_prunes(pruned, unreachable)
    # Only the few denials walked before the build are not pruned.
    assert sum(unreachable) - len(pruned) < REACHABLE_EVERY


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
