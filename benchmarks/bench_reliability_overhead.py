"""PERF-12 — what the PR 8 reliability layer costs when nothing is failing.

The reliability layer's contract is that the hot paths only pay for it when
it is engaged.  Three prices are measured on a healthy service:

1. **Guard overhead** — a warm point-query replay and a cold audience sweep,
   run unguarded vs guarded with a generous budget (one context-variable
   read per sweep plus one ``spend()`` per frontier pop).  Acceptance:
   guarded <= ``GUARD_CEILING`` x unguarded on the sweep replay.
2. **Breaker overhead** — the same warm replay with the default breakers
   vs ``breakers={}`` (a warm point query tests each breaker for ``closed``
   before taking the warm route; vetoes are priced only on a plan-cache
   miss).  Acceptance: <= ``BREAKER_CEILING`` x.
3. **Recovery cost** — wall-clock of a full ``fsck()`` heal on a store with
   a corrupt delta chain, for the docs' recovery-budget table (no
   acceptance gate: it is a cold-path cost, reported for visibility).

Artifacts: ``benchmarks/results/BENCH_reliability_overhead.json`` and
``perf12_reliability_overhead.txt``.  Runnable directly:
``PYTHONPATH=src python benchmarks/bench_reliability_overhead.py``
(``BENCH_SMOKE=1`` shrinks sizes and skips the timing assertions).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.graph.generators import preferential_attachment_graph
from repro.graph.snapshot import SnapshotStore
from repro.reliability.guard import QueryGuard
from repro.service import GraphService

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SIZE = 120 if SMOKE else 500
REPLAY_PAIRS = 8 if SMOKE else 40
REPLAY_ROUNDS = 5 if SMOKE else 40
SWEEP_OWNERS = 4 if SMOKE else 16
SWEEP_ROUNDS = 2 if SMOKE else 10
EXPRESSION = "friend+[1,2]"
SWEEP_EXPRESSION = "friend+[1,4]"
SEED = 83

GUARD_CEILING = 1.30
BREAKER_CEILING = 1.15


def _graph():
    return preferential_attachment_graph(SIZE, edges_per_node=3, seed=SEED)


def _reach_pairs(graph):
    pairs = [
        (rel.source, rel.target)
        for rel in graph.relationships()
        if rel.label == "friend"
    ]
    return pairs[:REPLAY_PAIRS]


def _best_of(repeat, runs=3):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        repeat()
        best = min(best, time.perf_counter() - started)
    return best


def guard_experiment() -> dict:
    graph = _graph()
    pairs = _reach_pairs(graph)
    owners = sorted(graph.users(), key=str)[:SWEEP_OWNERS]

    def replay(service):
        def one_round():
            for source, target in pairs:
                service.reach(source, target, EXPRESSION, collect_witness=False)

        one_round()  # warm memos + plan cache
        return _best_of(lambda: [one_round() for _ in range(REPLAY_ROUNDS)])

    def sweep(service):
        # cache_size=0: every round re-runs the real multi-source sweep,
        # which is where the per-pop spend() lives.
        return _best_of(
            lambda: [
                service.audience(owners, SWEEP_EXPRESSION)
                for _ in range(SWEEP_ROUNDS)
            ]
        )

    unguarded = GraphService(graph)
    guarded = GraphService(
        graph, query_guard=QueryGuard(max_steps=1_000_000_000)
    )
    unguarded_sweep = GraphService(graph, cache_size=0)
    guarded_sweep = GraphService(
        graph, cache_size=0, query_guard=QueryGuard(max_steps=1_000_000_000)
    )
    warm_off = replay(unguarded)
    warm_on = replay(guarded)
    sweep_off = sweep(unguarded_sweep)
    sweep_on = sweep(guarded_sweep)
    assert guarded.statistics()["guard_trips"] == 0.0
    assert guarded_sweep.statistics()["guard_trips"] == 0.0
    return {
        "warm_reach_off_seconds": warm_off,
        "warm_reach_on_seconds": warm_on,
        "warm_reach_ratio": warm_on / warm_off,
        "sweep_off_seconds": sweep_off,
        "sweep_on_seconds": sweep_on,
        "sweep_ratio": sweep_on / sweep_off,
        "ceiling": GUARD_CEILING,
    }


def breaker_experiment() -> dict:
    graph = _graph()
    pairs = _reach_pairs(graph)

    def replay(service):
        def one_round():
            for source, target in pairs:
                service.reach(source, target, EXPRESSION, collect_witness=False)

        one_round()
        return _best_of(lambda: [one_round() for _ in range(REPLAY_ROUNDS)])

    without = replay(GraphService(graph, breakers={}))
    with_breakers = replay(GraphService(graph))
    return {
        "without_seconds": without,
        "with_seconds": with_breakers,
        "ratio": with_breakers / without,
        "ceiling": BREAKER_CEILING,
    }


def recovery_experiment(scratch: Path) -> dict:
    graph = _graph()
    store = SnapshotStore(scratch / "g.snap", sleep=lambda seconds: None)
    store.checkpoint(graph)
    segments = 4 if SMOKE else 8
    for index in range(segments):
        graph.add_user(f"burst-{index}")
        store.checkpoint(graph)
    # Corrupt the middle of the chain: fsck must truncate half of it.
    (scratch / f"g.delta.{segments // 2}").write_bytes(b"corrupt segment")
    fresh = SnapshotStore(scratch / "g.snap", sleep=lambda seconds: None)
    started = time.perf_counter()
    report = fresh.fsck()
    fsck_seconds = time.perf_counter() - started
    assert report.healthy
    assert report.quarantined
    return {
        "segments": segments,
        "quarantined": len(report.quarantined),
        "fsck_seconds": fsck_seconds,
    }


def run_benchmark() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-rel-") as scratch:
        return {
            "smoke": SMOKE,
            "size": SIZE,
            "guard": guard_experiment(),
            "breaker": breaker_experiment(),
            "recovery": recovery_experiment(Path(scratch)),
        }


def _format_table(summary: dict) -> str:
    guard = summary["guard"]
    breaker = summary["breaker"]
    recovery = summary["recovery"]
    lines = [
        "PERF-12: reliability-layer overhead on a healthy service",
        f"  graph size: {summary['size']} users (smoke={summary['smoke']})",
        "  guard (generous budget, zero trips):",
        f"    warm reach replay: {guard['warm_reach_ratio']:.3f}x unguarded",
        f"    cold audience sweep: {guard['sweep_ratio']:.3f}x unguarded "
        f"(ceiling {guard['ceiling']:.2f}x)",
        "  breakers (all closed):",
        f"    warm reach replay: {breaker['ratio']:.3f}x without breakers "
        f"(ceiling {breaker['ceiling']:.2f}x)",
        "  recovery (cold path, reported only):",
        f"    fsck over {recovery['segments']} segments with a mid-chain "
        f"corruption: {1e3 * recovery['fsck_seconds']:.1f} ms, "
        f"{recovery['quarantined']} files quarantined",
    ]
    return "\n".join(lines)


def _meets_targets(summary: dict) -> bool:
    return (
        summary["guard"]["sweep_ratio"] <= summary["guard"]["ceiling"]
        and summary["breaker"]["ratio"] <= summary["breaker"]["ceiling"]
    )


def test_reliability_overhead():
    summary = run_benchmark()
    print()
    print(_format_table(summary))
    if SMOKE:
        return  # correctness asserted inside the experiments; timing is noise
    assert _meets_targets(summary), summary


if __name__ == "__main__":
    import sys

    summary = run_benchmark()
    table = _format_table(summary)
    print()
    print(table)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_reliability_overhead.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        (RESULTS_DIR / "perf12_reliability_overhead.txt").write_text(
            table + "\n", encoding="utf-8"
        )
    sys.exit(0 if (summary["smoke"] or _meets_targets(summary)) else 1)
