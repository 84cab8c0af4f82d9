"""PERF-9 — incremental snapshot maintenance under churn vs full rebuild.

Every ``SocialGraph`` mutation bumps the epoch and stales the compiled CSR
snapshot.  Before delta maintenance the next query paid one O(|V| + |E|)
rebuild per mutation burst — rebuild-dominated as soon as writes interleave
with reads.  With the mutation journal, ``compile_graph`` hands the burst to
``CompiledGraph.apply_deltas``: attribute writes are free, edge writes edit
the touched rows in per-label row overlays that point queries read directly;
an overlay is folded into its CSR pair only past a size threshold or when a
whole-graph consumer asks for the raw arrays.

Three experiments on the 5000-user scalability graph (300 users in
``BENCH_SMOKE=1`` mode, the CI smoke job):

1. **Snapshot refresh cost** — apply one churn burst of ~1% of |E|
   (remove/add pairs plus attribute rewrites), then time the
   *time-to-first-query*: one ``is_reachable`` through a cache-disabled
   engine, which is exactly the moment the refresh bill lands (the full
   rebuild, or the delta absorption — the query reads patched rows straight
   from the overlay).  The cost of folding every label's overlay — what a
   whole-graph consumer such as ``snapshot.save`` would pay — is reported in
   its own "settle" column.
   Delta-apply (journal on) vs full rebuild (``journal_limit = 0``); the
   acceptance row: delta-apply beats the rebuild by >= 5x at full size.
   Both modes must produce snapshots that answer identically.
2. **Interleaved write/query throughput** — one churn write followed by
   ``ratio`` reads (``is_reachable`` through a ``ReachabilityEngine``), for
   read/write ratios 1:1 to 1000:1, in both modes.
3. **Remove-heavy churn** (PR 7) — same refresh measurement, but >= 10% of
   the burst is ``remove_user`` (``churn_remove_user_fraction``): the
   regime that used to abandon every patch.  Tombstoned slots keep the
   delta path in O(|burst|); the acceptance row mirrors experiment 1's
   >= 5x at full size.  The arm also verifies ``SnapshotStore.checkpoint``
   emits a *delta segment* (not a rebase) for the removal-bearing journal.

Every run (smoke included) also asserts the overlay contract: a
sub-threshold burst followed by a point query folds nothing, and the patched
snapshot's ``degree_statistics()`` equal a rebuilt one's.

Artifacts: ``benchmarks/results/BENCH_churn_incremental.json`` and
``perf9_churn_incremental.txt``.  Runnable directly:
``PYTHONPATH=src python benchmarks/bench_churn_incremental.py``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.snapshot import SnapshotStore
from repro.reachability.engine import ReachabilityEngine
from repro.workloads.generator import WorkloadSpec, apply_churn_op, build_workload

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SIZE = 300 if SMOKE else 5000
REFRESH_BURSTS = 3 if SMOKE else 8
RATIOS = (1, 10) if SMOKE else (1, 10, 100, 1000)
SEED = 43

#: Full-size acceptance floor: delta-apply vs full rebuild on the refresh
#: (both the edge-churn and the remove-heavy arm).
SPEEDUP_TARGET = 5.0

#: Floor on the remove-heavy arm's realized ``remove_user`` share.
REMOVE_USER_SHARE_FLOOR = 0.10

QUERY_EXPRESSION = "friend+[1,2]"
EQUIVALENCE_EXPRESSIONS = ("friend+[1,2]", "friend*[1,2]", "colleague+[1]")


def _churn_workload(bursts: int, burst_size: int):
    """One deterministic churn workload (graph + replayable bursts)."""
    return build_workload(
        WorkloadSpec(
            users=SIZE,
            seed=SEED,
            churn_bursts=bursts,
            churn_burst_size=burst_size,
            churn_attribute_fraction=0.25,
        )
    )


def _force_current(graph) -> float:
    """Bring the snapshot fully up to date; return the elapsed seconds.

    ``compile_graph`` alone absorbs the burst into the row overlays;
    asking for every label's raw arrays forces the folds a whole-graph
    consumer would trigger, so the delta path is charged its full
    (amortized) cost and the comparison against the rebuild stays honest.
    """
    started = time.perf_counter()
    snapshot = compile_graph(graph)
    for label_id in range(len(snapshot.labels)):
        snapshot.forward(label_id)
        snapshot.backward(label_id)
    return time.perf_counter() - started


def _sample_pairs(graph, count: int, stride: int = 17):
    users = sorted(graph.users(), key=str)
    return [
        (users[(i * stride) % len(users)], users[(i * stride * 3 + 1) % len(users)])
        for i in range(count)
    ]


def _degree_rows(snapshot) -> dict:
    """``label -> (edges, mean, max out, max in)`` of the labels with edges."""
    return {
        row.label: (row.edges, row.mean_degree, row.max_out_degree, row.max_in_degree)
        for row in snapshot.degree_statistics()
        if row.edges
    }


def overlay_contract_check() -> dict:
    """A sub-threshold burst plus a point query folds nothing, and maintained
    degree statistics equal a rebuild's."""
    graph = _churn_workload(1, 1).graph
    engine = ReachabilityEngine(graph, "bfs", cache_size=0)
    source, target = _sample_pairs(graph, 1)[0]
    snapshot = compile_graph(graph)
    snapshot.degree_statistics()
    engine.is_reachable(source, target, QUERY_EXPRESSION)
    folds = snapshot.delta_events["label_compactions"]
    # Three edge ops among the lowest-degree users: a handful of short rows,
    # far below any label's fold threshold.
    quiet = sorted(graph.users(), key=lambda user: (graph.degree(user), str(user)))[:3]
    for a, b in ((quiet[0], quiet[1]), (quiet[1], quiet[2]), (quiet[0], quiet[1])):
        if graph.has_relationship(a, b, "friend"):
            graph.remove_relationship(a, b, "friend")
        else:
            graph.add_relationship(a, b, "friend")
    engine.is_reachable(source, target, QUERY_EXPRESSION)
    assert compile_graph(graph) is snapshot, "the burst must patch in place"
    assert snapshot.delta_events["label_compactions"] == folds, snapshot.delta_events
    assert snapshot.overlay_rows > 0
    assert _degree_rows(snapshot) == _degree_rows(CompiledGraph(graph))
    return {"overlay_rows": snapshot.overlay_rows, "label_folds": folds}


def refresh_experiment() -> dict:
    burst_size = None
    rows = []
    snapshots = {}
    for mode in ("delta", "rebuild"):
        workload = _churn_workload(REFRESH_BURSTS, burst_size or 1)
        graph = workload.graph
        if burst_size is None:
            # ~1% of |E| per burst; regenerate with the real burst size.
            burst_size = max(10, graph.number_of_relationships() // 100)
            workload = _churn_workload(REFRESH_BURSTS, burst_size)
            graph = workload.graph
        if mode == "rebuild":
            graph.journal_limit = 0
        engine = ReachabilityEngine(graph, "bfs", cache_size=0)
        source, target = _sample_pairs(graph, 1)[0]
        _force_current(graph)  # warm: both modes start from a current snapshot
        engine.is_reachable(source, target, QUERY_EXPRESSION)
        refresh_seconds = []
        settle_seconds = []
        for burst in workload.churn:
            for op in burst:
                apply_churn_op(graph, op)
            started = time.perf_counter()
            engine.is_reachable(source, target, QUERY_EXPRESSION)
            refresh_seconds.append(time.perf_counter() - started)
            settle_seconds.append(_force_current(graph))
        snapshot = compile_graph(graph)
        rows.append(
            {
                "mode": mode,
                "bursts": len(workload.churn),
                "burst_size": burst_size,
                "mean_refresh_seconds": sum(refresh_seconds) / len(refresh_seconds),
                "total_refresh_seconds": sum(refresh_seconds),
                "mean_settle_seconds": sum(settle_seconds) / len(settle_seconds),
                "delta_events": dict(snapshot.delta_events),
            }
        )
        snapshots[mode] = (graph, snapshot)

    # Equivalence: both modes replayed identical bursts, so their graphs are
    # equal and their snapshots must answer identically.
    delta_graph, _ = snapshots["delta"]
    rebuild_graph, _ = snapshots["rebuild"]
    assert delta_graph == rebuild_graph
    delta_engine = ReachabilityEngine(delta_graph, "bfs", cache_size=0)
    rebuild_engine = ReachabilityEngine(rebuild_graph, "bfs", cache_size=0)
    for text in EQUIVALENCE_EXPRESSIONS:
        for source, target in _sample_pairs(delta_graph, 20):
            assert delta_engine.is_reachable(source, target, text) == (
                rebuild_engine.is_reachable(source, target, text)
            ), (text, source, target)
    assert _degree_rows(snapshots["delta"][1]) == _degree_rows(snapshots["rebuild"][1])

    delta_row = next(row for row in rows if row["mode"] == "delta")
    rebuild_row = next(row for row in rows if row["mode"] == "rebuild")
    return {
        "rows": rows,
        "burst_size": burst_size,
        "users": delta_graph.number_of_users(),
        "relationships": delta_graph.number_of_relationships(),
        "speedup": (
            rebuild_row["mean_refresh_seconds"] / delta_row["mean_refresh_seconds"]
        ),
    }


def _remove_heavy_workload(bursts: int, burst_size: int):
    """A churn workload where user removals are a first-class op."""
    return build_workload(
        WorkloadSpec(
            users=SIZE,
            seed=SEED + 1,
            churn_bursts=bursts,
            churn_burst_size=burst_size,
            churn_attribute_fraction=0.2,
            # Per-slot probability; user churn alternates remove/add, so the
            # realized remove_user share lands around (1 - 0.2) * 0.5 / 2 =
            # 20% of ops — comfortably over the 10% floor even at smoke
            # burst sizes.
            churn_remove_user_fraction=0.5,
        )
    )


def _checkpoint_action(burst_size: int) -> dict:
    """Checkpoint a removal-bearing journal; report which arm the store took.

    Before tombstones, ``remove_user`` ops were not persistable and any
    removal-bearing journal forced a full rebase.  Now they replay as
    tombstones, so a journal-covered burst must come back ``"delta"``.
    """
    workload = _remove_heavy_workload(1, burst_size)
    graph = workload.graph
    burst = workload.churn[0]
    with tempfile.TemporaryDirectory() as tmp:
        store = SnapshotStore(Path(tmp) / "perf9.snap")
        store.save(compile_graph(graph))
        for op in burst:
            apply_churn_op(graph, op)
        action = store.checkpoint(graph)
    return {
        "action": action,
        "removal_bearing": any(op[0] == "remove_user" for op in burst),
    }


def remove_heavy_experiment() -> dict:
    """Experiment 3: the refresh measurement under remove-heavy churn.

    Same protocol as :func:`refresh_experiment`, but >= 10% of each burst
    removes users outright (tombstoning their slots on the delta path) —
    the workload that used to abandon every patch and rebuild.  The query
    pair is re-sampled per burst because its endpoints can be removed.
    """
    burst_size = None
    rows = []
    graphs = {}
    op_counts: Counter = Counter()
    for mode in ("delta", "rebuild"):
        workload = _remove_heavy_workload(REFRESH_BURSTS, burst_size or 1)
        graph = workload.graph
        if burst_size is None:
            # ~1% of |E| per burst; regenerate with the real burst size.
            burst_size = max(10, graph.number_of_relationships() // 100)
            workload = _remove_heavy_workload(REFRESH_BURSTS, burst_size)
            graph = workload.graph
        if mode == "rebuild":
            graph.journal_limit = 0
        engine = ReachabilityEngine(graph, "bfs", cache_size=0)
        _force_current(graph)
        source, target = _sample_pairs(graph, 1)[0]
        engine.is_reachable(source, target, QUERY_EXPRESSION)
        refresh_seconds = []
        settle_seconds = []
        for burst in workload.churn:
            if mode == "delta":
                op_counts.update(op[0] for op in burst)
            for op in burst:
                apply_churn_op(graph, op)
            source, target = _sample_pairs(graph, 1)[0]
            started = time.perf_counter()
            engine.is_reachable(source, target, QUERY_EXPRESSION)
            refresh_seconds.append(time.perf_counter() - started)
            settle_seconds.append(_force_current(graph))
        snapshot = compile_graph(graph)
        rows.append(
            {
                "mode": mode,
                "bursts": len(workload.churn),
                "burst_size": burst_size,
                "mean_refresh_seconds": sum(refresh_seconds) / len(refresh_seconds),
                "total_refresh_seconds": sum(refresh_seconds),
                "mean_settle_seconds": sum(settle_seconds) / len(settle_seconds),
                "delta_events": dict(snapshot.delta_events),
            }
        )
        graphs[mode] = graph

    # Equivalence: identical bursts replayed, tombstoned state must answer
    # exactly like the rebuilt one.
    delta_graph = graphs["delta"]
    rebuild_graph = graphs["rebuild"]
    assert delta_graph == rebuild_graph
    delta_engine = ReachabilityEngine(delta_graph, "bfs", cache_size=0)
    rebuild_engine = ReachabilityEngine(rebuild_graph, "bfs", cache_size=0)
    for text in EQUIVALENCE_EXPRESSIONS:
        for source, target in _sample_pairs(delta_graph, 20):
            assert delta_engine.is_reachable(source, target, text) == (
                rebuild_engine.is_reachable(source, target, text)
            ), (text, source, target)

    total_ops = sum(op_counts.values())
    remove_user_share = op_counts.get("remove_user", 0) / max(1, total_ops)
    assert remove_user_share >= REMOVE_USER_SHARE_FLOOR, op_counts
    checkpoint = _checkpoint_action(burst_size)
    assert checkpoint["action"] == "delta", checkpoint

    delta_row = next(row for row in rows if row["mode"] == "delta")
    rebuild_row = next(row for row in rows if row["mode"] == "rebuild")
    assert delta_row["delta_events"].get("tombstones", 0) > 0, delta_row
    return {
        "rows": rows,
        "burst_size": burst_size,
        "op_counts": dict(op_counts),
        "remove_user_share": remove_user_share,
        "checkpoint": checkpoint,
        "speedup": (
            rebuild_row["mean_refresh_seconds"] / delta_row["mean_refresh_seconds"]
        ),
    }


def throughput_experiment() -> dict:
    rows = []
    for ratio in RATIOS:
        cycles = max(2, min(60, 2000 // ratio))
        for mode in ("delta", "rebuild"):
            workload = _churn_workload(1, cycles)
            graph = workload.graph
            if mode == "rebuild":
                graph.journal_limit = 0
            engine = ReachabilityEngine(graph, "bfs")
            pairs = _sample_pairs(graph, max(ratio, 8))
            _force_current(graph)
            writes = reads = 0
            started = time.perf_counter()
            for op in workload.churn[0]:
                apply_churn_op(graph, op)
                writes += 1
                for position in range(ratio):
                    source, target = pairs[position % len(pairs)]
                    engine.is_reachable(source, target, QUERY_EXPRESSION)
                    reads += 1
            elapsed = time.perf_counter() - started
            rows.append(
                {
                    "ratio": ratio,
                    "mode": mode,
                    "writes": writes,
                    "reads": reads,
                    "seconds": elapsed,
                    "ops_per_second": (writes + reads) / elapsed,
                }
            )
    # Pair up the modes per ratio for the speedup column.
    by_ratio = {}
    for row in rows:
        by_ratio.setdefault(row["ratio"], {})[row["mode"]] = row
    for ratio, modes in by_ratio.items():
        modes["delta"]["speedup"] = (
            modes["delta"]["ops_per_second"] / modes["rebuild"]["ops_per_second"]
        )
    return {"rows": rows}


def run_benchmark() -> dict:
    overlay_contract = overlay_contract_check()
    refresh = refresh_experiment()
    throughput = throughput_experiment()
    remove_heavy = remove_heavy_experiment()
    return {
        "experiment": "PERF-9 incremental snapshot maintenance under churn",
        "smoke": SMOKE,
        "users": refresh["users"],
        "relationships": refresh["relationships"],
        "burst_size": refresh["burst_size"],
        "speedup_target": SPEEDUP_TARGET,
        "overlay_contract": overlay_contract,
        "refresh": refresh,
        "throughput": throughput,
        "remove_heavy": remove_heavy,
    }


def _format_table(summary: dict) -> str:
    refresh = summary["refresh"]
    lines = [
        "PERF-9 — incremental snapshot maintenance under churn",
        f"graph: {summary['users']} users, {summary['relationships']} relationships"
        + (" (SMOKE)" if summary["smoke"] else ""),
        f"churn burst: {summary['burst_size']} mutations (~1% of |E|), "
        f"{refresh['rows'][0]['bursts']} bursts",
        "",
        "snapshot refresh after one burst (first query; settle = folding every overlay):",
        f"{'mode':<10} {'first-query s':>14} {'settle s':>10} {'total s':>10}",
        "-" * 50,
    ]
    for row in refresh["rows"]:
        lines.append(
            f"{row['mode']:<10} {row['mean_refresh_seconds']:>14.4f} "
            f"{row['mean_settle_seconds']:>10.4f} {row['total_refresh_seconds']:>10.3f}"
        )
    lines += [
        f"delta-apply speedup: {refresh['speedup']:.1f}x "
        f"(target >= {summary['speedup_target']:.0f}x)",
        "",
        "interleaved write/query throughput (1 write, then <ratio> reads):",
        f"{'reads:writes':>12} {'mode':<10} {'ops/s':>10} {'speedup':>8}",
        "-" * 46,
    ]
    for row in summary["throughput"]["rows"]:
        speedup = f"{row['speedup']:.1f}x" if "speedup" in row else ""
        lines.append(
            f"{row['ratio']:>10}:1 {row['mode']:<10} "
            f"{row['ops_per_second']:>10.0f} {speedup:>8}"
        )
    remove_heavy = summary["remove_heavy"]
    lines += [
        "",
        "remove-heavy refresh (tombstoned slots; "
        f"{remove_heavy['remove_user_share']:.0%} of ops are remove_user):",
        f"{'mode':<10} {'first-query s':>14} {'settle s':>10} {'total s':>10}",
        "-" * 50,
    ]
    for row in remove_heavy["rows"]:
        lines.append(
            f"{row['mode']:<10} {row['mean_refresh_seconds']:>14.4f} "
            f"{row['mean_settle_seconds']:>10.4f} {row['total_refresh_seconds']:>10.3f}"
        )
    lines += [
        f"remove-heavy delta speedup: {remove_heavy['speedup']:.1f}x "
        f"(target >= {summary['speedup_target']:.0f}x); "
        f"checkpoint action: {remove_heavy['checkpoint']['action']}",
    ]
    return "\n".join(lines)


def _meets_target(summary: dict) -> bool:
    return (
        summary["refresh"]["speedup"] >= SPEEDUP_TARGET
        and summary["remove_heavy"]["speedup"] >= SPEEDUP_TARGET
    )


def test_delta_apply_beats_the_full_rebuild():
    summary = run_benchmark()
    print()
    print(_format_table(summary))
    if SMOKE:
        return  # equivalence already asserted; ratios are noise at smoke size
    assert _meets_target(summary), summary["refresh"]


if __name__ == "__main__":
    import sys

    summary = run_benchmark()
    table = _format_table(summary)
    print()
    print(table)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_churn_incremental.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        (RESULTS_DIR / "perf9_churn_incremental.txt").write_text(
            table + "\n", encoding="utf-8"
        )
    sys.exit(0 if (summary["smoke"] or _meets_target(summary)) else 1)
