"""PERF-9 — incremental snapshot maintenance under churn vs full rebuild.

Every ``SocialGraph`` mutation bumps the epoch and stales the compiled CSR
snapshot.  Before delta maintenance the next query paid one O(|V| + |E|)
rebuild per mutation burst — rebuild-dominated as soon as writes interleave
with reads.  With the mutation journal, ``compile_graph`` hands the burst to
``CompiledGraph.apply_deltas``: attribute writes are free, edge writes edit
the touched rows in per-label row overlays that point queries read directly;
an overlay is folded into its CSR pair only past a size threshold or when a
whole-graph consumer asks for the raw arrays.

Four experiments on the 5000-user scalability graph (300 users in
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
4. **Index-backed refresh** (PR 7) — ``ClusterIndexEvaluator.refresh()``
   on a sparse forward-only graph (the regime where line-graph components
   stay small; oriented indexes tend to one giant SCC and fall back):
   bounded re-condensation of only the dirty components vs a cold
   ``build()`` per burst, timed to first ``find_targets`` answer.

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
import random
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.snapshot import SnapshotStore
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.engine import ReachabilityEngine
from repro.workloads.generator import WorkloadSpec, apply_churn_op, build_workload

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SIZE = 300 if SMOKE else 5000
REFRESH_BURSTS = 3 if SMOKE else 8
RATIOS = (1, 10) if SMOKE else (1, 10, 100, 1000)
INDEX_ROUNDS = 3 if SMOKE else 8
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


def _sparse_graph(user_count: int, seed: int) -> SocialGraph:
    """A sparse community-structured forward-only friend-heavy graph.

    Sparse so the line graph condenses into many small components — the
    regime where the bounded re-condensation genuinely engages (dense or
    oriented ``include_reverse=True`` graphs collapse into one giant line
    SCC and the touched-fraction fallback correctly rebuilds instead) —
    and community-structured (edges stay within ~25-user neighbourhoods,
    the shape of real social graphs) so the line DAG's ancestor chains
    stay short and both arms run at interactive cost.  Note the honest
    finding this arm documents: the greedy 2-hop cover is recomputed in
    full on *both* paths and dominates them, so the wall-clock speedup
    hovers around 1x — the refresh's savings (skipped re-Tarjan and line
    construction) are real but cover-bound.  The arm's assertions are
    therefore engagement (the bounded path actually runs, every round)
    and equivalence (it answers exactly like a cold rebuild), not a
    speedup floor; bounded cover maintenance is the open item that would
    move the needle.
    """
    rng = random.Random(seed)
    graph = SocialGraph(name="perf9-sparse")
    users = [f"u{i}" for i in range(user_count)]
    for user in users:
        graph.add_user(user)
    labels = ("friend", "friend", "friend", "colleague", "parent")
    community = 25
    target = int(user_count * 1.3)
    edges = set()
    attempts = 0
    while len(edges) < target and attempts < target * 50:
        attempts += 1
        base = rng.randrange(user_count)
        other = (base // community) * community + rng.randrange(community)
        if other >= user_count or other == base:
            continue
        edge = (users[base], users[other], rng.choice(labels))
        if edge not in edges:
            edges.add(edge)
            graph.add_relationship(*edge)
    return graph


def _index_burst(graph: SocialGraph, rng: random.Random, size: int, tag: int):
    """One valid mixed burst (edge churn + some user churn) for the graph."""
    ops = []
    edges = [(rel.source, rel.target, rel.label) for rel in graph.relationships()]
    edge_set = set(edges)
    pool = sorted(graph.users(), key=str)
    serial = 0
    remove_next = True
    while len(ops) < size:
        if rng.random() < 0.12 and len(pool) > 2:
            user = pool.pop(rng.randrange(len(pool)))
            edges = [e for e in edges if user not in (e[0], e[1])]
            edge_set = set(edges)
            ops.append(("remove_user", user))
            name = f"nu{tag}-{serial}"
            serial += 1
            pool.append(name)
            ops.append(("add_user", name))
            continue
        if remove_next and edges:
            position = rng.randrange(len(edges))
            edge = edges[position]
            edges[position] = edges[-1]
            edges.pop()
            edge_set.discard(edge)
            ops.append(("remove_edge",) + edge)
            remove_next = False
            continue
        for _attempt in range(32):
            candidate = (rng.choice(pool), rng.choice(pool), "friend")
            if candidate[0] != candidate[1] and candidate not in edge_set:
                edge_set.add(candidate)
                edges.append(candidate)
                ops.append(("add_edge",) + candidate)
                break
        remove_next = True
    return ops


def index_refresh_experiment() -> dict:
    """Experiment 4: bounded cluster-index refresh vs cold rebuild per burst.

    Both arms replay identical bursts (same seed against identical graph
    replicas); the incremental arm keeps the journal on so
    ``ClusterIndexEvaluator.refresh()`` can hand the burst to
    ``InternedLineIndex.refresh_from_ops``, the rebuild arm disables it
    (``journal_limit = 0``) so every refresh is a cold ``build()``.  Timed
    to first ``find_targets`` answer after each burst.
    """
    expression = PathExpression.parse(QUERY_EXPRESSION)
    rows = []
    arms = {}
    for mode in ("incremental", "rebuild"):
        graph = _sparse_graph(SIZE, SEED + 2)
        burst_size = max(8, graph.number_of_relationships() // 100)
        if mode == "rebuild":
            graph.journal_limit = 0
        evaluator = ClusterIndexEvaluator(graph, include_reverse=False).build()
        rng = random.Random(SEED + 3)
        refresh_seconds = []
        modes_taken: Counter = Counter()
        for round_index in range(INDEX_ROUNDS):
            for op in _index_burst(graph, rng, burst_size, round_index):
                apply_churn_op(graph, op)
            owner = sorted(graph.users(), key=str)[
                (round_index * 17) % graph.number_of_users()
            ]
            started = time.perf_counter()
            evaluator.refresh()
            evaluator.find_targets(owner, expression)
            refresh_seconds.append(time.perf_counter() - started)
            modes_taken[evaluator.last_refresh_mode] += 1
        rows.append(
            {
                "mode": mode,
                "rounds": INDEX_ROUNDS,
                "burst_size": burst_size,
                "mean_refresh_seconds": sum(refresh_seconds) / len(refresh_seconds),
                "total_refresh_seconds": sum(refresh_seconds),
                "modes_taken": dict(modes_taken),
            }
        )
        arms[mode] = (graph, evaluator)

    # Equivalence: same bursts, so the incrementally maintained index must
    # answer exactly like the one rebuilt from scratch every round.
    inc_graph, inc_evaluator = arms["incremental"]
    rebuild_graph, rebuild_evaluator = arms["rebuild"]
    assert inc_graph == rebuild_graph
    for owner in sorted(inc_graph.users(), key=str)[::7][:24]:
        assert inc_evaluator.find_targets(owner, expression) == (
            rebuild_evaluator.find_targets(owner, expression)
        ), owner

    inc_row = next(row for row in rows if row["mode"] == "incremental")
    rebuild_row = next(row for row in rows if row["mode"] == "rebuild")
    # The whole point of the arm: the bounded path must actually engage.
    assert inc_row["modes_taken"].get("incremental", 0) > 0, inc_row
    return {
        "rows": rows,
        "users": inc_graph.number_of_users(),
        "relationships": inc_graph.number_of_relationships(),
        "incremental_rounds": inc_row["modes_taken"].get("incremental", 0),
        "speedup": (
            rebuild_row["mean_refresh_seconds"] / inc_row["mean_refresh_seconds"]
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
    index_refresh = index_refresh_experiment()
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
        "index_refresh": index_refresh,
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
        "",
    ]
    index_refresh = summary["index_refresh"]
    lines += [
        "cluster-index refresh-to-first-query (sparse forward-only graph, "
        f"{index_refresh['users']} users / "
        f"{index_refresh['relationships']} edges):",
        f"{'mode':<12} {'first-query s':>14} {'total s':>10} {'modes taken'}",
        "-" * 60,
    ]
    for row in index_refresh["rows"]:
        lines.append(
            f"{row['mode']:<12} {row['mean_refresh_seconds']:>14.4f} "
            f"{row['total_refresh_seconds']:>10.3f} {row['modes_taken']}"
        )
    lines.append(
        f"index refresh speedup: {index_refresh['speedup']:.1f}x "
        f"({index_refresh['incremental_rounds']}/"
        f"{index_refresh['rows'][0]['rounds']} rounds incremental)"
    )
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
