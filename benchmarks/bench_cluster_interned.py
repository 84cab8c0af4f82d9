"""PERF-6 — interned cluster-index stack and batched audience materialization.

Two baselines fall in this experiment:

* **string-id 2-hop construction** — the seed pipeline built the 2-hop
  labeling from ``LineGraph.adjacency()`` (a dict of string-id sets).  The
  interned stack (:mod:`repro.reachability.interned`) runs the same
  condensation + cover on ``array('l')`` CSR structures derived from the
  compiled snapshot, decoding strings only for witnesses.  (The string-id
  line-query *matcher* this experiment also used to time is gone; the
  committed PERF-6 artefact records its 3.7-4.4x loss.)
* **per-owner audience loop** — ``find_targets`` once per owner recompiles
  nothing (the automaton cache already helps) but pays per-call set churn;
  ``ReachabilityEngine.sweep_targets_many`` sweeps all owners over hoisted
  per-state CSR selections and bytearray seen-sets.

The experiment measures, on the 5000-user scalability graph (300 users in
``BENCH_SMOKE=1`` mode, the CI smoke job):

1. index build — interned vs string-id 2-hop construction (forward-only,
   the paper's setting);
2. cluster-index queries — ``evaluate`` mix + hub ``find_targets`` on the
   interned matcher (timed; answers must equal the BFS backend's);
3. audience materialization — per-owner loop vs batched sweep over the BFS
   backend (results must be identical).

Artifacts: ``benchmarks/results/BENCH_cluster_interned.json`` and
``perf6_cluster_interned.txt``.  Runnable directly:
``PYTHONPATH=src python benchmarks/bench_cluster_interned.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.engine import ReachabilityEngine
from repro.reachability.interned import InternedLineIndex
from repro.reachability.linegraph import LineGraph
from repro.reachability.twohop import TwoHopIndex

RESULTS_DIR = Path(__file__).resolve().parent / "results"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SIZE = 300 if SMOKE else 5000
EVALUATE_PAIRS = 10 if SMOKE else 40
HUB_OWNERS = 10 if SMOKE else 40
AUDIENCE_OWNERS = 50 if SMOKE else 300

QUERY_EXPRESSIONS = (
    "friend+[1]",
    "friend+[1,2]",
    "friend+[2]/colleague+[1]",
    "friend+[1,2]/friend+[1]",
    "colleague+[1]/friend+[1,2]",
)
HUB_EXPRESSIONS = (
    "friend+[1,3]",
    "friend+[1,2]/friend+[1,2]",
    "friend+[2,3]/colleague+[1]",
)
AUDIENCE_EXPRESSIONS = ("friend+[1,3]", "friend*[1,2]")

# Full-size acceptance floors; smoke mode only checks agreement (tiny graphs
# make wall-clock ratios noise).
BUILD_TARGET = 1.2
AUDIENCE_TARGET = 1.1


def _graph():
    return preferential_attachment_graph(SIZE, edges_per_node=3, seed=71)


def bench_build(graph) -> dict:
    """Interned vs string-id 2-hop construction (forward-only line graph)."""
    snapshot = compile_graph(graph)  # shared precondition for both paths
    started = time.perf_counter()
    interned = InternedLineIndex(snapshot, include_reverse=False)
    interned_seconds = time.perf_counter() - started

    started = time.perf_counter()
    line_graph = LineGraph(graph, include_reverse=False)
    two_hop = TwoHopIndex(line_graph.adjacency())
    string_seconds = time.perf_counter() - started

    assert interned.labeling_size() > 0 and two_hop.labeling_size() > 0
    return {
        "line_vertices": interned.count,
        "line_edges": interned.number_of_line_edges(),
        "components": interned.comp_count,
        "interned_seconds": interned_seconds,
        "string_seconds": string_seconds,
        "speedup": string_seconds / interned_seconds,
    }


def bench_queries(graph) -> dict:
    """Time the cluster-index workload; answers must equal the BFS backend's."""
    users = sorted(graph.users(), key=str)
    hubs = sorted(users, key=lambda user: -graph.out_degree(user))[:HUB_OWNERS]
    pairs = [
        (users[(i * 37) % len(users)], users[(i * 91 + 13) % len(users)])
        for i in range(EVALUATE_PAIRS)
    ]
    evaluate_expressions = [PathExpression.parse(text) for text in QUERY_EXPRESSIONS]
    hub_expressions = [PathExpression.parse(text) for text in HUB_EXPRESSIONS]

    def workload(evaluator):
        started = time.perf_counter()
        decisions = [
            evaluator.evaluate(source, target, expression, collect_witness=False).reachable
            for expression in evaluate_expressions
            for source, target in pairs
        ]
        evaluate_seconds = time.perf_counter() - started
        started = time.perf_counter()
        audiences = [
            frozenset(evaluator.find_targets(source, expression))
            for source in hubs
            for expression in hub_expressions
        ]
        find_targets_seconds = time.perf_counter() - started
        return decisions, audiences, evaluate_seconds, find_targets_seconds

    decisions, audiences, evaluate_seconds, find_targets_seconds = workload(
        ClusterIndexEvaluator(graph, include_reverse=False).build()
    )
    expected_decisions, expected_audiences, _, _ = workload(OnlineBFSEvaluator(graph))
    assert decisions == expected_decisions
    assert audiences == expected_audiences
    return {
        "evaluate_queries": len(decisions),
        "audience_queries": len(audiences),
        "interned": {
            "evaluate_seconds": evaluate_seconds,
            "find_targets_seconds": find_targets_seconds,
            "total_seconds": evaluate_seconds + find_targets_seconds,
        },
    }


def bench_batched_audiences(graph) -> dict:
    """Per-owner ``find_targets`` loop vs the batched ``sweep_targets_many`` sweep."""
    engine = ReachabilityEngine(graph, "bfs", cache_size=0)
    owners = sorted(graph.users(), key=str)[:AUDIENCE_OWNERS]
    loop_seconds = 0.0
    batched_seconds = 0.0
    for text in AUDIENCE_EXPRESSIONS:
        started = time.perf_counter()
        looped = {owner: engine.find_targets(owner, text) for owner in owners}
        loop_seconds += time.perf_counter() - started
        started = time.perf_counter()
        batched, _plan = engine.sweep_targets_many(owners, text)
        batched_seconds += time.perf_counter() - started
        assert looped == batched
    return {
        "owners": len(owners),
        "expressions": list(AUDIENCE_EXPRESSIONS),
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup": loop_seconds / batched_seconds,
    }


def _format_table(summary: dict) -> str:
    build = summary["build"]
    queries = summary["queries"]
    audiences = summary["audiences"]
    lines = [
        "PERF-6 — interned cluster index + batched audience materialization",
        f"graph: {summary['users']} users, {summary['relationships']} relationships"
        + (" (SMOKE)" if summary["smoke"] else ""),
        "",
        f"{'stage':<28} {'string/loop s':>14} {'interned s':>11} {'speedup':>8}",
        "-" * 64,
        f"{'index build (2-hop)':<28} {build['string_seconds']:>14.3f} "
        f"{build['interned_seconds']:>11.3f} {build['speedup']:>7.1f}x",
        f"{'cluster queries':<28} {'-':>14} "
        f"{queries['interned']['total_seconds']:>11.3f} {'-':>8}",
        f"{'audience materialization':<28} {audiences['loop_seconds']:>14.3f} "
        f"{audiences['batched_seconds']:>11.3f} {audiences['speedup']:>7.1f}x",
    ]
    return "\n".join(lines)


def run_benchmark() -> dict:
    graph = _graph()
    summary = {
        "experiment": "PERF-6 interned cluster index + batched audiences",
        "smoke": SMOKE,
        "users": graph.number_of_users(),
        "relationships": graph.number_of_relationships(),
        "targets": {
            "build": BUILD_TARGET,
            "audiences": AUDIENCE_TARGET,
        },
        "build": bench_build(graph),
        "queries": bench_queries(graph),
        "audiences": bench_batched_audiences(graph),
    }
    table = _format_table(summary)
    print()
    print(table)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_cluster_interned.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        (RESULTS_DIR / "perf6_cluster_interned.txt").write_text(
            table + "\n", encoding="utf-8"
        )
    return summary


def test_interned_cluster_stack_beats_the_string_baselines():
    summary = run_benchmark()
    if SMOKE:
        return  # agreement already asserted; ratios are noise at smoke size
    assert summary["build"]["speedup"] >= BUILD_TARGET, summary["build"]
    assert summary["audiences"]["speedup"] >= AUDIENCE_TARGET, summary["audiences"]


if __name__ == "__main__":
    import sys

    result = run_benchmark()
    ok = result["smoke"] or (
        result["build"]["speedup"] >= BUILD_TARGET
        and result["audiences"]["speedup"] >= AUDIENCE_TARGET
    )
    sys.exit(0 if ok else 1)
