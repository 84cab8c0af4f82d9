"""PERF-1 — per-query latency versus graph size, per backend.

The paper's motivation: answering a constraint-labelled reachability query
with an online search costs ``O(|V| + |E|)`` per query, "which is too costly
when dealing with large graphs", while an index-based approach should keep
the per-query cost (nearly) independent of graph size.  This experiment fixes
a query mix (the paper's scenario expressions) and measures the mean decision
latency on Barabási–Albert graphs of increasing size for every backend.

Expected shape (recorded in docs/benchmarks.md): online BFS/DFS latency grows
with graph size; the cluster-index per-query latency stays roughly flat once
the (expensive, offline) index has been built; the transitive-closure backend
sits in between (O(1) pruning, online search for the rest).
"""

from __future__ import annotations

import pytest
from conftest import record_table

from repro.policy import PathExpression
from repro.reachability import create_evaluator
from repro.workloads.metrics import MetricSeries, Timer
from repro.workloads.queries import random_query_mix

QUERY_EXPRESSIONS = [
    "friend+[1,2]",
    "friend+[1,2]/colleague+[1]",
    "friend+[1]/parent+[1]/friend+[1]",
    "colleague*[1,2]",
]

# Which sizes each backend is exercised on: the index pipelines are capped so
# that their (quadratic-ish) offline construction keeps the harness fast; the
# online baselines run on every size.
BACKEND_SIZES = {
    "bfs": (50, 100, 200, 400, 800),
    "transitive-closure": (50, 100, 200, 400, 800),
    "cluster-index": (50, 100, 200, 400),
}

_EVALUATOR_CACHE = {}
_SERIES = MetricSeries(
    "PERF-1 — mean query latency (ms) vs graph size",
    ["backend", "users", "relationships", "mean_latency_ms", "queries"],
)


def _evaluator(backend, size, graph):
    key = (backend, size)
    if key not in _EVALUATOR_CACHE:
        _EVALUATOR_CACHE[key] = create_evaluator(backend, graph)
    return _EVALUATOR_CACHE[key]


def _query_mix(graph, size):
    users = sorted(graph.users())
    expressions = [PathExpression.parse(text) for text in QUERY_EXPRESSIONS]
    mix = []
    for index, (source, target, _expr) in enumerate(
        random_query_mix(graph, 40, seed=size, max_steps=2, max_depth=2)
    ):
        mix.append((source, target, expressions[index % len(expressions)]))
    return mix


def _cases():
    cases = []
    for backend, sizes in BACKEND_SIZES.items():
        for size in sizes:
            cases.append((backend, size))
    return cases


@pytest.mark.parametrize("backend,size", _cases())
def test_query_latency(benchmark, scaling_graphs, backend, size):
    graph = scaling_graphs[size]
    evaluator = _evaluator(backend, size, graph)
    mix = _query_mix(graph, size)

    def run_mix():
        grants = 0
        for source, target, expression in mix:
            if evaluator.evaluate(source, target, expression, collect_witness=False).reachable:
                grants += 1
        return grants

    benchmark.pedantic(run_mix, rounds=3, iterations=1)

    with Timer() as timer:
        run_mix()
    _SERIES.add(
        backend=backend,
        users=size,
        relationships=graph.number_of_relationships(),
        mean_latency_ms=1000.0 * timer.elapsed / len(mix),
        queries=len(mix),
    )


def test_zzz_report(benchmark):
    """Print / persist the PERF-1 series (runs last thanks to the zzz prefix)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record_table("perf1_query_latency_scaling", _SERIES.to_table())
    assert len(_SERIES.rows) == sum(len(sizes) for sizes in BACKEND_SIZES.values())
