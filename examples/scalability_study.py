#!/usr/bin/env python3
"""Mini scalability study: backends compared across graph sizes.

A scripted, smaller version of the PERF-1 / PERF-2 benchmark experiments,
meant to be read and re-run interactively: it generates scale-free networks
of increasing size, builds every backend, and prints index construction time,
index size and mean per-query latency side by side.

Run with::

    python examples/scalability_study.py            # default sizes
    python examples/scalability_study.py 100 400    # custom sizes
"""

from __future__ import annotations

import sys

from repro import GraphService
from repro.graph.generators import preferential_attachment_graph
from repro.policy import PathExpression
from repro.reachability import available_backends
from repro.workloads.metrics import MetricSeries, Timer
from repro.workloads.queries import random_query_mix

QUERY_EXPRESSIONS = (
    "friend+[1,2]",
    "friend+[1,2]/colleague+[1]",
    "colleague*[1,2]",
)


#: Owners whose full audiences are materialized in ONE bulk call per backend
#: (sweep_targets_many: one compiled automaton, one shared multi-source sweep).
AUDIENCE_EXPRESSION = "friend*[1,2]"
AUDIENCE_OWNERS = 16


def study(sizes) -> MetricSeries:
    series = MetricSeries(
        "backend comparison (Barabási–Albert graphs, 30 queries per size)",
        ["users", "backend", "build_seconds", "index_entries", "mean_query_ms",
         "bulk_audience_ms"],
    )
    expressions = [PathExpression.parse(text) for text in QUERY_EXPRESSIONS]
    audience_expression = PathExpression.parse(AUDIENCE_EXPRESSION)
    for size in sizes:
        graph = preferential_attachment_graph(size, edges_per_node=3, seed=99)
        pairs = [(s, t) for s, t, _e in random_query_mix(graph, 30, seed=size)]
        owners = sorted(graph.users(), key=str)[:AUDIENCE_OWNERS]
        # One service per size; plan pins route the same queries through
        # every backend, "planner-auto" runs them unpinned (on bfs).
        service = GraphService(graph, cache_size=0)
        for backend in list(available_backends()) + ["planner-auto"]:
            pin = None if backend == "planner-auto" else backend
            with Timer() as build_timer:
                if pin is not None:
                    evaluator = service.engine(pin).evaluator
            with Timer() as query_timer:
                for index, (source, target) in enumerate(pairs):
                    expression = expressions[index % len(expressions)]
                    service.reach(
                        source, target, expression,
                        collect_witness=False, backend=pin,
                    )
            # The bulk audience API: one audience call materializes many
            # owners' audiences in one shared sweep, not |owners|
            # independent traversals.
            with Timer() as audience_timer:
                service.audience(owners, audience_expression, backend=pin)
            series.add(
                users=size,
                backend=backend,
                build_seconds=build_timer.elapsed,
                index_entries=int(
                    service.engine(pin).statistics().get("index_entries", 0)
                ) if pin is not None else 0,
                mean_query_ms=1000.0 * query_timer.elapsed / max(1, len(pairs)),
                bulk_audience_ms=1000.0 * audience_timer.elapsed,
            )
    return series


def main() -> None:
    sizes = [int(argument) for argument in sys.argv[1:]] or [50, 100, 200]
    print(f"running the study for sizes {sizes} (backends: {', '.join(available_backends())})")
    print()
    series = study(sizes)
    print(series.to_table())
    print()
    print("reading guide: 'bfs' pays nothing up front and everything per query;")
    print("'transitive-closure' and 'cluster-index' pay an offline build (and storage)")
    print("to keep per-query latency flat as the graph grows.  'planner-auto' runs")
    print("every query unpinned, which routes it to 'bfs' (no index is ever built")
    print("behind it, so its build time shows as zero).  'bulk_audience_ms' is one")
    print(f"audience call materializing {AUDIENCE_OWNERS} owners'")
    print(f"'{AUDIENCE_EXPRESSION}' audiences in a single multi-source sweep.")


if __name__ == "__main__":
    main()
