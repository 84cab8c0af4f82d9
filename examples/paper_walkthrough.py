#!/usr/bin/env python3
"""Walk through every worked example of the paper on the Figure-1 graph.

Reproduces, step by step and with printed artifacts:

* the Figure-1 social subgraph,
* query Q1 of Figure 2 and its line-query expansion (Figure 4),
* the line graph (Figure 3), reachability table (Figure 5), W-table
  (Figure 6) and cluster index (Figure 7),
* the Section-3.4 worked example (George requesting Alice's resource),
* the Section-2 audience examples around David.

Run with::

    python examples/paper_walkthrough.py
"""

from __future__ import annotations

from repro.datasets.paper_graph import (
    ALICE,
    DAVID,
    GEORGE,
    Q1_EXPRESSION,
    WORKED_EXAMPLE_EXPRESSION,
    paper_graph,
)
from repro import GraphService
from repro.policy import PathExpression, PolicyStore
from repro.reachability import ClusterIndexEvaluator, LineGraph, ReachabilityTable
from repro.reachability.join_index import JoinIndex
from repro.reachability.query import expand_line_queries


def section(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    graph = paper_graph()

    section("Figure 1 — the example social subgraph")
    print(graph)
    for rel in sorted(graph.relationships(), key=lambda r: (r.label, str(r.source))):
        print(f"  {rel}")

    section("Figure 2 / Figure 4 — query Q1 and its line queries")
    q1 = PathExpression.parse(Q1_EXPRESSION)
    print(f"Q1 = {ALICE}/{q1}")
    for line_query in expand_line_queries(q1):
        print(f"  line query: {line_query.describe()}  (depths {line_query.depths})")

    section("Figure 3 — line graph L(G)")
    line_graph = LineGraph(graph, include_reverse=False)
    print(line_graph)
    for vertex_id in line_graph.vertex_ids():
        successors = sorted(line_graph.successors(vertex_id))
        print(f"  {vertex_id:<28} -> {', '.join(successors) if successors else '-'}")

    section("Figure 5 — reachability table (postorder + intervals, both directions)")
    table = ReachabilityTable(line_graph.adjacency())
    print(table.format())

    section("Figures 6 and 7 — W-table and cluster-based join index")
    join_index = JoinIndex(line_graph).build()
    for first, second, centers in join_index.w_table_rows():
        print(f"  ({first}, {second}) -> {{{', '.join(centers)}}}")
    print()
    stats = join_index.statistics()
    print(
        f"cluster index: {int(stats['centers'])} centers, "
        f"2-hop labeling size {int(stats['index_entries'])}, "
        f"base tables {sorted(join_index.base_tables)}"
    )
    pairs = join_index.reachability_join(("friend", "+"), ("parent", "+"))
    print(f"T_friend ⋈ T_parent = {sorted(pairs)}")

    section("Section 3.4 — the worked example (George requests Alice's resource)")
    store = PolicyStore()
    store.share(ALICE, "alice-resource", kind="note")
    store.allow("alice-resource", WORKED_EXAMPLE_EXPRESSION,
                description="friends of my friends' parents")
    service = GraphService(graph, store, default_backend="cluster-index")
    print(service.explain(GEORGE, "alice-resource"))
    print()
    print("full audience:", sorted(service.authorized_audience("alice-resource")))

    section("Section 2 — David's audiences")
    evaluator = ClusterIndexEvaluator(graph).build()
    incoming = evaluator.find_targets(DAVID, PathExpression.parse("friend-[1]"))
    extended = evaluator.find_targets(DAVID, PathExpression.parse("friend-[1]/friend+[1]"))
    print(f"users who consider David a friend: {sorted(incoming)}")
    print(f"...extended to their friends:      {sorted(extended)}")


if __name__ == "__main__":
    main()
