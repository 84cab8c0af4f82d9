"""FIG7 — the cluster-based join index (sorted centers with U/V clusters).

Figure 7 depicts the cluster-based index: a B+-tree whose entries are 2-hop
centers, each holding the cluster of vertices that reach it (U_w) and the
cluster of vertices it reaches (V_w); here the tree is a dict filled in
sorted-center order.  This module regenerates the structure over the example
graph, reports its composition, and benchmarks both its
construction and the per-center lookups queries perform.
"""

from __future__ import annotations

from conftest import record_table

from repro.reachability.join_index import JoinIndex
from repro.reachability.linegraph import LineGraph
from repro.workloads.metrics import format_table


def _build(figure1, include_reverse=False):
    return JoinIndex(LineGraph(figure1, include_reverse=include_reverse)).build()


def test_build_cluster_index(benchmark, figure1):
    index = benchmark.pedantic(_build, args=(figure1,), rounds=3, iterations=1)
    rows = []
    for center, entry in index.cluster_index.items():
        rows.append(
            {
                "center": center,
                "|U| (reach the center)": len(entry.u_vertices()),
                "|V| (reached from it)": len(entry.v_vertices()),
            }
        )
    stats = index.statistics()
    rows.append({"center": "TOTAL", "|U| (reach the center)": "", "|V| (reached from it)": ""})
    record_table(
        "figure7_cluster_index",
        format_table(
            ["center", "|U| (reach the center)", "|V| (reached from it)"],
            rows[:-1],
            title=(
                "Figure 7 — cluster-based join index of the example graph: "
                f"{int(stats['centers'])} centers, 2-hop labeling size {int(stats['index_entries'])}"
            ),
        ),
    )
    assert len(index.cluster_index) >= 1


def test_cluster_lookup_by_center(benchmark, figure1):
    index = _build(figure1)
    center = next(iter(index.cluster_index.keys()))
    entry = benchmark(index.cluster, center)
    assert entry is not None


def test_vertex_reachability_through_labels(benchmark, figure1):
    index = _build(figure1)
    reachable = benchmark(index.vertex_reaches, "friend:Alice->Colin", "friend:Fred->George")
    assert reachable


def test_build_cluster_index_for_synthetic_graph(benchmark, scaling_graphs):
    graph = scaling_graphs[100]

    def build():
        return JoinIndex(LineGraph(graph, include_reverse=True)).build()

    index = benchmark.pedantic(build, rounds=1, iterations=1)
    assert index.statistics()["centers"] >= 1
