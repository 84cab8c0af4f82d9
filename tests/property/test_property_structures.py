"""Property-based tests for the core data structures and index invariants."""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.reachability.interval import IntervalLabeling, ReachabilityTable
from repro.reachability.scc import condense, strongly_connected_components
from repro.reachability.twohop import TwoHopCover, TwoHopIndex

SETTINGS = dict(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

@st.composite
def digraphs(draw, max_nodes=12):
    """A random directed graph as an adjacency dict (possibly cyclic)."""
    count = draw(st.integers(1, max_nodes))
    nodes = list(range(count))
    adjacency = {node: [] for node in nodes}
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=3 * count,
        )
    )
    for source, target in edges:
        if source != target and target not in adjacency[source]:
            adjacency[source].append(target)
    return adjacency


@st.composite
def dags(draw, max_nodes=12):
    """A random DAG (edges only from smaller to larger node ids)."""
    adjacency = draw(digraphs(max_nodes=max_nodes))
    return {node: [t for t in targets if t > node] for node, targets in adjacency.items()}


def _as_networkx(adjacency):
    graph = nx.DiGraph()
    graph.add_nodes_from(adjacency)
    for node, targets in adjacency.items():
        graph.add_edges_from((node, target) for target in targets)
    return graph


# --------------------------------------------------------------------------
# SCC / condensation
# --------------------------------------------------------------------------

@given(digraphs())
@settings(**SETTINGS)
def test_scc_partition_matches_networkx(adjacency):
    ours = {frozenset(component) for component in strongly_connected_components(adjacency)}
    reference = {frozenset(c) for c in nx.strongly_connected_components(_as_networkx(adjacency))}
    assert ours == reference


@given(digraphs())
@settings(**SETTINGS)
def test_condensation_preserves_reachability(adjacency):
    condensation = condense(adjacency)
    graph = _as_networkx(adjacency)
    dag = _as_networkx({k: list(v) for k, v in condensation.dag.items()})
    for source in adjacency:
        for target in adjacency:
            expected = nx.has_path(graph, source, target)
            s, t = condensation.component_of(source), condensation.component_of(target)
            actual = s == t or nx.has_path(dag, s, t)
            assert expected == actual


# --------------------------------------------------------------------------
# Interval labeling / reachability table
# --------------------------------------------------------------------------

@given(dags())
@settings(**SETTINGS)
def test_interval_labeling_equals_dag_reachability(adjacency):
    labeling = IntervalLabeling(adjacency)
    graph = _as_networkx(adjacency)
    for source in adjacency:
        for target in adjacency:
            assert labeling.reaches(source, target) == nx.has_path(graph, source, target)


@given(digraphs())
@settings(**SETTINGS)
def test_reachability_table_equals_digraph_reachability(adjacency):
    table = ReachabilityTable(adjacency)
    graph = _as_networkx(adjacency)
    for source in adjacency:
        for target in adjacency:
            assert table.reaches(source, target) == (
                source == target or nx.has_path(graph, source, target)
            )


# --------------------------------------------------------------------------
# 2-hop cover
# --------------------------------------------------------------------------

@given(dags())
@settings(**SETTINGS)
def test_two_hop_cover_equals_dag_reachability(adjacency):
    cover = TwoHopCover(adjacency)
    graph = _as_networkx(adjacency)
    for source in adjacency:
        for target in adjacency:
            assert cover.reachable(source, target) == nx.has_path(graph, source, target)


@given(digraphs())
@settings(**SETTINGS)
def test_two_hop_index_equals_digraph_reachability(adjacency):
    index = TwoHopIndex(adjacency)
    graph = _as_networkx(adjacency)
    for source in adjacency:
        for target in adjacency:
            assert index.reachable(source, target) == nx.has_path(graph, source, target)


@given(dags())
@settings(**SETTINGS)
def test_two_hop_labels_have_no_false_positives(adjacency):
    cover = TwoHopCover(adjacency)
    graph = _as_networkx(adjacency)
    for node in adjacency:
        for center in cover.lout[node]:
            assert nx.has_path(graph, node, center)
        for center in cover.lin[node]:
            assert nx.has_path(graph, center, node)
