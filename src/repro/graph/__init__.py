"""Social graph substrate: the directed, edge-labelled graph of Definition 1.

Public entry points:

* :class:`~repro.graph.social_graph.SocialGraph` — the graph itself.
* :class:`~repro.graph.builder.GraphBuilder` / :func:`~repro.graph.builder.graph_from_edges`
  — convenient construction.
* :mod:`~repro.graph.generators` — synthetic OSN topologies for benchmarks.
* :mod:`~repro.graph.statistics` — workload characterization.
* :mod:`~repro.graph.compiled` — derived CSR snapshots the reachability
  engines traverse (rebuilt lazily from the canonical graph by epoch).
* :mod:`~repro.graph.snapshot` — the persistent mmap snapshot format and
  :class:`~repro.graph.snapshot.SnapshotStore` (base file + delta segments,
  zero-copy multi-process serving).
"""

from repro.graph.builder import GraphBuilder, graph_from_edges
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.paths import Path, Traversal, is_adjacent_chain, path_from_nodes
from repro.graph.snapshot import SnapshotStore, load_snapshot, save_snapshot
from repro.graph.social_graph import AttributeMap, Relationship, SocialGraph

__all__ = [
    "SocialGraph",
    "Relationship",
    "AttributeMap",
    "CompiledGraph",
    "compile_graph",
    "SnapshotStore",
    "save_snapshot",
    "load_snapshot",
    "GraphBuilder",
    "graph_from_edges",
    "Path",
    "Traversal",
    "is_adjacent_chain",
    "path_from_nodes",
]
