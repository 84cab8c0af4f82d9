"""Strongly connected components and DAG condensation (Tarjan, Section 3.2).

"A directed acyclic graph G1 is first built based on the obtained line
social graph L(G), by identifying its strongly connected components...  each
SCC in L(G) is represented through a randomly selected node from that SCC...
This transformation will not cause any loss of reachability information,
given that any two nodes in the same SCC are necessarily reachable.  The
algorithm for determining SCCs is Tarjan's algorithm."

The public API works on a plain adjacency mapping (``node -> iterable of
successors``) so that it can be applied to the line graph, to the social
graph, or to any directed graph in tests.  Internally the nodes are interned
to dense ints and the work is done by the iterative CSR Tarjan of
:mod:`repro.reachability.interned` — the line graphs of large social
networks easily exceed Python's recursion limit, and the dense core avoids
hashing arbitrary node objects on every edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Set

from repro.graph.compiled import build_csr
from repro.reachability.interned import tarjan_scc_dense

__all__ = ["strongly_connected_components", "Condensation", "condense"]

Adjacency = Mapping[Hashable, Iterable[Hashable]]


def _intern_nodes(adjacency: Adjacency) -> List[Hashable]:
    """Collect the node universe: mapping keys first, then successor-only nodes."""
    nodes: List[Hashable] = list(adjacency)
    known: Set[Hashable] = set(nodes)
    for successors in adjacency.values():
        for successor in successors:
            if successor not in known:
                known.add(successor)
                nodes.append(successor)
    return nodes


def strongly_connected_components(adjacency: Adjacency) -> List[List[Hashable]]:
    """Return the SCCs of a directed graph (Tarjan's algorithm, iteratively).

    The input maps each node to its successors; nodes appearing only as
    successors are included automatically.  Components are returned in
    Tarjan emission order (a component appears before any component that can
    reach it); use :func:`condense` when a condensation DAG is needed.
    """
    nodes = _intern_nodes(adjacency)
    index_of = {node: index for index, node in enumerate(nodes)}
    pairs = [
        (index_of[node], index_of[successor])
        for node, successors in adjacency.items()
        for successor in successors
    ]
    # Successor *sets* iterate in hash order; sorting the interned pairs makes
    # the emission order -- hence the component ids and every postorder number
    # of Figure 5 -- a function of the mapping's key order alone.
    pairs.sort()
    offsets, targets = build_csr(pairs, len(nodes))
    comp_of, comp_count = tarjan_scc_dense(len(nodes), offsets, targets)
    components: List[List[Hashable]] = [[] for _ in range(comp_count)]
    for index, node in enumerate(nodes):
        components[comp_of[index]].append(node)
    return components


@dataclass
class Condensation:
    """The condensation DAG of a directed graph.

    * ``components`` — list of SCCs (each a list of original nodes); the
      position in this list is the component id.
    * ``representative`` — the node chosen to stand for each component (the
      paper picks one "randomly"; we pick the smallest by string order so
      results are deterministic).
    * ``membership`` — original node -> component id.
    * ``dag`` — component id -> set of successor component ids (no self loops).
    """

    components: List[List[Hashable]]
    representative: List[Hashable]
    membership: Dict[Hashable, int]
    dag: Dict[int, Set[int]]

    def component_of(self, node: Hashable) -> int:
        """Return the component id containing ``node``."""
        return self.membership[node]

    def same_component(self, first: Hashable, second: Hashable) -> bool:
        """Return whether two original nodes are in the same SCC (mutually reachable)."""
        return self.membership[first] == self.membership[second]

    def number_of_components(self) -> int:
        """Return the number of SCCs."""
        return len(self.components)

    def component_sizes(self) -> List[int]:
        """Return the SCC sizes, largest first."""
        return sorted((len(component) for component in self.components), reverse=True)

    def is_trivial(self) -> bool:
        """Return whether every SCC is a single node (the graph was already a DAG)."""
        return all(len(component) == 1 for component in self.components)


def condense(adjacency: Adjacency) -> Condensation:
    """Collapse every SCC into one node and return the resulting DAG."""
    components = strongly_connected_components(adjacency)
    membership: Dict[Hashable, int] = {}
    for component_id, component in enumerate(components):
        for node in component:
            membership[node] = component_id
    representative = [min(component, key=str) for component in components]
    dag: Dict[int, Set[int]] = {component_id: set() for component_id in range(len(components))}
    for node, successors in adjacency.items():
        source_component = membership[node]
        for successor in successors:
            target_component = membership[successor]
            if source_component != target_component:
                dag[source_component].add(target_component)
    return Condensation(
        components=components,
        representative=representative,
        membership=membership,
        dag=dag,
    )
