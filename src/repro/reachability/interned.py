"""Dense-integer cores of the cluster-index stack.

The Section-3 pipeline (line graph -> SCC condensation -> 2-hop cover ->
join index) was originally written over string line-vertex ids and
dict-of-sets adjacency.  This module hosts the interned counterparts: every
structure is an ``array('l')`` / ``bytearray`` indexed by dense ints derived
from a :class:`~repro.graph.compiled.CompiledGraph` snapshot, and string ids
are decoded only at the API boundary (witness paths, base tables, figures).

Three layers live here:

* **Dense graph cores** — :func:`tarjan_scc_dense` (iterative Tarjan over a
  CSR adjacency, optionally indirected through a ``head_of`` array so the
  line graph's adjacency never needs materializing) and
  :func:`two_hop_cover_dense` (the greedy MaxCardinality-style cover over a
  DAG in CSR form, with integer bitsets).  The generic, hashable-keyed APIs
  in :mod:`repro.reachability.scc` and :mod:`repro.reachability.twohop`
  intern their inputs and delegate to these cores.
* **:class:`InternedLineIndex`** — the compiled form of the whole cluster
  index for one graph snapshot: per-line-vertex label/direction/endpoint
  arrays, an implicit CSR line adjacency (vertices grouped by start node),
  the SCC condensation of the line graph and per-component 2-hop label sets.
  ``a -[r]-> a`` self-loops are fully supported: a self-loop line vertex may
  succeed itself, so queries that traverse the same self-loop edge twice
  agree with the BFS oracle (the seed's string pipeline excluded
  self-succession and silently missed those tuples).
* **:func:`interned_line_index`** — the per-snapshot cache: the index is
  derived from ``compile_graph(graph)`` and stored on the snapshot keyed by
  orientation, so it is rebuilt exactly when the graph's mutation epoch
  moves (same staleness contract as the snapshot itself).
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReachabilityError
from repro.graph.compiled import (
    CompiledGraph,
    build_csr,
    compile_graph,
    register_derived_policy,
)
from repro.graph.paths import Traversal
from repro.graph.social_graph import SocialGraph

__all__ = [
    "tarjan_scc_dense",
    "two_hop_cover_dense",
    "InternedLineIndex",
    "interned_line_index",
]

FORWARD_BYTE = 1
REVERSE_BYTE = 0

# The line index is purely structural (labels, directions, endpoints — no
# attribute state), so delta patches that only touch attributes keep it;
# edge or user deltas drop the cached entries and the next
# interned_line_index() call rebuilds just the orientation it is asked for.
register_derived_policy("line-index", "structural")


def tarjan_scc_dense(
    count: int,
    offsets: array,
    targets: array,
    head_of: Optional[Sequence[int]] = None,
) -> Tuple[array, int]:
    """Iterative Tarjan over a dense CSR adjacency.

    Successors of node ``v`` are ``targets[offsets[h]:offsets[h + 1]]`` where
    ``h = v`` by default, or ``h = head_of[v]`` when an indirection array is
    given — the line graph uses that to walk its adjacency (every successor
    of a line vertex starts at the vertex's end node) without materializing
    one successor list per vertex.

    Returns ``(comp_of, comp_count)`` with components numbered in emission
    order: an edge between different components always points from a higher
    component id to a lower one, so descending id order is topological.
    """
    indices = array("l", [-1]) * count
    lowlink = array("l", [0]) * count
    comp_of = array("l", [-1]) * count
    on_stack = bytearray(count)
    stack: List[int] = []
    comp_count = 0
    counter = 0
    for root in range(count):
        if indices[root] != -1:
            continue
        indices[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        head = root if head_of is None else head_of[root]
        # Work frames are [node, next edge cursor, edge end] lists so the
        # cursor survives re-entry after descending into a successor.
        work: List[List[int]] = [[root, offsets[head], offsets[head + 1]]]
        while work:
            frame = work[-1]
            node = frame[0]
            cursor = frame[1]
            end = frame[2]
            advanced = False
            while cursor < end:
                successor = targets[cursor]
                cursor += 1
                if indices[successor] == -1:
                    frame[1] = cursor
                    indices[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack[successor] = 1
                    head = successor if head_of is None else head_of[successor]
                    work.append([successor, offsets[head], offsets[head + 1]])
                    advanced = True
                    break
                if on_stack[successor] and indices[successor] < lowlink[node]:
                    lowlink[node] = indices[successor]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == indices[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    comp_of[member] = comp_count
                    if member == node:
                        break
                comp_count += 1
    return comp_of, comp_count


def dag_reachability_bitsets(
    count: int,
    offsets: array,
    targets: array,
    topo: Sequence[int],
) -> Tuple[List[int], List[int], List[int]]:
    """Descendant and ancestor bitsets of a DAG, positions taken from ``topo``.

    Returns ``(position, descendants, ancestors)`` where bit ``position[v]``
    stands for node ``v`` in each bitset.
    """
    position = [0] * count
    for index, node in enumerate(topo):
        position[node] = index
    descendants = [0] * count
    for node in reversed(topo):
        bits = 0
        for cursor in range(offsets[node], offsets[node + 1]):
            successor = targets[cursor]
            bits |= descendants[successor] | (1 << position[successor])
        descendants[node] = bits
    ancestors = [0] * count
    for node in topo:
        bits = ancestors[node] | (1 << position[node])
        for cursor in range(offsets[node], offsets[node + 1]):
            ancestors[targets[cursor]] |= bits
    return position, descendants, ancestors


def two_hop_cover_dense(
    count: int,
    offsets: array,
    targets: array,
    topo: Sequence[int],
    candidates: Optional[Sequence[int]] = None,
    bitsets: Optional[Tuple[List[int], List[int], List[int]]] = None,
) -> Tuple[List[set], List[set], List[int]]:
    """Greedy 2-hop cover of a DAG in CSR form (Definition 5's contract).

    ``topo`` must be a topological order of the ``count`` nodes.  Candidate
    centers are offered in ``candidates`` order when given (the generic
    :class:`~repro.reachability.twohop.TwoHopCover` passes its
    string-tie-broken order for determinism-compatibility); by default they
    are ordered by decreasing (ancestors x descendants) coverage with int
    ties.  ``bitsets`` may hand in a precomputed
    :func:`dag_reachability_bitsets` result (callers that already ranked
    candidates with it avoid the second propagation).  Returns
    ``(lin, lout, centers)`` with per-node center sets such that ``u``
    reaches ``v`` iff ``u == v`` or ``lout[u] & lin[v]``.
    """
    if bitsets is None:
        bitsets = dag_reachability_bitsets(count, offsets, targets, topo)
    position, descendants, ancestors = bitsets
    node_at = [0] * count
    for node, pos in enumerate(position):
        node_at[pos] = node
    bit_of = [1 << pos for pos in position]

    if candidates is None:
        def coverage(node: int) -> int:
            above = bin(ancestors[node]).count("1") + 1
            below = bin(descendants[node]).count("1") + 1
            return above * below

        candidates = sorted(range(count), key=lambda node: (-coverage(node), node))

    # Remaining uncovered (u, v) pairs, as a bitset of targets per source.
    uncovered = list(descendants)
    lin: List[set] = [set() for _ in range(count)]
    lout: List[set] = [set() for _ in range(count)]
    centers: List[int] = []
    for center in candidates:
        reach_down = descendants[center] | bit_of[center]
        reach_up = ancestors[center] | bit_of[center]
        newly_covered = 0
        sources: List[int] = []
        remaining = reach_up
        while remaining:
            low_bit = remaining & -remaining
            remaining ^= low_bit
            source = node_at[low_bit.bit_length() - 1]
            needed = uncovered[source] & reach_down
            if needed:
                sources.append(source)
                newly_covered |= needed
        if not sources:
            continue
        centers.append(center)
        mask = ~newly_covered
        for source in sources:
            lout[source].add(center)
            uncovered[source] &= mask
        covered_targets = newly_covered
        while covered_targets:
            low_bit = covered_targets & -covered_targets
            covered_targets ^= low_bit
            lin[node_at[low_bit.bit_length() - 1]].add(center)
    leftover = sum(1 for node in range(count) if uncovered[node])
    if leftover:
        raise ReachabilityError(
            f"2-hop cover construction left {leftover} vertices uncovered"
        )
    return lin, lout, centers


class InternedLineIndex:
    """The cluster-index stack compiled onto one graph snapshot.

    Line vertices are dense ints; per-vertex facts live in parallel arrays
    and the line adjacency is implicit (``successors(v)`` = every vertex
    starting at ``ends[v]``, read straight out of the by-start CSR).  On top
    sit the SCC condensation of the line graph and the per-component 2-hop
    label sets that answer ``vertex u reaches vertex v`` in O(label size).
    """

    __slots__ = (
        "snapshot",
        "include_reverse",
        "count",
        "label_ids",
        "dirs",
        "starts",
        "ends",
        "start_offsets",
        "start_vertices",
        "comp_of",
        "comp_count",
        "comp_sizes",
        "comp_lin",
        "comp_lout",
        "centers",
        "build_seconds",
        "_rep_names",
    )

    def __init__(self, snapshot: CompiledGraph, *, include_reverse: bool = True) -> None:
        started = time.perf_counter()
        self.snapshot = snapshot
        self.include_reverse = include_reverse
        graph = snapshot.graph
        node_index = snapshot.node_index
        label_index = snapshot.label_index

        starts: List[int] = []
        ends: List[int] = []
        label_ids: List[int] = []
        dirs = bytearray()
        # Enumeration follows graph.relationships() (forward vertex first,
        # then its reverse twin) so vertex ints line up with the insertion
        # order of the decoded LineGraph view.
        for rel in graph.relationships():
            source = node_index[rel.source]
            target = node_index[rel.target]
            label_id = label_index[rel.label]
            starts.append(source)
            ends.append(target)
            label_ids.append(label_id)
            dirs.append(FORWARD_BYTE)
            if include_reverse:
                starts.append(target)
                ends.append(source)
                label_ids.append(label_id)
                dirs.append(REVERSE_BYTE)
        count = len(starts)
        self.count = count
        self.starts = array("l", starts)
        self.ends = array("l", ends)
        self.label_ids = array("l", label_ids)
        self.dirs = dirs

        # By-start CSR over graph nodes: start_vertices[start_offsets[u]:
        # start_offsets[u + 1]] are the line vertices leaving user u, in
        # vertex order (counting sort is stable).  The line adjacency is this
        # CSR read through ``ends``: succ(v) = vertices starting at ends[v],
        # *including v itself* when v is a self-loop vertex — the tuple
        # <v, v> is a real one-path answer there.
        node_count = snapshot.number_of_nodes()
        self.start_offsets, self.start_vertices = build_csr(
            list(zip(starts, range(count))), node_count
        )

        self.comp_of, self.comp_count = tarjan_scc_dense(
            count, self.start_offsets, self.start_vertices, head_of=self.ends
        )

        comp_sizes = [0] * self.comp_count
        for vertex in range(count):
            comp_sizes[self.comp_of[vertex]] += 1
        self.comp_sizes = comp_sizes

        # Condensation DAG, deduplicated through packed (source, target) ints.
        comp_count = self.comp_count
        dag_edges = set()
        comp_of = self.comp_of
        start_offsets = self.start_offsets
        start_vertices = self.start_vertices
        for vertex in range(count):
            source_comp = comp_of[vertex]
            head = ends[vertex]
            for cursor in range(start_offsets[head], start_offsets[head + 1]):
                target_comp = comp_of[start_vertices[cursor]]
                if target_comp != source_comp:
                    dag_edges.add(source_comp * comp_count + target_comp)
        dag_offsets, dag_targets = build_csr(
            [divmod(edge, comp_count) for edge in dag_edges], comp_count
        )

        # Tarjan numbers components in reverse topological order, so
        # descending ids are a topological order of the condensation.
        topo = range(comp_count - 1, -1, -1)
        lin, lout, centers = two_hop_cover_dense(comp_count, dag_offsets, dag_targets, topo)
        self.centers = centers
        # Members of a non-trivial SCC are mutually reachable; sharing the
        # component itself as a center keeps the Definition-5 contract valid
        # at the level of original line vertices (base tables intersect the
        # decoded label sets directly, without a same-component shortcut).
        self.comp_lin = [
            frozenset(lin[comp] | {comp}) if comp_sizes[comp] > 1 else frozenset(lin[comp])
            for comp in range(comp_count)
        ]
        self.comp_lout = [
            frozenset(lout[comp] | {comp}) if comp_sizes[comp] > 1 else frozenset(lout[comp])
            for comp in range(comp_count)
        ]
        self._rep_names: Optional[List[str]] = None
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------- queries

    def reaches(self, first: int, second: int) -> bool:
        """2-hop test: does line vertex ``first`` reach line vertex ``second``?"""
        if first == second:
            return True
        first_comp = self.comp_of[first]
        second_comp = self.comp_of[second]
        if first_comp == second_comp:
            return True
        return not self.comp_lout[first_comp].isdisjoint(self.comp_lin[second_comp])

    def number_of_line_edges(self) -> int:
        """Return the (implicit) line-graph edge count."""
        start_offsets = self.start_offsets
        return sum(
            start_offsets[end + 1] - start_offsets[end] for end in self.ends
        )

    def labeling_size(self) -> int:
        """Return ``sum |Lin(v)| + |Lout(v)|`` over line vertices (Definition 5)."""
        comp_lin = self.comp_lin
        comp_lout = self.comp_lout
        return sum(len(comp_lin[comp]) + len(comp_lout[comp]) for comp in self.comp_of)

    # ------------------------------------------------------------- decoding

    def vertex_id(self, vertex: int) -> str:
        """Decode the canonical string id (matches ``LineGraph.vertex_id_for``)."""
        label = self.snapshot.labels[self.label_ids[vertex]]
        start = self.snapshot.node_ids[self.starts[vertex]]
        end = self.snapshot.node_ids[self.ends[vertex]]
        if self.dirs[vertex] == FORWARD_BYTE:
            return f"{label}:{start}->{end}"
        return f"{label}~:{end}->{start}"

    def traversal(self, vertex: int) -> Traversal:
        """Decode one line vertex into a witness :class:`Traversal`."""
        snapshot = self.snapshot
        label_id = self.label_ids[vertex]
        if self.dirs[vertex] == FORWARD_BYTE:
            rel = snapshot.relationship(self.starts[vertex], self.ends[vertex], label_id)
            return Traversal(rel, forward=True)
        rel = snapshot.relationship(self.ends[vertex], self.starts[vertex], label_id)
        return Traversal(rel, forward=False)

    def representative_names(self) -> List[str]:
        """Per-component representative vertex ids (smallest by string order).

        This is the only place the index decodes strings during a build, and
        it runs lazily — the join index needs the names for its base tables
        and W-table; pure evaluation never does.
        """
        if self._rep_names is None:
            reps: List[Optional[str]] = [None] * self.comp_count
            for vertex, comp in enumerate(self.comp_of):
                vertex_id = self.vertex_id(vertex)
                current = reps[comp]
                if current is None or vertex_id < current:
                    reps[comp] = vertex_id
            self._rep_names = [name for name in reps if name is not None]
        return self._rep_names

    def statistics(self) -> Dict[str, float]:
        """Return build-time and size metrics for the index benchmarks."""
        return {
            "build_seconds": self.build_seconds,
            "index_entries": float(self.labeling_size()),
            "centers": float(len(self.centers)),
            "components": float(self.comp_count),
            "line_vertices": float(self.count),
            "line_edges": float(self.number_of_line_edges()),
        }

    def __repr__(self) -> str:
        mode = "oriented" if self.include_reverse else "forward-only"
        return (
            f"<InternedLineIndex ({mode}): {self.count} line vertices, "
            f"{self.comp_count} components, epoch={self.snapshot.epoch}>"
        )


def interned_line_index(
    graph: SocialGraph,
    *,
    include_reverse: bool = True,
    refresh: bool = False,
) -> InternedLineIndex:
    """Return the (lazily rebuilt) interned cluster index of ``graph``.

    Cached on the compiled snapshot keyed by orientation, so the index
    follows the snapshot's epoch-based staleness contract: one build per
    burst of mutations, shared by every consumer of the same snapshot.
    ``refresh`` forces a fresh construction even on a warm cache (and seeds
    the cache with the result) — explicit ``build()`` calls use it so that
    construction-time measurements never time a cache hit.
    """
    snapshot = compile_graph(graph)
    key = ("line-index", include_reverse)
    index = None if refresh else snapshot.derived.get(key)
    if index is None:
        index = InternedLineIndex(snapshot, include_reverse=include_reverse)
        snapshot.derived[key] = index
    return index
