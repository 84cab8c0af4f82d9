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
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

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

#: :meth:`InternedLineIndex.refresh_from_ops` falls back to a full rebuild
#: once the burst touches more than this fraction of the line vertices —
#: past that point re-running Tarjan over everything is cheaper than the
#: bookkeeping of the contracted pass.
REFRESH_REBUILD_FRACTION = 0.25


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
        "refresh_seconds",
        "refreshes",
        "_dag_edges",
        "_dead_vertices",
        "_vertex_of",
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
        # Retained for :meth:`refresh_from_ops`: DAG edges between components
        # untouched by a burst survive verbatim (a line edge between intact
        # components can only vanish when one of its endpoints is removed,
        # which would dirty that component), so the contracted pass reuses
        # this set instead of rescanning every line edge.
        self._dag_edges: Set[int] = dag_edges
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
        self._dead_vertices: Set[int] = set()
        self._vertex_of: Optional[Dict[Tuple[int, int, int], int]] = None
        self.build_seconds = time.perf_counter() - started
        self.refresh_seconds = 0.0
        self.refreshes = 0

    # --------------------------------------------------------- maintenance

    def _vertex_map(self) -> Dict[Tuple[int, int, int], int]:
        """Lazily build {(start, end, label_id): forward vertex} over live rows.

        Node indices are stable across snapshot patches (removals tombstone
        their slot in place), so the keys stay valid between refreshes; the
        map is maintained incrementally once built.
        """
        if self._vertex_of is None:
            mapping: Dict[Tuple[int, int, int], int] = {}
            comp_of = self.comp_of
            dirs = self.dirs
            starts = self.starts
            ends = self.ends
            label_ids = self.label_ids
            for vertex in range(self.count):
                if dirs[vertex] != FORWARD_BYTE or comp_of[vertex] < 0:
                    continue
                mapping[(starts[vertex], ends[vertex], label_ids[vertex])] = vertex
            self._vertex_of = mapping
        return self._vertex_of

    def refresh_from_ops(self, ops: Sequence[tuple]) -> bool:
        """Absorb a journaled mutation burst without a full rebuild.

        Only line-graph components touched by the burst's edge removals are
        re-condensed: intact components enter a contracted graph as single
        supernodes (reusing the stored condensation edges between them),
        survivors of dirty components and newly added line vertices join as
        free agents, and Tarjan runs over that contracted graph instead of
        every line vertex.  The 2-hop cover is then recomputed at component
        level — together this skips both O(line-edges) phases of a cold
        build (the dense Tarjan sweep and the condensation dedup scan).

        Returns ``False`` when the burst cannot be absorbed — unknown ops,
        journal/graph inconsistency, or more than
        :data:`REFRESH_REBUILD_FRACTION` of the vertices touched — in which
        case the caller should rebuild from scratch; the index itself is
        untouched unless the snapshot patch already succeeded, and a failed
        attempt after that point is answered by the caller discarding this
        instance.  On success the pinned snapshot has been patched to the
        live epoch and the index mutated in place to match, with removed
        line vertices tombstoned (``comp_of`` = -1) rather than compacted.
        """
        started = time.perf_counter()
        snapshot = self.snapshot
        graph = snapshot.graph
        if graph is None:
            return False
        if self._dead_vertices and len(self._dead_vertices) * 2 > self.count:
            return False  # too much tombstone debt: a rebuild resets the arrays
        # Net effect per (source, target, label): the journal is replayable,
        # so the last op wins and intermediate flips cancel out.
        net: Dict[Tuple[Any, Any, str], int] = {}
        for op in ops:
            kind = op[0]
            if kind == "add_edge":
                net[(op[1], op[2], op[3])] = 1
            elif kind == "remove_edge":
                net[(op[1], op[2], op[3])] = -1
            elif kind not in ("add_user", "update_user", "remove_user"):
                return False
        vertex_of = self._vertex_map()
        node_index = snapshot.node_index
        label_index = snapshot.label_index
        removed_keys: List[Tuple[int, int, int]] = []
        removed_vertices: List[int] = []
        pending_adds: List[Tuple[Any, Any, str]] = []
        for (source, target, label), effect in net.items():
            if effect == 1:
                pending_adds.append((source, target, label))
                continue
            source_idx = node_index.get(source)
            target_idx = node_index.get(target)
            label_id = label_index.get(label)
            if source_idx is None or target_idx is None or label_id is None:
                continue  # edge born and gone within the burst
            key = (source_idx, target_idx, label_id)
            vertex = vertex_of.get(key)
            if vertex is None:
                continue  # added earlier in the same burst: never indexed
            removed_keys.append(key)
            removed_vertices.append(vertex)
        per_edge = 2 if self.include_reverse else 1
        comp_of = self.comp_of
        dirty_comps: Set[int] = set()
        for vertex in removed_vertices:
            dirty_comps.add(comp_of[vertex])
            if self.include_reverse:
                dirty_comps.add(comp_of[vertex + 1])
        touched = sum(self.comp_sizes[comp] for comp in dirty_comps)
        touched += per_edge * len(pending_adds)
        if touched > max(1, self.count) * REFRESH_REBUILD_FRACTION:
            return False
        # Patch the (pinned) snapshot in place.  The pin exists so nobody
        # patches it *under* the index; the refresh is the one controlled
        # transition where index and snapshot move together, so lifting the
        # pin for its duration is sound.
        was_pinned = snapshot._pinned
        snapshot._pinned = False
        try:
            patched = snapshot.apply_deltas(ops)
        finally:
            snapshot._pinned = was_pinned
        if not patched:
            return False  # caller rebuilds on a freshly compiled snapshot
        # Resolve additions post-patch (new users/labels are interned now).
        node_index = snapshot.node_index
        label_index = snapshot.label_index
        resolved_adds: List[Tuple[int, int, int]] = []
        for source, target, label in pending_adds:
            source_idx = node_index.get(source)
            target_idx = node_index.get(target)
            label_id = label_index.get(label)
            if source_idx is None or target_idx is None or label_id is None:
                return False  # journal out of sync with the graph
            resolved_adds.append((source_idx, target_idx, label_id))
        # Tombstone removed line vertices before the membership checks below
        # so a re-added edge at a reused node slot lands on a fresh vertex.
        dead = self._dead_vertices
        for key, vertex in zip(removed_keys, removed_vertices):
            del vertex_of[key]
            dead.add(vertex)
            if self.include_reverse:
                dead.add(vertex + 1)
        for key in resolved_adds:
            if key in vertex_of:
                continue  # removed and re-added within the burst: still indexed
            source_idx, target_idx, label_id = key
            vertex = len(self.starts)
            vertex_of[key] = vertex
            self.starts.append(source_idx)
            self.ends.append(target_idx)
            self.label_ids.append(label_id)
            self.dirs.append(FORWARD_BYTE)
            if self.include_reverse:
                self.starts.append(target_idx)
                self.ends.append(source_idx)
                self.label_ids.append(label_id)
                self.dirs.append(REVERSE_BYTE)
        count = len(self.starts)
        self.count = count
        live = [vertex for vertex in range(count) if vertex not in dead]
        node_count = snapshot.number_of_nodes()
        starts = self.starts
        ends = self.ends
        self.start_offsets, self.start_vertices = build_csr(
            [(starts[vertex], vertex) for vertex in live], node_count
        )
        end_offsets, end_vertices = build_csr(
            [(ends[vertex], vertex) for vertex in live], node_count
        )
        # Contracted condensation: intact old components collapse to one
        # supernode each; survivors of dirty components and new vertices are
        # free agents with their own node.
        old_count = len(comp_of)
        contracted_of = array("l", [-1]) * count
        intact_id: Dict[int, int] = {}
        next_id = 0
        agents: List[int] = []
        for vertex in live:
            if vertex < old_count:
                comp = comp_of[vertex]
                if comp >= 0 and comp not in dirty_comps:
                    contracted = intact_id.get(comp)
                    if contracted is None:
                        contracted = intact_id[comp] = next_id
                        next_id += 1
                    contracted_of[vertex] = contracted
                    continue
            agents.append(vertex)
        for vertex in agents:
            contracted_of[vertex] = next_id
            next_id += 1
        contracted_count = next_id
        # Edges: intact<->intact pairs survive from the stored condensation
        # (they can only change when an endpoint vertex is removed, which
        # dirties its component); everything incident to an agent is scanned
        # through the rebuilt CSRs.
        old_comp_count = self.comp_count
        packed_edges: Set[int] = set()
        for packed in self._dag_edges:
            source_comp, target_comp = divmod(packed, old_comp_count)
            source_cid = intact_id.get(source_comp)
            target_cid = intact_id.get(target_comp)
            if source_cid is not None and target_cid is not None:
                packed_edges.add(source_cid * contracted_count + target_cid)
        start_offsets = self.start_offsets
        start_vertices = self.start_vertices
        for agent in agents:
            agent_cid = contracted_of[agent]
            head = ends[agent]
            for cursor in range(start_offsets[head], start_offsets[head + 1]):
                succ_cid = contracted_of[start_vertices[cursor]]
                if succ_cid != agent_cid:
                    packed_edges.add(agent_cid * contracted_count + succ_cid)
            tail = starts[agent]
            for cursor in range(end_offsets[tail], end_offsets[tail + 1]):
                pred_cid = contracted_of[end_vertices[cursor]]
                if pred_cid != agent_cid:
                    packed_edges.add(pred_cid * contracted_count + agent_cid)
        contracted_offsets, contracted_targets = build_csr(
            [divmod(edge, contracted_count) for edge in packed_edges],
            contracted_count,
        )
        contracted_comp, comp_count = tarjan_scc_dense(
            contracted_count, contracted_offsets, contracted_targets
        )
        new_comp_of = array("l", [-1]) * count
        for vertex in live:
            new_comp_of[vertex] = contracted_comp[contracted_of[vertex]]
        comp_sizes = [0] * comp_count
        for comp, contracted in intact_id.items():
            comp_sizes[contracted_comp[contracted]] += self.comp_sizes[comp]
        for vertex in agents:
            comp_sizes[contracted_comp[contracted_of[vertex]]] += 1
        dag_edges: Set[int] = set()
        for packed in packed_edges:
            source_cid, target_cid = divmod(packed, contracted_count)
            source_comp = contracted_comp[source_cid]
            target_comp = contracted_comp[target_cid]
            if source_comp != target_comp:
                dag_edges.add(source_comp * comp_count + target_comp)
        dag_offsets, dag_targets = build_csr(
            [divmod(edge, comp_count) for edge in dag_edges], comp_count
        )
        # The contracted Tarjan numbers final components in reverse
        # topological order just like the dense pass, so descending ids
        # remain a valid topological order for the cover recursion.
        topo = range(comp_count - 1, -1, -1)
        lin, lout, centers = two_hop_cover_dense(comp_count, dag_offsets, dag_targets, topo)
        self.comp_of = new_comp_of
        self.comp_count = comp_count
        self.comp_sizes = comp_sizes
        self._dag_edges = dag_edges
        self.centers = centers
        self.comp_lin = [
            frozenset(lin[comp] | {comp}) if comp_sizes[comp] > 1 else frozenset(lin[comp])
            for comp in range(comp_count)
        ]
        self.comp_lout = [
            frozenset(lout[comp] | {comp}) if comp_sizes[comp] > 1 else frozenset(lout[comp])
            for comp in range(comp_count)
        ]
        self._rep_names = None
        # Re-seed the derived cache: the structural sweep inside the patch
        # dropped every cached line index, but this one is current again.
        snapshot.derived[("line-index", self.include_reverse)] = self
        self.refresh_seconds = time.perf_counter() - started
        self.refreshes += 1
        return True

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
        """Return the (implicit) line-graph edge count over live vertices."""
        start_offsets = self.start_offsets
        ends = self.ends
        comp_of = self.comp_of
        return sum(
            start_offsets[ends[vertex] + 1] - start_offsets[ends[vertex]]
            for vertex in range(self.count)
            if comp_of[vertex] >= 0
        )

    def labeling_size(self) -> int:
        """Return ``sum |Lin(v)| + |Lout(v)|`` over line vertices (Definition 5)."""
        comp_of = self.comp_of
        comp_lin = self.comp_lin
        comp_lout = self.comp_lout
        return sum(
            len(comp_lin[comp_of[vertex]]) + len(comp_lout[comp_of[vertex]])
            for vertex in range(self.count)
            if comp_of[vertex] >= 0
        )

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
            for vertex in range(self.count):
                comp = self.comp_of[vertex]
                if comp < 0:
                    continue
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
            "refresh_seconds": self.refresh_seconds,
            "refreshes": float(self.refreshes),
            "index_entries": float(self.labeling_size()),
            "centers": float(len(self.centers)),
            "components": float(self.comp_count),
            "line_vertices": float(self.count - len(self._dead_vertices)),
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
