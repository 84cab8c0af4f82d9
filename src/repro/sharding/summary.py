"""Per-shard boundary-node reachability summaries for cross-shard pruning.

A point query escalates across shards only when its local product walk
spills over a boundary edge.  Most of those spills are dead ends: the walk
crossed into a neighbouring community that never leads back to the target.
:class:`BoundarySummary` prices that check down to bitset probes by reusing
the condensation machinery of :mod:`repro.reachability`:

1. **Per shard**: the shard snapshot's
   :class:`~repro.reachability.compiled_search.DenialFilter` — the SCC
   condensation of its forward adjacency with one reachability bitset per
   component, the structure a forward-only point walk probes — so
   ``in_shard_reach`` is two array reads and one bit test.
2. **Globally**: build the *boundary digraph* — nodes are the boundary
   users (every ghost, everywhere), edges are (a) the boundary edges
   themselves and (b) one summary edge per boundary pair ``(a, b)`` that
   co-resides in some shard with ``in_shard_reach(a, b)`` — condense it and
   label the condensation with a greedy 2-hop cover
   (:func:`~repro.reachability.interned.two_hop_cover_dense`).

The summaries answer **plain directed reachability**, a necessary condition
for any *forward-only* path expression: if no boundary exit of the local
walk summary-reaches the target, the escalation is refuted without touching
another shard.  Mixed-direction expressions never consult the summary (the
walk may traverse edges backwards, which the forward summary does not
model) and escalate unconditionally.

Completeness of the boundary digraph: any global path between boundary
nodes decomposes at its boundary-node visits; each segment between
consecutive boundary visits runs through non-boundary interior nodes, whose
every edge is internal to their one home shard — so the segment co-resides
in that shard and is captured by a summary edge (or is itself a boundary
edge).  The 2-hop cover over the condensation is exact, hence so is
:meth:`BoundarySummary.boundary_reaches`.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.social_graph import UserId
from repro.reachability.compiled_search import DenialFilter
from repro.reachability.interned import tarjan_scc_dense, two_hop_cover_dense

__all__ = ["BoundarySummary"]


def _condense_csr(
    count: int, offsets, targets
) -> Tuple[array, int, array, array, List[int]]:
    """Tarjan + condensation CSR + topological order of one dense digraph."""
    comp_of, comp_count = tarjan_scc_dense(count, offsets, targets)
    pairs: Set[Tuple[int, int]] = set()
    for node in range(count):
        source = comp_of[node]
        for position in range(offsets[node], offsets[node + 1]):
            target = comp_of[targets[position]]
            if source != target:
                pairs.add((source, target))
    c_offsets = array("l", [0]) * (comp_count + 1)
    for source, _target in pairs:
        c_offsets[source + 1] += 1
    for index in range(comp_count):
        c_offsets[index + 1] += c_offsets[index]
    c_targets = array("l", [0]) * len(pairs)
    cursor = array("l", c_offsets[:-1])
    for source, target in sorted(pairs):
        c_targets[cursor[source]] = target
        cursor[source] += 1
    # Emission order is reverse-topological: descending id is topological.
    topo = list(range(comp_count - 1, -1, -1))
    return comp_of, comp_count, c_offsets, c_targets, topo


class BoundarySummary:
    """2-hop labelled reachability over the global boundary-node digraph.

    ``limit`` caps the boundary-node count the summary will summarize: the
    per-shard pair enumeration is quadratic in a shard's boundary size, so
    past the cap the summary reports itself unavailable (:attr:`available`)
    and every crossing escalates — correct, just unpruned.
    """

    def __init__(self, sharded, *, limit: int = 4096) -> None:
        self.available = True
        self._sharded = sharded
        self._entry_cache: Dict[UserId, Tuple[UserId, ...]] = {}
        snapshots = sharded.snapshots()
        boundary = sharded.boundary_users()
        if len(boundary) > limit:
            self.available = False
            self._gid: Dict[UserId, int] = {}
            self._shard_reach: List[Optional[DenialFilter]] = [None] * len(snapshots)
            return
        self._gid = {user: index for index, user in enumerate(boundary)}
        self._shard_reach = [
            DenialFilter(snapshot) if snapshot.number_of_nodes() else None
            for snapshot in snapshots
        ]
        # Boundary digraph: boundary edges + per-shard summarized pairs.
        count = len(boundary)
        pairs: Set[Tuple[int, int]] = set()
        for shard, snapshot in enumerate(snapshots):
            reach = self._shard_reach[shard]
            if reach is None:
                continue
            present = [
                (self._gid[user], snapshot.index_of(user))
                for user in boundary
                if snapshot.node_index.get(user) is not None
            ]
            for gid_a, node_a in present:
                for gid_b, node_b in present:
                    if gid_a != gid_b and reach.reaches(node_a, node_b):
                        pairs.add((gid_a, gid_b))
        offsets = array("l", [0]) * (count + 1)
        for source, _target in pairs:
            offsets[source + 1] += 1
        for index in range(count):
            offsets[index + 1] += offsets[index]
        targets = array("l", [0]) * len(pairs)
        cursor = array("l", offsets[:-1])
        for source, target in sorted(pairs):
            targets[cursor[source]] = target
            cursor[source] += 1
        comp_of, comp_count, c_offsets, c_targets, topo = _condense_csr(
            count, offsets, targets
        )
        lin, lout, _centers = two_hop_cover_dense(
            comp_count, c_offsets, c_targets, topo
        )
        self._comp_of = comp_of
        self._lin = lin
        self._lout = lout

    # ------------------------------------------------------------------ api

    def boundary_reaches(self, source: UserId, target: UserId) -> bool:
        """Plain reachability between two boundary users (exact)."""
        source_comp = self._comp_of[self._gid[source]]
        target_comp = self._comp_of[self._gid[target]]
        if source_comp == target_comp:
            return True
        return bool(self._lout[source_comp] & self._lin[target_comp])

    def _entries_for(self, target: UserId) -> Tuple[UserId, ...]:
        """Boundary users of the target's home shard that in-shard-reach it."""
        cached = self._entry_cache.get(target)
        if cached is not None:
            return cached
        shard = self._sharded.shard_of(target)
        snapshot = self._sharded.snapshots()[shard]
        reach = self._shard_reach[shard]
        target_index = snapshot.index_of(target)
        entries = tuple(
            user
            for user in self._gid
            if snapshot.node_index.get(user) is not None
            and reach.reaches(snapshot.index_of(user), target_index)
        )
        self._entry_cache[target] = entries
        return entries

    def may_reach(self, exits, target: UserId) -> bool:
        """Could a walk leaving through ``exits`` (boundary users) reach ``target``?

        ``True`` is a *maybe* (the walk still has to satisfy the path
        expression); ``False`` is definitive for forward-only expressions:
        no directed path exists from any exit to the target at all.
        """
        if not self.available:
            return True
        entries = self._entries_for(target)
        if not entries:
            return False
        entry_set = set(entries)
        for exit_user in exits:
            if exit_user in entry_set:
                return True
            for entry in entries:
                if self.boundary_reaches(exit_user, entry):
                    return True
        return False

    def __repr__(self) -> str:
        flag = "available" if self.available else "over-limit"
        return f"<BoundarySummary {len(self._gid)} boundary users, {flag}>"
