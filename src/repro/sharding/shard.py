"""Community-partitioned shards of one :class:`SocialGraph`.

:class:`ShardedGraph` materializes one *mirror* ``SocialGraph`` per shard:
the shard's owned users, every edge between them, plus — for each boundary
edge — a **ghost** copy of the remote endpoint (tagged with
:data:`GHOST_ATTR` so the tag travels with persisted snapshots) and the
boundary edge itself, duplicated into *both* endpoint shards.  Each mirror
compiles through the ordinary :func:`~repro.graph.compiled.compile_graph`
path, so per-shard snapshots inherit everything the single-graph stack
already has: epoch-stamped caching, O(|delta|) patching under churn,
tombstoned removals, and :class:`~repro.graph.snapshot.SnapshotStore`
persistence for read-only mmap serving by worker processes.

Maintenance rides the source graph's mutation journal: ``refresh()`` replays
``graph.mutations_since(...)`` into exactly the affected mirrors (each
mirror has its *own* journal, so its compiled snapshot patches itself in
O(|delta|)); an uncovered journal gap falls back to a full mirror rebuild
with **stable shard assignments** — a user removed and re-added lands on the
shard it lived on before, so churn bursts cannot silently migrate data.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.snapshot import SnapshotStore
from repro.graph.social_graph import SocialGraph, UserId
from repro.sharding.partitioner import CommunityPartitioner, Partition

__all__ = ["GHOST_ATTR", "ShardedGraph"]

#: Attribute marking a mirror node as a ghost (remote endpoint of a boundary
#: edge).  It lives in the node's ordinary attribute dict so persisted shard
#: snapshots carry it and a worker process can tell owned from ghost nodes
#: without the parent's partition table.
GHOST_ATTR = "__shard_ghost__"

_MANIFEST_NAME = "manifest.json"


class ShardedGraph:
    """One source graph split into per-community shard mirrors."""

    def __init__(
        self,
        graph: SocialGraph,
        *,
        shards: int,
        seed: int = 7,
        partition: Optional[Partition] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.graph = graph
        self.shard_count = shards
        self.seed = seed
        snapshot = compile_graph(graph)
        if partition is None:
            partition = CommunityPartitioner(shards, seed=seed).partition(snapshot)
        self.partition = partition
        #: Assignment history: survives ``remove_user`` so a re-added user
        #: returns to its former shard (stable ids across churn).
        self._shard_of: Dict[UserId, int] = dict(partition.shard_of)
        #: Dense global node ids for reverse (audience-bit) sweeps; grows
        #: monotonically, survives removals like ``_shard_of`` does.
        self.global_ids: Dict[UserId, int] = {}
        self.mirrors: List[SocialGraph] = []
        self._owned_counts: List[int] = []
        self.boundary_edge_count = 0
        self.refresh_outcomes = {"noop": 0, "delta": 0, "rebuild": 0}
        self._build_mirrors()
        self._seen_epoch = graph.epoch

    # ------------------------------------------------------------ inspection

    def shard_of(self, user: UserId) -> int:
        """The shard owning ``user`` (raises ``KeyError`` if never assigned)."""
        return self._shard_of[user]

    def snapshots(self) -> List[CompiledGraph]:
        """Per-shard compiled snapshots (cached/patched via each mirror)."""
        return [compile_graph(mirror) for mirror in self.mirrors]

    def boundary_users(self) -> List[UserId]:
        """Every user incident to a cross-shard edge, deterministically ordered."""
        seen = {}
        for mirror in self.mirrors:
            for user in mirror.users():
                if mirror.raw_attributes(user).get(GHOST_ATTR):
                    seen[user] = True
        return sorted(seen, key=str)

    # ---------------------------------------------------------- construction

    def _build_mirrors(self) -> None:
        graph = self.graph
        self.mirrors = [
            SocialGraph(name=f"{graph.name or 'graph'}-shard{index}")
            for index in range(self.shard_count)
        ]
        self._owned_counts = [0] * self.shard_count
        self.boundary_edge_count = 0
        for user in graph.users():
            if user not in self._shard_of:
                self._assign_new(user)
            if user not in self.global_ids:
                self.global_ids[user] = len(self.global_ids)
            shard = self._shard_of[user]
            self.mirrors[shard].add_user(user, **graph.raw_attributes(user))
            self._owned_counts[shard] += 1
        for rel in graph.relationships():
            source_shard = self._shard_of[rel.source]
            target_shard = self._shard_of[rel.target]
            if source_shard == target_shard:
                self.mirrors[source_shard].add_relationship(
                    rel.source, rel.target, rel.label, **dict(rel.attributes)
                )
            else:
                self._ensure_ghost(source_shard, rel.target)
                self._ensure_ghost(target_shard, rel.source)
                for shard in (source_shard, target_shard):
                    self.mirrors[shard].add_relationship(
                        rel.source, rel.target, rel.label, **dict(rel.attributes)
                    )
                self.boundary_edge_count += 1

    def _ensure_ghost(self, shard: int, user: UserId) -> None:
        mirror = self.mirrors[shard]
        if mirror.has_user(user):
            return
        attrs = (
            dict(self.graph.raw_attributes(user))
            if self.graph.has_user(user)
            else {}
        )
        attrs[GHOST_ATTR] = True
        mirror.add_user(user, **attrs)

    def _assign_new(self, user: UserId) -> int:
        """Deterministically place a user the partitioner never saw.

        Majority shard among already-assigned neighbours (ties -> lowest
        shard id), falling back to the least-loaded shard.  Incremental by
        design: re-partitioning on every ``add_user`` would thrash shard
        ownership under churn.
        """
        votes: Dict[int, int] = {}
        if self.graph.has_user(user):
            for neighbor in self.graph.neighbors(user):
                shard = self._shard_of.get(neighbor)
                if shard is not None:
                    votes[shard] = votes.get(shard, 0) + 1
        if votes:
            shard = min(votes, key=lambda s: (-votes[s], s))
        else:
            shard = self._owned_counts.index(min(self._owned_counts))
        self._shard_of[user] = shard
        return shard

    # ------------------------------------------------------------- refresh

    def refresh(self) -> str:
        """Bring every mirror up to date with the source graph.

        Returns ``"noop"`` (epoch unchanged), ``"delta"`` (journal replayed
        into the affected mirrors — their compiled snapshots then patch in
        O(|delta|)) or ``"rebuild"`` (journal gap uncovered: mirrors rebuilt
        from scratch under the *same* shard assignments).
        """
        epoch = self.graph.epoch
        if epoch == self._seen_epoch:
            self.refresh_outcomes["noop"] += 1
            return "noop"
        ops = self.graph.mutations_since(self._seen_epoch)
        if ops is None:
            self._build_mirrors()
            outcome = "rebuild"
        else:
            for op in ops:
                self._apply(op)
            outcome = "delta"
        self._seen_epoch = epoch
        self.refresh_outcomes[outcome] += 1
        return outcome

    def _apply(self, op: Sequence) -> None:
        kind = op[0]
        if kind == "add_user":
            self._apply_add_user(op[1])
        elif kind == "remove_user":
            user = op[1]
            for mirror in self.mirrors:
                if mirror.has_user(user):
                    mirror.remove_user(user)
            shard = self._shard_of.get(user)
            if shard is not None and self._owned_counts[shard] > 0:
                self._owned_counts[shard] -= 1
        elif kind == "update_user":
            user = op[1]
            for shard, mirror in enumerate(self.mirrors):
                if mirror.has_user(user):
                    ghost = bool(mirror.raw_attributes(user).get(GHOST_ATTR))
                    self._sync_attrs(mirror, user, ghost)
        elif kind == "add_edge":
            self._apply_add_edge(op[1], op[2], op[3])
        elif kind == "remove_edge":
            source, target, label = op[1], op[2], op[3]
            copies = 0
            for mirror in self.mirrors:
                if mirror.has_relationship(source, target, label):
                    mirror.remove_relationship(source, target, label)
                    copies += 1
            if copies > 1:
                self.boundary_edge_count -= 1

    def _apply_add_user(self, user: UserId) -> None:
        shard = self._shard_of.get(user)
        if shard is None:
            shard = self._assign_new(user)
        if user not in self.global_ids:
            self.global_ids[user] = len(self.global_ids)
        mirror = self.mirrors[shard]
        attrs = (
            dict(self.graph.raw_attributes(user))
            if self.graph.has_user(user)
            else {}
        )
        if mirror.has_user(user):  # pragma: no cover - defensive
            self._sync_attrs(mirror, user, False)
        else:
            mirror.add_user(user, **attrs)
        self._owned_counts[shard] += 1

    def _apply_add_edge(self, source: UserId, target: UserId, label: str) -> None:
        # The journal is chronological: both endpoints were added (and are
        # still present in the mirrors) when their edge op replays, even if
        # a later op in the same burst removes them again.
        source_shard = self._shard_of[source]
        target_shard = self._shard_of[target]
        attrs = (
            dict(self.graph.get_relationship(source, target, label).attributes)
            if self.graph.has_relationship(source, target, label)
            else {}
        )
        if source_shard == target_shard:
            self._mirror_add_edge(self.mirrors[source_shard], source, target, label, attrs)
        else:
            self._ensure_ghost(source_shard, target)
            self._ensure_ghost(target_shard, source)
            for shard in (source_shard, target_shard):
                self._mirror_add_edge(self.mirrors[shard], source, target, label, attrs)
            self.boundary_edge_count += 1

    @staticmethod
    def _mirror_add_edge(
        mirror: SocialGraph, source: UserId, target: UserId, label: str, attrs: Dict
    ) -> None:
        if not mirror.has_relationship(source, target, label):
            mirror.add_relationship(source, target, label, **attrs)

    def _sync_attrs(self, mirror: SocialGraph, user: UserId, ghost: bool) -> None:
        """Make one mirror's attribute dict exactly match the source graph's.

        Merging alone would leak deleted keys into the mirrors (a condition
        on a deleted attribute would then diverge from the unsharded
        answer), so stale keys are removed through the mirror's live mapping
        — every write journals on the mirror, keeping its compiled snapshot
        on the O(|delta|) path.
        """
        fresh = (
            dict(self.graph.raw_attributes(user))
            if self.graph.has_user(user)
            else {}
        )
        if ghost:
            fresh[GHOST_ATTR] = True
        live = mirror.attributes(user)
        for key in [key for key in live if key not in fresh]:
            del live[key]
        for key, value in fresh.items():
            if key not in live or live[key] != value:
                live[key] = value

    # ---------------------------------------------------------- persistence

    def save(self, directory) -> Dict:
        """Persist every shard via its own :class:`SnapshotStore` + manifest.

        The manifest records the shard count, seed, source epoch, per-shard
        snapshot stems and the owner map, so a pool of worker processes can
        mmap the shards read-only and route messages without recomputing the
        partition.  Returns the manifest document.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stems = []
        for index, mirror in enumerate(self.mirrors):
            stem = directory / f"shard{index}"
            SnapshotStore(stem).save(compile_graph(mirror))
            stems.append(stem.name)
        manifest = {
            "format": 1,
            "shards": self.shard_count,
            "seed": self.seed,
            "epoch": self.graph.epoch,
            "stems": stems,
            "owners": sorted(
                ([str(user), shard] for user, shard in self._shard_of.items()
                 if self.graph.has_user(user)),
            ),
            "boundary_edges": self.boundary_edge_count,
        }
        (directory / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=0))
        return manifest

    @staticmethod
    def read_manifest(directory) -> Dict:
        """Load the manifest written by :meth:`save`."""
        return json.loads((Path(directory) / _MANIFEST_NAME).read_text())

    def __repr__(self) -> str:
        return (
            f"<ShardedGraph {self.shard_count} shards over {self.graph!r}, "
            f"{self.boundary_edge_count} boundary edges>"
        )
