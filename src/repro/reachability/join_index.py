"""Per-label base tables, the W-table and the cluster-based join index
(Section 3.3, Figures 6 and 7).

From the 2-hop cover ``H = {S_w1, ..., S_wn}`` of the line graph, where each
``S_wi = (U_wi, w_i, V_wi)``:

* every line vertex ``x`` gets its 2-hop label ``(Lin(x), Lout(x))``;
* the graph is stored "into a relational database, where each label is
  represented with a three-column table" — the **base tables**
  ``T_label(node, Lin, Lout)``, one per (label, direction) pair;
* a reachability condition ``label1 ⤳ label2`` is processed as a
  **reachability join** between the two base tables: a pair ``(x, y)``
  qualifies iff ``Lout(x) ∩ Lin(y) ≠ ∅``;
* the **cluster-based join index** accelerates that join: one entry per
  center, in sorted-center order, each holding its two clusters
  ``U_w = {x : w ∈ Lout(x)}`` and ``V_w = {y : w ∈ Lin(y)}``, grouped by
  (label, direction);
* the **W-table** maps each ordered (label, direction) pair to the centers
  whose clusters can contribute answers, so a join only touches relevant
  centers (Figure 6).

Both join strategies are exposed (`reachability_join` through the W-table and
clusters, `reachability_join_baseline` straight over the base tables); they
return identical pair sets, which the test-suite verifies.

The paper keeps the base tables and the cluster index in an RDBMS under a
B+-tree; here they are a dict of row lists and a dict filled in sorted-center
order, which give the same lookups and the same iteration order at every size
this repository builds an index for (docs/architecture.md, "Index artefacts").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.reachability.interned import InternedLineIndex, interned_line_index
from repro.reachability.linegraph import LineGraph
from repro.reachability.twohop import TwoHopIndex

__all__ = ["BaseRow", "ClusterEntry", "JoinIndex"]

LabelKey = Tuple[str, str]          # (label, direction symbol)
VertexPair = Tuple[str, str]        # (line vertex id, line vertex id)


class BaseRow(NamedTuple):
    """One row of a per-label base table ``T_label(node, Lin, Lout)``."""

    node: str
    lin: FrozenSet[str]
    lout: FrozenSet[str]


@dataclass
class ClusterEntry:
    """The two clusters attached to one center of the join index (Figure 7)."""

    center: str
    u_cluster: Dict[LabelKey, Set[str]] = field(default_factory=dict)
    v_cluster: Dict[LabelKey, Set[str]] = field(default_factory=dict)

    def u_vertices(self, key: Optional[LabelKey] = None) -> Set[str]:
        """Vertices that reach the center (optionally restricted to one label key)."""
        if key is not None:
            return set(self.u_cluster.get(key, set()))
        result: Set[str] = set()
        for vertices in self.u_cluster.values():
            result |= vertices
        return result

    def v_vertices(self, key: Optional[LabelKey] = None) -> Set[str]:
        """Vertices the center reaches (optionally restricted to one label key)."""
        if key is not None:
            return set(self.v_cluster.get(key, set()))
        result: Set[str] = set()
        for vertices in self.v_cluster.values():
            result |= vertices
        return result

    def size(self) -> int:
        """Total number of cluster entries stored for this center."""
        return sum(len(v) for v in self.u_cluster.values()) + sum(
            len(v) for v in self.v_cluster.values()
        )


class JoinIndex:
    """The full Section-3.3 structure: 2-hop labels, base tables, clusters, W-table."""

    def __init__(self, line_graph: LineGraph) -> None:
        self.line_graph = line_graph
        self.two_hop: Optional[TwoHopIndex] = None
        self.interned: Optional[InternedLineIndex] = None
        #: table name (``T_friend``, ``T_friend_rev``) -> rows, one per line vertex
        self.base_tables: Dict[str, List[BaseRow]] = {}
        #: center -> its two clusters; iterates in sorted-center order (Figure 7)
        self.cluster_index: Dict[str, ClusterEntry] = {}
        self.w_table: Dict[Tuple[LabelKey, LabelKey], FrozenSet[str]] = {}
        self.build_seconds = 0.0
        self._labels: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        self._join_cache: Dict[Tuple[LabelKey, LabelKey], Set[VertexPair]] = {}
        self._built = False

    # ---------------------------------------------------------------- build

    def build(self) -> "JoinIndex":
        """Compute the 2-hop labeling, fill the base tables, clusters and W-table.

        The labeling normally comes from the snapshot's
        :class:`InternedLineIndex` — SCC condensation and 2-hop cover run on
        dense int arrays and only the per-component representative names are
        decoded into the string-facing base tables, clusters and W-table.
        That shortcut requires the line graph to still describe the live
        graph (same epoch); a line graph older than its graph is labelled
        through :class:`TwoHopIndex`, which only reads the line graph itself.
        """
        started = time.perf_counter()
        graph = self.line_graph.graph
        if self.line_graph.epoch == graph.epoch:
            self.interned = interned_line_index(
                graph, include_reverse=self.line_graph.include_reverse
            )
            self._build_labels_interned()
        else:
            self.two_hop = TwoHopIndex(self.line_graph.adjacency())
            self._build_labels()
        self._build_base_tables()
        self._build_clusters()
        self._build_w_table()
        self.build_seconds = time.perf_counter() - started
        self._built = True
        return self

    def _build_labels(self) -> None:
        assert self.two_hop is not None
        for vertex in self.line_graph.vertices():
            label = self.two_hop.label(vertex.vertex_id)
            self._labels[vertex.vertex_id] = (
                frozenset(str(center) for center in label.lin),
                frozenset(str(center) for center in label.lout),
            )

    def _build_labels_interned(self) -> None:
        assert self.interned is not None
        interned = self.interned
        representatives = interned.representative_names()
        # One shared frozenset of decoded center names per component — every
        # member vertex points at the same two objects.
        lin_names = [
            frozenset(representatives[center] for center in interned.comp_lin[comp])
            for comp in range(interned.comp_count)
        ]
        lout_names = [
            frozenset(representatives[center] for center in interned.comp_lout[comp])
            for comp in range(interned.comp_count)
        ]
        for vertex in range(interned.count):
            comp = interned.comp_of[vertex]
            self._labels[interned.vertex_id(vertex)] = (lin_names[comp], lout_names[comp])

    def _table_name(self, key: LabelKey) -> str:
        label, direction = key
        return f"T_{label}" if direction == "+" else f"T_{label}_rev"

    def _build_base_tables(self) -> None:
        self.base_tables = {
            self._table_name(key): [
                BaseRow(vertex.vertex_id, *self._labels[vertex.vertex_id])
                for vertex in self.line_graph.with_key(*key)
            ]
            for key in self.line_graph.keys()
        }

    def _build_clusters(self) -> None:
        entries: Dict[str, ClusterEntry] = {}
        for vertex in self.line_graph.vertices():
            lin, lout = self._labels[vertex.vertex_id]
            key = vertex.key()
            for center in lout:
                entry = entries.setdefault(center, ClusterEntry(center))
                entry.u_cluster.setdefault(key, set()).add(vertex.vertex_id)
            for center in lin:
                entry = entries.setdefault(center, ClusterEntry(center))
                entry.v_cluster.setdefault(key, set()).add(vertex.vertex_id)
        self.cluster_index = {center: entries[center] for center in sorted(entries)}

    def _build_w_table(self) -> None:
        keys = self.line_graph.keys()
        table: Dict[Tuple[LabelKey, LabelKey], Set[str]] = {}
        for center, entry in self.cluster_index.items():
            u_keys = [key for key, vertices in entry.u_cluster.items() if vertices]
            v_keys = [key for key, vertices in entry.v_cluster.items() if vertices]
            for first in u_keys:
                for second in v_keys:
                    table.setdefault((first, second), set()).add(center)
        self.w_table = {
            pair: frozenset(centers) for pair, centers in table.items()
        }
        # Pairs never joinable still get an (empty) entry so lookups are total.
        for first in keys:
            for second in keys:
                self.w_table.setdefault((first, second), frozenset())

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("JoinIndex.build() must be called before querying")

    # -------------------------------------------------------------- queries

    def base_table(self, key: LabelKey) -> Optional[List[BaseRow]]:
        """Return the base table for a (label, direction) pair, or ``None`` if absent."""
        return self.base_tables.get(self._table_name(key))

    def labels_of(self, vertex_id: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """Return ``(Lin, Lout)`` of a line vertex."""
        self._require_built()
        return self._labels[vertex_id]

    def relevant_centers(self, first: LabelKey, second: LabelKey) -> FrozenSet[str]:
        """W-table lookup: centers that can contribute to the join ``first ⤳ second``."""
        self._require_built()
        return self.w_table.get((first, second), frozenset())

    def cluster(self, center: str) -> Optional[ClusterEntry]:
        """Return the cluster entry stored for a center."""
        self._require_built()
        return self.cluster_index.get(center)

    def vertex_reaches(self, first_id: str, second_id: str) -> bool:
        """Return whether one line vertex reaches another (2-hop label intersection)."""
        self._require_built()
        if first_id == second_id:
            return True
        _lin_first, lout_first = self._labels[first_id]
        lin_second, _lout_second = self._labels[second_id]
        return not lout_first.isdisjoint(lin_second)

    def reachability_join(self, first: LabelKey, second: LabelKey) -> Set[VertexPair]:
        """Join through the W-table and clusters (the indexed path of the paper).

        The result depends only on the index contents (never on a particular
        query), so it is memoized: a query workload touching the same label
        pairs repeatedly pays for each join once.
        """
        self._require_built()
        cached = self._join_cache.get((first, second))
        if cached is not None:
            return cached
        pairs: Set[VertexPair] = set()
        for center in self.relevant_centers(first, second):
            entry = self.cluster_index.get(center)
            if entry is None:
                continue
            for x in entry.u_cluster.get(first, ()):  # x reaches the center
                for y in entry.v_cluster.get(second, ()):  # the center reaches y
                    if x != y:
                        pairs.add((x, y))
        self._join_cache[(first, second)] = pairs
        return pairs

    def reachability_join_baseline(self, first: LabelKey, second: LabelKey) -> Set[VertexPair]:
        """Join straight over the base tables (label-set intersection per pair)."""
        self._require_built()
        left = self.base_table(first)
        right = self.base_table(second)
        if left is None or right is None:
            return set()
        # ``Lout(x) ∩ Lin(y) ≠ ∅`` without intersecting every pair: invert
        # the right side's Lin into center -> nodes, then probe it with each
        # left node's Lout.
        center_to_targets: Dict[str, Set[str]] = {}
        for row in right:
            for center in row.lin:
                center_to_targets.setdefault(center, set()).add(row.node)
        return {
            (row.node, target)
            for row in left
            for center in row.lout
            for target in center_to_targets.get(center, ())
            if row.node != target
        }

    # ------------------------------------------------------------ statistics

    def statistics(self) -> Dict[str, float]:
        """Return size / construction metrics for the index benchmarks."""
        self._require_built()
        if self.interned is not None:
            labeling_size = self.interned.labeling_size()
        else:
            assert self.two_hop is not None
            labeling_size = self.two_hop.labeling_size()
        return {
            "build_seconds": self.build_seconds,
            "line_vertices": float(self.line_graph.number_of_vertices()),
            "line_edges": float(self.line_graph.number_of_edges()),
            "index_entries": float(labeling_size),
            "centers": float(len(self.cluster_index)),
            "w_table_entries": float(sum(1 for centers in self.w_table.values() if centers)),
            "base_table_rows": float(sum(len(rows) for rows in self.base_tables.values())),
        }

    def w_table_rows(self) -> List[Tuple[str, str, Tuple[str, ...]]]:
        """Return the W-table as printable rows (Figure 6): label pair -> centers."""
        self._require_built()
        rows = []
        for (first, second), centers in sorted(self.w_table.items()):
            if not centers:
                continue
            rows.append(
                (
                    f"{first[0]}{first[1]}",
                    f"{second[0]}{second[1]}",
                    tuple(sorted(centers)),
                )
            )
        return rows
