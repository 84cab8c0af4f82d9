"""Directed line graph construction (Section 3.1, Figure 3).

"Given a directed graph G, its line graph L(G) is a directed graph such that
each vertex of L(G) represents an edge of G, and two vertices in L(G) are
connected by a directed edge if the target of the corresponding edge of the
first vertex is the same as the source of the corresponding edge of the
second vertex" (Definition 4).

Each line vertex holds the ``<label - endpoints>`` couple of the paper's
Figure 3 (e.g. ``Friend A-C``).  Two practical extensions over the paper's
presentation:

* **Oriented vertices.**  Access conditions may traverse a relationship
  against its direction (``dir = -`` or ``*`` in a step).  To support those
  steps in the index pipeline, the line graph can be built over *oriented
  edges*: every social-graph relationship contributes a forward vertex and a
  reverse vertex, and adjacency follows the traversal direction.  With
  ``include_reverse=False`` (the paper's setting) only forward vertices are
  produced and Figure 3 is reproduced exactly.
* **Indexes.**  Vertices are indexed by start user, end user and
  (label, direction) so that the query evaluator can seed its joins without
  scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.graph.compiled import require_social_graph
from repro.graph.social_graph import Relationship, SocialGraph

__all__ = ["LineVertex", "LineGraph"]

FORWARD = "+"
REVERSE = "-"


@dataclass(frozen=True)
class LineVertex:
    """A vertex of the line graph: one relationship traversed in one direction."""

    vertex_id: str
    label: str
    direction: str          # '+' (with the edge) or '-' (against the edge)
    start: Hashable         # user the traversal leaves from
    end: Hashable           # user the traversal arrives at
    relationship: Relationship

    def key(self) -> Tuple[str, str]:
        """The (label, direction) pair, matching :meth:`LineHop.key`."""
        return (self.label, self.direction)

    def describe(self) -> str:
        """Return the paper's ``Label Start-End`` notation (e.g. ``friend A-C``)."""
        suffix = "" if self.direction == FORWARD else " (reverse)"
        return f"{self.label} {self.start}-{self.end}{suffix}"

    def __str__(self) -> str:
        return self.vertex_id


class LineGraph:
    """The directed line graph of a social graph, with traversal orientation."""

    def __init__(self, graph: SocialGraph, *, include_reverse: bool = True) -> None:
        require_social_graph(graph, type(self).__name__)
        self.graph = graph
        self.include_reverse = include_reverse
        #: the graph epoch this line graph was derived at; consumers deriving
        #: further structure (the join index) compare it against the live
        #: epoch to decide whether snapshot-based shortcuts are still valid
        self.epoch = graph.epoch
        self._vertices: Dict[str, LineVertex] = {}
        self._adjacency: Dict[str, Set[str]] = {}
        self._by_start: Dict[Hashable, List[str]] = {}
        self._by_end: Dict[Hashable, List[str]] = {}
        self._by_key: Dict[Tuple[str, str], List[str]] = {}
        self._build()

    # ---------------------------------------------------------------- build

    @staticmethod
    def vertex_id_for(relationship: Relationship, direction: str = FORWARD) -> str:
        """The canonical vertex id for a relationship traversed in a direction."""
        marker = "" if direction == FORWARD else "~"
        return f"{relationship.label}{marker}:{relationship.source}->{relationship.target}"

    def _build(self) -> None:
        for rel in self.graph.relationships():
            self._add_vertex(rel, FORWARD, rel.source, rel.target)
            if self.include_reverse:
                self._add_vertex(rel, REVERSE, rel.target, rel.source)
        # Adjacency: the end of one traversal is the start of the next.  A
        # vertex may succeed *itself* when it is a self-loop traversal
        # (``a -[r]-> a``): walking the loop twice in a row is a real path,
        # and excluding it made the cluster index disagree with the BFS
        # oracle on queries that need the same self-loop edge twice.  Every
        # line vertex ending at the same user has the *same* successor set —
        # the vertices starting there — so one canonical set per end-user is
        # built and shared instead of one per vertex: O(distinct end-users x
        # out-degree) set inserts, not O(in-degree x out-degree).  The sets
        # are never mutated after construction (the public accessors copy),
        # so sharing is safe.
        shared: Dict[Hashable, Set[str]] = {}
        for vertex in self._vertices.values():
            successors = shared.get(vertex.end)
            if successors is None:
                successors = shared[vertex.end] = set(self._by_start.get(vertex.end, ()))
            self._adjacency[vertex.vertex_id] = successors

    def _add_vertex(self, rel: Relationship, direction: str, start: Hashable, end: Hashable) -> None:
        vertex_id = self.vertex_id_for(rel, direction)
        vertex = LineVertex(vertex_id, rel.label, direction, start, end, rel)
        self._vertices[vertex_id] = vertex
        self._by_start.setdefault(start, []).append(vertex_id)
        self._by_end.setdefault(end, []).append(vertex_id)
        self._by_key.setdefault((rel.label, direction), []).append(vertex_id)

    # -------------------------------------------------------------- queries

    def vertex(self, vertex_id: str) -> LineVertex:
        """Return the line vertex with the given id."""
        return self._vertices[vertex_id]

    def has_vertex(self, vertex_id: str) -> bool:
        """Return whether a line vertex with this id exists."""
        return vertex_id in self._vertices

    def vertices(self) -> Iterator[LineVertex]:
        """Iterate over all line vertices."""
        return iter(self._vertices.values())

    def vertex_ids(self) -> List[str]:
        """Return all vertex ids (sorted for determinism)."""
        return sorted(self._vertices)

    def successors(self, vertex_id: str) -> Set[str]:
        """Return ids of line vertices adjacent after ``vertex_id``."""
        return set(self._adjacency[vertex_id])

    def adjacency(self) -> Dict[str, Set[str]]:
        """Return the full adjacency mapping (vertex id -> successor ids)."""
        return {vertex: set(targets) for vertex, targets in self._adjacency.items()}

    def are_adjacent(self, first_id: str, second_id: str) -> bool:
        """Return whether ``second`` may directly follow ``first`` on a path."""
        return second_id in self._adjacency.get(first_id, ())

    def starting_at(self, user: Hashable, key: Optional[Tuple[str, str]] = None) -> List[LineVertex]:
        """Return line vertices whose traversal starts at ``user`` (optionally of one (label, dir))."""
        vertices = [self._vertices[v] for v in self._by_start.get(user, ())]
        if key is not None:
            vertices = [vertex for vertex in vertices if vertex.key() == key]
        return vertices

    def ending_at(self, user: Hashable, key: Optional[Tuple[str, str]] = None) -> List[LineVertex]:
        """Return line vertices whose traversal ends at ``user`` (optionally of one (label, dir))."""
        vertices = [self._vertices[v] for v in self._by_end.get(user, ())]
        if key is not None:
            vertices = [vertex for vertex in vertices if vertex.key() == key]
        return vertices

    def with_key(self, label: str, direction: str = FORWARD) -> List[LineVertex]:
        """Return every line vertex carrying the given (label, direction)."""
        return [self._vertices[v] for v in self._by_key.get((label, direction), ())]

    def keys(self) -> List[Tuple[str, str]]:
        """Return the distinct (label, direction) pairs present in the line graph."""
        return sorted(self._by_key)

    # ---------------------------------------------------------------- sizes

    def number_of_vertices(self) -> int:
        """Return the number of line vertices."""
        return len(self._vertices)

    def number_of_edges(self) -> int:
        """Return the number of line-graph (adjacency) edges."""
        return sum(len(targets) for targets in self._adjacency.values())

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        mode = "oriented" if self.include_reverse else "forward-only"
        return (
            f"<LineGraph ({mode}): {self.number_of_vertices()} vertices, "
            f"{self.number_of_edges()} edges over {self.graph!r}>"
        )
