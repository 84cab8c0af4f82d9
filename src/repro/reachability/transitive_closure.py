"""Transitive-closure precomputation — the paper's second baseline.

"Another option is to precompute the transitive closure of the social graph
and record the reachability between any pair of vertices in the graph, in
advance.  While this approach can answer reachability queries in O(1) time,
the computation of the transitive closure has a complexity of O(|V| · |E|)
and the storage cost is O(|E|^2)" (Section 1).

:class:`TransitiveClosureIndex` materializes exactly that: for every user the
set of users reachable from it, globally and per relationship type, in both
directions.  Plain reachability questions are answered with one set lookup.
The build sweeps over ``compile_graph``'s snapshot (acquired once at
``build()`` time; under churn the acquisition itself may be a delta patch of
the shared snapshot rather than a rebuild), and the closure's contents are
copied out into plain sets — the index is a frozen build-time artifact
either way, while the inner constrained BFS always sees the live graph.
:class:`TransitiveClosureEvaluator` layers the ordered label-constraint
semantics on top: the closure is used to *prune* (if the requester is not
reachable at all, or not reachable in the filtered per-label closures, the
query is rejected without any traversal) and a constrained search is run only
for the survivors — the "TC-accelerated online search" configuration used in
the benchmarks.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import IndexNotBuiltError, NodeNotFoundError
from repro.graph.compiled import CSR, compile_graph, require_social_graph
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression
from repro.policy.steps import Direction
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.result import EvaluationResult

__all__ = ["TransitiveClosureIndex", "TransitiveClosureEvaluator"]


def _int_descendants(start: int, node_count: int, adjacencies: Sequence[CSR]) -> List[int]:
    """Collect every node reachable from ``start`` over the given CSR arrays.

    ``start`` itself is included only when a cycle leads back to it, matching
    the dict-based closure semantics.
    """
    seen = bytearray(node_count)
    stack = [start]
    reached: List[int] = []
    while stack:
        node = stack.pop()
        for offsets, targets in adjacencies:
            for position in range(offsets[node], offsets[node + 1]):
                neighbor = targets[position]
                if not seen[neighbor]:
                    seen[neighbor] = 1
                    reached.append(neighbor)
                    stack.append(neighbor)
    return reached


class TransitiveClosureIndex:
    """Materialized reachability sets, global and per relationship type."""

    def __init__(self, graph: SocialGraph) -> None:
        self.graph = graph
        self._built = False
        self._global: Dict[Hashable, Set[Hashable]] = {}
        self._undirected: Dict[Hashable, Set[Hashable]] = {}
        self._per_label: Dict[str, Dict[Hashable, Set[Hashable]]] = {}
        self.build_seconds = 0.0

    # ---------------------------------------------------------------- build

    def build(self) -> "TransitiveClosureIndex":
        """Compute every closure by one sweep per (user, label-filter) pair.

        The sweeps run over the compiled CSR snapshot — integer adjacency, a
        byte-array seen set — instead of the dict-of-dicts structure; the
        asymptotics are unchanged (this is the paper's deliberately
        expensive baseline) but the constants drop by an order of magnitude.
        Anything but a :class:`SocialGraph` is rejected with ``TypeError``.
        """
        require_social_graph(self.graph, type(self).__name__)
        started = time.perf_counter()
        snapshot = compile_graph(self.graph)
        node_count = snapshot.number_of_nodes()
        user_of = snapshot.node_ids
        # Tombstoned slots (remove_user deltas) hold no user and no edges —
        # skip them so the closure keys exactly the live user set.
        dead = snapshot.dead_slots
        live = [index for index in range(node_count) if index not in dead]
        forward = [snapshot.forward()]
        both = [snapshot.forward(), snapshot.backward()]
        self._global = {
            user_of[index]: {user_of[reached] for reached in
                             _int_descendants(index, node_count, forward)}
            for index in live
        }
        self._undirected = {
            user_of[index]: {user_of[reached] for reached in
                             _int_descendants(index, node_count, both)}
            for index in live
        }
        self._per_label = {
            label: {
                user_of[index]: {user_of[reached] for reached in
                                 _int_descendants(index, node_count,
                                                  [snapshot.forward(label_id)])}
                for index in live
            }
            for label_id, label in enumerate(snapshot.labels)
        }
        self.build_seconds = time.perf_counter() - started
        self._built = True
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("call build() before querying the transitive closure")

    # -------------------------------------------------------------- queries

    def reachable(self, source: Hashable, target: Hashable) -> bool:
        """O(1): is ``target`` reachable from ``source`` following any labels forward?"""
        self._require_built()
        if not self.graph.has_user(source):
            raise NodeNotFoundError(source)
        return source == target or target in self._global[source]

    def reachable_undirected(self, source: Hashable, target: Hashable) -> bool:
        """O(1): is ``target`` connected to ``source`` ignoring edge directions?"""
        self._require_built()
        if not self.graph.has_user(source):
            raise NodeNotFoundError(source)
        return source == target or target in self._undirected[source]

    def reachable_with_label(self, source: Hashable, target: Hashable, label: str) -> bool:
        """O(1): is ``target`` reachable from ``source`` using only ``label`` edges forward?"""
        self._require_built()
        if not self.graph.has_user(source):
            raise NodeNotFoundError(source)
        if source == target:
            return True
        return target in self._per_label.get(label, {}).get(source, set())

    def descendants(self, source: Hashable, label: Optional[str] = None) -> Set[Hashable]:
        """Return the reachability set of ``source`` (optionally restricted to one label)."""
        self._require_built()
        if label is None:
            return set(self._global[source])
        return set(self._per_label.get(label, {}).get(source, set()))

    # ------------------------------------------------------------ statistics

    def size(self) -> int:
        """Total number of stored (source, target) reachability facts."""
        self._require_built()
        total = sum(len(reached) for reached in self._global.values())
        total += sum(len(reached) for reached in self._undirected.values())
        for per_user in self._per_label.values():
            total += sum(len(reached) for reached in per_user.values())
        return total

    def statistics(self) -> Dict[str, float]:
        """Return size and build-time metrics for the index benchmarks."""
        return {
            "index_entries": float(self.size()) if self._built else 0.0,
            "build_seconds": self.build_seconds,
            "labels": float(len(self._per_label)),
        }


class TransitiveClosureEvaluator:
    """Constrained-query evaluator that prunes with the transitive closure.

    The closure alone cannot answer ordered label-constraint queries (it
    "can only be used to answer reachability Yes/No questions, and cannot
    tell how the connection is made", Section 4), so impossible queries are
    rejected in O(1) and the rest are delegated to the constrained BFS.
    """

    name = "transitive-closure"

    def __init__(self, graph: SocialGraph) -> None:
        self.graph = graph
        self.index = TransitiveClosureIndex(graph)
        self._bfs = OnlineBFSEvaluator(graph)
        self._built = False

    def build(self) -> "TransitiveClosureEvaluator":
        """Materialize the closure index."""
        self.index.build()
        self._built = True
        return self

    def statistics(self) -> Dict[str, float]:
        """Return the underlying closure-index statistics."""
        return self.index.statistics()

    # ------------------------------------------------------------------ api

    def evaluate(
        self,
        source: Hashable,
        target: Hashable,
        expression: PathExpression,
        *,
        collect_witness: bool = True,
    ) -> EvaluationResult:
        """Evaluate the query, short-circuiting through the closure when possible."""
        if not self._built:
            raise IndexNotBuiltError("call build() before evaluating queries")
        started = time.perf_counter()
        if not self.graph.has_user(source):
            raise NodeNotFoundError(source)
        if not self.graph.has_user(target):
            raise NodeNotFoundError(target)
        if self._prune(source, target, expression):
            return EvaluationResult(
                reachable=False,
                backend=self.name,
                counters=MappingProxyType({"closure_pruned": 1}),
                elapsed_seconds=time.perf_counter() - started,
            )
        inner = self._bfs.walk(source, target, expression, collect_witness=collect_witness)
        return EvaluationResult(
            reachable=inner.reachable,
            witness=inner.witness,
            backend=self.name,
            counters=MappingProxyType({**inner.counters, "closure_checked": 1}),
            elapsed_seconds=time.perf_counter() - started,
        )

    def find_targets(self, source: Hashable, expression: PathExpression) -> Set[Hashable]:
        """Return every user reachable from ``source`` under ``expression``."""
        if not self._built:
            raise IndexNotBuiltError("call build() before evaluating queries")
        return self._bfs.find_targets(source, expression)

    def sweep_targets_many(self, sources, expression: PathExpression):
        """Batched :meth:`find_targets`, delegated to the multi-source BFS sweep.

        The closure prunes single (source, target) decisions, not audience
        materialization, so the inner evaluator's owner-bitset sweep is used
        as-is.  Returns ``({owner: audience}, executed SweepPlan)``.
        """
        if not self._built:
            raise IndexNotBuiltError("call build() before evaluating queries")
        return self._bfs.sweep_targets_many(sources, expression)

    # ---------------------------------------------------------------- prune

    def _prune(self, source: Hashable, target: Hashable, expression: PathExpression) -> bool:
        """Return True when the closure proves the query unsatisfiable."""
        directions = {step.direction for step in expression}
        if directions <= {Direction.OUTGOING}:
            # Forward-only query: the requester must at least be forward-reachable.
            if not self.index.reachable(source, target):
                return True
            # Single-step forward query: the per-label closure is exact on labels
            # (still ignores distance/attributes, so it can only prune).
            if len(expression) == 1:
                label = expression[0].label
                if not self.index.reachable_with_label(source, target, label):
                    return True
            return False
        # Mixed or backward directions: only the undirected closure is a sound filter.
        return not self.index.reachable_undirected(source, target)
