"""Reference semantics: the cache-free constrained BFS over the live graph.

Every optimised traversal in :mod:`repro.reachability` — the mask sweep
behind point queries, witnesses and audiences, the interned line matcher,
the closure prune, the shard rounds — must agree with the functions here.
They walk the product of the graph's plain adjacency (``out_relationships``
/ ``in_relationships``) and a :class:`~repro.reachability.automaton.
StepAutomaton`, share no code with the compiled paths and keep no state
between calls, so a bug common to every ``MaskSweep`` caller still shows up
as a disagreement.  Anything exposing ``has_user``, the two
relationship iterators and ``raw_attributes`` (or ``attributes``) works,
including a :class:`~repro.graph.views.GraphView`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Optional, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graph.paths import Path, Traversal
from repro.graph.social_graph import raw_attributes_getter
from repro.policy.path_expression import PathExpression
from repro.reachability.automaton import AutomatonState, StepAutomaton

__all__ = ["reference_search", "reference_reachable", "reference_targets"]

_SearchNode = Tuple[Hashable, AutomatonState]
_Parents = Dict[_SearchNode, Tuple[Optional[_SearchNode], Optional[Traversal]]]


def _witness(node: _SearchNode, parents: _Parents) -> Path:
    traversals = []
    current: Optional[_SearchNode] = node
    while current is not None:
        current, traversal = parents[current]
        if traversal is not None:
            traversals.append(traversal)
    traversals.reverse()
    return Path(traversals[0].start if traversals else node[0], traversals)


def reference_search(
    graph,
    source: Hashable,
    expression: PathExpression,
    *,
    stop_at: Optional[Hashable] = None,
    collect_witness: bool = False,
) -> Dict[Hashable, Optional[Path]]:
    """Run the product BFS from ``source``; map accepted users to a witness.

    With ``stop_at`` the walk ends as soon as that user is accepted (the
    point-query form, so the returned mapping is then incomplete); with
    ``None`` it exhausts the reachable product space.  Witnesses are shortest
    paths (BFS order) and ``None`` unless ``collect_witness``.
    """
    for user in (source, stop_at):
        if user is not None and not graph.has_user(user):
            raise NodeNotFoundError(user)

    automaton = StepAutomaton(expression)
    attributes_of = raw_attributes_getter(graph)
    accepted: Dict[Hashable, Optional[Path]] = {}
    parents: _Parents = {}
    queue: deque = deque()

    def enqueue(user, state, parent, traversal) -> None:
        node = (user, state)
        if node in parents:
            return
        parents[node] = (parent, traversal)
        queue.append(node)
        if automaton.is_accepting(state) and user not in accepted:
            accepted[user] = _witness(node, parents) if collect_witness else None

    for state in automaton.closure(automaton.start_state, attributes_of(source)):
        enqueue(source, state, None, None)

    while queue and (stop_at is None or stop_at not in accepted):
        node = queue.popleft()
        user, state = node
        if not automaton.can_traverse_more(state):
            continue
        label, allow_forward, allow_backward = automaton.edge_requirements(state)
        next_state = automaton.after_edge(state)
        moves = []
        if allow_forward:
            moves += [
                (rel.target, Traversal(rel, forward=True))
                for rel in graph.out_relationships(user, label)
            ]
        if allow_backward:
            moves += [
                (rel.source, Traversal(rel, forward=False))
                for rel in graph.in_relationships(user, label)
            ]
        for next_user, traversal in moves:
            for closed in automaton.closure(next_state, attributes_of(next_user)):
                enqueue(next_user, closed, node, traversal)
    return accepted


def reference_reachable(
    graph, source: Hashable, target: Hashable, expression: PathExpression
) -> bool:
    """Whether ``target`` is reachable from ``source`` under ``expression``."""
    return target in reference_search(graph, source, expression, stop_at=target)


def reference_targets(graph, source: Hashable, expression: PathExpression) -> Set[Hashable]:
    """Every user reachable from ``source`` under ``expression``."""
    return set(reference_search(graph, source, expression))
