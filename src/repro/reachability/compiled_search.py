"""Integer product search over a :class:`~repro.graph.compiled.CompiledGraph`.

This module is the shared traversal core of the online evaluators: the same
constrained product walk as :mod:`repro.reachability.bfs` /
:mod:`repro.reachability.dfs`, but run entirely on dense integers.

* :class:`CompiledAutomaton` flattens a :class:`~repro.reachability.
  automaton.StepAutomaton` into per-state lookup lists bound to one graph
  snapshot: labels become label ids, states become consecutive ints, and the
  epsilon-closure of states whose steps carry no attribute conditions is
  precomputed into a shared tuple.  Attribute conditions are evaluated at
  most once per (step, node) thanks to a byte-array memo.
* :func:`product_search` walks the product of the CSR adjacency and the
  compiled automaton.  A search node is packed into a single int
  (``node * num_states + state``) so the visited set only ever hashes small
  integers; witness information is kept as packed parent links and
  reconstructed into :class:`~repro.graph.paths.Path` objects only on
  demand, through :class:`SearchOutcome`.
* :func:`audience_sweep` is the batched ``find_targets`` form: a **single
  multi-source product sweep** that keeps, per visited ``(node, state)``
  slot, a bitmask of the owners whose walk has reached that slot (Python
  ints over a dense owner index, held in sparse dict tables, so a sweep
  costs what it visits rather than ``O(|V|)``).  Overlapping owner
  neighbourhoods are traversed once — a slot's outgoing CSR rows are
  rescanned only when *new* owner bits arrive — instead of once per owner.
  :class:`MaskSweep` is the one propagation loop behind it, and — being
  resumable — also what every shard of :mod:`repro.sharding.router` runs
  between message rounds.  A
  :func:`direction planner <plan_audience_sweep>` decides per expression
  whether to run the sweep forward from the owners or backward from the
  whole vertex set over the :func:`reversed automaton <reversed_expression>`.

Both the breadth-first and the depth-first evaluator are
:class:`CompiledSearchMixin` — they differ only in which end of the frontier
is popped.  The cache-free reference these cores are tested against lives in
:mod:`repro.testing.oracle`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.compiled import (
    CompiledGraph,
    compile_graph,
    register_derived_policy,
    require_social_graph,
)
from repro.graph.paths import Path, Traversal
from repro.graph.social_graph import SocialGraph, UserId
from repro.policy.path_expression import PathExpression
from repro.policy.steps import Direction, Step
from repro.reachability.result import EvaluationResult
from repro.reliability.guard import active_guard

__all__ = [
    "CompiledAutomaton",
    "AutomatonCache",
    "CompiledSearchMixin",
    "SearchOutcome",
    "SweepPlan",
    "AudienceSweep",
    "MaskSweep",
    "MaskBitsMemo",
    "reverse_seed_nodes",
    "product_search",
    "audience_sweep",
    "plan_audience_sweep",
    "reversed_expression",
    "reversed_automaton",
]

#: Accepted values of every ``direction=`` parameter along the audience path.
SWEEP_DIRECTIONS = ("auto", "forward", "reverse")

#: A packed CSR edge as stored in parent links: (rel source, rel target,
#: label id, traversed forward?).
_Edge = Tuple[int, int, int, bool]

#: One edge orientation a product state may take: the label's row view
#: ``(offsets, targets, overlay)`` (see :data:`repro.graph.compiled.RowView`),
#: then the label id and whether edges are walked source -> target.  Both
#: traversal loops read a node's row the same way: ``overlay[node]`` when the
#: overlay is non-empty and has the node, else the base slice.
_Move = Tuple[Sequence[int], Sequence[int], Dict[int, Sequence[int]], int, bool]


class CompiledAutomaton:
    """A step automaton flattened to dense ints and bound to one snapshot."""

    __slots__ = (
        "expression",
        "snapshot",
        "num_states",
        "start_id",
        "accept_id",
        "can_more",
        "label_of",
        "allow_fwd",
        "allow_bwd",
        "depth_ok",
        "advance_to",
        "cond_of",
        "_steps",
        "_static_closure",
        "_cond_memo",
    )

    def __init__(self, expression: PathExpression, snapshot: CompiledGraph) -> None:
        self.expression = expression
        self.snapshot = snapshot
        steps = tuple(expression)
        self._steps = steps
        # State layout: step i owns the consecutive ids base[i] + d for depth
        # d in [0, max_depth(i)]; the single accepting state comes last, so
        # "one more edge of step i" is always ``state + 1``.
        bases: List[int] = []
        total = 0
        for step in steps:
            bases.append(total)
            total += step.max_depth() + 1
        self.num_states = total + 1
        self.start_id = 0
        self.accept_id = total

        size = self.num_states
        self.can_more: List[bool] = [False] * size
        self.label_of: List[int] = [-1] * size
        self.allow_fwd: List[bool] = [False] * size
        self.allow_bwd: List[bool] = [False] * size
        self.depth_ok: List[bool] = [False] * size
        self.advance_to: List[int] = [self.accept_id] * size
        self.cond_of: List[int] = [-1] * size

        for index, step in enumerate(steps):
            label_id = snapshot.label_id(step.label)
            forward = step.direction.allows_forward()
            backward = step.direction.allows_backward()
            next_base = bases[index + 1] if index + 1 < len(steps) else self.accept_id
            has_conditions = bool(step.conditions)
            for depth in range(step.max_depth() + 1):
                state = bases[index] + depth
                self.label_of[state] = label_id
                self.allow_fwd[state] = forward
                self.allow_bwd[state] = backward
                self.can_more[state] = depth < step.max_depth() and label_id >= 0
                self.depth_ok[state] = depth in step.depths
                self.advance_to[state] = next_base
                self.cond_of[state] = index if has_conditions else -1

        # Conditions are memoized per (step, node): 0 unknown, 1 holds, 2 fails.
        self._cond_memo: Dict[int, bytearray] = {
            index: bytearray(snapshot.number_of_nodes())
            for index, step in enumerate(steps)
            if step.conditions
        }
        self._static_closure: List[Optional[Tuple[int, ...]]] = [
            self._compute_static_closure(state) for state in range(size)
        ]

    def _compute_static_closure(self, state: int) -> Optional[Tuple[int, ...]]:
        """Precompute the closure when no attribute condition gates the chain."""
        chain = [state]
        current = state
        while current != self.accept_id and self.depth_ok[current]:
            if self.cond_of[current] >= 0:
                return None
            current = self.advance_to[current]
            chain.append(current)
        return tuple(chain)

    def condition_holds(self, step_index: int, node: int) -> bool:
        """Memoized evaluation of one step's attribute conditions at one node."""
        memo = self._cond_memo[step_index]
        cached = memo[node]
        if cached:
            return cached == 1
        holds = self._steps[step_index].satisfied_by(self.snapshot.attrs[node])
        memo[node] = 1 if holds else 2
        return holds

    def static_closures(self) -> List[Optional[Tuple[int, ...]]]:
        """Per-state precomputed closures (``None`` where conditions gate the chain)."""
        return self._static_closure

    def closure(self, state: int, node: int) -> Sequence[int]:
        """Return ``state`` plus every state reachable by spontaneous advances."""
        static = self._static_closure[state]
        if static is not None:
            return static
        chain = [state]
        current = state
        while current != self.accept_id and self.depth_ok[current]:
            step_index = self.cond_of[current]
            if step_index >= 0 and not self.condition_holds(step_index, node):
                break
            current = self.advance_to[current]
            chain.append(current)
        return chain

    def __repr__(self) -> str:
        return (
            f"<CompiledAutomaton over {self.expression.to_text()!r}, "
            f"{self.num_states} states, epoch={self.snapshot.epoch}>"
        )


class AutomatonCache:
    """Per-engine ``PathExpression -> CompiledAutomaton`` memo.

    Compiled automata are bound to one snapshot (label ids, condition memos),
    so the cache is invalidated as a whole whenever the snapshot's epoch
    moves on.
    """

    __slots__ = ("_epoch", "_cache")

    def __init__(self) -> None:
        self._epoch: Optional[int] = None
        self._cache: Dict[str, CompiledAutomaton] = {}

    def get(self, expression: PathExpression, snapshot: CompiledGraph) -> CompiledAutomaton:
        """Return the compiled automaton for ``expression`` over ``snapshot``."""
        if self._epoch != snapshot.epoch:
            self._cache.clear()
            self._epoch = snapshot.epoch
        key = expression.to_text()
        automaton = self._cache.get(key)
        if automaton is None or automaton.snapshot is not snapshot:
            automaton = CompiledAutomaton(expression, snapshot)
            self._cache[key] = automaton
        return automaton

    def __len__(self) -> int:
        return len(self._cache)


class CompiledSearchMixin:
    """The online evaluator: constrained product search on the CSR snapshot.

    :class:`~repro.reachability.bfs.OnlineBFSEvaluator` and
    :class:`~repro.reachability.dfs.OnlineDFSEvaluator` are this class plus
    the two things a subclass sets: ``name`` and ``_depth_first``.  No
    precomputation: the snapshot is acquired per query through
    ``compile_graph``, so under churn the evaluator rides the
    delta-maintenance path.
    """

    _depth_first = False

    def __init__(self, graph: SocialGraph) -> None:
        require_social_graph(graph, type(self).__name__)
        self.graph = graph
        self._automata = AutomatonCache()

    def build(self):
        """No precomputation is needed; returns ``self`` for interface parity."""
        return self

    def statistics(self) -> Dict[str, float]:
        """Index statistics (trivially empty for the online evaluator)."""
        return {"index_entries": 0, "build_seconds": 0.0}

    def _search(
        self,
        source: UserId,
        expression: PathExpression,
        result: EvaluationResult,
        *,
        stop_at: Optional[UserId],
        collect_witness: bool,
    ) -> "SearchOutcome":
        snapshot = compile_graph(self.graph)
        source_index = snapshot.index_of(source)
        stop_index = None if stop_at is None else snapshot.index_of(stop_at)
        return product_search(
            snapshot,
            self._automata.get(expression, snapshot),
            source_index,
            stop_index,
            result,
            collect_witness=collect_witness,
            depth_first=self._depth_first,
        )

    def evaluate(
        self,
        source: UserId,
        target: UserId,
        expression: PathExpression,
        *,
        collect_witness: bool = True,
    ) -> EvaluationResult:
        """Return whether ``target`` is reachable from ``source`` under ``expression``."""
        started = time.perf_counter()
        result = EvaluationResult(reachable=False, backend=self.name)
        outcome = self._search(
            source, expression, result, stop_at=target, collect_witness=collect_witness
        )
        result.reachable = outcome.contains(target)
        if collect_witness and result.reachable:
            result.witness = outcome.witness(target)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def find_targets(self, source: UserId, expression: PathExpression) -> Set[UserId]:
        """Return every user reachable from ``source`` under ``expression``.

        Used to materialize the full authorized audience of an access rule.
        """
        result = EvaluationResult(reachable=False, backend=self.name)
        return self._search(
            source, expression, result, stop_at=None, collect_witness=False
        ).users()

    def sweep_targets_many(
        self,
        sources: Iterable[UserId],
        expression: PathExpression,
        *,
        direction: str = "auto",
    ) -> Tuple[Dict[UserId, Set[UserId]], "SweepPlan"]:
        """Batched :meth:`find_targets`: one automaton, one shared owner sweep.

        Runs the multi-source owner-bitset sweep (:func:`audience_sweep`;
        audience materialization has no exploration order, so BFS and DFS
        share it).  ``direction`` pins the planner's forward/reverse choice.
        Returns ``({owner: audience}, executed SweepPlan)``.
        """
        sources = list(sources)
        snapshot = compile_graph(self.graph)
        automaton = self._automata.get(expression, snapshot)
        indices = [snapshot.index_of(source) for source in sources]
        user_of = snapshot.node_ids
        sweep = audience_sweep(snapshot, automaton, indices, direction=direction)
        audiences = {
            source: {user_of[node] for node in accepted}
            for source, accepted in zip(sources, sweep.audiences)
        }
        return audiences, sweep.plan

    def find_targets_many(
        self, sources, expression: PathExpression, *, direction: str = "auto"
    ) -> Dict[UserId, Set[UserId]]:
        """Audiences-only form of :meth:`sweep_targets_many`."""
        return self.sweep_targets_many(sources, expression, direction=direction)[0]


class SearchOutcome:
    """Accepted nodes of one product search, with on-demand witness decoding."""

    __slots__ = ("_snapshot", "_source", "_accepted", "_parents")

    def __init__(
        self,
        snapshot: CompiledGraph,
        source: int,
        accepted: Dict[int, Optional[int]],
        parents: Optional[Dict[int, Tuple[Optional[int], Optional[_Edge]]]],
    ) -> None:
        self._snapshot = snapshot
        self._source = source
        self._accepted = accepted
        self._parents = parents

    def contains(self, user: UserId) -> bool:
        """Whether ``user`` was accepted by the search."""
        index = self._snapshot.node_index.get(user)
        return index is not None and index in self._accepted

    def users(self) -> Set[UserId]:
        """Return the accepted nodes translated back to user ids."""
        user_of = self._snapshot.node_ids
        return {user_of[index] for index in self._accepted}

    def witness(self, user: UserId) -> Optional[Path]:
        """Reconstruct the witness path to ``user`` (``None`` without parents)."""
        if self._parents is None:
            return None
        index = self._snapshot.node_index.get(user)
        if index is None:
            return None
        key = self._accepted.get(index)
        if key is None:
            return None
        edges: List[_Edge] = []
        current: Optional[int] = key
        while current is not None:
            parent, edge = self._parents[current]
            if edge is not None:
                edges.append(edge)
            current = parent
        edges.reverse()
        snapshot = self._snapshot
        traversals = [
            Traversal(snapshot.relationship(rel_source, rel_target, label_id), forward=forward)
            for rel_source, rel_target, label_id, forward in edges
        ]
        return Path(snapshot.user_of(self._source), traversals)


def product_search(
    snapshot: CompiledGraph,
    automaton: CompiledAutomaton,
    source: int,
    stop_at: Optional[int],
    result: EvaluationResult,
    *,
    collect_witness: bool,
    depth_first: bool = False,
) -> SearchOutcome:
    """Run the constrained product walk from ``source`` on integer CSR arrays.

    ``stop_at`` short-circuits the walk once that node is accepted (the
    ``evaluate`` form); ``None`` exhausts the reachable product space (the
    ``find_targets`` form).  Counters: one ``states_visited`` per product
    state discovered, one ``edges_expanded`` per CSR entry scanned.

    An active :class:`~repro.reliability.guard.QueryGuard` is ticked once
    per popped frontier entry, charged with the edges scanned since the
    previous tick — a blown budget either raises (``"raise"`` mode) or ends
    the walk early (``"partial"`` mode; the under-approximated outcome is
    only surfaced through result shapes that carry a ``partial`` flag).
    """
    num_states = automaton.num_states
    accept_id = automaton.accept_id
    closure = automaton.closure
    state_moves = _hoisted_state_moves(snapshot, automaton)

    visited: Set[int] = set()
    accepted: Dict[int, Optional[int]] = {}
    parents: Optional[Dict[int, Tuple[Optional[int], Optional[_Edge]]]] = (
        {} if collect_witness else None
    )
    frontier: deque = deque()
    edges_expanded = 0

    for state in closure(automaton.start_id, source):
        key = source * num_states + state
        if key not in visited:
            visited.add(key)
            if parents is not None:
                parents[key] = (None, None)
            frontier.append(key)
            if state == accept_id and source not in accepted:
                accepted[source] = key if collect_witness else None

    guard = active_guard()
    charged = 0
    pop = frontier.pop if depth_first else frontier.popleft
    while frontier:
        if stop_at is not None and stop_at in accepted:
            break
        if guard is not None:
            if not guard.spend(1 + edges_expanded - charged):
                break
            charged = edges_expanded
        key = pop()
        node, state = divmod(key, num_states)
        next_state = state + 1
        for offsets, targets, overlay, label_id, forward in state_moves[state]:
            if overlay and node in overlay:
                row = overlay[node]
            else:
                row = targets[offsets[node]:offsets[node + 1]]
            edges_expanded += len(row)
            for neighbor in row:
                edge: Optional[_Edge] = None
                for closed in closure(next_state, neighbor):
                    neighbor_key = neighbor * num_states + closed
                    if neighbor_key in visited:
                        continue
                    visited.add(neighbor_key)
                    if parents is not None:
                        if edge is None:
                            edge = (
                                (node, neighbor, label_id, True)
                                if forward
                                else (neighbor, node, label_id, False)
                            )
                        parents[neighbor_key] = (key, edge)
                    frontier.append(neighbor_key)
                    if closed == accept_id and neighbor not in accepted:
                        accepted[neighbor] = neighbor_key if collect_witness else None

    if visited:
        result.count("states_visited", len(visited))
    if edges_expanded:
        result.count("edges_expanded", edges_expanded)
    return SearchOutcome(snapshot, source, accepted, parents)


def _hoisted_state_moves(
    snapshot: CompiledGraph, automaton: CompiledAutomaton
) -> List[List[_Move]]:
    """Per-state row views, hoisted so the edge loops never re-check
    directions or re-resolve label ids (empty where a state cannot take
    another edge).  Row views never fold a label's overlay."""
    state_moves: List[List[_Move]] = []
    for state in range(automaton.num_states):
        moves: List[_Move] = []
        if automaton.can_more[state]:
            label_id = automaton.label_of[state]
            if automaton.allow_fwd[state]:
                moves.append(snapshot.out_rows(label_id) + (label_id, True))
            if automaton.allow_bwd[state]:
                moves.append(snapshot.in_rows(label_id) + (label_id, False))
        state_moves.append(moves)
    return state_moves


# --------------------------------------------------------------------------
# Multi-source owner-bitset sweep + direction planner
# --------------------------------------------------------------------------

#: ``+`` and ``-`` swap when a path is walked target -> owner; ``*`` is its
#: own mirror image.
_FLIPPED_DIRECTION = {
    Direction.OUTGOING: Direction.INCOMING,
    Direction.INCOMING: Direction.OUTGOING,
    Direction.ANY: Direction.ANY,
}

# Reversed automata live on snapshot.derived under the conservative default
# delta policy ("always"): any in-place patch drops the cache, and the
# live-epoch check below additionally covers snapshots that outlive graph
# mutations (the cluster backend's pinned build-time snapshot) — compiled
# automata memoize per-(step, node) condition outcomes and must never serve
# values frozen at an earlier epoch.
_REVERSED_AUTOMATA_KEY = "compiled_search.reversed_automata"

# Sweep plans read only degree_statistics() and the live node count, both of
# which only structural patches change — the line index's survival rule.
_SWEEP_PLANS_KEY = "compiled_search.sweep_plans"
register_derived_policy(_SWEEP_PLANS_KEY, "structural")

#: Most ``(expression text, owner count, direction)`` plans one snapshot
#: memoizes; a full memo is cleared before the next plan is stored.
SWEEP_PLAN_MEMO_LIMIT = 512


def reversed_expression(expression: PathExpression) -> PathExpression:
    """Return the expression matching every satisfying path walked backwards.

    A path ``owner -> ... -> target`` satisfying ``expression`` corresponds
    one-to-one to a path ``target -> ... -> owner`` satisfying the reversed
    expression: step order is reversed, each step's direction is flipped and
    its depth interval kept.  Attribute conditions shift one step towards
    the owner — a forward step's conditions constrain the user at the *end*
    of its edge run, and the backward walk reaches that user at the end of
    the *following* reversed step's run.  The last forward step's conditions
    constrain the backward walk's start nodes and therefore do not appear in
    the reversed expression at all: reverse sweeps must filter their seeds
    with them instead (see :func:`reverse_seed_nodes`).
    """
    steps = tuple(expression)
    reversed_steps: List[Step] = []
    for position in range(len(steps) - 1, -1, -1):
        step = steps[position]
        reversed_steps.append(
            Step(
                label=step.label,
                direction=_FLIPPED_DIRECTION[step.direction],
                depths=step.depths,
                conditions=steps[position - 1].conditions if position > 0 else (),
            )
        )
    return PathExpression(tuple(reversed_steps))


def reversed_automaton(
    snapshot: CompiledGraph, expression: PathExpression
) -> CompiledAutomaton:
    """Return the compiled automaton of ``reversed_expression(expression)``.

    Cached in ``snapshot.derived`` (keyed by the forward expression's text),
    so it shares the snapshot's lifetime and inherits epoch-based
    invalidation — exactly like the interned line index.  A snapshot that
    outlives graph mutations (the cluster index answers from its build-time
    snapshot) still sees *live* attribute dicts, so the cache is additionally
    dropped whenever the live graph epoch moves: compiled automata memoize
    per-(step, node) condition outcomes and must not serve values frozen at
    an earlier epoch.
    """
    live_epoch = getattr(snapshot.graph, "epoch", snapshot.epoch)
    entry = snapshot.derived.get(_REVERSED_AUTOMATA_KEY)
    if entry is None or entry[0] != live_epoch:
        entry = (live_epoch, {})
        snapshot.derived[_REVERSED_AUTOMATA_KEY] = entry
    cache: Dict[str, CompiledAutomaton] = entry[1]
    key = expression.to_text()
    automaton = cache.get(key)
    if automaton is None:
        automaton = cache[key] = CompiledAutomaton(
            reversed_expression(expression), snapshot
        )
    return automaton


@dataclass(frozen=True)
class SweepPlan:
    """The direction planner's verdict for one audience sweep.

    ``direction`` is what actually ran: ``"forward"`` (multi-source from the
    owners) or ``"reverse"`` (multi-source from the whole vertex set over the
    reversed automaton).  Costs are the planner's estimates in arbitrary
    explored-work units; they are computed even when the caller forced the
    direction, so benchmarks can grade the heuristic.
    """

    direction: str
    forced: bool
    owners: int
    forward_cost: float
    reverse_cost: float
    reason: str


def _estimate_sweep_cost(
    snapshot: CompiledGraph,
    steps: Sequence[Step],
    seed_count: int,
    mask_bits: int,
) -> float:
    """Rough explored-work estimate of one multi-source sweep.

    A geometric frontier model over the snapshot's per-label degree
    statistics: every depth level of every step expands the frontier by the
    label's mean degree (counted once per allowed edge orientation), and the
    frontier saturates at ``|V|``.  Owners are assumed degree-typical.  Mask
    width enters as a slow multiplier: big-int bitset ops on a few words are
    drowned out by interpreter overhead, so each extra 16 words of mask
    costs roughly one more interpreter-op equivalent per edge.
    """
    node_count = max(1, snapshot.number_of_live_nodes())
    stats = snapshot.degree_statistics()
    frontier = float(seed_count)
    cost = float(seed_count)
    for step in steps:
        label_id = snapshot.label_id(step.label)
        if label_id < 0:
            break  # no edges carry this label: the sweep dies here
        orientations = int(step.direction.allows_forward()) + int(
            step.direction.allows_backward()
        )
        mean_degree = stats[label_id].mean_degree * orientations
        for _depth in range(step.max_depth()):
            expansions = frontier * mean_degree
            cost += expansions
            frontier = min(float(node_count), expansions)
            if not frontier:
                break
        if not frontier:
            break
    words = 1 + (max(0, mask_bits - 1) >> 6)
    return cost * (1.0 + words / 16.0)


def plan_audience_sweep(
    snapshot: CompiledGraph,
    expression: PathExpression,
    owner_count: int,
    *,
    direction: str = "auto",
) -> SweepPlan:
    """Choose the direction of one audience sweep.

    Forward sweeps seed ``owner_count`` nodes with ``owner_count``-bit
    masks; reverse sweeps seed the whole vertex set with ``|V|``-bit masks
    over the reversed automaton.  Reverse wins when the owner set is large
    (the two costs converge as ``owner_count -> |V|``) or when the forward
    first step fans out much harder than the reversed one — e.g. a
    high-degree ``*`` first step feeding into a rare last label.
    ``direction`` other than ``"auto"`` pins the outcome (used by the
    differential tests and benchmarks); costs are estimated either way.

    Plans are memoized in ``snapshot.derived`` per ``(expression text,
    owner_count, direction)`` — at most :data:`SWEEP_PLAN_MEMO_LIMIT` of
    them — under the ``"structural"`` delta policy: edge and user patches
    re-plan, attribute-only patches keep the memo.
    """
    if direction not in SWEEP_DIRECTIONS:
        raise ValueError(
            f"unknown sweep direction {direction!r}; expected one of {SWEEP_DIRECTIONS}"
        )
    plans = snapshot.derived.get(_SWEEP_PLANS_KEY)
    if plans is None:
        plans = snapshot.derived[_SWEEP_PLANS_KEY] = {}
    key = (expression.to_text(), owner_count, direction)
    plan = plans.get(key)
    if plan is None:
        if len(plans) >= SWEEP_PLAN_MEMO_LIMIT:
            plans.clear()
        plan = plans[key] = _plan_sweep(snapshot, expression, owner_count, direction)
    return plan


def _plan_sweep(
    snapshot: CompiledGraph,
    expression: PathExpression,
    owner_count: int,
    direction: str,
) -> SweepPlan:
    """Estimate both directions and pick one (:func:`plan_audience_sweep`)."""
    node_count = snapshot.number_of_live_nodes()
    forward_cost = _estimate_sweep_cost(
        snapshot, tuple(expression), owner_count, owner_count
    )
    reverse_cost = _estimate_sweep_cost(
        snapshot, tuple(reversed_expression(expression)), node_count, node_count
    )
    if direction != "auto":
        return SweepPlan(
            direction=direction,
            forced=True,
            owners=owner_count,
            forward_cost=forward_cost,
            reverse_cost=reverse_cost,
            reason=f"direction pinned to {direction!r} by the caller",
        )
    if reverse_cost < forward_cost:
        chosen, reason = "reverse", (
            f"reverse sweep estimated cheaper ({reverse_cost:.0f} vs "
            f"{forward_cost:.0f}) for {owner_count} owners over {node_count} nodes"
        )
    else:
        chosen, reason = "forward", (
            f"forward sweep estimated cheaper ({forward_cost:.0f} vs "
            f"{reverse_cost:.0f}) for {owner_count} owners over {node_count} nodes"
        )
    return SweepPlan(
        direction=chosen,
        forced=False,
        owners=owner_count,
        forward_cost=forward_cost,
        reverse_cost=reverse_cost,
        reason=reason,
    )


class MaskSweep:
    """The one mask-propagation core: a resumable multi-source owner-bitmask sweep.

    Slots are packed ``node * num_states + state`` keys.  The sparse
    ``seen`` dict maps each slot some owner's walk has reached to the mask
    of those owners; ``pending`` holds the not-yet-propagated part of the
    slots on the worklist.  Only slots of *expanding* states — states with
    an outgoing move — ever enter ``pending`` and the worklist: the accept
    state and every max-depth state take no edge, so their slots are
    written to ``seen`` and nothing else.  The first write to an accept
    slot also appends its node to ``accepts``.  These invariants hold
    between calls: a key is in ``seen`` iff its mask is non-zero;
    ``pending``'s keys are a subset of ``seen``'s, so a first visit needs
    no ``pending`` lookup; every ``pending`` and queued key belongs to an
    expanding state; and each node whose accept slot is in ``seen`` appears
    in ``accepts`` exactly once.  The sweep's time and memory are
    proportional to the slots it visits, not to ``|V|``, and its worklist
    holds only the slots that expand.  The worklist is FIFO so the owners'
    frontiers advance level-aligned and merge into single slot visits — a
    slot's CSR rows are rescanned only when genuinely new owner bits arrive
    (``new = mask & ~seen[slot]``), which is the whole win over a per-owner
    sweep: overlapping owner neighbourhoods cost one traversal, not one per
    owner.

    Monotonicity makes this equivalent to running the per-owner walk for
    every seed bit: a bit enters a slot's mask at most once, so each
    (owner, node, state) triple is expanded at most once.  It also makes the
    sweep *resumable*: seeds may arrive between :meth:`run` calls, at any
    automaton state (the shard router's cross-shard messages do both), and
    the worklist survives a guard trip, so a later run — or a test reading
    the tables — continues from exactly the monotone state reached so far.
    Acceptance is read off the ``node * num_states + accept_id`` slots
    (:meth:`accepted`).
    """

    __slots__ = (
        "snapshot",
        "automaton",
        "num_states",
        "seen",
        "pending",
        "queue",
        "head",
        "accepts",
        "chain_memo",
        "state_moves",
        "expands",
        "tripped",
        "scanned",
    )

    def __init__(self, snapshot: CompiledGraph, automaton: CompiledAutomaton) -> None:
        self.snapshot = snapshot
        self.automaton = automaton
        self.num_states = automaton.num_states
        self.seen: Dict[int, int] = {}
        self.pending: Dict[int, int] = {}
        self.queue: List[int] = []
        self.head = 0
        #: Nodes whose accept slot is in ``seen``, in first-visit order.
        self.accepts: List[int] = []
        # Spontaneous-advance chains of condition-gated states, memoized per
        # (state, node) slot: condition outcomes are stable within a sweep (the
        # automaton's per-(step, node) memo), so the chain never changes and the
        # closure call leaves the edge loop after the first visit.
        self.chain_memo: Dict[int, Tuple[int, ...]] = {}
        self.state_moves = _hoisted_state_moves(snapshot, automaton)
        #: Per state: whether its slots can take an edge (and so need queueing).
        self.expands: List[bool] = [bool(moves) for moves in self.state_moves]
        #: Whether a guard budget ever cut :meth:`run` short.
        self.tripped = False
        #: CSR entries scanned over the sweep's lifetime.
        self.scanned = 0

    def seed(self, node: int, state: int, mask: int) -> None:
        """Inject owner bits at ``(node, state)``, with spontaneous advances."""
        num_states = self.num_states
        accept_id = self.automaton.accept_id
        seen = self.seen
        pending = self.pending
        expands = self.expands
        for closed in self.automaton.closure(state, node):
            key = node * num_states + closed
            previous = seen.get(key, 0)
            add = mask & ~previous
            if not add:
                continue
            seen[key] = previous | add
            if not expands[closed]:
                if closed == accept_id and not previous:
                    self.accepts.append(node)
                continue
            waiting = pending.get(key)
            if waiting is None:
                self.queue.append(key)
                pending[key] = add
            else:
                pending[key] = waiting | add

    def has_work(self) -> bool:
        """Whether seeded or guard-interrupted work awaits the next :meth:`run`."""
        return self.head < len(self.queue)

    def run(self) -> bool:
        """Drain the worklist; ``False`` when a guard budget cut it short.

        An active guard is charged once per popped (expanding) slot plus the
        CSR entries scanned since the previous pop.
        """
        guard = active_guard()
        queue = self.queue
        head = self.head
        seen = self.seen
        pending = self.pending
        num_states = self.num_states
        state_moves = self.state_moves
        expands = self.expands
        accept_id = self.automaton.accept_id
        accepts = self.accepts
        static_closure = self.automaton.static_closures()
        closure = self.automaton.closure
        chain_memo = self.chain_memo
        scanned = 0
        charged = 0
        try:
            while head < len(queue):
                if guard is not None:
                    # In "raise" mode a blown budget raises out of spend().
                    if not guard.spend(1 + scanned - charged):
                        self.tripped = True
                        return False
                    charged = scanned
                key = queue[head]
                head += 1
                delta = pending.pop(key, 0)
                if not delta:
                    continue
                # Only expanding slots are queued, so the state has moves.
                node, state = divmod(key, num_states)
                next_state = state + 1
                next_static = static_closure[next_state]
                for offsets, targets, overlay, _label_id, _forward in state_moves[state]:
                    # Slicing the CSR row and iterating the array directly
                    # saves an index lookup per edge — this loop is the
                    # sweep's entire cost.
                    if overlay and node in overlay:
                        row = overlay[node]
                    else:
                        row = targets[offsets[node]:offsets[node + 1]]
                    scanned += len(row)
                    for neighbor in row:
                        base = neighbor * num_states
                        if next_static is not None:
                            chain = next_static
                        else:
                            chain = chain_memo.get(base + next_state)
                            if chain is None:
                                chain = chain_memo[base + next_state] = tuple(
                                    closure(next_state, neighbor)
                                )
                        for closed in chain:
                            neighbor_key = base + closed
                            previous = seen.get(neighbor_key)
                            if previous is None:
                                # First visit: pending's keys are a subset of
                                # seen's, so the slot cannot be queued yet.
                                seen[neighbor_key] = delta
                                if expands[closed]:
                                    pending[neighbor_key] = delta
                                    queue.append(neighbor_key)
                                elif closed == accept_id:
                                    accepts.append(neighbor)
                                continue
                            add = delta & ~previous
                            if not add:
                                continue
                            seen[neighbor_key] = previous | add
                            if not expands[closed]:
                                continue
                            waiting = pending.get(neighbor_key)
                            if waiting is None:
                                queue.append(neighbor_key)
                                pending[neighbor_key] = add
                            else:
                                pending[neighbor_key] = waiting | add
            # Drained: drop the spent worklist instead of carrying it along.
            queue.clear()
            head = 0
            return True
        finally:
            # However the loop ended (drained, tripped, raised), the tables
            # and the worklist position stay consistent for a later run().
            self.head = head
            self.scanned += scanned

    def accepted(
        self, nodes: Optional[Iterable[int]] = None
    ) -> Iterator[Tuple[int, int]]:
        """``(node, owner mask)`` for each node some owner's walk accepts.

        Without ``nodes`` every visited accept slot is reported, in
        first-visit order, from the ``accepts`` record; with ``nodes`` only
        those are probed.
        """
        seen = self.seen
        num_states = self.num_states
        accept_id = self.automaton.accept_id
        if nodes is None:
            for node in self.accepts:
                yield node, seen[node * num_states + accept_id]
            return
        for node in nodes:
            mask = seen.get(node * num_states + accept_id)
            if mask:
                yield node, mask


def _mask_bits(mask: int) -> List[int]:
    """Return the set bit positions of ``mask`` (lowest first)."""
    bits: List[int] = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class MaskBitsMemo(dict):
    """``mask -> set bit positions``, extracted once per distinct mask value.

    Accepted nodes cluster on few distinct owner masks (overlapping
    audiences are the whole point of the batch), so with this memo decoding
    :meth:`MaskSweep.accepted` degenerates to list appends — the same
    Sum|audience| appends a per-owner baseline pays.
    """

    def __missing__(self, mask: int) -> List[int]:
        bits = self[mask] = _mask_bits(mask)
        return bits


def reverse_seed_nodes(
    automaton: CompiledAutomaton, skip: AbstractSet[int] = frozenset()
) -> List[int]:
    """The nodes a reverse sweep of ``automaton``'s expression must seed.

    Every live node outside ``skip`` (a shard passes its ghosts: their home
    shard seeds them) that satisfies the last forward step's attribute
    conditions — the one constraint :func:`reversed_expression` cannot
    carry.  Tombstoned slots carry no edges, but they must not be seeded
    either: their attribute entries are gone, so a condition probe would
    fail, and a dead bit reaching nothing still widens every mask word for
    free.  ``automaton`` is the *forward* automaton: its per-(step, node)
    memo covers the last step, so repeated reverse sweeps re-evaluate
    nothing.
    """
    snapshot = automaton.snapshot
    excluded = snapshot.dead_slots | skip if skip else snapshot.dead_slots
    nodes = [
        node for node in range(snapshot.number_of_nodes()) if node not in excluded
    ]
    last_index = len(automaton.expression) - 1
    if automaton.expression[last_index].conditions:
        holds = automaton.condition_holds
        nodes = [node for node in nodes if holds(last_index, node)]
    return nodes


def _sweep_forward(
    snapshot: CompiledGraph,
    automaton: CompiledAutomaton,
    sources: Sequence[int],
) -> List[List[int]]:
    """Multi-source sweep from the owners; bit ``i`` stands for ``sources[i]``."""
    sweep = MaskSweep(snapshot, automaton)
    for bit, node in enumerate(sources):
        sweep.seed(node, automaton.start_id, 1 << bit)
    sweep.run()
    audiences: List[List[int]] = [[] for _ in sources]
    bits_of = MaskBitsMemo()
    seen = sweep.seen
    num_states = sweep.num_states
    accept_id = automaton.accept_id
    for node in sorted(sweep.accepts):
        for bit in bits_of[seen[node * num_states + accept_id]]:
            audiences[bit].append(node)
    return audiences


def _sweep_reverse(
    snapshot: CompiledGraph,
    automaton: CompiledAutomaton,
    sources: Sequence[int],
) -> List[List[int]]:
    """Multi-source sweep over the reversed automaton from the whole vertex set.

    Bit ``t`` stands for the candidate *target* node ``t``; the seeds are
    :func:`reverse_seed_nodes`.  A bit reaching an owner's accepting slot
    means the backward walk ``t -> owner`` succeeded, i.e. ``t`` belongs to
    that owner's audience.
    """
    reverse = reversed_automaton(snapshot, automaton.expression)
    sweep = MaskSweep(snapshot, reverse)
    for node in reverse_seed_nodes(automaton):
        sweep.seed(node, reverse.start_id, 1 << node)
    sweep.run()
    masks = dict(sweep.accepted(sources))
    return [_mask_bits(masks.get(node, 0)) for node in sources]


class AudienceSweep:
    """Result of one audience sweep: per-owner audiences plus the plan run.

    ``partial`` is ``True`` when an active query guard ran out of budget
    mid-sweep: the audiences are a correct *under*-approximation (every
    listed member is genuinely reachable) but owners past the trip point may
    be missing members entirely.  Partial sweeps are never cached.
    """

    __slots__ = ("audiences", "plan", "partial")

    def __init__(
        self, audiences: List[List[int]], plan: SweepPlan, partial: bool = False
    ) -> None:
        self.audiences = audiences
        self.plan = plan
        self.partial = partial

    def __iter__(self) -> Iterable[List[int]]:
        return iter(self.audiences)

    def __repr__(self) -> str:
        flag = " partial" if self.partial else ""
        return (
            f"<AudienceSweep {len(self.audiences)} owners via "
            f"{self.plan.direction}{flag}>"
        )


def audience_sweep(
    snapshot: CompiledGraph,
    automaton: CompiledAutomaton,
    sources: Sequence[int],
    *,
    direction: str = "auto",
    plan: Optional[SweepPlan] = None,
) -> AudienceSweep:
    """Materialize the accepted node set of every owner in ``sources`` at once.

    The multi-source form of the ``find_targets`` product walk: one frontier
    pass shared by all owners, with per-slot owner bitmasks instead of one
    walk per owner.
    ``direction`` is resolved by :func:`plan_audience_sweep` unless an
    explicit ``plan`` is handed in.  Distance limits are enforced by the
    automaton's depth-encoded states, exactly as in :func:`product_search`.

    Returns an :class:`AudienceSweep` with one list of accepted node indices
    per source, in input order, and the executed :class:`SweepPlan`.
    """
    if plan is None:
        plan = plan_audience_sweep(
            snapshot, automaton.expression, len(sources), direction=direction
        )
    if plan.direction == "reverse":
        audiences = _sweep_reverse(snapshot, automaton, sources)
    else:
        audiences = _sweep_forward(snapshot, automaton, sources)
    guard = active_guard()
    partial = bool(guard is not None and guard.tripped)
    return AudienceSweep(audiences, plan, partial)
