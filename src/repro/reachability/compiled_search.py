"""Integer product search over a :class:`~repro.graph.compiled.CompiledGraph`.

This module is the shared traversal core of the online evaluators: the
constrained product walk of the paper's BFS / DFS baselines, run entirely on
dense integers.

* :class:`CompiledAutomaton` flattens a :class:`~repro.reachability.
  automaton.StepAutomaton` into per-state lookup lists bound to one graph
  snapshot: labels become label ids, states become consecutive ints, and the
  epsilon-closure of states whose steps carry no attribute conditions is
  precomputed into a shared tuple.  Attribute conditions are evaluated at
  most once per (step, node) thanks to a byte-array memo.
* :class:`MaskSweep` is the one frontier loop.  It walks the product of the
  CSR adjacency and the compiled automaton; a search node is packed into a
  single int (``node * num_states + state``), so its tables only ever hash
  small integers, and each visited slot holds a bitmask of the owners whose
  walk reached it (Python ints over a dense owner index, in sparse dict
  tables, so a sweep costs what it visits rather than ``O(|V|)``).  A point
  query (``evaluate``, ``find_targets``) is a sweep seeded with one bit; its
  ``stop`` node ends the drain once accepted, and on request it keeps packed
  parent links that decode into :class:`~repro.graph.paths.Path` witnesses.
* :func:`audience_sweep` is the batched ``find_targets`` form: a **single
  multi-source product sweep** with one owner bit per source.  Overlapping
  owner neighbourhoods are traversed once — a slot's outgoing CSR rows are
  rescanned only when *new* owner bits arrive — instead of once per owner.
  Being resumable, the sweep is also what every shard of
  :mod:`repro.sharding.router` runs between message rounds.  Like the
  paper's baseline, every audience is walked forward from its owner.

The ``bfs`` and ``dfs`` evaluators are both :class:`CompiledSearchMixin`
and run the same FIFO walk; they differ only in ``name``.  The cache-free
reference these cores are tested against lives in
:mod:`repro.testing.oracle`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
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
    require_social_graph,
)
from repro.graph.paths import Path, Traversal
from repro.graph.social_graph import SocialGraph, UserId
from repro.policy.path_expression import PathExpression
from repro.reachability.result import EvaluationResult
from repro.reliability.guard import active_guard

__all__ = [
    "CompiledAutomaton",
    "AutomatonCache",
    "CompiledSearchMixin",
    "SweepPlan",
    "AudienceSweep",
    "MaskSweep",
    "MaskBitsMemo",
    "audience_sweep",
]

#: A packed CSR edge as stored in parent links: (rel source, rel target,
#: label id, traversed forward?).
_Edge = Tuple[int, int, int, bool]

#: One edge orientation a product state may take: the label's row view
#: ``(offsets, targets, overlay)`` (see :data:`repro.graph.compiled.RowView`),
#: then the label id and whether edges are walked source -> target.  Every
#: row reader (the sweep loop, the row-level tests) reads a node's row the
#: same way: ``overlay[node]`` when the overlay is non-empty and has the
#: node, else the base slice.
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
    a ``name``.  Every query runs :class:`MaskSweep`: a point query seeds
    one bit at the source.  No precomputation: the snapshot is acquired per
    query through ``compile_graph``, so under churn the evaluator rides the
    delta-maintenance path.
    """

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

    def _point_sweep(
        self, source: UserId, expression: PathExpression, *, witness: bool = False
    ) -> "MaskSweep":
        """A sweep seeded with the one bit of ``source``, not yet run."""
        snapshot = compile_graph(self.graph)
        sweep = MaskSweep(snapshot, self._automata.get(expression, snapshot))
        if witness:
            sweep.parents = {}
        sweep.seed(snapshot.index_of(source), sweep.automaton.start_id, 1)
        return sweep

    def evaluate(
        self,
        source: UserId,
        target: UserId,
        expression: PathExpression,
        *,
        collect_witness: bool = True,
    ) -> EvaluationResult:
        """Return whether ``target`` is reachable from ``source`` under ``expression``.

        Counters: ``states_visited`` is the number of product slots reached,
        ``edges_expanded`` the number of CSR entries scanned.
        """
        started = time.perf_counter()
        result = EvaluationResult(reachable=False, backend=self.name)
        sweep = self._point_sweep(source, expression, witness=collect_witness)
        target_index = sweep.snapshot.index_of(target)
        sweep.run(target_index)
        accept_key = target_index * sweep.num_states + sweep.automaton.accept_id
        result.reachable = accept_key in sweep.seen
        if collect_witness and result.reachable:
            result.witness = sweep.witness(target_index)
        result.count("states_visited", len(sweep.seen))
        if sweep.scanned:
            result.count("edges_expanded", sweep.scanned)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def find_targets(self, source: UserId, expression: PathExpression) -> Set[UserId]:
        """Return every user reachable from ``source`` under ``expression``.

        Used to materialize the full authorized audience of an access rule.
        """
        sweep = self._point_sweep(source, expression)
        sweep.run()
        user_of = sweep.snapshot.node_ids
        return {user_of[node] for node in sweep.accepts}

    def sweep_targets_many(
        self, sources: Iterable[UserId], expression: PathExpression
    ) -> Tuple[Dict[UserId, Set[UserId]], "SweepPlan"]:
        """Batched :meth:`find_targets`: one automaton, one shared owner sweep.

        Runs the multi-source owner-bitset sweep (:func:`audience_sweep`).
        Returns ``({owner: audience}, executed SweepPlan)``.
        """
        sources = list(sources)
        snapshot = compile_graph(self.graph)
        automaton = self._automata.get(expression, snapshot)
        indices = [snapshot.index_of(source) for source in sources]
        user_of = snapshot.node_ids
        sweep = audience_sweep(snapshot, automaton, indices)
        audiences = {
            source: {user_of[node] for node in accepted}
            for source, accepted in zip(sources, sweep.audiences)
        }
        return audiences, sweep.plan

    def find_targets_many(
        self, sources, expression: PathExpression
    ) -> Dict[UserId, Set[UserId]]:
        """Audiences-only form of :meth:`sweep_targets_many`."""
        return self.sweep_targets_many(sources, expression)[0]


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
# Multi-source owner-bitset sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPlan:
    """What one audience sweep ran: ``owners`` seed bits, swept forward."""

    owners: int


class MaskSweep:
    """The one traversal loop: a resumable multi-source owner-bitmask sweep.

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

    A point query is a sweep seeded with one bit.  :meth:`run` may then be
    given a ``stop`` node, and setting ``parents`` to an empty dict before
    seeding records, on each slot's first visit, ``slot -> (parent slot,
    packed edge)``; :meth:`witness` decodes those links into a path.  The
    FIFO worklist makes every decoded witness a shortest one.  Parent links
    are defined only for one-bit sweeps: in a wider sweep the first visitor
    of a slot need not lie on every owner's walk.
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
        "parents",
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
        #: ``slot -> (parent slot, packed edge)`` when witnesses are wanted.
        self.parents: Optional[Dict[int, Tuple[Optional[int], Optional[_Edge]]]] = None

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
            if not previous and self.parents is not None:
                self.parents[key] = (None, None)
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

    def run(self, stop: Optional[int] = None) -> bool:
        """Drain the worklist; ``False`` when a guard budget cut it short.

        An active guard is charged once per popped (expanding) slot plus the
        CSR entries scanned since the previous pop.  With ``stop`` the drain
        ends once that node's accept slot is in ``seen``; the slot being
        expanded at that moment goes back on the worklist with its owner
        bits, so a later ``run()`` resumes to the same fixpoint.
        """
        guard = active_guard()
        queue = self.queue
        head = self.head
        seen = self.seen
        pending = self.pending
        parents = self.parents
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
        if stop is not None and stop * num_states + accept_id in seen:
            return True
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
                for offsets, targets, overlay, label_id, forward in state_moves[state]:
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
                                if parents is not None:
                                    parents[neighbor_key] = (
                                        key,
                                        (node, neighbor, label_id, True)
                                        if forward
                                        else (neighbor, node, label_id, False),
                                    )
                                if expands[closed]:
                                    pending[neighbor_key] = delta
                                    queue.append(neighbor_key)
                                elif closed == accept_id:
                                    accepts.append(neighbor)
                                    if neighbor == stop:
                                        # Requeue the slot mid-expansion: its
                                        # bits have not reached every edge yet.
                                        head -= 1
                                        pending[key] = pending.get(key, 0) | delta
                                        return True
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
            # However the loop ended (drained, stopped, tripped, raised), the tables
            # and the worklist position stay consistent for a later run().
            self.head = head
            self.scanned += scanned

    def witness(self, node: int) -> Optional[Path]:
        """Decode the parent links into the path to ``node``'s accept slot.

        ``None`` when no links were kept or the node was not accepted.
        """
        parents = self.parents
        key = node * self.num_states + self.automaton.accept_id
        if parents is None or key not in parents:
            return None
        edges: List[_Edge] = []
        parent, edge = parents[key]
        while edge is not None:
            edges.append(edge)
            key = parent
            parent, edge = parents[key]
        snapshot = self.snapshot
        traversals = [
            Traversal(snapshot.relationship(rel_source, rel_target, label_id), forward=forward)
            for rel_source, rel_target, label_id, forward in reversed(edges)
        ]
        return Path(snapshot.user_of(key // self.num_states), traversals)

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
        return f"<AudienceSweep {len(self.audiences)} owners{flag}>"


def audience_sweep(
    snapshot: CompiledGraph,
    automaton: CompiledAutomaton,
    sources: Sequence[int],
) -> AudienceSweep:
    """Materialize the accepted node set of every owner in ``sources`` at once.

    The multi-source form of :meth:`CompiledSearchMixin.find_targets`: the
    same :class:`MaskSweep`, seeded with one owner bit per source instead of
    one sweep per owner.  Distance limits are enforced by the automaton's
    depth-encoded states.

    Returns an :class:`AudienceSweep` with one list of accepted node indices
    per source, in input order, and the executed :class:`SweepPlan`.
    """
    audiences = _sweep_forward(snapshot, automaton, sources)
    guard = active_guard()
    partial = bool(guard is not None and guard.tripped)
    return AudienceSweep(audiences, SweepPlan(owners=len(sources)), partial)
