"""Shard-local query execution with message-shaped cross-shard escalation.

:class:`ShardRouter` is a reachability *evaluator* (the duck-typed seam
:class:`~repro.reachability.engine.ReachabilityEngine` accepts instead of a
backend name): it answers reach / audience / access / bulk shapes over a
:class:`~repro.sharding.shard.ShardedGraph` by running the PR 3 owner-bitset
product sweep **inside each shard** and escalating across shards only
through explicit messages.

Execution model — bulk-synchronous product sweep
------------------------------------------------
Each shard keeps a persistent :class:`_ShardSweepState`: a resumable
:class:`~repro.reachability.compiled_search.MaskSweep` (the same core the
unsharded audience sweep runs once) plus the shard's ghost list.  A round
seeds the pending messages, runs every touched shard's worklist to
exhaustion, then exports the mask deltas that accumulated on **ghost** slots
as ``(user, state, mask)`` messages routed to the ghost's home shard.  Masks
only ever grow, so the rounds reach exactly the fixpoint of the global
product walk — the differential harness in
``tests/property/test_shard_equivalence.py`` holds the router to the
unsharded four-backend answers on every query shape.  The message seam is
deliberately value-shaped (user ids, automaton state ids, int masks): the
multiprocess pool in :mod:`repro.sharding.multiproc` ships the same triples
over pipes, and a remote transport could ship them over a network.

Point queries add a pruning tier: when the local walk spills over a
boundary edge and the expression is forward-only, the
:class:`~repro.sharding.summary.BoundarySummary` refutes most dead-end
escalations with bitset probes before any other shard is touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graph.compiled import CompiledGraph, compile_graph, register_derived_policy
from repro.policy.path_expression import PathExpression, as_path_expression
from repro.policy.steps import Direction
from repro.reachability.compiled_search import (
    SWEEP_DIRECTIONS,
    CompiledAutomaton,
    MaskBitsMemo,
    MaskSweep,
    SweepPlan,
    plan_audience_sweep,
    reverse_seed_nodes,
    reversed_expression,
)
from repro.reachability.result import EvaluationResult
from repro.sharding.shard import GHOST_ATTR, ShardedGraph
from repro.sharding.summary import BoundarySummary

__all__ = ["ShardRouter", "ShardSweepPlan"]

_GHOSTS_KEY = "sharding.ghosts"
# Ghost membership only changes with node/edge structure, never with
# attribute-only deltas — the same survival rule as the line index.
register_derived_policy(_GHOSTS_KEY, "structural")


def ghost_indices(snapshot: CompiledGraph) -> List[int]:
    """Ghost node indices of one shard snapshot (cached on the snapshot)."""
    cached = snapshot.derived.get(_GHOSTS_KEY)
    if cached is None:
        dead = snapshot.dead_slots
        cached = [
            node
            for node in range(snapshot.number_of_nodes())
            if node not in dead and snapshot.attributes_of(node).get(GHOST_ATTR)
        ]
        snapshot.derived[_GHOSTS_KEY] = cached
    return cached


@dataclass(frozen=True)
class ShardSweepPlan(SweepPlan):
    """A :class:`SweepPlan` annotated with the sharded execution's shape.

    ``partial_shards`` is the per-shard partial provenance: the shards whose
    worklists were cut off (or whose messages went undelivered) when an
    active :class:`~repro.reliability.guard.QueryGuard` ran out of budget —
    empty on complete sweeps.
    """

    shards: int = 0
    rounds: int = 0
    messages: int = 0
    escalated: bool = False
    partial_shards: Tuple[int, ...] = ()


class _ShardSweepState(MaskSweep):
    """One shard's :class:`MaskSweep`, plus what only a shard has.

    The sweep core is inherited whole — seeds arrive between runs (messages
    seed arbitrary automaton states, not just the start state) and the
    worklist survives a guard trip, both of which ``MaskSweep`` provides.
    Shard-specific are the **ghost** slots (mirrors of users another shard
    owns) and the record of which of their mask bits were already exported.
    """

    __slots__ = ("ghosts", "sent")

    def __init__(self, snapshot: CompiledGraph, automaton: CompiledAutomaton) -> None:
        super().__init__(snapshot, automaton)
        self.ghosts = ghost_indices(snapshot)
        self.sent: Dict[int, int] = {}

    def deliver(self, messages: Iterable[Tuple[Hashable, int, int]]) -> None:
        """Seed ``(user, state, mask)`` messages; state ``-1`` is the start state."""
        index_of = self.snapshot.index_of
        start_id = self.automaton.start_id
        for user, state_id, mask in messages:
            self.seed(index_of(user), start_id if state_id < 0 else state_id, mask)

    def accepted_owned(self) -> Iterator[Tuple[int, int]]:
        """:meth:`accepted` over the nodes this shard owns.

        A ghost's accept slot is skipped: the home shard holds the canonical
        mask (every bit a ghost gathers is exported there).
        """
        ghosts = set(self.ghosts)
        return (
            (node, mask) for node, mask in self.accepted() if node not in ghosts
        )

    def export(self) -> List[Tuple[Hashable, int, int]]:
        """New ghost-slot mask bits since the last export, as messages."""
        messages: List[Tuple[Hashable, int, int]] = []
        num_states = self.num_states
        user_of = self.snapshot.node_ids
        seen = self.seen
        sent = self.sent
        for node in self.ghosts:
            base = node * num_states
            for state in range(num_states):
                mask = seen.get(base + state, 0)
                if not mask:
                    continue
                delta = mask & ~sent.get(base + state, 0)
                if delta:
                    sent[base + state] = mask
                    messages.append((user_of[node], state, delta))
        return messages


class ShardRouter:
    """Evaluator routing queries shard-locally, escalating via messages."""

    name = "sharded"

    def __init__(self, sharded: ShardedGraph, *, summary_limit: int = 4096) -> None:
        self.sharded = sharded
        self.summary_limit = summary_limit
        self._summary: Optional[BoundarySummary] = None
        self._summary_epoch: Optional[int] = None
        #: Observability, surfaced through ``GraphService.statistics()``.
        self.queries = 0
        self.point_queries = 0
        self.sweeps = 0
        self.local_queries = 0
        self.escalated_queries = 0
        self.summary_prunes = 0
        self.messages_sent = 0
        self.rounds_run = 0

    # --------------------------------------------------------------- helpers

    def refresh(self) -> None:
        """Bring the shards (and drop stale summaries) up to the live epoch."""
        self.sharded.refresh()
        if self._summary_epoch != self.sharded.graph.epoch:
            self._summary = None

    def _summary_obj(self) -> BoundarySummary:
        epoch = self.sharded.graph.epoch
        if self._summary is None or self._summary_epoch != epoch:
            self._summary = BoundarySummary(self.sharded, limit=self.summary_limit)
            self._summary_epoch = epoch
        return self._summary

    @property
    def escalation_rate(self) -> float:
        """Lifetime share of routed queries that crossed a shard boundary."""
        return self.escalated_queries / max(1, self.queries)

    def _home_of(self, user: Hashable) -> int:
        if not self.sharded.graph.has_user(user):
            raise NodeNotFoundError(f"user {user!r} is not in the graph")
        return self.sharded.shard_of(user)

    def _state_factory(self, expression: PathExpression):
        """Per-shard lazily created sweep states over one automaton."""
        snapshots = self.sharded.snapshots()
        states: Dict[int, _ShardSweepState] = {}

        def state_for(shard: int) -> _ShardSweepState:
            state = states.get(shard)
            if state is None:
                snapshot = snapshots[shard]
                state = states[shard] = _ShardSweepState(
                    snapshot, CompiledAutomaton(expression, snapshot)
                )
            return state

        return states, state_for

    def _run_rounds(
        self,
        states: Dict[int, _ShardSweepState],
        state_for,
        messages: Dict[int, List[Tuple[Hashable, int, int]]],
        *,
        stop_check=None,
    ) -> Tuple[int, int, bool, bool]:
        """Drive BSP rounds to quiescence (or budget/early exit).

        Returns ``(rounds, message_count, escalated, tripped)``.
        ``messages`` maps shard -> ``(user, state, mask)`` seeds
        (:meth:`_ShardSweepState.deliver`).  ``stop_check`` short-circuits
        between rounds
        (point queries stop as soon as the target accepts).
        """
        rounds = 0
        message_count = 0
        escalated = False
        tripped = False
        while messages and not tripped:
            rounds += 1
            for shard in sorted(messages):
                state_for(shard).deliver(messages[shard])
            outgoing: Dict[int, List[Tuple[Hashable, int, int]]] = {}
            for shard in sorted(messages):
                state = states[shard]
                if not state.run():
                    tripped = True
                    break
                for user, state_id, mask in state.export():
                    home = self.sharded.shard_of(user)
                    outgoing.setdefault(home, []).append((user, state_id, mask))
                    message_count += 1
            if outgoing:
                escalated = True
            messages = outgoing
            if stop_check is not None and stop_check():
                break
        self.rounds_run += rounds
        self.messages_sent += message_count
        return rounds, message_count, escalated, tripped

    @staticmethod
    def _partial_shards(states: Dict[int, _ShardSweepState]) -> Tuple[int, ...]:
        return tuple(
            sorted(
                shard
                for shard, state in states.items()
                if state.tripped or state.has_work()
            )
        )

    # ------------------------------------------------------------ point form

    def evaluate(
        self,
        source: Hashable,
        target: Hashable,
        expression,
        *,
        collect_witness: bool = False,
    ) -> EvaluationResult:
        """Point reachability: shard-local first, summary-pruned escalation.

        Witness collection is not offered by the sharded walk (masks carry
        no parent links); ``witness`` is always ``None``, exactly like the
        multi-source sweep the audiences ride on.
        """
        expression = as_path_expression(expression)
        self.refresh()
        self.queries += 1
        self.point_queries += 1
        home = self._home_of(source)
        self._home_of(target)  # validate the target before any sweep work
        states, state_for = self._state_factory(expression)

        def accepted() -> bool:
            for state in states.values():
                index = state.snapshot.node_index.get(target)
                if index is not None and any(state.accepted((index,))):
                    return True
            return False

        # Round 0: the owner's shard alone.
        state = state_for(home)
        state.deliver([(source, -1, 1)])
        state.run()
        result = EvaluationResult(reachable=False, backend=self.name)
        if accepted():
            self.local_queries += 1
            result.reachable = True
            result.count("shards_touched", len(states))
            return result
        exports = state.export()
        if not exports:
            self.local_queries += 1
            result.count("shards_touched", len(states))
            return result
        forward_only = all(
            step.direction is Direction.OUTGOING for step in expression
        )
        if forward_only:
            exits = {user for user, _state, _mask in exports}
            if not self._summary_obj().may_reach(exits, target):
                # No directed path from any boundary exit to the target at
                # all — the constrained walk certainly has none either.
                self.summary_prunes += 1
                self.local_queries += 1
                result.count("shards_touched", len(states))
                result.count("summary_pruned", 1)
                return result
        self.escalated_queries += 1
        messages: Dict[int, List[Tuple[Hashable, int, int]]] = {}
        for user, state_id, mask in exports:
            messages.setdefault(self.sharded.shard_of(user), []).append(
                (user, state_id, mask)
            )
        rounds, message_count, _escalated, _tripped = self._run_rounds(
            states, state_for, messages, stop_check=accepted
        )
        result.reachable = accepted()
        result.count("shards_touched", len(states))
        result.count("rounds", rounds + 1)
        result.count("messages", message_count + len(exports))
        return result

    def is_reachable(self, source, target, expression) -> bool:
        return self.evaluate(source, target, expression).reachable

    def find_targets(self, source: Hashable, expression) -> Set[Hashable]:
        """Every user reachable from ``source`` (single-owner audience)."""
        audiences, _plan = self.sweep_targets_many([source], expression)
        return audiences[source]

    # ------------------------------------------------------------ bulk forms

    def sweep_targets_many(
        self,
        sources,
        expression,
        *,
        direction: str = "auto",
    ) -> Tuple[Dict[Hashable, Set[Hashable]], ShardSweepPlan]:
        """Materialize many owners' audiences via per-shard mask sweeps."""
        if direction not in SWEEP_DIRECTIONS:
            raise ValueError(
                f"unknown sweep direction {direction!r}; expected one of "
                f"{SWEEP_DIRECTIONS}"
            )
        expression = as_path_expression(expression)
        self.refresh()
        sources = list(dict.fromkeys(sources))
        self.queries += 1
        self.sweeps += 1
        base_plan = plan_audience_sweep(
            compile_graph(self.sharded.graph),
            expression,
            len(sources),
            direction=direction,
        )
        if base_plan.direction == "reverse":
            audiences, states, rounds, messages, escalated, tripped = (
                self._reverse_sweep(sources, expression)
            )
        else:
            audiences, states, rounds, messages, escalated, tripped = (
                self._forward_sweep(sources, expression)
            )
        if escalated:
            self.escalated_queries += 1
        else:
            self.local_queries += 1
        partial = self._partial_shards(states) if tripped else ()
        plan = ShardSweepPlan(
            direction=base_plan.direction,
            forced=base_plan.forced,
            owners=len(sources),
            forward_cost=base_plan.forward_cost,
            reverse_cost=base_plan.reverse_cost,
            reason=(
                f"{base_plan.reason}; sharded across "
                f"{self.sharded.shard_count} shards"
            ),
            shards=len(states),
            rounds=rounds,
            messages=messages,
            escalated=escalated,
            partial_shards=partial,
        )
        return audiences, plan

    def _forward_sweep(self, sources, expression: PathExpression):
        states, state_for = self._state_factory(expression)
        seeds: Dict[int, List[Tuple[Hashable, int, int]]] = {}
        for bit, user in enumerate(sources):
            seeds.setdefault(self._home_of(user), []).append((user, -1, 1 << bit))
        rounds, messages, escalated, tripped = self._run_rounds(
            states, state_for, seeds
        )
        audiences: Dict[Hashable, Set[Hashable]] = {
            source: set() for source in sources
        }
        bits_of = MaskBitsMemo()
        for state in states.values():
            user_of = state.snapshot.node_ids
            for node, mask in state.accepted_owned():
                user = user_of[node]
                for bit in bits_of[mask]:
                    audiences[sources[bit]].add(user)
        return audiences, states, rounds, messages, escalated, tripped

    def _reverse_sweep(self, sources, expression: PathExpression):
        """Global-bit reverse sweep: every shard seeds its owned vertex set.

        Bit ``g`` stands for the user with :attr:`ShardedGraph.global_ids`
        id ``g``; per shard the seeds are the unsharded sweep's
        :func:`~repro.reachability.compiled_search.reverse_seed_nodes`, minus
        the ghosts (their home shard seeds them).
        """
        for user in sources:
            self._home_of(user)  # validate before any work
        states, state_for = self._state_factory(reversed_expression(expression))
        global_ids = self.sharded.global_ids
        seeds: Dict[int, List[Tuple[Hashable, int, int]]] = {}
        for shard, snapshot in enumerate(self.sharded.snapshots()):
            if not snapshot.number_of_live_nodes():
                continue
            user_of = snapshot.node_ids
            shard_seeds = [
                (user_of[node], -1, 1 << global_ids[user_of[node]])
                for node in reverse_seed_nodes(
                    CompiledAutomaton(expression, snapshot),
                    set(ghost_indices(snapshot)),
                )
            ]
            if shard_seeds:
                seeds[shard] = shard_seeds
        rounds, messages, escalated, tripped = self._run_rounds(
            states, state_for, seeds
        )
        user_by_gid = {gid: user for user, gid in global_ids.items()}
        audiences: Dict[Hashable, Set[Hashable]] = {}
        bits_of = MaskBitsMemo()
        for owner in sources:
            members: Set[Hashable] = set()
            state = states.get(self.sharded.shard_of(owner))
            if state is not None:
                # At most one entry: the owner's own accept mask, if non-empty.
                for _node, mask in state.accepted((state.snapshot.index_of(owner),)):
                    members = {user_by_gid[bit] for bit in bits_of[mask]}
            audiences[owner] = members
        return audiences, states, rounds, messages, escalated, tripped

    # ----------------------------------------------------------------- stats

    def statistics(self) -> Dict[str, float]:
        """Router counters (all floats, ``shard_``-prefixed by the facade)."""
        return {
            "count": float(self.sharded.shard_count),
            "queries": float(self.queries),
            "point_queries": float(self.point_queries),
            "sweeps": float(self.sweeps),
            "local_queries": float(self.local_queries),
            "escalated_queries": float(self.escalated_queries),
            "summary_prunes": float(self.summary_prunes),
            "messages": float(self.messages_sent),
            "rounds": float(self.rounds_run),
            "boundary_edges": float(self.sharded.boundary_edge_count),
            "refresh_deltas": float(self.sharded.refresh_outcomes["delta"]),
            "refresh_rebuilds": float(self.sharded.refresh_outcomes["rebuild"]),
        }

    def __repr__(self) -> str:
        return f"<ShardRouter over {self.sharded!r}>"
