"""Resumability of :class:`~repro.reachability.compiled_search.MaskSweep`.

The one mask-propagation core is run to exhaustion once by the unsharded
audience sweep and *resumed* by every shard of the router: seeds arrive in
instalments between runs, and a guard trip leaves the worklist in place.
Masks only ever grow, so however the work is cut up the tables must reach
the same fixpoint — on arbitrary small graphs and expressions:

* seeding in two instalments with a ``run()`` between equals seeding once;
* a run cut short by ``QueryGuard(max_steps=n)`` — returning early in
  ``"partial"`` mode, raising in ``"raise"`` mode — and resumed once the
  budget is lifted reaches the same ``seen`` table as an unguarded run;
* after a drain the sparse tables hold no zero mask and nothing pending,
  and decoding the visited accept slots equals probing every node;
* the accepted sets equal :mod:`repro.testing.oracle`.

Terminal slots (the accept state, every max-depth state) are written to
``seen`` but never queued, and accept slots are recorded on first visit.
Between any two calls — after a seed at any state, a drain, or a guard
trip — the ``accepts`` record must equal a scan of ``seen`` with no node
twice, and no ``pending`` or queued key may belong to a state that takes no
edge; forward and reverse automata over attribute-conditioned expressions
(whose closures are not static) are both held to it.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryBudgetExceeded
from repro.graph.compiled import compile_graph
from repro.reachability.compiled_search import (
    CompiledAutomaton,
    MaskBitsMemo,
    MaskSweep,
    reverse_seed_nodes,
    reversed_automaton,
)
from repro.reliability.guard import QueryGuard
from repro.testing.graphs import LABELS, adversarial_graph
from repro.testing.oracle import reference_targets
from repro.workloads.queries import random_expression
from tests.property.test_property_backends import SETTINGS


def _material(seed):
    rng = random.Random(seed)
    graph = adversarial_graph(rng, users=(3, 12), edges_per_user=(1, 3))
    expression = random_expression(
        rng, LABELS, max_steps=3, max_depth=3, condition_probability=0.3
    )
    users = sorted(graph.users(), key=str)
    owners = rng.sample(users, rng.randint(1, min(4, len(users))))
    return graph, expression, owners


def _fresh_sweep(graph, expression):
    snapshot = compile_graph(graph)
    return MaskSweep(snapshot, CompiledAutomaton(expression, snapshot))


def _seed(sweep, owners, bits):
    for bit in bits:
        sweep.seed(
            sweep.snapshot.index_of(owners[bit]), sweep.automaton.start_id, 1 << bit
        )


def _audiences(sweep, owners):
    """Decode the accept slots the way every caller of the core does."""
    user_of = sweep.snapshot.node_ids
    audiences = {owner: set() for owner in owners}
    bits_of = MaskBitsMemo()
    for node, mask in sweep.accepted():
        for bit in bits_of[mask]:
            audiences[owners[bit]].add(user_of[node])
    return audiences


def _assert_record_and_worklist(sweep):
    """The accept record equals a scan of ``seen``; only expanding slots queue."""
    num_states = sweep.num_states
    automaton = sweep.automaton
    scan = sorted(
        (key // num_states, mask)
        for key, mask in sweep.seen.items()
        if key % num_states == automaton.accept_id
    )
    assert sorted(sweep.accepted()) == scan
    assert len(sweep.accepts) == len(set(sweep.accepts))
    # A state expands iff it may take one more edge of its step.
    assert all(automaton.can_more[key % num_states] for key in sweep.pending)
    assert all(automaton.can_more[key % num_states] for key in sweep.queue)
    assert sweep.pending.keys() <= sweep.seen.keys()


def _assert_drained_tables(sweep):
    """The sparse tables' invariants after a drain, and both decode forms agree."""
    assert all(sweep.seen.values())  # a key is in seen iff its mask is non-zero
    assert not sweep.pending
    _assert_record_and_worklist(sweep)
    every_node = range(sweep.snapshot.number_of_nodes())
    assert set(sweep.accepted()) == set(sweep.accepted(every_node))


@given(st.integers(0, 10**6), st.integers(0, 4))
@settings(**SETTINGS)
def test_seeding_in_instalments_equals_seeding_once(seed, cut):
    graph, expression, owners = _material(seed)
    cut = min(cut, len(owners))
    once = _fresh_sweep(graph, expression)
    _seed(once, owners, range(len(owners)))
    assert once.run() and not once.has_work()

    twice = _fresh_sweep(graph, expression)
    _seed(twice, owners, range(cut))
    assert twice.run() and not twice.has_work()
    _seed(twice, owners, range(cut, len(owners)))
    assert twice.run() and not twice.has_work()

    assert twice.seen == once.seen
    _assert_drained_tables(once)
    _assert_drained_tables(twice)
    assert _audiences(once, owners) == {
        owner: reference_targets(graph, owner, expression) for owner in owners
    }


@given(
    st.integers(0, 10**6),
    st.integers(1, 12),
    st.sampled_from([QueryGuard.PARTIAL, QueryGuard.RAISE]),
)
@settings(**SETTINGS)
def test_a_guard_trip_is_resumable(seed, budget, mode):
    graph, expression, owners = _material(seed)
    unguarded = _fresh_sweep(graph, expression)
    _seed(unguarded, owners, range(len(owners)))
    assert unguarded.run()
    assert not unguarded.tripped

    resumed = _fresh_sweep(graph, expression)
    _seed(resumed, owners, range(len(owners)))
    guard = QueryGuard(max_steps=budget)
    with guard.scope(mode):
        try:
            complete = resumed.run()
        except QueryBudgetExceeded:
            complete = False
    assert complete == (not guard.tripped)
    assert resumed.tripped == (guard.tripped and mode == QueryGuard.PARTIAL)
    if not complete:
        # Cut short: the worklist is kept, and what was reached so far is an
        # under-approximation of the fixpoint, never something outside it.
        assert resumed.has_work()
        assert all(
            partial & ~unguarded.seen.get(key, 0) == 0
            for key, partial in resumed.seen.items()
        )
        _assert_record_and_worklist(resumed)
    assert resumed.run()  # the budget is lifted: no guard in scope
    assert not resumed.has_work()
    _assert_drained_tables(unguarded)
    _assert_drained_tables(resumed)
    assert resumed.seen == unguarded.seen
    assert resumed.scanned == unguarded.scanned  # a resume re-scans nothing
    assert _audiences(resumed, owners) == {
        owner: reference_targets(graph, owner, expression) for owner in owners
    }


def _conditioned_material(seed):
    """Small graph plus an expression whose steps mostly carry conditions."""
    rng = random.Random(seed)
    graph = adversarial_graph(rng, users=(3, 12), edges_per_user=(1, 3))
    expression = random_expression(
        rng, LABELS, max_steps=3, max_depth=3, condition_probability=0.7
    )
    return rng, graph, expression


@given(st.integers(0, 10**6))
@settings(**SETTINGS)
def test_the_accept_record_matches_seen_on_forward_and_reverse_automata(seed):
    rng, graph, expression = _conditioned_material(seed)
    users = sorted(graph.users(), key=str)
    owners = rng.sample(users, rng.randint(1, min(4, len(users))))
    forward = _fresh_sweep(graph, expression)
    _seed(forward, owners, range(len(owners)))
    _assert_record_and_worklist(forward)
    assert forward.run()
    _assert_drained_tables(forward)
    assert _audiences(forward, owners) == {
        owner: reference_targets(graph, owner, expression) for owner in owners
    }

    # The reverse sweep: bit t stands for target t, read at each owner.
    snapshot = forward.snapshot
    backward = MaskSweep(snapshot, reversed_automaton(snapshot, expression))
    for node in reverse_seed_nodes(forward.automaton):
        backward.seed(node, backward.automaton.start_id, 1 << node)
    _assert_record_and_worklist(backward)
    assert backward.run()
    _assert_drained_tables(backward)
    user_of = snapshot.node_ids
    masks = dict(backward.accepted())
    bits_of = MaskBitsMemo()
    for owner in users:
        mask = masks.get(snapshot.index_of(owner), 0)
        assert {user_of[bit] for bit in bits_of[mask]} == reference_targets(
            graph, owner, expression
        )


@given(st.integers(0, 10**6), st.booleans())
@settings(**SETTINGS)
def test_seeds_at_arbitrary_states_keep_the_record(seed, reverse):
    """The router's ``deliver`` path: seeds at any state, the accept state too."""
    rng, graph, expression = _conditioned_material(seed)
    snapshot = compile_graph(graph)
    automaton = (
        reversed_automaton(snapshot, expression)
        if reverse
        else CompiledAutomaton(expression, snapshot)
    )
    sweep = MaskSweep(snapshot, automaton)
    nodes = range(snapshot.number_of_nodes())
    seeds = []
    for _ in range(rng.randint(1, 8)):
        state = rng.choice([automaton.accept_id, rng.randrange(automaton.num_states)])
        seeds.append((rng.choice(nodes), state, 1 << rng.randrange(6)))
    once = MaskSweep(snapshot, automaton)
    for node, state, mask in seeds:
        once.seed(node, state, mask)
    assert once.run()
    for index, (node, state, mask) in enumerate(seeds):
        sweep.seed(node, state, mask)
        _assert_record_and_worklist(sweep)
        if index % 2:
            assert sweep.run()
            _assert_drained_tables(sweep)
    assert sweep.run()
    _assert_drained_tables(sweep)
    _assert_drained_tables(once)
    assert sweep.seen == once.seen
    assert sorted(sweep.accepts) == sorted(once.accepts)
