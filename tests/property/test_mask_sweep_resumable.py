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


def _assert_drained_tables(sweep):
    """The sparse tables' invariants after a drain, and both decode forms agree."""
    assert all(sweep.seen.values())  # a key is in seen iff its mask is non-zero
    assert not sweep.pending
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
    assert resumed.run()  # the budget is lifted: no guard in scope
    assert not resumed.has_work()
    _assert_drained_tables(unguarded)
    _assert_drained_tables(resumed)
    assert resumed.seen == unguarded.seen
    assert resumed.scanned == unguarded.scanned  # a resume re-scans nothing
    assert _audiences(resumed, owners) == {
        owner: reference_targets(graph, owner, expression) for owner in owners
    }
