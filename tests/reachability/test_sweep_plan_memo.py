"""Sweep plans are memoized per snapshot.

:func:`~repro.reachability.compiled_search.plan_audience_sweep` reads only
the snapshot's ``degree_statistics()`` and live node count, so its verdict is
cached in ``snapshot.derived`` per ``(expression text, owner count,
direction)`` under the ``"structural"`` delta policy: edge and user patches
re-plan, attribute-only patches keep the memo, and the memo is bounded.
"""

from __future__ import annotations

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression
from repro.reachability.compiled_search import (
    SWEEP_PLAN_MEMO_LIMIT,
    _SWEEP_PLANS_KEY,
    plan_audience_sweep,
)

EXPRESSION = PathExpression.parse("friend+[1,2]/colleague+[1]")


def _graph():
    graph = SocialGraph()
    for user in ("a", "b", "c", "d"):
        graph.add_user(user, age=30)
    graph.add_relationship("a", "b", "friend")
    graph.add_relationship("b", "c", "friend")
    graph.add_relationship("c", "d", "colleague")
    return graph


def test_a_repeated_key_returns_the_same_plan():
    snapshot = compile_graph(_graph())
    plan = plan_audience_sweep(snapshot, EXPRESSION, 3)
    assert plan_audience_sweep(snapshot, EXPRESSION, 3) is plan
    assert plan_audience_sweep(snapshot, PathExpression.parse(EXPRESSION.to_text()), 3) is plan
    assert plan_audience_sweep(snapshot, EXPRESSION, 2) is not plan


def test_an_edge_add_replans_and_an_attribute_update_does_not():
    graph = _graph()
    snapshot = compile_graph(graph)
    plan = plan_audience_sweep(snapshot, EXPRESSION, 2)
    graph.update_user("a", age=31)
    assert compile_graph(graph) is snapshot
    assert plan_audience_sweep(snapshot, EXPRESSION, 2) is plan

    graph.add_relationship("d", "a", "colleague")
    assert compile_graph(graph) is snapshot  # patched in place, memo dropped
    replanned = plan_audience_sweep(snapshot, EXPRESSION, 2)
    assert replanned is not plan
    assert replanned.reverse_cost != plan.reverse_cost  # the new edge is priced


def test_a_user_add_replans():
    graph = _graph()
    snapshot = compile_graph(graph)
    plan = plan_audience_sweep(snapshot, EXPRESSION, 2)
    graph.add_user("e", age=40)
    assert compile_graph(graph) is snapshot
    replanned = plan_audience_sweep(snapshot, EXPRESSION, 2)
    assert replanned is not plan
    assert f"over {snapshot.number_of_live_nodes()} nodes" in replanned.reason


def test_a_pinned_direction_is_a_separate_key():
    snapshot = compile_graph(_graph())
    auto = plan_audience_sweep(snapshot, EXPRESSION, 2)
    forward = plan_audience_sweep(snapshot, EXPRESSION, 2, direction="forward")
    reverse = plan_audience_sweep(snapshot, EXPRESSION, 2, direction="reverse")
    assert not auto.forced
    assert (forward.direction, forward.forced) == ("forward", True)
    assert (reverse.direction, reverse.forced) == ("reverse", True)
    assert plan_audience_sweep(snapshot, EXPRESSION, 2, direction="forward") is forward
    assert plan_audience_sweep(snapshot, EXPRESSION, 2) is auto
    assert len(snapshot.derived[_SWEEP_PLANS_KEY]) == 3


def test_an_unknown_direction_is_refused_and_not_memoized():
    snapshot = compile_graph(_graph())
    with pytest.raises(ValueError, match="unknown sweep direction"):
        plan_audience_sweep(snapshot, EXPRESSION, 2, direction="sideways")
    assert not snapshot.derived.get(_SWEEP_PLANS_KEY)


def test_the_memo_never_grows_past_its_bound():
    snapshot = compile_graph(_graph())
    first = plan_audience_sweep(snapshot, EXPRESSION, 1)
    for owners in range(2, 2 * SWEEP_PLAN_MEMO_LIMIT + 40):
        plan_audience_sweep(snapshot, EXPRESSION, owners)
        assert 1 <= len(snapshot.derived[_SWEEP_PLANS_KEY]) <= SWEEP_PLAN_MEMO_LIMIT
    # The first entry went with a full memo; the newest is still memoized.
    assert plan_audience_sweep(snapshot, EXPRESSION, 1) is not first
    last = 2 * SWEEP_PLAN_MEMO_LIMIT + 39
    assert plan_audience_sweep(snapshot, EXPRESSION, last) is plan_audience_sweep(
        snapshot, EXPRESSION, last
    )
