"""Churn differential for pinned backends, index backends above all.

Every pin — each registered backend, the cluster index built without reverse
line vertices, and the shard route — runs in its own :class:`GraphService`
over its own replica of one seeded adversarial graph, and identical mutation
bursts hit every replica.  A burst mixes edge adds and removes, a user
removal whose slot the next added user reuses, and a removed edge added
back.  After every burst each pin's reach and audience answers must equal
:mod:`repro.testing.oracle` on the live graph: a stale pinned index rebuilds
before it answers.

A directly held :class:`ClusterIndexEvaluator` is the other half of that
contract: through every burst it keeps answering from its build-time
snapshot (still pinned, epoch unchanged), and only ``build()`` moves it on.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.compiled import compile_graph
from repro.policy.steps import Direction
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.engine import available_backends
from repro.service import GraphService
from repro.testing.graphs import LABELS, adversarial_graph
from repro.testing.oracle import reference_reachable, reference_targets
from repro.workloads.generator import apply_churn_op
from repro.workloads.queries import random_expression

SEEDS = range(10)
BURSTS = 4
EXPRESSIONS_PER_CHECK = 3
PAIRS_PER_EXPRESSION = 3

#: Pin name -> the GraphService keywords that pin it.
PINS = {
    **{name: {"default_backend": name} for name in available_backends()},
    "cluster-index/forward-only": {
        "default_backend": "cluster-index",
        "backend_options": {"cluster-index": {"include_reverse": False}},
    },
    "sharded": {"default_backend": "sharded", "shards": 2},
}


def _graph(seed):
    return adversarial_graph(
        random.Random(3_000_000 + seed), users=(8, 14), edges_per_user=(1, 3)
    )


def _burst(graph, rng, serial):
    """Draw one mixed burst against ``graph``, applying it as it goes.

    Returns the ops so the same burst replays on every replica.
    """
    ops = []

    def run(op):
        apply_churn_op(graph, op)
        ops.append(op)

    edges = sorted((r.source, r.target, r.label) for r in graph.relationships())
    removed = rng.sample(edges, min(2, len(edges)))
    for edge in removed:
        run(("remove_edge", *edge))
    # The newcomer takes the slot the victim's removal freed.
    victim = rng.choice(sorted(graph.users()))
    run(("remove_user", victim))
    run(("add_user", f"n{serial}"))
    users = sorted(graph.users())
    for _ in range(3):
        edge = (rng.choice(users), rng.choice(users), rng.choice(LABELS))
        if not graph.has_relationship(*edge):
            run(("add_edge", *edge))
    for edge in removed:
        if victim not in edge[:2] and not graph.has_relationship(*edge):
            run(("add_edge", *edge))
            break
    return ops


def _forward_only(expression):
    return all(step.direction is Direction.OUTGOING for step in expression)


def _check(truth, services, rng):
    """Every pin answers like the oracle on the live graph."""
    users = sorted(truth.users())
    for _ in range(EXPRESSIONS_PER_CHECK):
        expression = random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        pairs = [
            (rng.choice(users), rng.choice(users))
            for _ in range(PAIRS_PER_EXPRESSION)
        ]
        owners = tuple(rng.sample(users, 3))
        audiences = {owner: reference_targets(truth, owner, expression) for owner in owners}
        for name, service in services.items():
            if name.endswith("forward-only") and not _forward_only(expression):
                continue  # that index cannot evaluate reverse steps at all
            context = (name, expression.to_text())
            for source, target in pairs:
                got = service.reach(source, target, expression, collect_witness=False)
                assert got.plan.backend_forced, context
                assert got.reachable == reference_reachable(
                    truth, source, target, expression
                ), (context, source, target)
            assert dict(service.audience(owners, expression).audiences) == audiences, (
                context, owners,
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_every_pin_answers_like_the_oracle_through_churn(seed):
    truth = _graph(seed)
    replicas = {name: _graph(seed) for name in PINS}
    services = {
        name: GraphService(replicas[name], **kwargs) for name, kwargs in PINS.items()
    }
    rng = random.Random(seed)
    _check(truth, services, rng)
    for serial in range(BURSTS):
        for op in _burst(truth, rng, serial):
            for replica in replicas.values():
                apply_churn_op(replica, op)
        _check(truth, services, rng)
    # The online pins patched their snapshot in place and reused the slots.
    assert compile_graph(replicas["bfs"]).delta_events["slot_reuses"] == BURSTS


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("include_reverse", (True, False))
def test_a_held_cluster_evaluator_answers_from_its_build_snapshot(seed, include_reverse):
    graph = _graph(seed)
    evaluator = ClusterIndexEvaluator(graph, include_reverse=include_reverse).build()
    built = graph.copy()
    snapshot = evaluator._index.snapshot
    epoch = snapshot.epoch
    rng = random.Random(seed)
    expressions = [
        expression
        for expression in (
            random_expression(rng, LABELS, max_steps=2, max_depth=2)
            for _ in range(8)
        )
        if include_reverse or _forward_only(expression)
    ]

    def agrees_with(reference):
        users = sorted(set(graph.users()) & set(reference.users()))
        for expression in expressions:
            for source in users:
                assert evaluator.find_targets(source, expression) == (
                    reference_targets(reference, source, expression)
                ), (expression.to_text(), source)
                target = rng.choice(users)
                assert evaluator.evaluate(
                    source, target, expression, collect_witness=False
                ).reachable == reference_reachable(reference, source, target, expression)

    for serial in range(BURSTS):
        _burst(graph, rng, serial)
        assert evaluator._index.snapshot is snapshot
        assert snapshot.pinned and snapshot.epoch == epoch
        agrees_with(built)
    evaluator.build()
    assert evaluator._index.snapshot.epoch == graph.epoch
    agrees_with(graph)
