"""Sharded-vs-unsharded differential harness: the router must change nothing.

The safety net for the community-sharding layer: 100+ seeded graphs
(planted-partition community graphs mixed with the awkward random shapes of
the backend harness — self-loops, multi-label edges, disconnected islands)
are partitioned at every shard count in {1, 2, 4, 8}, and every query shape
— point reach, audience sweeps under every planner direction (auto plus
forced forward / reverse), access checks and bulk audiences — must return
exactly the answer of the reference walk in :mod:`repro.testing.oracle`
over the unsharded graph.  Owners are drawn to straddle shard boundaries
(ghost users) whenever the partition produces any, and a subset of seeds
holds the full four-backend panel to the same oracle.

A churn stage replays bursts of mutations — boundary-edge removals and
re-adds, user removal and re-add, attribute rewrites that flip condition
outcomes — through the source graph, forces the shard mirrors down their
journal-replay (``delta``) refresh path, and differentials again.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph.generators import community_graph
from repro.graph.social_graph import SocialGraph
from repro.policy.engine import AccessControlEngine
from repro.policy.path_expression import PathExpression
from repro.policy.rules import AccessRule
from repro.policy.store import PolicyStore
from repro.reachability.engine import ReachabilityEngine
from repro.sharding import ShardedGraph, ShardRouter, ShardSweepPlan
from repro.testing.graphs import LABELS, adversarial_graph
from repro.testing.oracle import reference_reachable, reference_targets
from repro.workloads.queries import random_expression
from tests.property.test_backend_equivalence import _backends

SEEDS = range(105)
SHARD_COUNTS = (1, 2, 4, 8)
#: Seeds on this stride also hold the four-backend panel to the oracle (the
#: panel's own harness covers backend drift on the rest).
PANEL_STRIDE = 7
#: Seeds on this stride also run the access / bulk-audience engine shapes.
ACCESS_STRIDE = 5


def seeded_graph(seed: int, rng: random.Random) -> SocialGraph:
    """Community-structured on most seeds, adversarially random on the rest."""
    if seed % 3 != 2:
        graph = community_graph(
            rng.randint(16, 28),
            communities=rng.choice((2, 3, 4)),
            intra_edges_per_node=2,
            inter_fraction=0.2,
            seed=seed,
            prefix=f"s{seed}-",
        )
    else:
        graph = adversarial_graph(
            rng,
            users=(8, 16),
            edges_per_user=(1, 3),
            attributes=("age",),
            prefix=f"s{seed}-",
        )
    # Every third seed gets a guaranteed self-loop on top.
    if seed % 3 == 0:
        users = sorted(graph.users(), key=str)
        user = users[seed % len(users)]
        if not graph.has_relationship(user, user, "friend"):
            graph.add_relationship(user, user, "friend")
    return graph


def pick_owners(
    rng: random.Random, sharded: ShardedGraph, users, count: int = 5
):
    """Owners biased onto shard boundaries (ghosts) when the cut has any."""
    boundary = sharded.boundary_users()
    owners = list(boundary[: count // 2])
    while len(owners) < count and users:
        owners.append(rng.choice(users))
    # Duplicates are part of the contract (dedup happens in the sweep).
    if owners:
        owners.append(owners[0])
    return owners


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_answers_equal_unsharded(seed):
    rng = random.Random(9000 + seed)
    graph = seeded_graph(seed, rng)
    users = sorted(graph.users(), key=str)
    panel = _backends(graph) if seed % PANEL_STRIDE == 0 else {}

    expressions = [
        random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        for _ in range(2)
    ]
    directions = ["auto", ("forward", "reverse")[seed % 2]]

    for shards in SHARD_COUNTS:
        sharded = ShardedGraph(graph, shards=shards, seed=11)
        router = ShardRouter(sharded)
        owners = pick_owners(rng, sharded, users)
        for expression in expressions:
            text = expression.to_text()
            expected = {
                owner: reference_targets(graph, owner, expression)
                for owner in dict.fromkeys(owners)
            }
            for name, backend in panel.items():
                for owner, want in expected.items():
                    assert backend.find_targets(owner, expression) == want, (
                        seed, shards, name, owner, text,
                    )
            for direction in directions:
                audiences, plan = router.sweep_targets_many(
                    owners, expression, direction=direction
                )
                assert isinstance(plan, ShardSweepPlan)
                assert plan.partial_shards == ()  # unguarded: always complete
                for owner, want in expected.items():
                    assert audiences[owner] == want, (
                        seed, shards, direction, owner, text,
                    )
            for _pair in range(3):
                source = rng.choice(users)
                target = rng.choice(users)
                want = reference_reachable(graph, source, target, expression)
                got = router.evaluate(source, target, expression)
                assert got.reachable == want, (seed, shards, source, target, text)
        # Unknown users raise exactly like the unsharded evaluators.
        with pytest.raises(NodeNotFoundError):
            router.evaluate("no-such-user", users[0], expressions[0])
        with pytest.raises(NodeNotFoundError):
            router.sweep_targets_many(["no-such-user"], expressions[0])


@pytest.mark.parametrize("seed", [s for s in SEEDS if s % ACCESS_STRIDE == 0])
def test_sharded_access_and_bulk_equal_unsharded(seed):
    rng = random.Random(17000 + seed)
    graph = seeded_graph(seed, rng)
    users = sorted(graph.users(), key=str)
    store = PolicyStore()
    owner_a, owner_b = users[0], users[len(users) // 2]
    rules = {
        "res-a": (owner_a, "friend+[1,2]"),
        "res-b": (owner_b, "friend+[1]/colleague+[1]"),
    }
    want_bulk = {}
    for resource, (owner, text) in rules.items():
        store.share(owner, resource)
        store.add_rule(AccessRule.build(resource, owner, text))
        want_bulk[resource] = {owner} | reference_targets(
            graph, owner, PathExpression.parse(text)
        )
    for shards in SHARD_COUNTS:
        router = ShardRouter(ShardedGraph(graph, shards=shards, seed=11))
        engine = ReachabilityEngine(graph, router)
        access = AccessControlEngine(graph, store, backend=engine)
        for requester in users[:: max(1, len(users) // 8)]:
            for resource in ("res-a", "res-b"):
                assert access.is_allowed(requester, resource) == (
                    requester in want_bulk[resource]
                ), (seed, shards, requester, resource)
        got_bulk, _plans = access.audiences_with_plans(["res-a", "res-b"])
        assert got_bulk == want_bulk, (seed, shards)


def churn_burst(rng: random.Random, graph: SocialGraph, sharded: ShardedGraph):
    """~12 mutations biased across shard boundaries; valid in replay order."""
    ops = 0
    rels = list(graph.relationships())
    boundary = [
        rel
        for rel in rels
        if sharded.shard_of(rel.source) != sharded.shard_of(rel.target)
    ]
    # Remove two boundary edges, re-add one (the remove/re-add churn the
    # ghost bookkeeping must survive).
    for rel in boundary[:2]:
        graph.remove_relationship(rel.source, rel.target, rel.label)
        ops += 1
    if boundary:
        rel = boundary[0]
        graph.add_relationship(rel.source, rel.target, rel.label)
        ops += 1
    users = sorted(graph.users(), key=str)
    # Remove a user (preferring one that straddles a boundary) and re-add it.
    straddlers = sharded.boundary_users()
    victim = straddlers[0] if straddlers else users[0]
    home = sharded.shard_of(victim)
    graph.remove_user(victim)
    graph.add_user(victim, age=rng.randint(10, 70))
    ops += 2
    neighbor = rng.choice([user for user in users if user != victim])
    if not graph.has_relationship(victim, neighbor, "friend"):
        graph.add_relationship(victim, neighbor, "friend")
        ops += 1
    # Attribute churn that can flip condition outcomes, including a delete.
    target = rng.choice(users)
    graph.update_user(target, age=rng.randint(10, 70))
    ops += 1
    flip = rng.choice(users)
    attrs = graph.attributes(flip)
    attrs["age"] = rng.randint(10, 70)
    if "gender" in attrs:
        del attrs["gender"]
    while ops < 12:
        source, target = rng.choice(users), rng.choice(users)
        label = rng.choice(LABELS)
        if graph.has_relationship(source, target, label):
            graph.remove_relationship(source, target, label)
        else:
            graph.add_relationship(source, target, label)
        ops += 1
    return victim, home


@pytest.mark.parametrize("seed", [s for s in SEEDS if s % 4 == 0])
def test_churn_bursts_replay_through_the_delta_path(seed):
    rng = random.Random(23000 + seed)
    graph = seeded_graph(seed, rng)
    for shards in (2, 4):
        sharded = ShardedGraph(graph, shards=shards, seed=11)
        router = ShardRouter(sharded)
        expression = random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.4
        )
        router.sweep_targets_many(
            sorted(graph.users(), key=str)[:3], expression
        )  # warm the mirrors before the burst
        victim, home = churn_burst(rng, graph, sharded)
        owners = pick_owners(rng, sharded, sorted(graph.users(), key=str))
        expected = {
            owner: reference_targets(graph, owner, expression)
            for owner in dict.fromkeys(owners)
        }
        audiences, _plan = router.sweep_targets_many(owners, expression)
        assert sharded.refresh_outcomes["delta"] >= 1, (seed, shards)
        assert sharded.refresh_outcomes["rebuild"] == 0, (seed, shards)
        for owner, want in expected.items():
            assert audiences[owner] == want, (seed, shards, owner)
        # Stable assignment: the removed-and-re-added user kept its shard.
        assert sharded.shard_of(victim) == home, (seed, shards)


def test_case_budget_meets_the_acceptance_floor():
    """100+ generated graphs, each at every shard count in {1, 2, 4, 8}."""
    assert len(SEEDS) >= 100
    assert tuple(SHARD_COUNTS) == (1, 2, 4, 8)
