"""Policy-layer differential harness: the rule fold against a reference decision.

Seeded small graphs carry seeded policies — several resources per graph,
zero to three rules per resource, one to three conditions per rule, ALL and
ANY rules, conditions drawn from a small per-owner pool so one condition is
shared across rules, and at least one attribute-conditioned expression in
every pool.  For both default effects and every user of the graph (owners
included), three answers must equal a decision built straight from
:func:`repro.testing.oracle.reference_reachable`:

* ``check_access(explain=False)``;
* ``check_access(explain=True)`` — its rule outcomes included;
* membership in the resource's ``audiences_with_plans`` audience.
"""

from __future__ import annotations

import random

import pytest

from repro.policy.decisions import Effect
from repro.policy.engine import AccessControlEngine
from repro.policy.path_expression import PathExpression
from repro.policy.rules import AccessCondition, AccessRule, CombinationMode
from repro.policy.store import PolicyStore
from repro.testing.graphs import LABELS, adversarial_graph
from repro.testing.oracle import reference_reachable
from repro.workloads.queries import random_expression, random_step

SEEDS = range(60)
RESOURCES = 4


def seeded_policies(rng: random.Random, users) -> PolicyStore:
    """``RESOURCES`` resources; the first has no rules, the rest zero to three."""
    store = PolicyStore()
    for index in range(RESOURCES):
        owner = rng.choice(users)
        resource_id = f"res-{index}"
        store.share(owner, resource_id)
        pool = [
            random_expression(rng, LABELS, max_steps=2, max_depth=2) for _ in range(2)
        ] + [PathExpression.of(random_step(rng, LABELS, max_depth=2, condition_probability=1.0))]
        for _rule in range(0 if index == 0 else rng.randint(0, 3)):
            conditions = [
                AccessCondition(owner, rng.choice(pool)) for _ in range(rng.randint(1, 3))
            ]
            store.add_rule(
                AccessRule(
                    resource_id,
                    tuple(conditions),
                    combination=rng.choice(list(CombinationMode)),
                )
            )
    return store


def reference_rule(graph, rule: AccessRule, requester) -> bool:
    values = [
        reference_reachable(graph, condition.owner, requester, condition.path)
        for condition in rule.conditions
    ]
    return all(values) if rule.combination is CombinationMode.ALL else any(values)


def reference_granted(graph, store: PolicyStore, resource_id, requester, default: Effect) -> bool:
    """Definitions 2–3 with the owner and no-rules cases, from the oracle alone."""
    resource = store.resource(resource_id)
    if requester == resource.owner:
        return True
    rules = store.rules_for(resource_id)
    if not rules:
        return default is Effect.GRANT
    return any(reference_rule(graph, rule, requester) for rule in rules)


@pytest.mark.parametrize("seed", SEEDS)
def test_check_explain_and_bulk_match_the_reference(seed):
    rng = random.Random(seed)
    graph = adversarial_graph(rng, users=(4, 9), edges_per_user=(1, 3))
    users = sorted(graph.users())
    store = seeded_policies(rng, users)
    resource_ids = [resource.resource_id for resource in store.resources()]
    for default in Effect:
        engine = AccessControlEngine(graph, store, default_effect=default)
        audiences = engine.authorized_audiences(resource_ids)
        for resource_id in resource_ids:
            rules = store.rules_for(resource_id)
            for requester in users:
                want = reference_granted(graph, store, resource_id, requester, default)
                case = (seed, default, resource_id, requester)
                fast = engine.check_access(requester, resource_id, explain=False)
                assert fast.granted == want and fast.rule_outcomes == (), case
                explained = engine.check_access(requester, resource_id, explain=True)
                assert explained.granted == want, case
                if requester != store.resource(resource_id).owner:
                    assert [outcome.satisfied for outcome in explained.rule_outcomes] == [
                        reference_rule(graph, rule, requester) for rule in rules
                    ], case
                assert (requester in audiences[resource_id]) == want, case
            assert audiences[resource_id] <= set(users), (seed, default, resource_id)


def test_the_seeds_cover_every_shape():
    """The draw reaches each case the harness claims to cover."""
    seen = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = adversarial_graph(rng, users=(4, 9), edges_per_user=(1, 3))
        store = seeded_policies(rng, sorted(graph.users()))
        for resource in store.resources():
            rules = store.rules_for(resource.resource_id)
            if not rules:
                seen.add("no rules")
            if len(rules) > 1:
                seen.add("several rules")
            per_rule = [set(rule.conditions) for rule in rules]
            if any(a & b for i, a in enumerate(per_rule) for b in per_rule[i + 1 :]):
                seen.add("condition shared across rules")
            for rule in rules:
                seen.add(rule.combination)
                if len(rule.conditions) > 1:
                    seen.add("several conditions")
                if any(condition.path.has_attribute_conditions() for condition in rule.conditions):
                    seen.add("attribute condition")
    assert seen == {
        "no rules",
        "several rules",
        "condition shared across rules",
        "several conditions",
        "attribute condition",
        CombinationMode.ALL,
        CombinationMode.ANY,
    }
