"""The access-control enforcement engine.

This is the component the paper's "problem statement" describes: it
intercepts an access request ``(requester, resource)``, reads the
resource's policy record (:class:`~repro.policy.store.ResourcePolicy`, one
dict probe) and decides it with :func:`~repro.policy.rules.fold_rules`:
each access condition is an ordered label-constraint reachability query
from the owner, a rule folds its conditions with ``&`` (ALL) or ``|`` (ANY)
and the rules join by ``|``.  ``check_access`` folds booleans and stops at
the first settled value; :meth:`AccessControlEngine.audiences_with_plans`
folds the audience sets of one multi-source owner-bitset sweep per path
expression and returns the executed per-expression
:class:`~repro.reachability.compiled_search.SweepPlan` objects with the
audiences (none for an expression served entirely from the memo).

* The backend is pluggable (``bfs``, ``transitive-closure`` or
  ``cluster-index``); all decide identically.  Condition answers ride the
  :class:`~repro.reachability.engine.ReachabilityEngine` memos, stamped
  with the graph's mutation ``epoch`` (any committed mutation, attribute
  writes included, invalidates them; ``cache_size=0`` disables them).
* The owner is always granted.  A resource with no rules takes
  ``default_effect``: private to its owner under ``DENY``; under ``GRANT``
  every requester is granted and its audience is every user of the graph.
* ``explain=False`` builds one :class:`~repro.policy.decisions.AccessDecision`
  and no ``RuleOutcome`` / ``ConditionOutcome``; ``explain=True`` evaluates
  every condition with its witness path and attaches them.  Decisions can
  be recorded in an :class:`~repro.policy.audit.AuditLog`.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.graph.social_graph import SocialGraph
from repro.policy.audit import AuditLog
from repro.policy.decisions import AccessDecision, ConditionOutcome, Effect, RuleOutcome
from repro.policy.path_expression import PathExpression
from repro.policy.rules import AccessRule, fold_rules
from repro.policy.store import PolicyStore
from repro.reachability.engine import ReachabilityEngine

__all__ = ["AccessControlEngine"]


class AccessControlEngine:
    """Evaluate access requests against a policy store over a social graph.

    ``backend`` may be a backend name, a backend evaluator instance, or a
    prebuilt :class:`ReachabilityEngine` — the last form is how the
    :class:`~repro.service.GraphService` facade shares one engine (and its
    epoch-stamped memos) between reach queries and access checks on the
    same backend.
    """

    def __init__(
        self,
        graph: SocialGraph,
        store: Optional[PolicyStore] = None,
        *,
        backend: Union[str, object] = "bfs",
        default_effect: Effect = Effect.DENY,
        audit_log: Optional[AuditLog] = None,
        **backend_options,
    ) -> None:
        self.graph = graph
        self.store = store if store is not None else PolicyStore()
        if isinstance(backend, ReachabilityEngine):
            if backend_options:
                raise TypeError(
                    "backend_options cannot be combined with a prebuilt "
                    "ReachabilityEngine (configure the engine directly)"
                )
            self.reachability = backend
        else:
            self.reachability = ReachabilityEngine(graph, backend, **backend_options)
        self.default_effect = default_effect
        self.audit_log = audit_log

    # ------------------------------------------------------------------ api

    def check_access(
        self,
        requester: Hashable,
        resource_id: Hashable,
        *,
        explain: bool = True,
    ) -> AccessDecision:
        """Evaluate one access request and return the decision.

        With ``explain=False`` the rules' fold stops at the first satisfied
        rule and the decision carries no rule outcomes (the fast path);
        with ``explain=True`` every condition is evaluated with its witness
        path and the outcomes are attached.
        """
        started = time.perf_counter()
        policy = self.store.policy(resource_id)
        owner = policy.resource.owner
        rule_outcomes: Tuple[RuleOutcome, ...] = ()
        if requester == owner:
            effect, reason = Effect.GRANT, "requester is the resource owner"
        elif not policy.rules:
            effect, reason = self.default_effect, "no access rule is defined for this resource"
        else:
            if explain:
                rule_outcomes = self._rule_outcomes(requester, policy.rules)
                granted = any(outcome.satisfied for outcome in rule_outcomes)
            else:
                evaluate = self.reachability.evaluate
                granted = fold_rules(
                    policy.rules,
                    lambda condition: evaluate(
                        condition.owner, requester, condition.path, collect_witness=False
                    ).reachable,
                )
            effect, reason = (
                (Effect.GRANT, "a rule authorizes the requester")
                if granted
                else (Effect.DENY, "no rule authorizes the requester")
            )
        decision = AccessDecision(
            effect=effect,
            resource_id=resource_id,
            owner=owner,
            requester=requester,
            rule_outcomes=rule_outcomes,
            reason=reason,
            elapsed_seconds=time.perf_counter() - started,
        )
        if self.audit_log is not None:
            self.audit_log.record(decision)
        return decision

    def is_allowed(self, requester: Hashable, resource_id: Hashable) -> bool:
        """Boolean-only form of :meth:`check_access` (no explanation collected)."""
        return self.check_access(requester, resource_id, explain=False).granted

    def explain(self, requester: Hashable, resource_id: Hashable) -> str:
        """Return the human-readable explanation of the decision."""
        return self.check_access(requester, resource_id, explain=True).explain()

    def filter_audience(
        self,
        resource_id: Hashable,
        candidates: Iterable[Hashable],
    ) -> Set[Hashable]:
        """Return the subset of ``candidates`` that may access the resource."""
        return {user for user in candidates if self.is_allowed(user, resource_id)}

    def authorized_audience(self, resource_id: Hashable) -> Set[Hashable]:
        """Materialize the full audience of a resource (every authorized user).

        Computed from the owners outwards by the bulk audience sweep of
        :meth:`audiences_with_plans`, which is much cheaper than testing
        every user of the network individually.
        """
        return self.authorized_audiences([resource_id])[resource_id]

    def audiences_with_plans(
        self, resource_ids: Iterable[Hashable]
    ) -> Tuple[Dict[Hashable, Set[Hashable]], Dict[str, object]]:
        """Materialize the audiences of many resources in one bulk pass.

        Access conditions across every requested resource are grouped by
        path expression and each group is answered by one
        :meth:`ReachabilityEngine.sweep_targets_many` call — a single
        multi-source owner-bitset sweep shared by every owner of the group —
        then each resource's audience is its owner plus its rules' fold over
        those sets (with no rules: nobody else under ``DENY``, every user of
        the graph under ``GRANT``).

        Returns ``(audiences, plans)`` where ``plans`` maps expression text
        to the executed :class:`~repro.reachability.compiled_search.
        SweepPlan` of that expression's sweep; expressions served entirely
        from the memo swept nothing and have no entry.
        """
        policies = {rid: self.store.policy(rid) for rid in resource_ids}
        # One batched sweep per distinct expression, over every owner that
        # states a condition with it (an ordered set keeps runs deterministic).
        sweeps: Dict[str, Tuple[PathExpression, Dict[Hashable, None]]] = {}
        for policy in policies.values():
            for rule in policy.rules:
                for condition in rule.conditions:
                    text = condition.path.to_text()
                    entry = sweeps.get(text)
                    if entry is None:
                        entry = sweeps[text] = (condition.path, {})
                    entry[1][condition.owner] = None
        targets: Dict[str, Dict[Hashable, AbstractSet[Hashable]]] = {}
        plans: Dict[str, object] = {}
        for text, (path, owners) in sweeps.items():
            targets[text], plan = self.reachability.sweep_targets_many(owners, path)
            if plan is not None:
                plans[text] = plan
        audiences: Dict[Hashable, Set[Hashable]] = {}
        for resource_id, policy in policies.items():
            if policy.rules:
                admitted = fold_rules(
                    policy.rules, lambda c: targets[c.path.to_text()][c.owner]
                )
            else:
                admitted = self.graph.users() if self.default_effect is Effect.GRANT else ()
            audiences[resource_id] = {policy.resource.owner}.union(admitted)
        return audiences, plans

    def authorized_audiences(
        self, resource_ids: Iterable[Hashable]
    ) -> Dict[Hashable, Set[Hashable]]:
        """Audiences-only form of :meth:`audiences_with_plans`."""
        return self.audiences_with_plans(resource_ids)[0]

    # -------------------------------------------------------------- helpers

    def _rule_outcomes(
        self, requester: Hashable, rules: Tuple[AccessRule, ...]
    ) -> Tuple[RuleOutcome, ...]:
        """Every condition of every rule, evaluated with its witness path."""
        evaluate = self.reachability.evaluate
        outcomes: List[RuleOutcome] = []
        for rule in rules:
            conditions: List[ConditionOutcome] = []
            for condition in rule.conditions:
                result = evaluate(condition.owner, requester, condition.path, collect_witness=True)
                conditions.append(ConditionOutcome(condition, result.reachable, result.witness))
            satisfied = rule.combination.fold(outcome.satisfied for outcome in conditions)
            outcomes.append(RuleOutcome(rule, satisfied, tuple(conditions)))
        return tuple(outcomes)

    # ---------------------------------------------------------------- stats

    def statistics(self) -> Dict[str, float]:
        """Return the reachability backend's statistics plus policy-store counts."""
        stats = self.reachability.statistics()
        stats["resources"] = float(self.store.resource_count())
        stats["rules"] = float(self.store.rule_count())
        return stats

    def __repr__(self) -> str:
        return (
            f"<AccessControlEngine backend={self.reachability.backend_name!r}, "
            f"{self.store.resource_count()} resources, {self.store.rule_count()} rules>"
        )
