"""The access-control enforcement engine.

This is the component the paper's "problem statement" describes: it
intercepts an access request ``(requester, resource)``, looks up the access
rules stored for that resource, evaluates every access condition as an
ordered label-constraint reachability query between the resource owner and
the requester, and grants or denies access.

Design points:

* The reachability backend is pluggable (``bfs``, ``dfs``,
  ``transitive-closure`` or ``cluster-index``); all produce identical
  decisions, they only differ in cost profile.
* The resource owner always has access to their own resources.
* A resource with **no** rules is private to its owner (deny by default);
  this is configurable (``default_effect``).
* Decisions are explained (matched rules, witness paths) and can be recorded
  in an :class:`~repro.policy.audit.AuditLog`.

Caching and bulk evaluation
---------------------------
``check_access`` evaluates each access condition through the inner
:class:`~repro.reachability.engine.ReachabilityEngine`, so it inherits that
facade's cache-invalidation contract verbatim: decisions are memoized under
the graph's mutation ``epoch`` (any committed mutation — structural or an
attribute write through ``graph.attributes(u)`` — invalidates them), and
constructor keyword ``cache_size=0`` disables the memo.  The bulk
:meth:`AccessControlEngine.audiences_with_plans` groups access conditions
across the requested resources by path expression and answers each group
with one multi-source owner-bitset sweep; ``direction=`` pins that sweep's
planner and the executed per-expression
:class:`~repro.reachability.compiled_search.SweepPlan` objects are
**returned with the audiences** (no entry for expressions served entirely
from the memo).
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.graph.social_graph import SocialGraph
from repro.policy.audit import AuditLog
from repro.policy.decisions import AccessDecision, ConditionOutcome, Effect, RuleOutcome
from repro.policy.rules import AccessRule, CombinationMode
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

        With ``explain=False`` the evaluation stops at the first satisfied
        rule without collecting witness paths (the fast path used by the
        throughput benchmarks); with ``explain=True`` every rule is evaluated
        and witnesses are attached.
        """
        started = time.perf_counter()
        resource = self.store.resource(resource_id)
        rules = self.store.rules_for(resource_id)

        if requester == resource.owner:
            decision = AccessDecision(
                effect=Effect.GRANT,
                resource_id=resource_id,
                owner=resource.owner,
                requester=requester,
                reason="requester is the resource owner",
                elapsed_seconds=time.perf_counter() - started,
            )
            return self._record(decision)

        if not rules:
            decision = AccessDecision(
                effect=self.default_effect,
                resource_id=resource_id,
                owner=resource.owner,
                requester=requester,
                reason="no access rule is defined for this resource",
                elapsed_seconds=time.perf_counter() - started,
            )
            return self._record(decision)

        rule_outcomes: List[RuleOutcome] = []
        granted = False
        for rule in rules:
            outcome = self._evaluate_rule(rule, requester, collect_witness=explain)
            rule_outcomes.append(outcome)
            if outcome.satisfied:
                granted = True
                if not explain:
                    break

        decision = AccessDecision(
            effect=Effect.GRANT if granted else Effect.DENY,
            resource_id=resource_id,
            owner=resource.owner,
            requester=requester,
            rule_outcomes=tuple(rule_outcomes),
            reason=(
                "a rule authorizes the requester"
                if granted
                else "no rule authorizes the requester"
            ),
            elapsed_seconds=time.perf_counter() - started,
        )
        return self._record(decision)

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

    def authorized_audience(
        self, resource_id: Hashable, *, direction: str = "auto"
    ) -> Set[Hashable]:
        """Materialize the full audience of a resource (every authorized user).

        Computed from the owner outwards with ``find_targets``, which is much
        cheaper than testing every user of the network individually.
        """
        return self.authorized_audiences([resource_id], direction=direction)[resource_id]

    def audiences_with_plans(
        self,
        resource_ids: Iterable[Hashable],
        *,
        direction: str = "auto",
    ) -> Tuple[Dict[Hashable, Set[Hashable]], Dict[str, object]]:
        """Materialize the audiences of many resources in one bulk pass.

        Access conditions across every requested resource are grouped by
        path expression and each group is answered by one
        :meth:`ReachabilityEngine.sweep_targets_many` call — a single
        multi-source owner-bitset sweep shared by every owner of the group —
        then recombined per rule.  ``direction`` pins the sweep planner
        (forward from the owners or reverse from the whole vertex set).

        Returns ``(audiences, plans)`` where ``plans`` maps expression text
        to the executed :class:`~repro.reachability.compiled_search.
        SweepPlan` of that expression's sweep; expressions served entirely
        from the memo swept nothing and have no entry.
        """
        resource_ids = list(dict.fromkeys(resource_ids))
        rules_of = {rid: self.store.rules_for(rid) for rid in resource_ids}
        # One batched sweep per distinct expression, over every owner that
        # states a condition with it (an ordered set keeps runs deterministic).
        sweeps: Dict[str, Tuple[object, Dict[Hashable, None]]] = {}
        for rules in rules_of.values():
            for rule in rules:
                for condition in rule.conditions:
                    text = condition.path.to_text()
                    entry = sweeps.get(text)
                    if entry is None:
                        entry = sweeps[text] = (condition.path, {})
                    entry[1][condition.owner] = None
        audience_of: Dict[Tuple[str, Hashable], Set[Hashable]] = {}
        plans: Dict[str, object] = {}
        for text, (path, owners) in sweeps.items():
            computed, plan = self.reachability.sweep_targets_many(
                owners, path, direction=direction
            )
            for owner, targets in computed.items():
                audience_of[(text, owner)] = targets
            if plan is not None:
                plans[text] = plan
        audiences: Dict[Hashable, Set[Hashable]] = {}
        for resource_id in resource_ids:
            resource = self.store.resource(resource_id)
            audience: Set[Hashable] = {resource.owner}
            for rule in rules_of[resource_id]:
                audience |= self._combine_rule_audience(rule, audience_of)
            audiences[resource_id] = audience
        return audiences, plans

    def authorized_audiences(
        self,
        resource_ids: Iterable[Hashable],
        *,
        direction: str = "auto",
    ) -> Dict[Hashable, Set[Hashable]]:
        """Audiences-only form of :meth:`audiences_with_plans`."""
        return self.audiences_with_plans(resource_ids, direction=direction)[0]

    @staticmethod
    def _combine_rule_audience(
        rule: AccessRule,
        audience_of: Dict[Tuple[str, Hashable], Set[Hashable]],
    ) -> Set[Hashable]:
        audiences = [
            audience_of[(condition.path.to_text(), condition.owner)]
            for condition in rule.conditions
        ]
        if not audiences:
            return set()
        if rule.combination is CombinationMode.ALL:
            result = set(audiences[0])
            for audience in audiences[1:]:
                result &= audience
            return result
        result: Set[Hashable] = set()
        for audience in audiences:
            result |= audience
        return result

    # -------------------------------------------------------------- helpers

    def _evaluate_rule(
        self,
        rule: AccessRule,
        requester: Hashable,
        *,
        collect_witness: bool,
    ) -> RuleOutcome:
        outcomes: List[ConditionOutcome] = []
        satisfied_flags: List[bool] = []
        for condition in rule.conditions:
            result = self.reachability.evaluate(
                condition.owner,
                requester,
                condition.path,
                collect_witness=collect_witness,
            )
            outcomes.append(
                ConditionOutcome(
                    condition=condition,
                    satisfied=result.reachable,
                    witness=result.witness,
                )
            )
            satisfied_flags.append(result.reachable)
            if rule.combination is CombinationMode.ALL and not result.reachable and not collect_witness:
                break
            if rule.combination is CombinationMode.ANY and result.reachable and not collect_witness:
                break
        if rule.combination is CombinationMode.ALL:
            satisfied = bool(satisfied_flags) and all(satisfied_flags) and len(satisfied_flags) == len(rule.conditions)
        else:
            satisfied = any(satisfied_flags)
        return RuleOutcome(rule=rule, satisfied=satisfied, condition_outcomes=tuple(outcomes))

    def _record(self, decision: AccessDecision) -> AccessDecision:
        if self.audit_log is not None:
            self.audit_log.record(decision)
        return decision

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
