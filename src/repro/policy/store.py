"""The policy store: resources, their owners, and their access rules.

"User privacy preferences are stored in terms of access rules.  Each time a
user submits an access request to a given resource of another user, the
system will intercept the request, and, on the basis of the specified access
rules, it determines whether access should be granted or denied" (Section 2,
problem statement).  :class:`PolicyStore` is that rule repository: it keeps
one frozen :class:`ResourcePolicy` per resource — the resource and its rules
— assigns rule identifiers, and is consulted by the
:class:`~repro.policy.engine.AccessControlEngine` on every request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple, Union

from repro.exceptions import ResourceNotFoundError, RuleNotFoundError, RuleValidationError
from repro.policy.resources import Resource
from repro.policy.rules import AccessRule, CombinationMode

__all__ = ["PolicyStore", "ResourcePolicy"]


@dataclass(frozen=True)
class ResourcePolicy:
    """One resource's whole policy: the resource and its rules, oldest first.

    The store replaces the record whenever a rule is added or removed, so one
    dict probe hands a reader the owner and every rule as one value.
    """

    resource: Resource
    rules: Tuple[AccessRule, ...] = ()


class PolicyStore:
    """An in-memory repository of resources and their access rules."""

    def __init__(self) -> None:
        self._policies: Dict[Hashable, ResourcePolicy] = {}
        self._rules: Dict[Hashable, AccessRule] = {}
        self._counter = itertools.count(1)

    # -------------------------------------------------------------- resources

    def register_resource(self, resource: Resource) -> Resource:
        """Register a shared resource (idempotent for identical registrations)."""
        existing = self._policies.get(resource.resource_id)
        if existing is None:
            self._policies[resource.resource_id] = ResourcePolicy(resource)
        elif existing.resource != resource:
            raise RuleValidationError(
                f"resource {resource.resource_id!r} is already registered with a different owner/metadata"
            )
        return resource

    def share(self, owner: Hashable, resource_id: Hashable, **metadata) -> Resource:
        """Convenience: register a resource owned by ``owner``."""
        return self.register_resource(Resource(resource_id, owner, metadata))

    def policy(self, resource_id: Hashable) -> ResourcePolicy:
        """Return the resource's policy record, or raise :class:`ResourceNotFoundError`."""
        try:
            return self._policies[resource_id]
        except KeyError:
            raise ResourceNotFoundError(resource_id) from None

    def resource(self, resource_id: Hashable) -> Resource:
        """Return the registered resource, or raise :class:`ResourceNotFoundError`."""
        return self.policy(resource_id).resource

    def has_resource(self, resource_id: Hashable) -> bool:
        """Return whether the resource id is registered."""
        return resource_id in self._policies

    def resources(self) -> Iterator[Resource]:
        """Iterate over all registered resources."""
        return (policy.resource for policy in self._policies.values())

    def resources_owned_by(self, owner: Hashable) -> List[Resource]:
        """Return all resources registered with the given owner."""
        return [resource for resource in self.resources() if resource.owner == owner]

    def remove_resource(self, resource_id: Hashable) -> None:
        """Remove a resource and every rule protecting it."""
        for rule in self.policy(resource_id).rules:
            del self._rules[rule.rule_id]
        del self._policies[resource_id]

    # ------------------------------------------------------------------ rules

    def add_rule(self, rule: AccessRule) -> AccessRule:
        """Add an access rule for a registered resource.

        The rule's owner must match the resource owner (only the owner issues
        rules for a resource).  Rules without an explicit ``rule_id`` receive
        a generated one; the (possibly re-identified) rule is returned.
        """
        policy = self.policy(rule.resource_id)
        if rule.owner != policy.resource.owner:
            raise RuleValidationError(
                f"rule owner {rule.owner!r} does not own resource {rule.resource_id!r} "
                f"(owned by {policy.resource.owner!r})"
            )
        if rule.rule_id is None:
            rule = AccessRule(
                resource_id=rule.resource_id,
                conditions=rule.conditions,
                rule_id=f"rule-{next(self._counter)}",
                combination=rule.combination,
                description=rule.description,
            )
        if rule.rule_id in self._rules:
            raise RuleValidationError(f"rule id {rule.rule_id!r} is already used")
        self._rules[rule.rule_id] = rule
        self._policies[rule.resource_id] = ResourcePolicy(policy.resource, policy.rules + (rule,))
        return rule

    def allow(
        self,
        resource_id: Hashable,
        expressions: Union[str, Iterable[str]],
        *,
        combination: Union[CombinationMode, str] = CombinationMode.ALL,
        description: str = "",
    ) -> AccessRule:
        """Convenience: add a rule for ``resource_id`` from textual expressions.

        The owner is looked up from the registered resource.
        """
        resource = self.resource(resource_id)
        rule = AccessRule.build(
            resource_id,
            resource.owner,
            expressions,
            combination=combination,
            description=description,
        )
        return self.add_rule(rule)

    def rule(self, rule_id: Hashable) -> AccessRule:
        """Return the rule with the given id."""
        try:
            return self._rules[rule_id]
        except KeyError:
            raise RuleNotFoundError(rule_id) from None

    def rules_for(self, resource_id: Hashable) -> List[AccessRule]:
        """Return every rule protecting ``resource_id`` (possibly empty)."""
        return list(self.policy(resource_id).rules)

    def remove_rule(self, rule_id: Hashable) -> None:
        """Remove a single rule."""
        rule = self.rule(rule_id)
        del self._rules[rule_id]
        policy = self._policies[rule.resource_id]
        self._policies[rule.resource_id] = ResourcePolicy(
            policy.resource, tuple(kept for kept in policy.rules if kept.rule_id != rule_id)
        )

    def rules(self) -> Iterator[AccessRule]:
        """Iterate over every rule in the store."""
        return iter(self._rules.values())

    # ------------------------------------------------------------------ misc

    def rule_count(self) -> int:
        """Total number of rules in the store."""
        return len(self._rules)

    def resource_count(self) -> int:
        """Total number of registered resources."""
        return len(self._policies)

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return (
            f"<PolicyStore: {self.resource_count()} resources, {self.rule_count()} rules>"
        )
