"""Access rules and access conditions (Definitions 2 and 3 of the paper).

* An **access condition** is a couple ``(o, p)``: the resource owner ``o``
  (the starting node) and a path ``p`` — a
  :class:`~repro.policy.path_expression.PathExpression` — that must link the
  owner to the requester in the social graph.
* An **access rule** is a tuple ``(rid, ACS)``: the protected resource's id
  and a set of access conditions, *all* of which must hold for the rule to
  authorize the requester ("in order to be valid, an access rule should have
  all its access conditions validated").  As an extension the combination
  mode can be relaxed to ``any``.

A resource may carry several rules; the engine grants access when at least
one rule is satisfied (each rule describes one authorized audience).
These semantics are written once, in :func:`fold_rules`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Tuple, TypeVar, Union

from repro.exceptions import RuleValidationError
from repro.policy.path_expression import PathExpression

__all__ = ["CombinationMode", "AccessCondition", "AccessRule", "fold_rules"]

V = TypeVar("V")  # a condition's value: a bool, or the set of users it admits


class CombinationMode(enum.Enum):
    """How the conditions of one rule combine."""

    ALL = "all"   # paper semantics: every condition must be validated
    ANY = "any"   # extension: one satisfied condition is enough

    @classmethod
    def coerce(cls, value: Union["CombinationMode", str]) -> "CombinationMode":
        """Accept either the enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise RuleValidationError(
                f"unknown combination mode {value!r}; expected 'all' or 'any'"
            ) from None

    def fold(self, values: Iterable[V]) -> V:
        """Fold the non-empty ``values`` in order with ``&`` (ALL) or ``|`` (ANY).

        It takes no value once the result is settled (ALL at a falsy value,
        ANY at ``True``), so a lazy iterable evaluates no more than needed.
        """
        every = self is CombinationMode.ALL
        result = None
        for value in values:
            if result is None:
                result = value
            elif every:
                result = result & value
            else:
                result = result | value
            if (not result) if every else (result is True):
                break
        return result


@dataclass(frozen=True)
class AccessCondition:
    """One access condition ``(o, p)``: owner + required path to the requester."""

    owner: Hashable
    path: PathExpression

    @classmethod
    def parse(cls, owner: Hashable, expression: str) -> "AccessCondition":
        """Build a condition from the owner and a textual path expression."""
        return cls(owner, PathExpression.parse(expression))

    def describe(self) -> str:
        """Return the condition in the paper's ``owner/step/step`` notation."""
        return f"{self.owner}/{self.path.to_text()}"

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class AccessRule:
    """One access rule ``(rid, ACS)`` protecting a resource."""

    resource_id: Hashable
    conditions: Tuple[AccessCondition, ...]
    rule_id: Optional[Hashable] = None
    combination: CombinationMode = CombinationMode.ALL
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "combination", CombinationMode.coerce(self.combination))
        if not self.conditions:
            raise RuleValidationError(
                f"access rule for resource {self.resource_id!r} has no access conditions"
            )
        owners = {condition.owner for condition in self.conditions}
        if len(owners) > 1:
            raise RuleValidationError(
                f"access rule for resource {self.resource_id!r} mixes owners {sorted(map(str, owners))}; "
                "every condition of a rule starts at the resource owner"
            )

    # ----------------------------------------------------------- convenience

    @classmethod
    def build(
        cls,
        resource_id: Hashable,
        owner: Hashable,
        expressions: Union[str, Iterable[str]],
        *,
        rule_id: Optional[Hashable] = None,
        combination: Union[CombinationMode, str] = CombinationMode.ALL,
        description: str = "",
    ) -> "AccessRule":
        """Build a rule from textual path expressions.

        ``expressions`` may be a single expression string or an iterable of
        them (one per access condition).
        """
        if isinstance(expressions, str):
            expressions = [expressions]
        conditions = tuple(AccessCondition.parse(owner, text) for text in expressions)
        return cls(
            resource_id=resource_id,
            conditions=conditions,
            rule_id=rule_id,
            combination=CombinationMode.coerce(combination),
            description=description,
        )

    @property
    def owner(self) -> Hashable:
        """The owner shared by every condition of the rule."""
        return self.conditions[0].owner

    def condition_count(self) -> int:
        """Number of access conditions in the rule."""
        return len(self.conditions)

    def describe(self) -> str:
        """Return a human-readable multi-line description of the rule."""
        header = f"rule {self.rule_id!r} on resource {self.resource_id!r}"
        if self.description:
            header += f" ({self.description})"
        mode = "all of" if self.combination is CombinationMode.ALL else "any of"
        lines = [header, f"  grants access to requesters matching {mode}:"]
        lines.extend(f"    - {condition.describe()}" for condition in self.conditions)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def fold_rules(rules: Iterable[AccessRule], value_of: Callable[[AccessCondition], V]) -> V:
    """The value of a non-empty rule set: the model's one decision rule.

    Each rule folds ``value_of`` (a ``bool`` per requester, or the set of
    users a condition admits) over its conditions by its combination mode,
    and the rules join by ``|`` up to the first ``True``.  The owner and
    the no-rules default are the caller's.
    """
    result = None
    for rule in rules:
        value = rule.combination.fold(map(value_of, rule.conditions))
        result = value if result is None else result | value
        if result is True:
            break
    return result
