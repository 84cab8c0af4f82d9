"""The reachability-based access-control model (Section 2 of the paper).

Public entry points:

* :class:`~repro.policy.path_expression.PathExpression` — the path language
  of access conditions (``friend+[1,2]/colleague+[1]{age >= 18}``).
* :class:`~repro.policy.rules.AccessRule` / :class:`~repro.policy.rules.AccessCondition`
  — Definitions 2 and 3.
* :class:`~repro.policy.store.PolicyStore` — resources and their rules, one
  :class:`~repro.policy.store.ResourcePolicy` record per resource.
* :class:`~repro.policy.engine.AccessControlEngine` — request interception,
  evaluation through a pluggable reachability backend, decisions with
  explanations.
* :class:`~repro.policy.audit.AuditLog` — the decision audit trail.
* :mod:`~repro.policy.carminati` — the related-work baseline model.
"""

from repro.policy.audit import AuditLog
from repro.policy.carminati import CarminatiEngine, CarminatiRule
from repro.policy.conditions import AttributeCondition, evaluate_conditions
from repro.policy.decisions import AccessDecision, ConditionOutcome, Effect, RuleOutcome
from repro.policy.engine import AccessControlEngine
from repro.policy.path_expression import PathExpression, parse_path_expression
from repro.policy.resources import Resource
from repro.policy.rules import AccessCondition, AccessRule, CombinationMode
from repro.policy.steps import DepthInterval, Direction, Step
from repro.policy.store import PolicyStore, ResourcePolicy

__all__ = [
    "AttributeCondition",
    "evaluate_conditions",
    "DepthInterval",
    "Direction",
    "Step",
    "PathExpression",
    "parse_path_expression",
    "AccessCondition",
    "AccessRule",
    "CombinationMode",
    "Resource",
    "PolicyStore",
    "ResourcePolicy",
    "AccessDecision",
    "ConditionOutcome",
    "RuleOutcome",
    "Effect",
    "AccessControlEngine",
    "AuditLog",
    "CarminatiEngine",
    "CarminatiRule",
]
