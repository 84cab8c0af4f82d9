"""Typed query objects — the *what* of the request/plan/execute split.

Each query is an immutable dataclass naming everything the planner needs and
nothing about *how* the answer is computed.  The one optional knob that used
to be a dispatch mechanic is now a **plan pin**: ``backend`` pins the query
to one reachability backend (``"bfs"``, ``"transitive-closure"``,
``"cluster-index"``, ``"sharded"``); ``None`` (or ``"auto"``) lets the
:class:`~repro.service.planner.QueryPlanner` choose.

Expressions may be path-expression text or parsed
:class:`~repro.policy.path_expression.PathExpression` objects; the service
parses text once through the process-wide
:func:`~repro.policy.path_expression.as_path_expression` memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Tuple, Union

from repro.policy.path_expression import PathExpression

__all__ = [
    "Expression",
    "Query",
    "ReachQuery",
    "AudienceQuery",
    "AccessQuery",
    "BulkAccessQuery",
]

Expression = Union[str, PathExpression]


def _as_tuple(values, *, what: str) -> Tuple[Hashable, ...]:
    """Normalize one hashable or an iterable of them to a tuple.

    Strings and bytes count as single values (they are iterable but almost
    never meant as a collection of one-character ids).
    """
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        return (values,)
    normalized = tuple(values)
    if isinstance(values, (set, frozenset)):
        # Sets have no stable order; results are keyed mappings anyway, but a
        # deterministic tuple keeps plans and sweeps reproducible.
        normalized = tuple(sorted(normalized, key=str))
    return normalized


@dataclass(frozen=True)
class ReachQuery:
    """May ``target`` be reached from ``source`` along ``expression``?"""

    source: Hashable
    target: Hashable
    expression: Expression
    collect_witness: bool = True
    backend: Optional[str] = None

    @property
    def kind(self) -> str:
        return "reach"


@dataclass(frozen=True)
class AudienceQuery:
    """Materialize every user reachable from each owner under ``expression``.

    ``owners`` accepts a single owner or any iterable of owners and is
    normalized to a tuple (duplicates are semantically idempotent — the
    engine deduplicates before sweeping).
    """

    owners: Tuple[Hashable, ...]
    expression: Expression
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "owners", _as_tuple(self.owners, what="owners"))

    @property
    def kind(self) -> str:
        return "audience"


@dataclass(frozen=True)
class AccessQuery:
    """May ``requester`` access ``resource_id`` under the stored rules?"""

    requester: Hashable
    resource_id: Hashable
    explain: bool = True
    backend: Optional[str] = None

    @property
    def kind(self) -> str:
        return "access"


@dataclass(frozen=True)
class BulkAccessQuery:
    """Materialize the authorized audiences of many resources in one pass."""

    resource_ids: Tuple[Hashable, ...]
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "resource_ids", _as_tuple(self.resource_ids, what="resource_ids")
        )

    @property
    def kind(self) -> str:
        return "bulk-access"


#: Any of the four query shapes :meth:`GraphService.execute` dispatches on.
Query = Union[ReachQuery, AudienceQuery, AccessQuery, BulkAccessQuery]
