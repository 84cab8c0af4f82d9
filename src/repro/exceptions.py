"""Exception hierarchy shared by every subpackage of :mod:`repro`.

All exceptions raised by the library derive from :class:`ReproError`, so that
callers embedding the library can catch a single base class.  Each subsystem
(graph, policy, reachability, serving) has its own intermediate base class,
mirroring the package layout described in ``docs/architecture.md``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# Graph substrate errors
# ---------------------------------------------------------------------------


class GraphError(ReproError):
    """Base class for errors raised by the social-graph substrate."""


class NodeNotFoundError(GraphError, KeyError):
    """A user id was referenced that is not present in the graph."""

    def __init__(self, node):
        super().__init__(node)
        self.node = node

    def __str__(self) -> str:  # KeyError quotes its args; keep it readable.
        return f"user {self.node!r} is not in the graph"


class EdgeNotFoundError(GraphError, KeyError):
    """A (source, target, label) relationship was referenced but not found."""

    def __init__(self, source, target, label):
        super().__init__((source, target, label))
        self.source = source
        self.target = target
        self.label = label

    def __str__(self) -> str:
        return (
            f"relationship {self.source!r} -[{self.label}]-> {self.target!r} "
            "is not in the graph"
        )


class DuplicateNodeError(GraphError):
    """A user id was added twice to the same graph."""


class DuplicateEdgeError(GraphError):
    """The same (source, target, label) relationship was added twice."""


class GraphFormatError(GraphError):
    """A serialized graph document could not be parsed."""


class SnapshotFormatError(GraphFormatError):
    """A persisted compiled-graph snapshot (or delta segment) is unreadable.

    Raised for corrupt, truncated or version-mismatched snapshot files —
    never a raw :class:`struct.error` and never silently wrong CSR rows.
    Carries the offending ``path`` and the header/section ``field`` that
    failed validation, so operators can tell a torn write from a format
    bump.  Callers are expected to fall back to a clean recompile
    (:meth:`SnapshotStore.load_or_compile` does exactly that).
    """

    def __init__(self, path, field: str, message: str):
        super().__init__(f"{path}: bad snapshot field {field!r}: {message}")
        self.path = path
        self.field = field
        self.reason = message


class SnapshotStaleError(GraphError):
    """A persisted snapshot is readable but cannot serve the live graph.

    The snapshot's source epoch does not match the graph and the gap is not
    covered by the mutation journal (or the structural cross-checks failed).
    Loading refuses rather than serving silently stale data; callers fall
    back to a recompile and rewrite the store.
    """

    def __init__(self, path, message: str):
        super().__init__(f"{path}: stale snapshot: {message}")
        self.path = path
        self.reason = message


# ---------------------------------------------------------------------------
# Policy (access-control model) errors
# ---------------------------------------------------------------------------


class PolicyError(ReproError):
    """Base class for errors raised by the access-control model."""


class PathExpressionSyntaxError(PolicyError, ValueError):
    """A textual path expression could not be parsed.

    Carries the offending expression and the position of the error so that
    user interfaces can point at the mistake.
    """

    def __init__(self, expression: str, position: int, message: str):
        super().__init__(f"{message} (at position {position} in {expression!r})")
        self.expression = expression
        self.position = position
        self.reason = message


class RuleValidationError(PolicyError):
    """An access rule is structurally invalid (e.g. empty condition set)."""


class ResourceNotFoundError(PolicyError, KeyError):
    """A resource id was referenced that is not registered in the store."""

    def __init__(self, resource_id):
        super().__init__(resource_id)
        self.resource_id = resource_id

    def __str__(self) -> str:
        return f"resource {self.resource_id!r} is not registered"


class RuleNotFoundError(PolicyError, KeyError):
    """An access-rule id was referenced that is not registered in the store."""

    def __init__(self, rule_id):
        super().__init__(rule_id)
        self.rule_id = rule_id

    def __str__(self) -> str:
        return f"access rule {self.rule_id!r} is not registered"


class UnknownOperatorError(PolicyError, ValueError):
    """An attribute condition used a comparison operator we do not support."""


# ---------------------------------------------------------------------------
# Reachability / query-evaluation errors
# ---------------------------------------------------------------------------


class ReachabilityError(ReproError):
    """Base class for errors raised by the reachability query engines."""


class UnknownBackendError(ReachabilityError, KeyError):
    """An evaluation backend name was requested that is not registered."""

    def __init__(self, name, available=()):
        super().__init__(name)
        self.name = name
        self.available = tuple(available)

    def __str__(self) -> str:
        hint = f" (available: {', '.join(self.available)})" if self.available else ""
        return f"unknown reachability backend {self.name!r}{hint}"


class IndexNotBuiltError(ReachabilityError, RuntimeError):
    """A query was submitted to an index-backed evaluator before ``build()``."""


class QueryError(ReachabilityError, ValueError):
    """A reachability query is malformed (e.g. empty step sequence)."""


class QueryBudgetExceeded(ReachabilityError):
    """A query exhausted its :class:`~repro.reliability.guard.QueryGuard` budget.

    Raised cooperatively from inside the traversal sweep loops when the
    active guard runs in ``"raise"`` mode (point-shaped queries, where a
    partial answer would be *wrong* rather than merely incomplete).  Bulk
    query shapes run the guard in ``"partial"`` mode instead and surface a
    truncated result with ``partial=True`` — they never raise this.
    Carries what tripped (``"steps"`` or ``"deadline"``) plus the budget and
    the amount spent, so callers can distinguish a runaway traversal from a
    too-tight deadline.
    """

    def __init__(self, limit: str, budget, spent):
        super().__init__(
            f"query budget exceeded: {limit} limit {budget!r} reached "
            f"after spending {spent!r}"
        )
        self.limit = limit
        self.budget = budget
        self.spent = spent


# ---------------------------------------------------------------------------
# Serving front-end errors
# ---------------------------------------------------------------------------


class ServingError(ReproError):
    """Base class for errors raised by the async serving front-end."""


class AdmissionRejected(ServingError):
    """A request was refused at admission because the pending queue is full.

    The serving layer bounds the number of admitted-but-unfinished requests
    per tenant; past that bound, overload degrades to an immediate typed
    rejection instead of unbounded queueing latency.  Carries the tenant,
    the observed ``pending`` depth and the configured ``limit`` so clients
    can implement informed backoff.
    """

    def __init__(self, tenant, pending: int, limit: int):
        super().__init__(
            f"tenant {tenant!r}: admission rejected, {pending} requests "
            f"already pending (limit {limit})"
        )
        self.tenant = tenant
        self.pending = pending
        self.limit = limit


class UnknownTenantError(ServingError, KeyError):
    """A tenant id was referenced that is not registered with the serving layer."""

    def __init__(self, tenant, available=()):
        super().__init__(tenant)
        self.tenant = tenant
        self.available = tuple(available)

    def __str__(self) -> str:
        hint = (
            f" (registered: {', '.join(map(repr, self.available))})"
            if self.available
            else ""
        )
        return f"unknown tenant {self.tenant!r}{hint}"


class ProtocolError(ServingError, ValueError):
    """A serving-protocol frame is malformed (bad JSON, missing fields...)."""
