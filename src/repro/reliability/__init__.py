"""Reliability layer: fault injection, crash-safe recovery, degradation.

Two cooperating pieces, neither of which the hot paths pay for unless
engaged:

* :mod:`~repro.reliability.faults` + :mod:`~repro.reliability.crashsim` —
  deterministic fault injection over the snapshot I/O seam and the
  crash-consistency simulator that proves ``checkpoint()`` atomic at every
  injection point;
* :mod:`~repro.reliability.guard` — cooperative per-query step budgets and
  deadlines for the traversal sweeps (typed
  :class:`~repro.exceptions.QueryBudgetExceeded`, partial results on bulk
  shapes).

A failed index build needs no piece here: the service stamps it with the
graph epoch and prices the backend out of auto-planning until the graph
changes (:class:`~repro.service.GraphService`).

The dependency direction is strictly ``reliability -> graph``: the
persistence layer knows only the neutral
:class:`~repro.graph.snapshot.SnapshotIOHooks` seam, never the injector.
"""

from repro.graph.snapshot import RecoveryReport, SnapshotIOHooks
from repro.reliability.crashsim import (
    CrashConsistencySimulator,
    CrashOutcome,
    CrashReport,
    snapshot_fingerprint,
)
from repro.reliability.faults import FAULT_KINDS, FaultInjector, SimulatedCrash
from repro.reliability.guard import (
    QueryGuard,
    active_guard,
    deadline_scope,
    request_deadline,
)

__all__ = [
    "CrashConsistencySimulator",
    "CrashOutcome",
    "CrashReport",
    "FAULT_KINDS",
    "FaultInjector",
    "QueryGuard",
    "RecoveryReport",
    "SimulatedCrash",
    "SnapshotIOHooks",
    "active_guard",
    "deadline_scope",
    "request_deadline",
    "snapshot_fingerprint",
]
