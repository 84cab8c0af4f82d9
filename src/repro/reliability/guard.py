"""Cooperative query budgets: step limits and deadlines for traversal sweeps.

A :class:`QueryGuard` bounds how much work a single query may do.  The
traversal cores (:mod:`repro.reachability.compiled_search` and the cluster
matcher) call :meth:`QueryGuard.spend` from inside their sweep loops — once
per expanded frontier entry, charged with the number of CSR positions
scanned since the previous tick — so a runaway product-graph search is
interrupted *cooperatively*, at a loop boundary, never
mid-datastructure-update.  Point queries and audiences alike run on the mask
sweep, which queues only slots that can take an edge: a terminal slot
(accept or max-depth state) is written but never popped, so it is paid for
by the CSR entry that reached it.  One tick is therefore one *expanding*
pop, and a budget still bounds total work, loosened at most by the
automaton's longest spontaneous-advance chain.

Two trip modes, chosen per query shape by :class:`~repro.service.facade.GraphService`:

* ``"raise"`` — point-shaped queries (``reach``, ``access``) raise a typed
  :class:`~repro.exceptions.QueryBudgetExceeded`: a truncated reachability
  answer would be *wrong* (an under-approximation reported as "unreachable"),
  so the only honest degraded answer is "over budget".
* ``"partial"`` — bulk shapes (``audience``, ``bulk``) stop expanding and
  surface whatever audiences were completed with ``partial=True`` on the
  result.  Partial results are never cached by the engine memos.

The active guard travels through a :mod:`contextvars` context variable
rather than a parameter thread — the sweep loops are called through several
layers of evaluator indirection that should not all grow a ``guard=``
argument.  ``active_guard()`` is the single lookup the hot loops perform
(once per sweep, hoisted out of the loop body).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Optional

from repro.exceptions import QueryBudgetExceeded

__all__ = ["QueryGuard", "active_guard", "deadline_scope", "request_deadline"]

_ACTIVE_GUARD: ContextVar[Optional["QueryGuard"]] = ContextVar(
    "repro_active_query_guard", default=None
)

#: Absolute per-request deadline (``time.monotonic`` timestamp) announced by
#: the serving front-end for the duration of one request.  Guard scopes
#: opened inside it tighten their own deadline to this one, so a request's
#: admission deadline bounds *every* query executed on its behalf without
#: the facade growing a ``deadline=`` parameter on each query path.
_REQUEST_DEADLINE: ContextVar[Optional[float]] = ContextVar(
    "repro_request_deadline", default=None
)


def active_guard() -> Optional["QueryGuard"]:
    """The guard governing the current query, or ``None`` (unguarded)."""
    return _ACTIVE_GUARD.get()


def request_deadline() -> Optional[float]:
    """The ambient per-request deadline, or ``None`` (no deadline announced)."""
    return _REQUEST_DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Optional[float]):
    """Announce an absolute monotonic deadline for queries in this context.

    The serving layer wraps each request's execution in one of these; every
    :meth:`QueryGuard.scope` entered inside takes the *minimum* of its own
    ``max_seconds`` deadline and the announced one.  ``None`` announces
    nothing (useful to keep call sites unconditional).  Deadlines are
    ``time.monotonic`` timestamps — a guard constructed with a custom clock
    for tests should not be mixed with request deadlines.
    """
    token = _REQUEST_DEADLINE.set(deadline)
    try:
        yield
    finally:
        _REQUEST_DEADLINE.reset(token)


class QueryGuard:
    """Step-budget and deadline enforcement for a single query at a time.

    ``max_steps`` bounds explored work (expanding frontier pops + CSR
    positions scanned, the unit the denial filter's rent-or-buy rule counts
    in: seeds plus edge expansions), the same unit for point queries and
    audiences; ``max_seconds`` bounds wall-clock time per
    query.  Either may be ``None`` (unlimited).  The deadline is only
    consulted every ``check_interval`` spent steps — a monotonic-clock read
    per frontier pop would dominate the sweep loops it is protecting.

    The guard object is reused across queries: :meth:`scope` resets the
    per-query counters, installs the guard in the context variable and
    restores the previous guard on exit.  Lifetime counters (``trip_count``)
    survive across scopes and feed ``GraphService.statistics()``.
    """

    RAISE = "raise"
    PARTIAL = "partial"

    def __init__(
        self,
        *,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
        check_interval: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_steps is not None and max_steps <= 0:
            raise ValueError("max_steps must be positive or None")
        if max_seconds is not None and max_seconds <= 0:
            raise ValueError("max_seconds must be positive or None")
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.check_interval = max(1, int(check_interval))
        self._clock = clock
        self._mode = self.RAISE
        self._deadline: Optional[float] = None
        self._until_check = self.check_interval
        self.steps_spent = 0
        self.tripped = False
        self.trip_reason: Optional[str] = None
        self.trip_count = 0

    # ------------------------------------------------------------------ scope

    @contextmanager
    def scope(self, mode: str = RAISE):
        """Install the guard for one query; resets per-query counters.

        ``tripped`` / ``steps_spent`` / ``trip_reason`` remain readable
        after the scope exits (until the next scope begins), so callers can
        flag partial results without re-entering the context.
        """
        if mode not in (self.RAISE, self.PARTIAL):
            raise ValueError(f"unknown guard mode {mode!r}")
        self._mode = mode
        self.steps_spent = 0
        self.tripped = False
        self.trip_reason = None
        self._until_check = self.check_interval
        self._deadline = (
            self._clock() + self.max_seconds if self.max_seconds is not None else None
        )
        requested = _REQUEST_DEADLINE.get()
        if requested is not None:
            # The serving front-end's per-request deadline tightens (never
            # loosens) the guard's own per-query budget.
            self._deadline = (
                requested if self._deadline is None else min(self._deadline, requested)
            )
        token = _ACTIVE_GUARD.set(self)
        try:
            yield self
        finally:
            _ACTIVE_GUARD.reset(token)

    # ------------------------------------------------------------------ spend

    def spend(self, steps: int = 1) -> bool:
        """Charge ``steps`` units of work; ``False`` means *stop expanding*.

        In ``"raise"`` mode a blown budget raises
        :class:`QueryBudgetExceeded` instead of returning.  Once tripped,
        every further call fails fast without re-checking the clock, so a
        multi-sweep bulk query stops almost immediately after the first
        sweep exhausts the shared per-query budget.
        """
        if self.tripped:
            return self._trip(self.trip_reason or "steps")
        self.steps_spent += steps
        if self.max_steps is not None and self.steps_spent > self.max_steps:
            return self._trip("steps")
        if self._deadline is not None:
            self._until_check -= steps
            if self._until_check <= 0:
                self._until_check = self.check_interval
                if self._clock() > self._deadline:
                    return self._trip("deadline")
        return True

    def _trip(self, reason: str) -> bool:
        if not self.tripped:
            self.tripped = True
            self.trip_reason = reason
            self.trip_count += 1
        if self._mode == self.RAISE:
            budget = self.max_steps if reason == "steps" else self.max_seconds
            raise QueryBudgetExceeded(reason, budget, self.steps_spent)
        return False

    def __repr__(self) -> str:
        return (
            f"<QueryGuard steps={self.max_steps} seconds={self.max_seconds} "
            f"spent={self.steps_spent} tripped={self.tripped}>"
        )
