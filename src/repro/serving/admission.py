"""Admission control: bounded pending work and per-request deadlines.

Each :class:`~repro.serving.session.TenantSession` owns one
:class:`AdmissionController`.  A request is *admitted* when it enters the
session (before coalescing) and *released* when its answer — or error —
is ready; between the two it counts against the tenant's ``max_pending``
bound.  When the bound is hit, new requests are rejected immediately with
a typed :class:`~repro.exceptions.AdmissionRejected` instead of queueing
without limit: under overload the server sheds load at the front door
rather than letting latency grow unboundedly (open-loop arrivals do not
slow down just because the server is busy).

Deadlines ride the same path: :meth:`AdmissionController.deadline_for`
converts a per-request timeout into an absolute ``time.monotonic``
deadline, which the session then installs with
:func:`repro.reliability.guard.deadline_scope` around the request's (or
its batch's) execution so the engine's :class:`~repro.reliability.guard.QueryGuard`
enforces it cooperatively (min-combined with the guard's own deadline).
The clock starts at admission: time a frame spent in the socket buffer
while the loop ran other batches, this tenant's or another's, is not
counted against it.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Optional

from repro.exceptions import AdmissionRejected

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-pending admission with absolute-deadline derivation.

    Not thread-safe by design: admit/release happen only on the serving
    event loop, where every service call runs too.
    """

    def __init__(
        self,
        tenant: Hashable,
        *,
        max_pending: int = 256,
        default_timeout: Optional[float] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.tenant = tenant
        self.max_pending = int(max_pending)
        #: Timeout (seconds) applied when a request carries none; ``None``
        #: means admitted requests run under the guard's own budgets only.
        self.default_timeout = default_timeout
        self.pending = 0
        self.peak_pending = 0
        self.admitted = 0
        self.rejected = 0

    # -------------------------------------------------------------- lifecycle

    def admit(self) -> None:
        """Count one request in, or raise :class:`AdmissionRejected`."""
        if self.pending >= self.max_pending:
            self.rejected += 1
            raise AdmissionRejected(self.tenant, self.pending, self.max_pending)
        self.pending += 1
        self.admitted += 1
        if self.pending > self.peak_pending:
            self.peak_pending = self.pending

    def release(self) -> None:
        """Count one request out (answered or failed)."""
        if self.pending <= 0:
            raise RuntimeError("release() without matching admit()")
        self.pending -= 1

    # -------------------------------------------------------------- deadlines

    def deadline_for(self, timeout: Optional[float] = None) -> Optional[float]:
        """Absolute ``time.monotonic`` deadline for a request's timeout.

        Explicit ``timeout`` wins; otherwise ``default_timeout`` applies;
        ``None`` both places means no request-level deadline.
        """
        effective = self.default_timeout if timeout is None else timeout
        if effective is None:
            return None
        return time.monotonic() + float(effective)

    # ------------------------------------------------------------- statistics

    def statistics(self) -> Dict[str, float]:
        return {
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
            "pending": float(self.pending),
            "peak_pending": float(self.peak_pending),
            "max_pending": float(self.max_pending),
        }

    def __repr__(self) -> str:
        return (
            f"<AdmissionController tenant={self.tenant!r} "
            f"pending={self.pending}/{self.max_pending}>"
        )
