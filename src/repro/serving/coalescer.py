"""Request coalescing: gather concurrent same-expression requests into batches.

The :class:`RequestCoalescer` is the asyncio-side half of the serving
subsystem's core trick.  Concurrent in-flight requests that share a
*coalesce key* (for this engine: the path-expression text plus the query
shape — the unit one multi-source owner-bitset sweep can answer) are
gathered into one batch **while the runner is busy** (or until a
**batch-size cap**), then handed to a runner that executes the whole batch
as ONE bulk query and fans the per-request answers back out.

A request enters through :meth:`RequestCoalescer.enqueue` with a
``respond`` callback, which fan-out calls once with that request's
outcome; the wire server passes a callback that encodes the answer
straight into the connection's pending write, so a frame costs no task and
no future.  :meth:`RequestCoalescer.submit` is the awaitable form: its
``respond`` settles a future.

The coalescer is deliberately generic: it knows nothing about graphs.  It
owns batching, fan-out and the batch-size histogram; the
:class:`~repro.serving.session.TenantSession` supplies the runner that
turns a ``(key, requests)`` batch into per-request outcomes.

Semantics
---------
* ``window <= 0`` or ``max_batch == 1`` degrade to request-at-a-time
  dispatch (every submission is its own batch) — the benchmark baseline.
  Any positive ``window`` turns gathering on; its magnitude delays nothing.
* The runner holds **one batch at a time**.  Batches waiting for it queue
  in the order they were opened, and keep taking same-key members until
  they reach ``max_batch``; a full batch stops gathering and waits its turn.
* **Idle** (nothing running): a new batch is dispatched at the end of the
  current event-loop iteration, so requests that arrive together (the
  frames of one socket read, one ``asyncio.gather``) still share it.
* **Busy**: when the runner returns it is handed the oldest queued batch —
  the runner's busy period is the gather window, and there is no timer.
  The next batch's task first runs in the next loop iteration, so a busy
  coalescer starts at most one batch per iteration and other work on the
  loop (another tenant's batches, socket reads) runs in between.  The
  session's runner executes on the loop itself, so while it runs, arrivals
  wait in the socket buffer and are read in the iteration after it returns.
* A batch task starts in a fresh :class:`contextvars.Context`: it serves
  many requesters, so it inherits none of their context variables.
* The runner returns one outcome per request, aligned by position; an
  outcome that is a :class:`Raised` carries an exception meant for that
  request alone (so one member's typed error — an expired deadline, an
  unknown node — never poisons its batch-mates).
* Every member's ``respond`` is called, cancelled awaiters included (their
  future ignores it); the batch still runs, since its result may serve the
  other members.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = ["Raised", "RequestCoalescer", "Respond", "BATCH_HISTOGRAM_BUCKETS", "awaited"]

#: Upper edges of the batch-size histogram buckets (the last bucket is
#: open-ended).  Surfaced through ``GraphService.statistics()`` as
#: ``coalescer_batch_le_<edge>`` counters.
BATCH_HISTOGRAM_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


class Raised:
    """Fan-out wrapper: this request's outcome is an exception, not a value."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"<Raised {type(self.error).__name__}: {self.error}>"


#: Receives one request's outcome: its answer, or :class:`Raised`.
Respond = Callable[[object], None]


def _settle(future: asyncio.Future, outcome: object) -> None:
    if future.done():  # cancelled awaiter
        return
    if isinstance(outcome, Raised):
        future.set_exception(outcome.error)
    else:
        future.set_result(outcome)


async def awaited(enter: Callable[..., None], *args: Any, **kwargs: Any) -> Any:
    """Await the outcome a callback entry responds with.

    ``enter(*args, respond, **kwargs)`` takes the request — raising if it
    refuses it — and later calls ``respond`` exactly once; this returns
    the answer, or raises the exception a :class:`Raised` outcome carries.
    """
    future = asyncio.get_running_loop().create_future()
    enter(*args, functools.partial(_settle, future), **kwargs)
    return await future


class _Batch:
    __slots__ = ("key", "items", "task")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.items: List[Tuple[object, Respond]] = []
        self.task: Optional[asyncio.Task] = None  # its run, once dispatched


#: A batch runner: receives the coalesce key and the batch's requests (in
#: arrival order) and returns one outcome per request — the answer itself,
#: or :class:`Raised` wrapping the exception to raise to that requester.
BatchRunner = Callable[[Hashable, List[object]], Awaitable[Sequence[object]]]


class RequestCoalescer:
    """Batch concurrent same-key requests; fan results back to their callers.

    Must be used from a single asyncio event loop (the serving server's).
    ``window > 0`` turns gathering on (how long a batch gathers is set by
    the runner's busy period, not by this value); ``max_batch`` caps batch
    size (a full batch stops gathering and waits its turn).
    """

    def __init__(
        self,
        runner: BatchRunner,
        *,
        window: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._runner = runner
        self.window = float(window)
        self.max_batch = int(max_batch)
        #: Queued batches still taking members, by key.
        self._open: Dict[Hashable, _Batch] = {}
        #: Batches waiting for the runner, oldest first (open or full).
        self._queue: Deque[_Batch] = deque()
        #: The batch the runner is executing, if any.
        self._running: Optional[_Batch] = None
        # ------------------------------------------------ lifetime counters
        self.requests_submitted = 0
        #: Requests that shared their batch with at least one other request.
        self.requests_coalesced = 0
        self.batches_executed = 0
        self.runner_failures = 0
        self._histogram = [0] * (len(BATCH_HISTOGRAM_BUCKETS) + 1)

    # ---------------------------------------------------------------- submit

    def enqueue(self, key: Hashable, request: object, respond: Respond) -> None:
        """Add one request under ``key``; fan-out calls ``respond(outcome)``.

        Must run on the event loop.  An unhashable ``key`` raises here,
        before anything is queued.
        """
        batch = self._open.get(key)  # hashes the key, where pop() on {} would not
        if batch is None:
            batch = _Batch(key)
            self._queue.append(batch)
            if self._running is None:
                # Idle: nothing to wait for beyond this iteration's arrivals.
                asyncio.get_running_loop().call_soon(self._dispatch)
            if self.window > 0:
                self._open[key] = batch  # taking members
        self.requests_submitted += 1
        batch.items.append((request, respond))
        if len(batch.items) >= self.max_batch:
            self._open.pop(key, None)  # full: it stops gathering

    async def submit(self, key: Hashable, request: object) -> object:
        """Enqueue one request under ``key``; await its individual answer."""
        return await awaited(self.enqueue, key, request)

    # -------------------------------------------------------------- dispatch

    def _dispatch(self) -> None:
        """Hand the oldest queued batch to the runner, if the runner is free."""
        if self._running is not None or not self._queue:
            return
        batch = self._queue.popleft()
        if self._open.get(batch.key) is batch:
            del self._open[batch.key]
        size = len(batch.items)
        self.batches_executed += 1
        if size > 1:
            self.requests_coalesced += size
        self._record_size(size)
        # The batch holds its task: asyncio itself only keeps weak references.
        batch.task = contextvars.Context().run(
            asyncio.get_running_loop().create_task, self._run(batch)
        )
        self._running = batch

    async def _run(self, batch: _Batch) -> None:
        requests = [request for request, _respond in batch.items]
        try:
            outcomes: Sequence[object] = await self._runner(batch.key, requests)
            if len(outcomes) != len(requests):
                raise RuntimeError(
                    f"batch runner returned {len(outcomes)} outcomes "
                    f"for {len(requests)} requests"
                )
        except BaseException as error:  # noqa: BLE001 — fanned out, not dropped
            self.runner_failures += 1
            outcomes = [Raised(error)] * len(requests)
        self._running = None
        # The runner is free: hand it the next batch before fanning out, so
        # it never idles on a loop round-trip.
        self._dispatch()
        for (_request, respond), outcome in zip(batch.items, outcomes):
            respond(outcome)

    async def drain(self) -> None:
        """Run every queued batch and wait until the runner is free."""
        self._dispatch()
        while self._running is not None:
            await asyncio.gather(self._running.task, return_exceptions=True)

    # ------------------------------------------------------------ statistics

    def _record_size(self, size: int) -> None:
        for index, edge in enumerate(BATCH_HISTOGRAM_BUCKETS):
            if size <= edge:
                self._histogram[index] += 1
                return
        self._histogram[-1] += 1

    def batch_size_histogram(self) -> Dict[str, int]:
        """Batch-size counts by bucket (``le_<edge>`` plus open-ended ``gt``)."""
        counts = {
            f"batch_le_{edge}": self._histogram[index]
            for index, edge in enumerate(BATCH_HISTOGRAM_BUCKETS)
        }
        counts[f"batch_gt_{BATCH_HISTOGRAM_BUCKETS[-1]}"] = self._histogram[-1]
        return counts

    def statistics(self) -> Dict[str, float]:
        """Lifetime counters plus the batch-size histogram, all floats."""
        stats = {
            "requests_submitted": float(self.requests_submitted),
            "requests_coalesced": float(self.requests_coalesced),
            "batches_executed": float(self.batches_executed),
            "runner_failures": float(self.runner_failures),
            "open_batches": float(len(self._queue)),
        }
        for name, count in self.batch_size_histogram().items():
            stats[name] = float(count)
        return stats

    def __repr__(self) -> str:
        return (
            f"<RequestCoalescer window={self.window} max_batch={self.max_batch} "
            f"batches={self.batches_executed}>"
        )
