"""Request coalescing: gather concurrent same-expression requests into batches.

The :class:`RequestCoalescer` is the asyncio-side half of the serving
subsystem's core trick.  Concurrent in-flight requests that share a
*coalesce key* (for this engine: the path-expression text plus the query
shape — the unit one multi-source owner-bitset sweep can answer) are
gathered into one batch **while the runner is busy** (or until a
**batch-size cap**), then handed to a runner that executes the whole batch
as ONE bulk query on the tenant's worker thread and fans the per-request
answers back out to the per-request futures.

The coalescer is deliberately generic: it knows nothing about graphs.  It
owns batching, futures, and the batch-size histogram; the
:class:`~repro.serving.session.TenantSession` supplies the runner that
turns a ``(key, requests)`` batch into per-request outcomes.

Semantics
---------
* ``window <= 0`` or ``max_batch == 1`` degrade to request-at-a-time
  dispatch (every submission is its own batch) — the benchmark baseline.
  Any positive ``window`` turns gathering on; its magnitude delays nothing.
* A batch flushes **at once** when it reaches ``max_batch`` members.
* **Idle** (no batch in flight): a new batch flushes at the end of the
  current event-loop iteration, so requests that arrive together (the
  frames of one socket read, one ``asyncio.gather``) still share it.
* **Busy**: batches stay open until the last in-flight batch completes,
  then *every* open batch is flushed, in the order opened — the runner's
  busy period is the gather window, and there is no timer.
* The runner returns one outcome per request, aligned by position; an
  outcome that is a :class:`Raised` carries an exception to set on that
  request's future (so one member's typed error — an expired deadline, an
  unknown node — never poisons its batch-mates).
* Cancelled requesters are skipped at fan-out; the batch still runs (its
  result may serve the other members).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

__all__ = ["Raised", "RequestCoalescer", "BATCH_HISTOGRAM_BUCKETS"]

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


class _Batch:
    __slots__ = ("key", "items", "task")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.items: List[Tuple[object, asyncio.Future]] = []
        self.task: Optional[asyncio.Task] = None  # its run, once flushed


#: A batch runner: receives the coalesce key and the batch's requests (in
#: arrival order) and returns one outcome per request — the answer itself,
#: or :class:`Raised` wrapping the exception to raise to that requester.
BatchRunner = Callable[[Hashable, List[object]], Awaitable[Sequence[object]]]


class RequestCoalescer:
    """Batch concurrent same-key requests; fan results back to futures.

    Must be used from a single asyncio event loop (the serving server's).
    ``window > 0`` turns gathering on (how long a batch gathers is set by
    the runner's busy period, not by this value); ``max_batch`` caps batch
    size (a full batch flushes immediately).
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
        self._open: Dict[Hashable, _Batch] = {}
        #: Flushed batches whose runner has not returned yet.
        self._inflight: Set[_Batch] = set()
        # ------------------------------------------------ lifetime counters
        self.requests_submitted = 0
        #: Requests that shared their batch with at least one other request.
        self.requests_coalesced = 0
        self.batches_executed = 0
        self.runner_failures = 0
        self._histogram = [0] * (len(BATCH_HISTOGRAM_BUCKETS) + 1)

    # ---------------------------------------------------------------- submit

    async def submit(self, key: Hashable, request: object) -> object:
        """Enqueue one request under ``key``; await its individual answer."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self.requests_submitted += 1
        gathering = self.window > 0 and self.max_batch > 1
        batch = self._open.get(key)
        if batch is None:
            batch = _Batch(key)
            if gathering:
                self._open[key] = batch
                if not self._inflight:
                    # Idle: nothing to wait for beyond this iteration's arrivals.
                    loop.call_soon(self._flush, batch)
        batch.items.append((request, future))
        if not gathering or len(batch.items) >= self.max_batch:
            self._flush(batch)
        return await future

    # ----------------------------------------------------------------- flush

    def _flush(self, batch: _Batch) -> None:
        if batch.task is not None:
            return
        if self._open.get(batch.key) is batch:
            del self._open[batch.key]
        size = len(batch.items)
        self.batches_executed += 1
        if size > 1:
            self.requests_coalesced += size
        self._record_size(size)
        # The batch holds its task: asyncio itself only keeps weak references.
        batch.task = asyncio.ensure_future(self._run(batch))
        self._inflight.add(batch)

    def _flush_open(self) -> None:
        for batch in list(self._open.values()):  # in the order opened
            self._flush(batch)

    async def _run(self, batch: _Batch) -> None:
        requests = [request for request, _future in batch.items]
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
        self._inflight.discard(batch)
        if not self._inflight:
            # The runner is free: hand it everything that gathered meanwhile
            # before fanning out, so it never idles on a loop round-trip.
            self._flush_open()
        for (_request, future), outcome in zip(batch.items, outcomes):
            if future.done():  # cancelled requester
                continue
            if isinstance(outcome, Raised):
                future.set_exception(outcome.error)
            else:
                future.set_result(outcome)

    async def drain(self) -> None:
        """Flush every open batch and wait for all in-flight runs to finish."""
        self._flush_open()
        while self._inflight:
            await asyncio.gather(
                *(batch.task for batch in self._inflight), return_exceptions=True
            )

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
            "open_batches": float(len(self._open)),
        }
        for name, count in self.batch_size_histogram().items():
            stats[name] = float(count)
        return stats

    def __repr__(self) -> str:
        return (
            f"<RequestCoalescer window={self.window} max_batch={self.max_batch} "
            f"batches={self.batches_executed}>"
        )
