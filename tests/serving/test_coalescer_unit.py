"""Unit behavior of the generic RequestCoalescer (no graph involved)."""

import asyncio

import pytest

from repro.serving.coalescer import Raised, RequestCoalescer


def _run(coro):
    return asyncio.run(coro)


def _echo_runner(calls):
    async def runner(key, requests):
        calls.append((key, list(requests)))
        return [f"{key}:{request}" for request in requests]

    return runner


def test_concurrent_same_key_requests_share_one_batch():
    calls = []

    async def main():
        coalescer = RequestCoalescer(_echo_runner(calls), max_batch=8)
        return await asyncio.gather(
            *(coalescer.submit("k", i) for i in range(5))
        )

    results = _run(main())
    assert results == [f"k:{i}" for i in range(5)]
    assert len(calls) == 1 and len(calls[0][1]) == 5


def test_distinct_keys_batch_separately():
    calls = []

    async def main():
        coalescer = RequestCoalescer(_echo_runner(calls))
        return await asyncio.gather(
            coalescer.submit("a", 1), coalescer.submit("b", 2)
        )

    assert _run(main()) == ["a:1", "b:2"]
    assert sorted(key for key, _ in calls) == ["a", "b"]


def test_max_batch_one_degrades_to_request_at_a_time():
    calls = []

    async def main():
        coalescer = RequestCoalescer(_echo_runner(calls), max_batch=1)
        return await asyncio.gather(
            *(coalescer.submit("k", i) for i in range(4))
        )

    _run(main())
    assert len(calls) == 4
    assert all(len(batch) == 1 for _key, batch in calls)


def test_max_batch_cap_flushes_early():
    calls = []

    async def main():
        coalescer = RequestCoalescer(_echo_runner(calls), max_batch=3)
        return await asyncio.gather(
            *(coalescer.submit("k", i) for i in range(7))
        )

    _run(main())  # full batches stop gathering and run in turn
    sizes = sorted(len(batch) for _key, batch in calls)
    assert sizes == [1, 3, 3]


def test_raised_outcome_targets_only_its_request():
    async def runner(key, requests):
        return [
            Raised(ValueError(f"bad {request}")) if request % 2 else request
            for request in requests
        ]

    async def main():
        coalescer = RequestCoalescer(runner)
        return await asyncio.gather(
            *(coalescer.submit("k", i) for i in range(4)),
            return_exceptions=True,
        )

    even_a, odd_a, even_b, odd_b = _run(main())
    assert even_a == 0 and even_b == 2
    assert isinstance(odd_a, ValueError) and isinstance(odd_b, ValueError)


def test_runner_exception_fans_out_to_every_member():
    async def runner(key, requests):
        raise RuntimeError("backend exploded")

    async def main():
        coalescer = RequestCoalescer(runner)
        outcomes = await asyncio.gather(
            *(coalescer.submit("k", i) for i in range(3)),
            return_exceptions=True,
        )
        return outcomes, coalescer

    outcomes, coalescer = _run(main())
    assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
    assert coalescer.runner_failures == 1


def test_mismatched_outcome_count_is_a_runner_failure():
    async def runner(key, requests):
        return ["only-one"]

    async def main():
        coalescer = RequestCoalescer(runner)
        return await asyncio.gather(
            *(coalescer.submit("k", i) for i in range(2)),
            return_exceptions=True,
        )

    outcomes = _run(main())
    assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)


def test_statistics_and_histogram_buckets():
    calls = []

    async def main():
        coalescer = RequestCoalescer(_echo_runner(calls), max_batch=8)
        await asyncio.gather(*(coalescer.submit("k", i) for i in range(5)))
        await coalescer.submit("solo", 99)
        return coalescer

    coalescer = _run(main())
    stats = coalescer.statistics()
    assert stats["requests_submitted"] == 6.0
    assert stats["requests_coalesced"] == 5.0
    assert stats["batches_executed"] == 2.0
    assert stats["batch_le_1"] == 1.0  # the solo batch
    assert stats["batch_le_8"] == 1.0  # the 5-wide batch
    assert stats["open_batches"] == 0.0


def test_invalid_max_batch():
    with pytest.raises(ValueError):
        RequestCoalescer(_echo_runner([]), max_batch=0)


def test_drain_flushes_open_batches():
    calls = []

    async def main():
        coalescer = RequestCoalescer(_echo_runner(calls))
        pending = asyncio.ensure_future(coalescer.submit("k", 1))
        await asyncio.sleep(0)  # the batch is open, not yet dispatched
        await coalescer.drain()
        return await pending

    assert _run(main()) == "k:1"
    assert len(calls) == 1


# ------------------------------------------------- the scheduling contract
#
# The runner holds one batch at a time.  Idle (nothing running): a new batch
# is dispatched at the end of the loop iteration that opened it.  Busy:
# batches gather until the runner returns, which hands it the oldest queued
# batch, so a busy coalescer starts at most one batch per loop iteration.  A
# full batch stops gathering but still waits its turn.  No timer anywhere:
# the tests below synchronise on loop turns and on the runner's own gates,
# never on the clock.


class _GatedRunner:
    """Plays a long batch: every call blocks on its own Event."""

    def __init__(self):
        self.calls = []  # (key, requests), in the order the runner was called
        self.finished = []  # keys, in the order the calls returned
        self.gates = []  # one Event per call, created inside the running loop
        self.hold = True

    async def __call__(self, key, requests):
        gate = asyncio.Event()
        self.gates.append(gate)
        self.calls.append((key, list(requests)))
        if self.hold:
            await gate.wait()
        self.finished.append(key)
        return [f"{key}:{request}" for request in requests]

    def release_all(self):
        self.hold = False
        for gate in self.gates:
            gate.set()


async def _turns(count=5):
    """Let every ready callback and task step run, ``count`` times over."""
    for _ in range(count):
        await asyncio.sleep(0)


def test_idle_submit_is_dispatched_at_once():
    async def main():
        runner = _GatedRunner()
        coalescer = RequestCoalescer(runner)
        pending = asyncio.ensure_future(coalescer.submit("k", 1))
        # submit opens the batch, call_soon dispatches it, the run task starts.
        await _turns(3)
        assert runner.calls == [("k", [1])]
        runner.release_all()
        return await pending

    assert _run(main()) == "k:1"


def test_idle_submits_of_one_iteration_share_the_batch():
    async def main():
        runner = _GatedRunner()
        coalescer = RequestCoalescer(runner)
        pending = [asyncio.ensure_future(coalescer.submit("k", i)) for i in range(3)]
        await _turns()
        assert runner.calls == [("k", [0, 1, 2])]
        runner.release_all()
        return await asyncio.gather(*pending)

    assert _run(main()) == ["k:0", "k:1", "k:2"]


@pytest.mark.parametrize("turns_held", [1, 200])
def test_busy_submits_gather_until_the_runner_is_free(turns_held):
    async def main():
        runner = _GatedRunner()
        coalescer = RequestCoalescer(runner)
        pending = [asyncio.ensure_future(coalescer.submit("k", 0))]
        await _turns()
        for i in range(1, 9):  # one arrival per stretch of loop iterations
            pending.append(asyncio.ensure_future(coalescer.submit("k", i)))
            pending.append(asyncio.ensure_future(coalescer.submit("j", i)))
            await _turns(turns_held)
        assert runner.calls == [("k", [0])]
        assert coalescer.statistics()["open_batches"] == 2.0
        runner.gates[0].set()
        await _turns()
        assert runner.calls[1:] == [("k", list(range(1, 9)))]
        runner.gates[1].set()
        await _turns()
        assert runner.calls[2:] == [("j", list(range(1, 9)))]
        runner.release_all()
        await asyncio.gather(*pending)
        return coalescer

    coalescer = _run(main())
    assert coalescer.batches_executed == 3
    assert coalescer.statistics()["open_batches"] == 0.0


def test_queued_batches_run_one_at_a_time_in_the_order_opened():
    async def main():
        runner = _GatedRunner()
        coalescer = RequestCoalescer(runner)
        pending = [asyncio.ensure_future(coalescer.submit("first", 0))]
        await _turns()
        for key in ("c", "a", "b", "a", "c"):  # opened as c, a, b
            pending.append(asyncio.ensure_future(coalescer.submit(key, 1)))
            await _turns(2)
        for expected in ("c", "a", "b"):
            runner.gates[-1].set()
            await _turns()
            # The runner took the next oldest batch and nothing more.
            assert runner.calls[-1][0] == expected
            assert len(runner.calls) == len(runner.finished) + 1
        assert [len(requests) for _key, requests in runner.calls] == [1, 2, 2, 1]
        runner.release_all()
        await asyncio.gather(*pending)

    _run(main())


def test_distinct_keys_arriving_together_start_one_per_iteration():
    async def main():
        calls, started = [], []
        iteration = 0

        def tick():
            nonlocal iteration
            iteration += 1
            if len(calls) < 4:
                asyncio.get_running_loop().call_soon(tick)

        async def runner(key, requests):
            calls.append(key)
            started.append(iteration)
            return list(requests)

        coalescer = RequestCoalescer(runner)
        asyncio.get_running_loop().call_soon(tick)
        await asyncio.gather(*(coalescer.submit(key, 0) for key in "wxyz"))
        return calls, started

    calls, started = _run(main())
    assert calls == list("wxyz")
    assert len(set(started)) == 4  # each in an iteration of its own


def test_a_full_batch_stops_gathering_and_waits_its_turn():
    async def main():
        runner = _GatedRunner()
        coalescer = RequestCoalescer(runner, max_batch=3)
        pending = [asyncio.ensure_future(coalescer.submit("k", 0))]
        await _turns()
        for i in range(1, 5):
            pending.append(asyncio.ensure_future(coalescer.submit("k", i)))
            await _turns(2)
        # [1, 2, 3] filled up and closed; 4 opened the next batch.
        assert runner.calls == [("k", [0])]
        assert coalescer.statistics()["open_batches"] == 2.0
        runner.release_all()
        await asyncio.gather(*pending)
        return [len(requests) for _key, requests in runner.calls]

    assert _run(main()) == [1, 3, 1]


def test_drain_runs_every_queued_batch_and_returns_when_the_runner_is_free():
    async def main():
        runner = _GatedRunner()
        coalescer = RequestCoalescer(runner)
        pending = [asyncio.ensure_future(coalescer.submit("k", 0))]
        await _turns()
        pending.append(asyncio.ensure_future(coalescer.submit("k", 1)))
        pending.append(asyncio.ensure_future(coalescer.submit("j", 2)))
        await _turns()
        assert len(runner.calls) == 1
        drained = asyncio.ensure_future(coalescer.drain())
        await _turns()
        assert not drained.done()
        runner.release_all()
        await asyncio.wait_for(drained, 10)
        assert [key for key, _requests in runner.calls] == ["k", "k", "j"]
        assert all(future.done() for future in pending)
        return [future.result() for future in pending]

    assert _run(main()) == ["k:0", "k:1", "j:2"]


def test_no_timer_is_ever_armed(monkeypatch):
    def no_timers(*_args, **_kwargs):
        raise AssertionError("the coalescer armed a timer")

    async def main():
        runner = _GatedRunner()
        coalescer = RequestCoalescer(runner, max_batch=3)
        with monkeypatch.context() as patch:
            patch.setattr(asyncio.get_running_loop(), "call_later", no_timers)
            pending = [asyncio.ensure_future(coalescer.submit("k", 0))]  # idle
            await _turns()
            for i in range(1, 6):  # busy; the cap closes one batch
                pending.append(asyncio.ensure_future(coalescer.submit("k", i)))
            await _turns()
            runner.release_all()
            await coalescer.drain()
            return await asyncio.gather(*pending)

    assert _run(main()) == [f"k:{i}" for i in range(6)]


def test_enqueue_responds_once_per_request_and_skips_a_cancelled_awaiter():
    async def main():
        runner = _GatedRunner()
        coalescer = RequestCoalescer(runner)
        answers = []
        doomed = asyncio.ensure_future(coalescer.submit("k", 0))
        kept = asyncio.ensure_future(coalescer.submit("k", 1))
        await asyncio.sleep(0)  # both submitted; their batch not yet dispatched
        coalescer.enqueue("k", 2, answers.append)
        doomed.cancel()
        await _turns()
        runner.release_all()
        assert await kept == "k:1"
        await coalescer.drain()
        return runner.calls, answers, doomed.cancelled()

    calls, answers, cancelled = _run(main())
    assert calls == [("k", [0, 1, 2])]  # the cancelled member's batch still ran
    assert answers == ["k:2"] and cancelled


def test_an_unhashable_key_is_refused_before_anything_is_queued():
    async def main():
        coalescer = RequestCoalescer(_echo_runner([]))
        with pytest.raises(TypeError):
            coalescer.enqueue(["not", "hashable"], 0, lambda outcome: None)
        return coalescer.statistics()

    stats = _run(main())
    assert stats["requests_submitted"] == 0.0 and stats["open_batches"] == 0.0
