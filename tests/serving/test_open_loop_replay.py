"""Open-loop serving replay: coalesced and request-at-a-time answers agree.

Drives one :class:`~repro.serving.session.TenantSession` twice with the same
open-loop load — 32 clients x 8 audience requests over 8 shared path
expressions on a 20k-user generated graph, arriving on a seeded Poisson
schedule whether or not earlier requests have finished:

1. **coalesced** — the production configuration: arrivals that land while
   an earlier batch holds the loop share the next one, and
2. **request-at-a-time** — the same machinery with ``max_batch=1``, so only
   batching differs.

Every request carries a **unique owner**, so no answer can come from a warm
per-owner memo: the request-at-a-time run pays one real sweep per request,
the coalesced run one shared sweep per batch.  All 512 served answers must
equal a sequential replay on an identically seeded twin service, and the
request-at-a-time run must execute one batch per request.

How much the real-time schedule coalesces depends on the machine's speed,
so the batching itself is checked on a seeded schedule that enqueues every
request in one loop turn: there the coalesced count is exact.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import random

import pytest

from repro.service.facade import GraphService
from repro.serving.session import TenantSession
from repro.workloads import WorkloadSpec, build_graph, open_loop_arrivals

USERS = 20_000
CLIENTS = 32
REQUESTS_PER_CLIENT = 8
SEED = 17
#: The full request population lands within ~this horizon: 256 arrivals in
#: 50 ms come at ~5k req/s, close to what request-at-a-time serves, so some
#: same-expression arrivals land while an earlier batch still holds the loop.
ARRIVAL_HORIZON_SECONDS = 0.05
MAX_BATCH = 64

#: Eight path expressions shared by the whole client population.
EXPRESSIONS = (
    "friend+[1]",
    "friend+[1,2]",
    "friend+[1,2]/colleague+[1]",
    "colleague+[1,2]",
    "friend+[1]/colleague+[1]",
    "parent+[1]/friend+[1]",
    "colleague*[1,2]",
    "friend*[1,2]",
)


@pytest.fixture(autouse=True)
def _collect_the_graphs():
    """Free the 20k-user graphs' reference cycles before the next test.

    Left to the collector, they are freed in whichever later test triggers
    a full collection — inside an event-loop callback, under ``-X dev``,
    where asyncio logs the pause as a slow callback and the serving
    tests that assert a silent log fail.
    """
    yield
    gc.collect()


def _build_requests():
    """The shared request list: a unique owner per request, 8 expressions."""
    graph = build_graph(WorkloadSpec(users=USERS, seed=SEED))
    users = sorted(graph.users(), key=str)
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert total <= len(users), "graph too small for unique owners per request"
    requests = [
        (users[i], EXPRESSIONS[i % len(EXPRESSIONS)]) for i in range(total)
    ]
    return graph, requests


async def _drive(session, requests, offsets):
    """Open loop: issue request i at its scheduled offset."""
    loop = asyncio.get_running_loop()
    epoch = loop.time()

    async def one(offset, owner, expression):
        delay = epoch + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        return await session.audience(owner, expression)

    return await asyncio.gather(
        *(
            one(offset, owner, expression)
            for offset, (owner, expression) in zip(offsets, requests)
        )
    )


def _run_mode(graph, requests, offsets, *, max_batch):
    service = GraphService(graph)
    # Compile the snapshot and warm the parse memo and routes with an owner
    # outside the request population (owners stay unique, so no served
    # answer is memo-served).
    warm_owner = sorted(graph.users(), key=str)[-1]
    for expression in EXPRESSIONS:
        service.audience(warm_owner, expression)

    async def main():
        session = TenantSession(
            "replay", service, max_batch=max_batch, max_pending=len(requests) + 1
        )
        try:
            return await _drive(session, requests, offsets)
        finally:
            await session.close()

    answers = asyncio.run(main())
    return answers, service.statistics()


def _sequential_truth(requests):
    """Ground truth: the identical requests on an identically seeded twin."""
    service = GraphService(build_graph(WorkloadSpec(users=USERS, seed=SEED)))
    truth = []
    for owner, expression in requests:
        result = service.audience(owner, expression)
        assert result.partial is False
        truth.append(set(result.audiences.get(owner, set())))
    return truth


def test_coalesced_and_solo_answers_equal_the_sequential_replay():
    graph, requests = _build_requests()
    offsets = open_loop_arrivals(
        len(requests), len(requests) / ARRIVAL_HORIZON_SECONDS, seed=SEED
    )
    coalesced, coalesced_stats = _run_mode(
        graph, requests, offsets, max_batch=MAX_BATCH
    )
    solo, solo_stats = _run_mode(graph, requests, offsets, max_batch=1)

    truth = _sequential_truth(requests)
    for index, ((owner, expression), expected) in enumerate(zip(requests, truth)):
        served = coalesced[index]
        assert set(served.audiences[owner]) == expected, (owner, expression)
        assert served.partial is False
        alone = solo[index]
        assert set(alone.audiences[owner]) == expected, (owner, expression)
        assert alone.partial is False
    assert solo_stats["coalescer_batches_executed"] == len(requests)
    assert coalesced_stats["coalescer_requests_submitted"] == len(requests)


def test_one_loop_turn_of_requests_coalesces_exactly_by_expression():
    """97 audience requests over four expressions, drawn by a seeded rng and
    all enqueued in one loop turn: each expression's requests fill batches
    of ``max_batch`` in arrival order, so the batch count and the coalesced
    count (members of batches of two or more) follow from the schedule.
    This one has 25, 21, 32 and 19 requests per expression: 14 batches, one
    of them a single request."""
    graph = build_graph(WorkloadSpec(users=400, seed=SEED))
    users = sorted(graph.users(), key=str)
    rng = random.Random(SEED)
    requests = [(users[i], rng.choice(EXPRESSIONS[:4])) for i in range(97)]
    max_batch = 8
    service = GraphService(graph)

    async def serve():
        session = TenantSession("exact", service, max_batch=max_batch, max_pending=256)
        answers = [None] * len(requests)
        for index, (owner, expression) in enumerate(requests):
            respond = functools.partial(answers.__setitem__, index)
            session.enqueue_audience(owner, expression, respond)
        await session.close()
        return answers

    served = asyncio.run(serve())
    sizes = []
    for expression in EXPRESSIONS[:4]:
        count = sum(1 for _owner, text in requests if text == expression)
        full, rest = divmod(count, max_batch)
        sizes += [max_batch] * full + ([rest] if rest else [])
    stats = service.statistics()
    assert sorted(sizes) == [1, 3, 5] + [8] * 11
    assert stats["coalescer_batches_executed"] == len(sizes) == 14
    assert stats["coalescer_requests_coalesced"] == sum(s for s in sizes if s > 1) == 96
    twin = GraphService(graph)
    for (owner, expression), answer in zip(requests, served):
        assert answer.batch_size in sizes
        assert answer.audiences[owner] == twin.audience(owner, expression).audiences[owner]
