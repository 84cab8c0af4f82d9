"""Differential property harness: coalesced serving ≡ sequential service.

The serving tentpole's contract is that answers produced through the
coalescer are indistinguishable from running the same requests one at a
time against a plain :class:`GraphService`.  The harness drives K
concurrent clients through a :class:`TenantSession` (requests submitted
in one loop iteration share a batch), replays the identical request list
sequentially against an independently built twin service over the same
seeded workload, and compares every answer — including scenarios where a
:class:`QueryGuard` trips the batch (exercising the sequential fallback)
and where a circuit breaker has rerouted the backend.
"""

import asyncio
import contextvars
import random

import pytest

from repro.exceptions import NodeNotFoundError, QueryBudgetExceeded
from repro.reliability.guard import QueryGuard
from repro.service.facade import GraphService
from repro.serving.session import TenantSession
from repro.workloads import WorkloadSpec, build_workload, install_policies

EXPRESSIONS = (
    "friend+[1]",
    "friend+[1,2]",
    "friend+[1,2]/colleague+[1]",
    "colleague*[1,2]",
)
#: Disjoint expression pools per query shape for the guard-trip scenarios:
#: a shape must not be served from memo warmth another shape created, or
#: the sequential twin (which never ran the other shape) would diverge.
REACH_EXPRESSIONS = ("friend+[1,2]", "friend+[1]/colleague+[1]")
AUDIENCE_EXPRESSIONS = ("colleague+[1,2]", "parent+[1]/friend+[1]")


def _twin_services(users=140, seed=11, **service_kwargs):
    """Two independent services over identically generated workloads."""
    served_workload = build_workload(WorkloadSpec(users=users, seed=seed))
    sequential_workload = build_workload(WorkloadSpec(users=users, seed=seed))
    served = GraphService(served_workload.graph, **service_kwargs)
    sequential = GraphService(sequential_workload.graph, **service_kwargs)
    install_policies(served, served_workload)
    install_policies(sequential, sequential_workload)
    return served, sequential, served_workload


def _random_requests(workload, rng, count):
    """A seeded mixed request list over the workload's population."""
    users = sorted(workload.graph.users())
    requests = []
    for _ in range(count):
        shape = rng.choice(("reach", "audience", "check"))
        if shape == "reach":
            requests.append(
                (
                    "reach",
                    rng.choice(users),
                    rng.choice(users),
                    rng.choice(EXPRESSIONS),
                )
            )
        elif shape == "audience":
            requests.append(
                ("audience", rng.choice(users), rng.choice(EXPRESSIONS))
            )
        else:
            requester = rng.choice(users)
            resource_id = rng.choice(workload.resources)[0]
            requests.append(("check", requester, resource_id))
    return requests


async def _serve_one(session, request):
    """One request through the session; its typed error is the answer."""
    try:
        if request[0] == "reach":
            return await session.reach(request[1], request[2], request[3])
        if request[0] == "audience":
            return await session.audience(request[1], request[2])
        return await session.check(request[1], request[2])
    except Exception as error:  # compared against the sequential error
        return error


async def _serve_all(session, requests):
    """Issue every request concurrently through the session."""
    return await asyncio.gather(*(_serve_one(session, request) for request in requests))


def _sequential_answer(service, request):
    """The ground truth: the same request against the plain service."""
    try:
        if request[0] == "reach":
            return service.reach(
                request[1], request[2], request[3], collect_witness=False
            ).reachable
        if request[0] == "audience":
            result = service.audience(request[1], request[2])
            return (set(result.audiences.get(request[1], set())), result.partial)
        return service.check(request[1], request[2], explain=False).granted
    except Exception as error:
        return error


def _assert_equivalent(request, served, expected):
    if isinstance(expected, Exception):
        assert isinstance(served, type(expected)), (request, served, expected)
        return
    if request[0] == "reach":
        assert served.reachable == expected, (request, served, expected)
    elif request[0] == "audience":
        audience, partial = expected
        assert set(served.audience) == audience, (request, served, expected)
        assert served.partial == partial, (request, served, expected)
    else:
        assert served.granted == expected, (request, served, expected)


def _run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------- properties


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_concurrent_clients_match_sequential(seed):
    """K concurrent mixed-shape clients ≡ the same list run sequentially."""
    served_service, sequential_service, workload = _twin_services(seed=11 + seed)
    rng = random.Random(seed)
    requests = _random_requests(workload, rng, count=48)

    async def main():
        session = TenantSession("t", served_service, max_batch=64)
        try:
            return await _serve_all(session, requests)
        finally:
            await session.close()

    served_answers = _run(main())
    for request, served in zip(requests, served_answers):
        expected = _sequential_answer(sequential_service, request)
        _assert_equivalent(request, served, expected)


def test_coalescing_actually_happened():
    """The property run must exercise batches, not degenerate to solo."""
    served_service, _sequential, workload = _twin_services(seed=23)
    users = sorted(workload.graph.users())[:16]

    async def main():
        session = TenantSession("t", served_service, max_batch=64)
        try:
            served = await asyncio.gather(
                *(
                    session.reach(user, users[(i + 5) % 16], "friend+[1,2]")
                    for i, user in enumerate(users)
                )
            )
        finally:
            await session.close()
        return served

    served = _run(main())
    sizes = {answer.batch_size for answer in served}
    assert max(sizes) >= 2, sizes
    assert all(answer.coalesced for answer in served if answer.batch_size > 1)
    stats = served_service.statistics()
    assert stats["coalescer_requests_coalesced"] >= 2
    assert stats["coalescer_batches_executed"] >= 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_guard_tripped_batches_fall_back_to_sequential(seed):
    """A budget small enough to trip batches still serves sequential answers.

    The step budget is sized so one query fits but a coalesced batch
    usually does not: batches trip, the session falls back per request,
    and every answer (including per-request partials) must equal the
    sequential twin's.  Reach and audience use disjoint expression pools
    so no shape is served from memo warmth the sequential twin never built.
    Steps are expanded frontier entries plus CSR positions scanned, so the
    budget is smaller than the number of slots a batch visits.
    """
    guard_kwargs = dict(max_steps=70, check_interval=16)
    served_service, sequential_service, workload = _twin_services(
        users=160,
        seed=31 + seed,
        query_guard=QueryGuard(**guard_kwargs),
    )
    sequential_service.query_guard = QueryGuard(**guard_kwargs)
    rng = random.Random(100 + seed)
    users = sorted(workload.graph.users())
    requests = []
    for _ in range(24):
        if rng.random() < 0.5:
            requests.append(
                (
                    "reach",
                    rng.choice(users),
                    rng.choice(users),
                    rng.choice(REACH_EXPRESSIONS),
                )
            )
        else:
            requests.append(
                ("audience", rng.choice(users), rng.choice(AUDIENCE_EXPRESSIONS))
            )

    async def main():
        session = TenantSession("t", served_service, max_batch=64)
        try:
            return await _serve_all(session, requests)
        finally:
            await session.close()

    served_answers = _run(main())
    for request, served in zip(requests, served_answers):
        expected = _sequential_answer(sequential_service, request)
        _assert_equivalent(request, served, expected)
    # The scenario must actually have exercised the fallback path.
    assert served_service.statistics()["serving_fallbacks"] > 0


def test_breaker_rerouted_backend_still_equivalent():
    """Coalesced answers stay correct when the index backend is broken.

    Forcing the transitive closure's breaker open (the one index backend the
    planner auto-selects, so the one with a default breaker) prices it out
    and keeps every query on a walking backend; the bulk sweeps still
    answer, and answers still match a sequential twin whose breaker is
    equally open.
    """
    served_service, sequential_service, workload = _twin_services(seed=47)
    for service in (served_service, sequential_service):
        for breaker in service.breakers.values():
            for _ in range(16):
                breaker.record_failure(reason="forced for the test")
            assert breaker.blocking
    rng = random.Random(7)
    requests = _random_requests(workload, rng, count=24)

    async def main():
        session = TenantSession("t", served_service, max_batch=64)
        try:
            return await _serve_all(session, requests)
        finally:
            await session.close()

    served_answers = _run(main())
    for request, served in zip(requests, served_answers):
        expected = _sequential_answer(sequential_service, request)
        _assert_equivalent(request, served, expected)


def test_absent_endpoint_errors_only_its_own_request():
    """A batch member with an absent node gets NodeNotFoundError; its
    batch-mates are served normally from the shared sweep."""
    served_service, sequential_service, workload = _twin_services(seed=53)
    users = sorted(workload.graph.users())

    async def main():
        session = TenantSession("t", served_service, max_batch=64)
        try:
            return await asyncio.gather(
                session.reach(users[0], users[1], "friend+[1,2]"),
                session.reach(users[2], "no-such-user", "friend+[1,2]"),
                session.reach(users[3], users[4], "friend+[1,2]"),
                return_exceptions=True,
            )
        finally:
            await session.close()

    first, missing, third = _run(main())
    assert isinstance(missing, NodeNotFoundError)
    for served in (first, third):
        expected = sequential_service.reach(
            served.source, served.target, "friend+[1,2]", collect_witness=False
        ).reachable
        assert served.reachable == expected


def test_access_trivial_decisions_match_sequential():
    """Owner grants and no-rule defaults ride the solo path, unchanged."""
    served_service, sequential_service, workload = _twin_services(seed=61)
    owner = workload.resources[0][1]
    resource_id = workload.resources[0][0]
    # A resource with no rules at all (owner-private under DENY default).
    served_service.store.share(owner, "bare-resource")
    sequential_service.store.share(owner, "bare-resource")
    users = sorted(workload.graph.users())
    requests = [
        ("check", owner, resource_id),  # owner always granted
        ("check", owner, "bare-resource"),  # owner of a rule-less resource
        ("check", users[5], "bare-resource"),  # stranger, no rules -> default
        ("check", users[5], resource_id),  # ruled resource, bulk path
    ]

    async def main():
        session = TenantSession("t", served_service, max_batch=64)
        try:
            return await _serve_all(session, requests)
        finally:
            await session.close()

    for request, served in zip(requests, _run(main())):
        expected = _sequential_answer(sequential_service, request)
        _assert_equivalent(request, served, expected)


def test_witness_requests_take_solo_path_and_return_paths():
    served_service, sequential_service, workload = _twin_services(seed=67)
    users = sorted(workload.graph.users())
    source, target = users[0], users[1]

    async def main():
        session = TenantSession("t", served_service)
        try:
            return await session.reach(source, target, "friend+[1,2]", witness=True)
        finally:
            await session.close()

    served = _run(main())
    expected = sequential_service.reach(source, target, "friend+[1,2]")
    assert served.reachable == expected.reachable
    assert served.coalesced is False and served.batch_size == 1
    if expected.reachable:
        assert served.witness is not None
    assert served_service.statistics()["serving_solo_requests"] == 1


def test_point_budget_errors_surface_typed_after_fallback():
    """When even a single query exceeds the budget, the served error is the
    same typed QueryBudgetExceeded the sequential path raises."""
    guard_kwargs = dict(max_steps=3, check_interval=1)
    served_service, sequential_service, workload = _twin_services(
        users=160, seed=71, query_guard=QueryGuard(**guard_kwargs)
    )
    sequential_service.query_guard = QueryGuard(**guard_kwargs)
    users = sorted(workload.graph.users())
    requests = [
        ("reach", users[i], users[i + 20], "friend+[1,2]/colleague+[1]")
        for i in range(6)
    ]

    async def main():
        session = TenantSession("t", served_service, max_batch=64)
        try:
            return await _serve_all(session, requests)
        finally:
            await session.close()

    served_answers = _run(main())
    tripped = 0
    for request, served in zip(requests, served_answers):
        expected = _sequential_answer(sequential_service, request)
        _assert_equivalent(request, served, expected)
        tripped += isinstance(served, QueryBudgetExceeded)
    assert tripped > 0  # the scenario actually exercised budget errors


def test_tripped_access_batch_counts_fallbacks_not_solo_requests():
    """A guard-tripped bulk access moves ``fallbacks`` by its N members and
    ``solo_requests`` by none: solo counts only requests that skip bulk
    execution from the start, as a tripped reach batch already did."""
    service, _sequential, workload = _twin_services(
        users=160, seed=73, query_guard=QueryGuard(max_steps=3, check_interval=1)
    )
    users = sorted(workload.graph.users())
    requests = [
        ("check", requester, resource_id)
        for resource_id, owner, _expressions in workload.resources[:6]
        for requester in users[:2]
        if requester != owner
    ]

    async def main():
        session = TenantSession("t", service, max_batch=64)
        try:
            return await _serve_all(session, requests)
        finally:
            await session.close()

    _run(main())
    stats = service.statistics()
    assert stats["coalescer_batches_executed"] == 1.0
    assert stats["serving_fallbacks"] == len(requests)
    assert stats["serving_solo_requests"] == 0.0


_REQUESTER_TAG = contextvars.ContextVar("requester_tag", default="none")


# A cap of 2 flushes the batch from the second submitter's own frame; 64
# leaves it to the idle rule's callback, scheduled by the first submitter.
@pytest.mark.parametrize("max_batch", [2, 64])
def test_batch_service_call_sees_no_requesters_context(max_batch):
    """A batch serves many requesters, so the service call answering it
    must see none of their context variables."""
    served_service, sequential_service, workload = _twin_services(seed=79)
    users = sorted(workload.graph.users())
    reach_many = served_service.reach_many
    seen = []

    def spy(*args, **kwargs):
        seen.append(_REQUESTER_TAG.get())
        return reach_many(*args, **kwargs)

    served_service.reach_many = spy

    async def main():
        session = TenantSession("t", served_service, max_batch=max_batch)

        async def tagged(tag, source, target):
            _REQUESTER_TAG.set(tag)
            return await session.reach(source, target, "friend+[1,2]")

        try:
            return await asyncio.gather(
                tagged("first", users[0], users[1]),
                tagged("second", users[2], users[3]),
            )
        finally:
            await session.close()

    answers = _run(main())
    assert seen == ["none"]
    assert [answer.batch_size for answer in answers] == [2, 2]
    for answer in answers:
        expected = _sequential_answer(
            sequential_service, ("reach", answer.source, answer.target, "friend+[1,2]")
        )
        assert answer.reachable == expected


# ------------------------------------------- batches formed by a busy period
#
# Everything above submits in one ``asyncio.gather``: every batch is formed
# by requests sharing a loop iteration while no batch runs.  Below, the
# clients arrive while a first audience batch holds the loop, the way frames
# pile up in a socket buffer: none of them can start before that batch
# returns, and then all of them start in one iteration — while the runner
# already holds the batch queued behind the head, so they gather under the
# busy rule until it returns.


def _serve_staggered(served_service, head, requests):
    """Serve ``head`` as one batch with one request queued behind it; the
    other clients arrive while the head runs.

    The queued request is the first that cannot join the head's batch; it
    moves to the front of ``requests``.  The head batch's service call is
    wrapped so that, while it runs on the loop, it starts one client task
    per remaining request.  Those tasks first run after the head returns,
    when the runner has already been handed the queued batch: they submit
    to a busy coalescer.  Returns the requests in that order, the answers
    (head first) and the coalescer's counters.
    """
    head_expression = head[0][2]  # every head request is an audience of it
    tail = next(
        index
        for index, request in enumerate(requests)
        if request[0] != "audience" or request[2] != head_expression
    )
    requests = [requests[tail]] + requests[:tail] + requests[tail + 1:]

    async def main():
        session = TenantSession("t", served_service, max_batch=64)
        audience = served_service.audience
        clients, held = [], []

        def head_batch(*args, **kwargs):
            del served_service.audience  # later calls go straight through
            stats = session.coalescer.statistics()
            held.append((stats["batches_executed"], stats["open_batches"]))
            for request in requests[1:]:
                clients.append(asyncio.ensure_future(_serve_one(session, request)))
            return audience(*args, **kwargs)

        served_service.audience = head_batch
        try:
            answers = list(await _serve_all(session, head + requests[:1]))
            answers.extend(await asyncio.gather(*clients))
        finally:
            served_service.__dict__.pop("audience", None)
            await session.close()
        # The head ran first and alone; requests[0]'s batch waited behind it.
        assert held == [(1.0, 1.0)]
        return requests, answers, session.coalescer.statistics()

    return _run(main())


def _head_audiences(workload, expression, count=16):
    return [("audience", user, expression) for user in sorted(workload.graph.users())[:count]]


def _assert_busy_period_run(
    head, requests, answers, statistics, sequential_service, shared_answers=True
):
    for request, served in zip(head + requests, answers):
        _assert_equivalent(request, served, _sequential_answer(sequential_service, request))
    # Shared batches exist beyond the head's: the busy period formed them.
    assert statistics["requests_coalesced"] > len(head)
    assert statistics["batches_executed"] < 1 + len(requests)
    if shared_answers:  # not when every shared batch tripped and fell back
        late = [a for a in answers[len(head):] if not isinstance(a, Exception)]
        assert any(answer.batch_size > 1 for answer in late)
        assert all(answer.coalesced for answer in late if answer.batch_size > 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_busy_period_batches_match_sequential(seed):
    served_service, sequential_service, workload = _twin_services(seed=83 + seed)
    head = _head_audiences(workload, EXPRESSIONS[2])
    requests = _random_requests(workload, random.Random(200 + seed), count=48)
    requests, answers, statistics = _serve_staggered(served_service, head, requests)
    _assert_busy_period_run(head, requests, answers, statistics, sequential_service)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_busy_period_batches_that_trip_the_guard_fall_back(seed):
    guard_kwargs = dict(max_steps=70, check_interval=16)
    served_service, sequential_service, workload = _twin_services(
        users=160, seed=89 + seed, query_guard=QueryGuard(**guard_kwargs)
    )
    sequential_service.query_guard = QueryGuard(**guard_kwargs)
    rng = random.Random(300 + seed)
    users = sorted(workload.graph.users())
    head = _head_audiences(workload, AUDIENCE_EXPRESSIONS[0])
    requests = [
        ("reach", rng.choice(users), rng.choice(users), rng.choice(REACH_EXPRESSIONS))
        if rng.random() < 0.5
        else ("audience", rng.choice(users), rng.choice(AUDIENCE_EXPRESSIONS))
        for _ in range(24)
    ]
    requests, answers, statistics = _serve_staggered(served_service, head, requests)
    _assert_busy_period_run(
        head, requests, answers, statistics, sequential_service, shared_answers=False
    )
    assert served_service.statistics()["serving_fallbacks"] > 0


def test_busy_period_batches_on_a_breaker_rerouted_backend():
    served_service, sequential_service, workload = _twin_services(seed=97)
    for service in (served_service, sequential_service):
        for breaker in service.breakers.values():
            for _ in range(16):
                breaker.record_failure(reason="forced for the test")
            assert breaker.blocking
    head = _head_audiences(workload, EXPRESSIONS[1])
    requests = _random_requests(workload, random.Random(9), count=24)
    requests, answers, statistics = _serve_staggered(served_service, head, requests)
    _assert_busy_period_run(head, requests, answers, statistics, sequential_service)
