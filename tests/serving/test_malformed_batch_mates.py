"""A request with an unhashable id fails alone; its batch-mates are served.

JSON lists and objects reach a frame's node and resource fields as they
are.  A batch hashes every member's ids together (owner sets, pair maps,
resource lookups), so one such member used to fail its whole batch with
``TypeError``.  The session refuses it at its callback entry instead,
before admission: only that requester sees the error, it takes no
admission slot, and every batch-mate gets the sequential answer.
"""

import asyncio
import json

import pytest

from repro.serving.server import ServingServer
from repro.serving.session import TenantRegistry, TenantSession
from repro.workloads import WorkloadSpec, build_workload, install_policies
from tests.serving.test_coalesce_equivalence import (
    _assert_equivalent,
    _sequential_answer,
    _serve_one,
    _twin_services,
)

#: Any window > 0 turns coalescing on; concurrent submissions share a batch.
WINDOW = 0.01

#: What JSON arrays and objects decode to.
UNHASHABLE = ([], {"id": 1})


def _serve_beside(served_service, good, poisoned):
    """Serve ``good`` with ``poisoned`` in the middle, concurrently."""

    async def main():
        session = TenantSession("t", served_service, window=WINDOW)
        try:
            answers = await asyncio.gather(
                *(_serve_one(session, request) for request in good[:1]),
                _serve_one(session, poisoned),
                *(_serve_one(session, request) for request in good[1:]),
            )
            return answers, session.admission.pending, session.admission.admitted
        finally:
            await session.close()

    answers, pending, admitted = asyncio.run(main())
    bad = answers.pop(1)
    return answers, bad, pending, admitted


def _assert_batch_mates_served(good, answers, sequential_service):
    for request, served in zip(good, answers):
        _assert_equivalent(request, served, _sequential_answer(sequential_service, request))
        assert served.batch_size == len(good) and served.coalesced, (request, served)


@pytest.mark.parametrize("unhashable", UNHASHABLE, ids=("list", "object"))
@pytest.mark.parametrize("field", [1, 2], ids=("source", "target"))
def test_an_unhashable_reach_endpoint_fails_only_its_own_request(field, unhashable):
    served_service, sequential_service, workload = _twin_services(seed=71)
    users = sorted(workload.graph.users())
    good = [
        ("reach", users[0], users[1], "friend+[1,2]"),
        ("reach", users[2], users[3], "friend+[1,2]"),
    ]
    poisoned = ["reach", users[4], users[5], "friend+[1,2]"]
    poisoned[field] = unhashable
    answers, bad, pending, admitted = _serve_beside(
        served_service, good, tuple(poisoned)
    )
    assert isinstance(bad, TypeError)
    _assert_batch_mates_served(good, answers, sequential_service)
    assert (pending, admitted) == (0, len(good))


@pytest.mark.parametrize("unhashable", UNHASHABLE, ids=("list", "object"))
def test_an_unhashable_audience_owner_fails_only_its_own_request(unhashable):
    served_service, sequential_service, workload = _twin_services(seed=73)
    users = sorted(workload.graph.users())
    good = [("audience", users[0], "friend+[1,2]"), ("audience", users[1], "friend+[1,2]")]
    answers, bad, pending, admitted = _serve_beside(
        served_service, good, ("audience", unhashable, "friend+[1,2]")
    )
    assert isinstance(bad, TypeError)
    _assert_batch_mates_served(good, answers, sequential_service)
    assert (pending, admitted) == (0, len(good))


@pytest.mark.parametrize("unhashable", UNHASHABLE, ids=("list", "object"))
@pytest.mark.parametrize("field", [1, 2], ids=("requester", "resource"))
def test_an_unhashable_check_id_fails_only_its_own_request(field, unhashable):
    served_service, sequential_service, workload = _twin_services(seed=79)
    users = sorted(workload.graph.users())
    # Non-owner requesters against ruled resources: the batched (bulk) path.
    ruled = [
        (resource_id, owner)
        for resource_id, owner, *_rest in workload.resources
        if served_service.store.rules_for(resource_id)
    ]
    good = []
    for resource_id, owner in ruled[:2]:
        requester = next(user for user in users if user != owner)
        good.append(("check", requester, resource_id))
    poisoned = ["check", good[0][1], good[0][2]]
    poisoned[field] = unhashable
    answers, bad, pending, admitted = _serve_beside(
        served_service, good, tuple(poisoned)
    )
    assert isinstance(bad, TypeError)
    _assert_batch_mates_served(good, answers, sequential_service)
    assert (pending, admitted) == (0, len(good))


def test_an_unhashable_owner_frame_fails_only_its_own_frame():
    registry = TenantRegistry(window=WINDOW)
    workload = build_workload(WorkloadSpec(users=80, seed=5))
    session = registry.create("t0", workload.graph)
    install_policies(session.service, workload)
    users = sorted(workload.graph.users())
    audience = {"op": "audience", "tenant": "t0", "expression": "friend+[1,2]"}
    frames = [
        {**audience, "id": "first", "owner": users[0]},
        {**audience, "id": "bad", "owner": [users[0]]},
        {**audience, "id": "second", "owner": users[1]},
    ]

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        # One write, so the three frames arrive in one read and share a batch.
        writer.write(b"".join((json.dumps(frame) + "\n").encode() for frame in frames))
        await writer.drain()
        responses = {}
        for _ in frames:
            response = json.loads(await asyncio.wait_for(reader.readline(), 10))
            responses[response["id"]] = response
        writer.close()
        await server.stop()
        return responses, session.admission.pending

    responses, pending = asyncio.run(main())
    bad = responses.pop("bad")
    assert bad["ok"] is False and bad["error"]["type"] == "TypeError"
    for (request_id, response), owner in zip(sorted(responses.items()), users):
        assert response["ok"] is True, response
        result = response["result"]
        expected = session.service.audience(owner, "friend+[1,2]").audiences[owner]
        assert set(result["audience"]) == expected, request_id
        assert result["batch_size"] == 2 and result["coalesced"], request_id
    assert pending == 0
