"""A request with an unhashable or absent id fails alone; its batch-mates
are served.

JSON lists and objects reach a frame's node and resource fields as they
are.  A batch hashes every member's ids together (owner sets, pair maps,
resource lookups), so one such member used to fail its whole batch with
``TypeError``.  The session refuses it at its callback entry instead,
before admission: only that requester sees the error, it takes no
admission slot, and every batch-mate gets the sequential answer.

An id the graph does not hold is hashable and admitted.  A bulk audience
sweep raises ``NodeNotFoundError`` for the whole batch on an absent owner,
and a bulk access check reads an absent requester as merely outside the
audience, so such a member is answered on its own, sequentially.
"""

import asyncio
import json

import pytest

from repro.exceptions import NodeNotFoundError
from repro.serving.server import ServingServer
from repro.serving.session import TenantRegistry, TenantSession
from repro.workloads import WorkloadSpec, build_workload, install_policies
from tests.serving.test_coalesce_equivalence import (
    _assert_equivalent,
    _sequential_answer,
    _serve_one,
    _twin_services,
)

#: What JSON arrays and objects decode to.
UNHASHABLE = ([], {"id": 1})


def _serve_beside(served_service, good, poisoned):
    """Serve ``good`` with ``poisoned`` in the middle, concurrently."""

    async def main():
        session = TenantSession("t", served_service)
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


def _assert_batch_mates_served(good, answers, sequential_service, batch_size=None):
    batch_size = len(good) if batch_size is None else batch_size
    for request, served in zip(good, answers):
        _assert_equivalent(request, served, _sequential_answer(sequential_service, request))
        assert served.batch_size == batch_size > 1, (request, served)


def _ruled_checks(service, workload, count=2):
    """Non-owner checks against ruled resources: the bulk access path."""
    users = sorted(workload.graph.users())
    ruled = [
        (resource_id, owner)
        for resource_id, owner, *_rest in workload.resources
        if service.store.rules_for(resource_id)
    ]
    return [
        ("check", next(user for user in users if user != owner), resource_id)
        for resource_id, owner in ruled[:count]
    ]


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
    good = _ruled_checks(served_service, workload)
    poisoned = ["check", good[0][1], good[0][2]]
    poisoned[field] = unhashable
    answers, bad, pending, admitted = _serve_beside(
        served_service, good, tuple(poisoned)
    )
    assert isinstance(bad, TypeError)
    _assert_batch_mates_served(good, answers, sequential_service)
    assert (pending, admitted) == (0, len(good))


def test_an_absent_audience_owner_fails_only_its_own_request():
    served_service, sequential_service, workload = _twin_services(seed=73)
    users = sorted(workload.graph.users())
    good = [("audience", users[0], "friend+[1,2]"), ("audience", users[1], "friend+[1,2]")]
    absent = ("audience", "nobody", "friend+[1,2]")
    answers, bad, pending, admitted = _serve_beside(served_service, good, absent)
    assert isinstance(bad, NodeNotFoundError)
    assert isinstance(_sequential_answer(sequential_service, absent), NodeNotFoundError)
    _assert_batch_mates_served(good, answers, sequential_service, batch_size=3)
    assert (pending, admitted) == (0, 3)


def test_an_absent_audience_owner_fails_alone_on_a_pinned_cluster_index():
    # The cluster index answers from its build snapshot, but an owner the
    # live graph does not hold either is refused like on every other pin.
    served_service, sequential_service, workload = _twin_services(
        seed=73, default_backend="cluster-index"
    )
    users = sorted(workload.graph.users())
    good = [("audience", users[0], "friend+[1,2]"), ("audience", users[1], "friend+[1,2]")]
    absent = ("audience", "nobody", "friend+[1,2]")
    answers, bad, pending, admitted = _serve_beside(served_service, good, absent)
    assert isinstance(bad, NodeNotFoundError) and bad.node == "nobody", bad
    assert isinstance(_sequential_answer(sequential_service, absent), NodeNotFoundError)
    _assert_batch_mates_served(good, answers, sequential_service, batch_size=3)
    assert (pending, admitted) == (0, 3)


def test_an_absent_check_requester_fails_only_its_own_request():
    served_service, sequential_service, workload = _twin_services(seed=79)
    good = _ruled_checks(served_service, workload)
    absent = ("check", "nobody", good[0][2])
    answers, bad, pending, admitted = _serve_beside(served_service, good, absent)
    # Sequentially, check() refuses a requester the graph does not hold.
    assert isinstance(bad, NodeNotFoundError), bad
    assert isinstance(_sequential_answer(sequential_service, absent), NodeNotFoundError)
    _assert_batch_mates_served(good, answers, sequential_service, batch_size=3)
    assert (pending, admitted) == (0, 3)


@pytest.mark.parametrize(
    "bad_owner, error, batch_size",
    [(["u0"], "TypeError", 2), ("nobody", "NodeNotFoundError", 3)],
    ids=("unhashable", "absent"),
)
def test_a_malformed_owner_frame_fails_only_its_own_frame(bad_owner, error, batch_size):
    # An unhashable owner is refused before admission and leaves its batch;
    # an absent one is admitted, shares the batch and is answered alone.
    registry = TenantRegistry()
    workload = build_workload(WorkloadSpec(users=80, seed=5))
    session = registry.create("t0", workload.graph)
    install_policies(session.service, workload)
    users = sorted(workload.graph.users())
    audience = {"op": "audience", "tenant": "t0", "expression": "friend+[1,2]"}
    frames = [
        {**audience, "id": "first", "owner": users[0]},
        {**audience, "id": "bad", "owner": bad_owner},
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
    assert bad["ok"] is False and bad["error"]["type"] == error, bad
    for (request_id, response), owner in zip(sorted(responses.items()), users):
        assert response["ok"] is True, response
        result = response["result"]
        expected = session.service.audience(owner, "friend+[1,2]").audiences[owner]
        assert set(result["audience"]) == expected, request_id
        assert result["batch_size"] == batch_size and result["coalesced"], request_id
    assert pending == 0
