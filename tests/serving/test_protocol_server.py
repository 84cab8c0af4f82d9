"""Wire protocol framing and the asyncio TCP server, end to end."""

import asyncio
import json
import socket
import threading

import pytest

from repro.exceptions import ProtocolError
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    jsonable,
    result_frame,
)
from repro.service.facade import GraphService
from repro.serving.server import ServingServer
from repro.serving.session import TenantRegistry
from repro.workloads import WorkloadSpec, build_workload, install_policies

# ------------------------------------------------------------------ protocol


def test_jsonable_sorts_sets_deterministically():
    assert jsonable({"aud": {"b", "a", "c"}}) == {"aud": ["a", "b", "c"]}
    assert jsonable((1, 2, {"x"})) == [1, 2, ["x"]]
    assert jsonable({1: "a"}) == {"1": "a"}


def test_encode_decode_round_trip():
    frame = {"id": 7, "op": "check", "tenant": "t", "nested": {"s": {"x", "y"}}}
    line = encode_frame(frame)
    assert line.endswith(b"\n")
    decoded = decode_frame(line)
    assert decoded["id"] == 7 and decoded["nested"]["s"] == ["x", "y"]


@pytest.mark.parametrize(
    "line",
    [b"", b"   \n", b"not json\n", b"[1, 2]\n", b'"just a string"\n'],
)
def test_decode_rejects_malformed_frames(line):
    with pytest.raises(ProtocolError):
        decode_frame(line)


def test_decode_rejects_oversized_frames():
    with pytest.raises(ProtocolError):
        decode_frame(b"x" * (MAX_FRAME_BYTES + 1))


def test_result_and_error_frames():
    assert result_frame(3, {"pong": True}) == {
        "id": 3,
        "ok": True,
        "result": {"pong": True},
    }
    frame = error_frame("abc", ProtocolError("bad"))
    assert frame == {
        "id": "abc",
        "ok": False,
        "error": {"type": "ProtocolError", "message": "bad"},
    }


# -------------------------------------------------------------------- server


def _registry():
    registry = TenantRegistry(window=0.02)
    workload = build_workload(WorkloadSpec(users=80, seed=5))
    session = registry.create("t0", workload.graph)
    install_policies(session.service, workload)
    return registry, workload


async def _request_all(host, port, frames, extra_lines=()):
    reader, writer = await asyncio.open_connection(host, port)
    for frame in frames:
        writer.write((json.dumps(frame) + "\n").encode())
    for line in extra_lines:
        writer.write(line)
    await writer.drain()
    responses = {}
    for _ in range(len(frames) + len(extra_lines)):
        line = await asyncio.wait_for(reader.readline(), 10)
        response = json.loads(line)
        responses[response["id"]] = response
    writer.close()
    return responses


def test_server_end_to_end():
    registry, workload = _registry()
    users = sorted(workload.graph.users())
    requester, resource_id = workload.requests[0]

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        frames = [
            {"id": 0, "op": "ping"},
            {
                "id": 1,
                "op": "reach",
                "tenant": "t0",
                "source": users[0],
                "target": users[1],
                "expression": "friend+[1,2]",
            },
            {
                "id": 2,
                "op": "audience",
                "tenant": "t0",
                "owner": users[0],
                "expression": "friend+[1]",
            },
            {
                "id": 3,
                "op": "check",
                "tenant": "t0",
                "requester": requester,
                "resource": resource_id,
            },
            {"id": 4, "op": "stats", "tenant": "t0"},
            {"id": 5, "op": "stats"},
            {"id": 6, "op": "check", "tenant": "ghost", "requester": "x", "resource": "y"},
            {"id": 7, "op": "frobnicate"},
            {"id": 8, "op": "reach", "tenant": "t0", "source": users[0]},
        ]
        responses = await _request_all(
            host, port, frames, extra_lines=[b"definitely not json\n"]
        )
        await server.stop()
        return responses

    responses = asyncio.run(main())
    assert responses[0]["result"] == {"pong": True}
    assert isinstance(responses[1]["result"]["reachable"], bool)
    assert isinstance(responses[2]["result"]["audience"], list)
    assert responses[2]["result"]["audience"] == sorted(
        responses[2]["result"]["audience"]
    )
    assert isinstance(responses[3]["result"]["granted"], bool)
    assert responses[4]["result"]["statistics"]["coalescer_requests_submitted"] >= 3
    assert "_totals" in responses[5]["result"]["statistics"]
    assert responses[6] == {
        "id": 6,
        "ok": False,
        "error": {
            "type": "UnknownTenantError",
            "message": responses[6]["error"]["message"],
        },
    }
    assert responses[7]["error"]["type"] == "ProtocolError"
    assert responses[8]["error"]["type"] == "ProtocolError"
    assert "source" not in responses[8]["error"]["message"]
    assert "target" in responses[8]["error"]["message"]
    assert responses[None]["error"]["type"] == "ProtocolError"


def test_server_coalesces_concurrent_frames_on_one_connection():
    registry, workload = _registry()
    users = sorted(workload.graph.users())

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        frames = [
            {
                "id": i,
                "op": "reach",
                "tenant": "t0",
                "source": users[i],
                "target": users[(i + 7) % 16],
                "expression": "friend+[1,2]",
            }
            for i in range(16)
        ]
        responses = await _request_all(host, port, frames)
        await server.stop()
        return responses

    responses = asyncio.run(main())
    batch_sizes = [responses[i]["result"]["batch_size"] for i in range(16)]
    assert max(batch_sizes) >= 2
    assert any(responses[i]["result"]["coalesced"] for i in range(16))


def test_server_request_id_echo_allows_out_of_order():
    registry, _workload = _registry()

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        frames = [{"id": f"req-{i}", "op": "ping"} for i in range(5)]
        responses = await _request_all(host, port, frames)
        await server.stop()
        return responses

    responses = asyncio.run(main())
    assert set(responses) == {f"req-{i}" for i in range(5)}
    assert all(response["ok"] for response in responses.values())


# 'batched' was a direction once; like any unknown value it is outside input.
@pytest.mark.parametrize("direction", ['batched', "sideways", ["forward"]])
def test_unknown_audience_direction_is_an_error_frame_not_a_dead_connection(direction):
    registry, workload = _registry()
    owner = sorted(workload.graph.users())[0]
    audience = {"op": "audience", "tenant": "t0", "owner": owner, "expression": "friend+[1]"}

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        responses = []
        # One frame at a time: the good frame is sent only after the bad
        # one's answer arrived, on the same connection.
        for frame in (
            {**audience, "id": "bad", "direction": direction},
            {**audience, "id": "good", "direction": "reverse"},
        ):
            writer.write((json.dumps(frame) + "\n").encode())
            await writer.drain()
            responses.append(json.loads(await asyncio.wait_for(reader.readline(), 10)))
        writer.close()
        await server.stop()
        return responses

    bad, good = asyncio.run(main())
    assert bad["id"] == "bad" and bad["ok"] is False
    assert bad["error"]["type"] in ("ValueError", "TypeError")
    assert good["id"] == "good" and good["ok"] is True
    assert isinstance(good["result"]["audience"], list)


# Where stop() lands relative to the closing handlers is timing-dependent, so
# the number of loop turns between the clients' hang-up and stop() is swept.
@pytest.mark.parametrize("yields", range(11))
def test_stop_after_clients_hang_up_is_silent(yields, caplog):
    """Regression: ``stop()`` neither awaited nor cancelled a handler already
    in its ``finally`` (it had deregistered itself first), so loop teardown
    cancelled it and asyncio logged one ``Exception in callback ...
    CancelledError`` per connection; answers written to a peer that had hung
    up logged ``socket.send() raised exception.`` on top."""
    registry, workload = _registry()
    users = sorted(workload.graph.users())

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        writers = []
        for connection in range(5):
            _reader, writer = await asyncio.open_connection(host, port)
            for i in range(20):
                frame = {
                    "id": i,
                    "op": "audience",
                    "tenant": "t0",
                    "owner": users[(connection * 20 + i) % len(users)],
                    "expression": "friend+[1,2]",
                }
                writer.write((json.dumps(frame) + "\n").encode())
            await writer.drain()
            writers.append(writer)
        for writer in writers:
            writer.close()
        for _ in range(yields):
            await asyncio.sleep(0)
        await server.stop()
        assert not server._conn_tasks

    with caplog.at_level("WARNING", logger="asyncio"):
        asyncio.run(main())
    noisy = [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and record.levelname in ("WARNING", "ERROR", "CRITICAL")
    ]
    assert noisy == []


def _asyncio_noise(caplog):
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and record.levelname in ("WARNING", "ERROR", "CRITICAL")
    ]


def test_frames_up_to_the_cap_are_served_and_longer_ones_are_error_frames(caplog):
    """Regression: without ``limit=`` the stream reader refused any line past
    64 KiB with a ``ValueError`` nobody caught — the handler died, asyncio
    logged it, and the client saw EOF instead of the ``ProtocolError`` frame
    the 1 MiB cap promises."""
    registry, _workload = _registry()

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)

        async def answers_until(request_id):
            seen = []
            while not seen or seen[-1]["id"] != request_id:
                seen.append(json.loads(await asyncio.wait_for(reader.readline(), 10)))
            return seen

        big_ping = {"id": "big", "op": "ping", "padding": "x" * 100_000}
        writer.write((json.dumps(big_ping) + "\n").encode())
        writer.write(b"y" * (2 * MAX_FRAME_BYTES) + b"\n")
        await writer.drain()
        first = await answers_until("big")
        # Same connection, after the oversized line has been refused.
        writer.write(b'{"id": "after", "op": "ping"}\n')
        await writer.drain()
        rest = await answers_until("after")
        writer.close()
        failed = server.frames_failed
        await server.stop()
        return first + rest, failed

    with caplog.at_level("WARNING", logger="asyncio"):
        responses, failed = asyncio.run(main())
    by_id = {}
    for response in responses:
        by_id.setdefault(response["id"], []).append(response)
    assert by_id["big"] == [{"id": "big", "ok": True, "result": {"pong": True}}]
    assert by_id["after"] == [{"id": "after", "ok": True, "result": {"pong": True}}]
    # The reader drops what it had buffered when the limit trips; the line's
    # tail, if it was still on its way, is one more undecodable line.
    refused = by_id[None]
    assert 1 <= len(refused) <= 2 and failed == len(refused)
    assert all(r["ok"] is False and r["error"]["type"] == "ProtocolError" for r in refused)
    assert _asyncio_noise(caplog) == []


def test_frames_written_in_staggered_groups_match_sequential_replay():
    """Groups separated by a flush reach the server in separate reads, so
    the later ones meet a busy worker: batches formed that way answer like
    the same requests replayed one at a time on a twin service."""
    registry, workload = _registry()
    twin = build_workload(WorkloadSpec(users=80, seed=5))
    sequential = GraphService(twin.graph)
    users = sorted(workload.graph.users())
    frames = [
        {
            "id": i,
            "op": "reach",
            "tenant": "t0",
            "source": users[i],
            "target": users[(i * 7 + 3) % len(users)],
            "expression": "friend+[1,2]",
        }
        for i in range(48)
    ]

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        for start in range(0, 48, 16):
            for frame in frames[start : start + 16]:
                writer.write((json.dumps(frame) + "\n").encode())
            await writer.drain()
            await asyncio.sleep(0)
        responses = {}
        for _ in frames:
            response = json.loads(await asyncio.wait_for(reader.readline(), 10))
            responses[response["id"]] = response
        writer.close()
        await server.stop()
        return responses

    responses = asyncio.run(main())
    for frame in frames:
        expected = sequential.reach(
            frame["source"], frame["target"], frame["expression"], collect_witness=False
        ).reachable
        assert responses[frame["id"]]["result"]["reachable"] == expected, frame
    assert max(r["result"]["batch_size"] for r in responses.values()) >= 2


def _reach_frame(request_id, tenant, source, target, expression="friend+[1,2]"):
    return {
        "id": request_id,
        "op": "reach",
        "tenant": tenant,
        "source": source,
        "target": target,
        "expression": expression,
    }


def _read_lines(sock, count):
    """``count`` response lines from a blocking socket, keyed by id."""
    responses, buffer = {}, b""
    while len(responses) < count:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection early"
        buffer += chunk
        *lines, buffer = buffer.split(b"\n")
        for line in lines:
            response = json.loads(line)
            responses[response["id"]] = response
    return responses


def test_frames_sent_while_a_batch_holds_the_loop_share_the_next_batch():
    """A batch runs on the event loop, so frames a client writes meanwhile
    wait in the socket buffer; the loop reads them together when the batch
    returns, and they share one batch that answers like a sequential replay."""
    registry, workload = _registry()
    service = registry.get("t0").service
    sequential = GraphService(build_workload(WorkloadSpec(users=80, seed=5)).graph)
    users = sorted(workload.graph.users())
    head = _reach_frame("head", "t0", users[0], users[1])
    late = [
        _reach_frame(i, "t0", users[i], users[(i * 7 + 3) % len(users)])
        for i in range(1, 17)
    ]
    holding, written = threading.Event(), threading.Event()
    reach_many = service.reach_many

    def head_batch(*args, **kwargs):
        del service.reach_many  # later batches run unwrapped
        holding.set()
        assert written.wait(10)  # the loop stays blocked until the frames are out
        return reach_many(*args, **kwargs)

    service.reach_many = head_batch

    def client(address):
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall((json.dumps(head) + "\n").encode())
            assert holding.wait(10)
            sock.sendall(b"".join((json.dumps(f) + "\n").encode() for f in late))
            written.set()
            return _read_lines(sock, 1 + len(late))

    async def main():
        server = ServingServer(registry)
        address = await server.start()
        try:
            return await asyncio.get_running_loop().run_in_executor(None, client, address)
        finally:
            written.set()
            await server.stop()

    responses = asyncio.run(main())
    assert responses["head"]["result"]["batch_size"] == 1
    for frame in late:
        result = responses[frame["id"]]["result"]
        expected = sequential.reach(
            frame["source"], frame["target"], frame["expression"], collect_witness=False
        ).reachable
        assert result["reachable"] == expected, frame
        assert result["batch_size"] > 1 and result["coalesced"], frame


def _record_reach_many(service):
    """Wrap ``service.reach_many``; returns the list of each call's pairs."""
    batches, reach_many = [], service.reach_many

    def spy(pairs, *args, **kwargs):
        batches.append(list(pairs))
        return reach_many(pairs, *args, **kwargs)

    service.reach_many = spy
    return batches


def test_two_tenants_interleaved_on_one_connection_never_share_a_batch():
    """Every tenant runs on the one event loop; their batches still stay
    apart, and each tenant's answers equal its own sequential replay."""
    registry = TenantRegistry(window=0.02)
    replays, batches = {}, {}
    for tenant, seed in (("t0", 5), ("t1", 6)):
        workload = build_workload(WorkloadSpec(users=80, seed=seed))
        service = registry.create(tenant, workload.graph).service
        replays[tenant] = GraphService(build_workload(WorkloadSpec(users=80, seed=seed)).graph)
        batches[tenant] = _record_reach_many(service)
    users = sorted(workload.graph.users())
    frames = [
        _reach_frame(i, ("t0", "t1")[i % 2], users[i], users[(i * 5 + 1) % len(users)])
        for i in range(32)
    ]

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        responses = await _request_all(host, port, frames)
        await server.stop()
        return responses

    responses = asyncio.run(main())
    for frame in frames:
        expected = replays[frame["tenant"]].reach(
            frame["source"], frame["target"], frame["expression"], collect_witness=False
        ).reachable
        assert responses[frame["id"]]["result"]["reachable"] == expected, frame
    for tenant, seen in batches.items():
        own = {(f["source"], f["target"]) for f in frames if f["tenant"] == tenant}
        assert all(set(pairs) <= own for pairs in seen), tenant
        assert sum(len(pairs) for pairs in seen) == len(own)
    assert max(r["result"]["batch_size"] for r in responses.values()) > 1
