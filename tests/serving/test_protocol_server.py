"""Wire protocol framing and the asyncio TCP server, end to end."""

import asyncio
import gc
import json
import socket
import threading

import pytest

from repro.exceptions import ProtocolError
from repro.graph.social_graph import SocialGraph
from repro.serving import server as server_module
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    jsonable,
    result_frame,
)
from repro.service.facade import GraphService
from repro.serving.server import Connection, ServingServer
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


def _open_accepted_transports(port):
    """Server-side transports of ``port`` whose socket is still open."""
    return [
        transport
        for transport in gc.get_objects()
        if isinstance(transport, asyncio.Transport)
        and (transport.get_extra_info("sockname") or (None, None))[1] == port
        and transport.get_extra_info("socket").fileno() != -1
    ]


# Where stop() lands relative to the closing connections is timing-dependent,
# so the number of loop turns between the clients' hang-up and stop() is swept.
@pytest.mark.parametrize("yields", range(11))
def test_stop_after_clients_hang_up_is_silent(yields, caplog):
    """Regression: ``stop()`` neither awaited nor cancelled a handler already
    in its ``finally`` (it had deregistered itself first), so loop teardown
    cancelled it and asyncio logged one ``Exception in callback ...
    CancelledError`` per connection; answers written to a peer that had hung
    up logged ``socket.send() raised exception.`` on top.  Once ``stop()``
    returns, every connection it accepted is closed."""
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
        assert _open_accepted_transports(port) == []

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
    _assert_over_long_line_refused_once(None, caplog)


def test_an_over_long_line_written_piecemeal_is_refused_once(caplog):
    """32 KiB writes with a loop turn after each: the server reads the line
    in many pieces, answers one error frame, and skips to its newline."""
    _assert_over_long_line_refused_once(1 << 15, caplog)


def _assert_over_long_line_refused_once(chunk, caplog):
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
        too_long = b"y" * (2 * MAX_FRAME_BYTES) + b"\n"
        step = chunk or len(too_long)
        for start in range(0, len(too_long), step):
            writer.write(too_long[start : start + step])
            await writer.drain()
            await asyncio.sleep(0)
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
    assert by_id[None] == [
        {
            "id": None,
            "ok": False,
            "error": {
                "type": "ProtocolError",
                "message": f"frame exceeds {MAX_FRAME_BYTES} bytes",
            },
        }
    ]
    assert failed == 1
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


def test_a_half_closed_client_still_gets_every_answer():
    """A client that writes its frames and then shuts down its sending side
    still receives every answer — coalesced ones included — before the
    server closes the connection.  The last frame comes without a newline:
    EOF ends it."""
    registry, workload = _registry()
    users = sorted(workload.graph.users())
    frames = [_reach_frame(i, "t0", users[i], users[(i * 7 + 3) % len(users)]) for i in range(6)]
    frames += [
        {"id": f"aud-{i}", "op": "audience", "tenant": "t0", "owner": users[i],
         "expression": "friend+[1,2]"}
        for i in range(4)
    ]
    frames += [
        {"id": f"chk-{i}", "op": "check", "tenant": "t0", "requester": requester,
         "resource": resource_id}
        for i, (requester, resource_id) in enumerate(workload.requests[:4])
    ]
    frames += [
        {"id": "ping", "op": "ping"},
        {**_reach_frame("witness", "t0", users[0], users[1]), "witness": True},
    ]

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        while server.connections_accepted < 1:
            await asyncio.sleep(0)
        assert len(_open_accepted_transports(port)) == 1
        writer.write(b"\n".join(json.dumps(frame).encode() for frame in frames))
        writer.write_eof()
        received = await asyncio.wait_for(reader.read(), 10)  # until the server closes
        still_open = _open_accepted_transports(port)
        writer.close()
        await server.stop()
        return received, still_open

    received, still_open = asyncio.run(main())
    responses = [json.loads(line) for line in received.splitlines()]
    assert sorted(map(str, (r["id"] for r in responses))) == sorted(str(f["id"]) for f in frames)
    assert all(response["ok"] for response in responses), responses
    assert still_open == []


class _StubTransport(asyncio.Transport):
    def __init__(self):
        super().__init__()
        self.reading = True
        self.closing = False

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


def test_a_full_write_buffer_pauses_reading_until_it_drains():
    """Back-pressure: while the transport's write buffer is full the
    connection reads no frames, so a peer that never reads its answers
    cannot keep queueing work; once the buffer drains, reading resumes —
    unless the peer already half-closed."""

    async def main():
        server = ServingServer(TenantRegistry())
        connection, transport = Connection(server), _StubTransport()
        connection.connection_made(transport)
        connection.pause_writing()
        assert transport.reading is False
        connection.resume_writing()
        assert transport.reading is True
        connection.eof_received()
        connection.pause_writing()
        connection.resume_writing()
        assert transport.reading is False

    asyncio.run(main())


# ------------------------------------------------------------ encoder bytes


def _reference_jsonable(value):
    """Reference conversion: set members converted one by one, then sorted."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        return sorted((_reference_jsonable(item) for item in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _reference_jsonable(item) for key, item in value.items()}
    return str(value)


def _reference_encoding(frame):
    """The encoder ``encode_frame`` replaced: a jsonable() copy, then dumps."""
    return (
        json.dumps(_reference_jsonable(frame), separators=(",", ":"), sort_keys=True)
        + "\n"
    ).encode()


def _emitted_frames(monkeypatch):
    """Every frame a server encodes while answering one of each kind of frame."""
    registry, workload = _registry()
    numbers = SocialGraph()
    for user in range(1, 6):
        numbers.add_user(user)
    for left in range(1, 5):
        numbers.add_relationship(left, left + 1, "friend")
    registry.create("numbers", numbers)
    users = sorted(workload.graph.users())
    (requester, resource_id), (other, other_resource) = workload.requests[:2]
    frames = [
        {"id": 0, "op": "ping"},
        {"id": 1, "op": "check", "tenant": "t0", "requester": requester, "resource": resource_id},
        {"id": 2, "op": "check", "tenant": "t0", "requester": other, "resource": other_resource},
        _reach_frame(3, "t0", users[0], users[1]),
        _reach_frame("s", "t0", users[2], users[3]),
        {**_reach_frame(4, "numbers", 1, 3, "friend+[1,2]"), "witness": True},
        {**_reach_frame(5, "numbers", 1, 4, "friend+[1,2]"), "witness": True},
        {"id": 6, "op": "audience", "tenant": "t0", "owner": users[0], "expression": "friend+[1,2]"},
        {"id": 7, "op": "audience", "tenant": "numbers", "owner": 1, "expression": "friend+[1,3]"},
        {"id": 8, "op": "stats", "tenant": "t0"},
        {"id": 9, "op": "stats"},
        {"id": 10, "op": "frobnicate"},
        {"id": 11, "op": "check", "tenant": "ghost", "requester": "x", "resource": "y"},
        {"id": 12, "op": "reach", "tenant": "numbers", "source": 1, "target": 99,
         "expression": "friend+[1]"},
    ]
    emitted = []

    def recording(frame):
        emitted.append(frame)
        return encode_frame(frame)

    monkeypatch.setattr(server_module, "encode_frame", recording)

    async def main():
        server = ServingServer(registry)
        host, port = await server.start()
        await _request_all(host, port, frames, extra_lines=[b"not json\n"])
        await server.stop()

    asyncio.run(main())
    return emitted


def test_encode_frame_bytes_equal_the_reference_on_every_emitted_frame(monkeypatch):
    emitted = _emitted_frames(monkeypatch)
    results = [frame.get("result", {}) for frame in emitted]
    # The corpus covers every shape the server answers with.
    assert {"granted", "reachable", "audience", "statistics", "pong"} <= {
        key for result in results for key in result
    }
    assert any("witness" in result for result in results)
    audiences = [result["audience"] for result in results if "audience" in result]
    assert {type(user) for audience in audiences for user in audience} == {str, int}
    assert any(isinstance(value, dict) for result in results
               for value in result.get("statistics", {}).values())
    assert any(frame["id"] is None and not frame["ok"] for frame in emitted)
    for frame in emitted:
        assert encode_frame(frame) == _reference_encoding(frame), frame


class _Opaque:
    def __str__(self):
        return "opaque"


@pytest.mark.parametrize(
    "frame",
    [
        {"id": 1, "ok": True, "result": {"audience": frozenset({3, "b", 10, "a", (1, 2)})}},
        {"id": None, "ok": True, "result": {"nested": ({"x": {1.5, 2}}, [None, True])}},
        {"id": "é", "ok": True, "result": {"reason": "naïve ✓", "value": float("inf")}},
        {"id": {"nested": [{"b": 1, "a": 2}]}, "ok": True, "result": {"object": _Opaque()}},
        # Sets of JSON scalars skip the per-member walk; other members take it.
        {"id": 1, "ok": True, "result": {"audience": {10, 2, -3, 2**70, 0}}},
        {"id": 1, "ok": True, "result": {"audience": {"b", "a", "B", "", "é"}}},
        {"id": 1, "ok": True, "result": {"audience": {3, "3", 10, "a", -1, "10"}}},
        {"id": 1, "ok": True, "result": {"audience": {True, 2.5, None, "x", float("-inf")}}},
        {"id": 1, "ok": True, "result": {"audience": frozenset({False, 1e-9, -2.0})}},
        {"id": 1, "ok": True, "result": {"audience": {(2, "b"), (1, "a"), 3, "c"}}},
        {"id": 1, "ok": True, "result": {"audience": {(1, (2, 3)), frozenset({4})}}},
        {"id": 1, "ok": True, "result": {"audience": {_Opaque(), "a", 1}}},
        {"id": 1, "ok": True, "result": {"audience": set(), "empty": frozenset()}},
    ],
)
def test_encode_frame_bytes_equal_the_reference_on_edge_values(frame):
    assert encode_frame(frame) == _reference_encoding(frame)


# jsonable() stringified every key; JSON spells True, None and numbers its own
# way and sorts numbers as numbers, so the bytes would silently differ.
@pytest.mark.parametrize(
    "frame",
    [
        {"id": 1, "ok": True, "result": {True: 1}},
        {"id": 1, "ok": True, "result": {"statistics": {None: 1.0}}},
        {"id": 1, "ok": True, "result": {"rows": [{2: "a", 10: "b"}]}},
        {"id": 1, "ok": True, "result": {(1, 2): "pair"}},
    ],
)
def test_encode_frame_refuses_keys_that_are_not_strings(frame):
    assert _reference_encoding(frame)  # the old encoder stringified them
    with pytest.raises(TypeError, match="frame keys must be strings"):
        encode_frame(frame)
