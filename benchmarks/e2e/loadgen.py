"""Single-process wire load generator: asyncio, two connections, no threads.

Frames are encoded before the clock starts.  An open-loop phase sends
request *i* at its Poisson-scheduled time whether or not earlier ones were
answered, and times each request **from its scheduled time**, so a stall
charges every request it delayed; how late the generator itself ran is
reported per phase.  A closed-loop phase keeps a fixed number of requests in
flight.  Responses are not parsed on the hot path: ``encode_frame`` sorts
keys, so ``{"id":N,"ok":true`` is a fixed prefix and the id and verdict are
read with two byte searches; the raw line is kept for the ids the oracle
will check afterwards.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from array import array
from typing import Dict, List, Optional, Sequence, Set

CONNECTIONS = 2
DRAIN_TIMEOUT = 2.0
#: A phase whose backlog is still growing at its end scores its unanswered
#: requests as misses: more than this share unanswered when sending stops.
BACKLOG_SHARE = 0.02
_clock = time.perf_counter


def encode_request(request_id: int, tenant: str, op: Sequence) -> bytes:
    kind = op[0]
    if kind == "check":
        body = {"op": kind, "requester": op[1], "resource": op[2]}
    elif kind == "reach":
        body = {"op": kind, "source": op[1], "target": op[2], "expression": op[3]}
    else:
        body = {"op": kind, "owner": op[1], "expression": op[2]}
    body["id"] = request_id
    body["tenant"] = tenant
    return (json.dumps(body, separators=(",", ":"), sort_keys=True) + "\n").encode()


class Recorder:
    """Per-request send / receive clocks and verdicts, indexed by request id."""

    def __init__(self, capacity: int, keep: Set[int]) -> None:
        self.due = array("d", bytes(8 * capacity))
        self.sent = array("d", bytes(8 * capacity))
        self.received = array("d", bytes(8 * capacity))
        self.ok = bytearray(capacity)  # 0 unanswered, 1 ok, 2 error frame
        self.keep = keep
        self.lines: Dict[int, bytes] = {}
        self.on_answer = None  # closed-loop hook

    def answer(self, line: bytes, now: float) -> None:
        if line.startswith(b'{"id":'):
            request_id = int(line[6:line.index(b",", 6)])
            ok = line.find(b'"ok":true', 6, 40) > 0
        else:  # an error frame the server could not attribute, or a reorder
            frame = json.loads(line)
            request_id, ok = frame.get("id"), bool(frame.get("ok"))
            if not isinstance(request_id, int):
                return
        self.received[request_id] = now
        self.ok[request_id] = 1 if ok else 2
        if request_id in self.keep or not ok:
            self.lines[request_id] = line
        if self.on_answer is not None:
            self.on_answer(request_id)


class _Connection(asyncio.Protocol):
    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.transport: Optional[asyncio.Transport] = None
        self._tail = b""
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = _clock()
        lines = (self._tail + data).split(b"\n")
        self._tail = lines.pop()
        answer = self.recorder.answer
        for line in lines:
            answer(line, now)

    def connection_lost(self, exc) -> None:
        if not self.closed.done():
            self.closed.set_result(exc)


class WireClient:
    """Two protocol connections plus the phase drivers."""

    def __init__(self, port: int, recorder: Recorder) -> None:
        self.port = port
        self.recorder = recorder
        self.connections: List[_Connection] = []

    async def open(self) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(CONNECTIONS):
            _transport, protocol = await loop.create_connection(
                lambda: _Connection(self.recorder), "127.0.0.1", self.port
            )
            self.connections.append(protocol)

    async def close(self) -> None:
        for connection in self.connections:
            connection.transport.close()
        for connection in self.connections:
            await connection.closed
        # Let the server finish closing its side: stopped mid-close it logs a
        # CancelledError per connection.
        await asyncio.sleep(0.05)

    def _send(self, request_id: int, frame: bytes, now: float) -> None:
        self.recorder.sent[request_id] = now
        self.connections[request_id % CONNECTIONS].transport.write(frame)

    async def _drain(self, ids: Sequence[int]) -> float:
        """Wait (bounded) for the phase's answers; returns seconds waited."""
        started = _clock()
        ok = self.recorder.ok
        while _clock() - started < DRAIN_TIMEOUT:
            if all(ok[i] for i in ids):
                break
            await asyncio.sleep(0.005)
        return _clock() - started

    async def open_loop(self, first_id: int, frames: List[bytes], offsets: List[float]) -> dict:
        """Send ``frames[i]`` at ``start + offsets[i]``; ids count up from
        ``first_id``.  Returns the phase's generator self-check."""
        recorder, count = self.recorder, len(frames)
        start = _clock() + 0.01
        for i in range(count):
            recorder.due[first_id + i] = start + offsets[i]
        i = 0
        while i < count:
            now = _clock()
            while i < count and start + offsets[i] <= now:
                self._send(first_id + i, frames[i], now)
                i += 1
            if i < count:
                await asyncio.sleep(max(0.0, start + offsets[i] - _clock()))
        ids = range(first_id, first_id + count)
        unanswered_at_stop = sum(1 for r in ids if not recorder.ok[r])
        drained = await self._drain(ids)
        return {
            "ids": ids,
            "started": start,
            "seconds": offsets[-1] if offsets else 0.0,
            "backlog": unanswered_at_stop > BACKLOG_SHARE * count or drained >= DRAIN_TIMEOUT,
            "drain_s": drained,
        }

    async def closed_loop(self, first_id: int, frames: List[bytes], in_flight: int,
                          seconds: float) -> dict:
        """``in_flight`` callers, each sending its next request when its last
        one is answered, for ``seconds``.  Caller ``k`` owns every
        ``in_flight``-th frame from ``k`` on, so a caller keeps asking the
        same kind of question (the op mix cycles with a period that divides
        ``in_flight``): callers answered by one coalesced batch ask again
        together, as the fan-out of one application feature would."""
        recorder = self.recorder
        last_id = first_id + len(frames)
        started = _clock()
        stop_at = started + seconds

        def send(request_id: int) -> None:
            now = _clock()
            if now < stop_at and request_id < last_id:
                recorder.due[request_id] = now
                self._send(request_id, frames[request_id - first_id], now)

        def on_answer(request_id: int) -> None:
            if first_id <= request_id < last_id:
                send(request_id + in_flight)

        recorder.on_answer = on_answer
        for lane in range(in_flight):
            send(first_id + lane)
        await asyncio.sleep(max(0.0, stop_at - _clock()))
        recorder.on_answer = None
        ids = [i for i in range(first_id, last_id) if recorder.sent[i]]
        drained = await self._drain(ids)
        return {"ids": ids, "started": started, "seconds": seconds, "backlog": False,
                "drain_s": drained}

    async def call(self, frame: dict) -> dict:
        """One request/response over a throw-away connection (ping, stats)."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write((json.dumps(frame) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()


def poisson_offsets(rate: float, seconds: float, seed: int) -> List[float]:
    """Seeded Poisson arrival offsets over ``[0, seconds)``."""
    rng = random.Random(seed)
    offsets: List[float] = []
    clock = rng.expovariate(rate)
    while clock < seconds:
        offsets.append(clock)
        clock += rng.expovariate(rate)
    return offsets
