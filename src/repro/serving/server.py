"""Asyncio TCP server speaking the JSON-lines serving protocol.

One :class:`ServingServer` fronts one :class:`~repro.serving.session.
TenantRegistry`.  Each connection is one :class:`Connection` protocol, and
its read callback serves every complete line of the bytes just read, in
that same call: ``ping``, ``stats``, witness ``reach`` and malformed frames
are answered on the spot; ``reach``, ``audience`` and ``check`` enter their
tenant's coalescer with a callback that encodes the answer into the
connection's pending write.  A frame costs no task, no future and no loop
wake-up, and every frame of one socket read has joined its batch before
that batch is dispatched.  A connection can have many requests in flight
and responses return **out of order** — the echoed ``id`` is the
correlation key.  Frames that arrive while a batch holds the loop wait in
the socket buffer and are read in one go when it returns.  Responses
encoded in one event-loop iteration leave in one write per connection.

Ops (see ``docs/serving_protocol.md`` for the field tables):

=========  ==========================================================
``ping``   liveness; echoes ``{"pong": true}``
``reach``  tenant, source, target, expression[, witness, timeout]
``audience``  tenant, owner, expression[, timeout]
``check``  tenant, requester, resource[, timeout]
``stats``  tenant -> that tenant's counters; no tenant -> aggregate
=========  ==========================================================

A field an op does not list is ignored.

Typed failures (admission rejections, budget trips, unknown tenants or
nodes, malformed frames) become structured error frames; the connection
stays up.  Only an unparseable or over-long line answers with
``id: null``.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.exceptions import ProtocolError
from repro.serving.coalescer import Raised
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    result_frame,
)
from repro.serving.session import (
    ServedAccess,
    ServedAudience,
    ServedReach,
    TenantRegistry,
)

__all__ = ["ServingServer"]


def _require(frame: Dict[str, Any], *fields: str) -> Tuple[Any, ...]:
    missing = [name for name in fields if name not in frame]
    if missing:
        raise ProtocolError(
            f"op {frame.get('op')!r} requires field(s): {', '.join(missing)}"
        )
    return tuple(frame[name] for name in fields)


def _reach_result(served: ServedReach) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "reachable": served.reachable,
        "coalesced": served.coalesced,
        "batch_size": served.batch_size,
    }
    if served.witness is not None:
        result["witness"] = [str(node) for node in served.witness.nodes()]
    return result


def _audience_result(served: ServedAudience) -> Dict[str, Any]:
    return {
        "audience": served.audience,
        "partial": served.partial,
        "coalesced": served.coalesced,
        "batch_size": served.batch_size,
    }


def _access_result(served: ServedAccess) -> Dict[str, Any]:
    return {
        "granted": served.granted,
        "reason": served.reason,
        "coalesced": served.coalesced,
        "batch_size": served.batch_size,
    }


class Connection(asyncio.Protocol):
    """One accepted connection: frames are served from its read callback.

    * **Framing.**  :meth:`data_received` splits the bytes just read into
      lines and serves each complete one before it returns; the head of an
      unfinished line waits for its newline.  A line past
      ``MAX_FRAME_BYTES`` is answered with exactly one ``ProtocolError``
      frame (``id: null``) and skipped through its newline.
    * **Writes.**  Every answer is encoded into the pending list; the
      first one of a loop iteration schedules the single write that sends
      them all, so whole lines in one buffer never interleave.
    * **Back-pressure.**  While the transport's write buffer is over its
      high-water mark, the connection stops reading: a peer that does not
      read its answers cannot queue more work.
    * **Half-close.**  After the peer's EOF the connection stays open for
      writing until every answer it owes has been written, then closes.
    """

    def __init__(self, server: "ServingServer") -> None:
        self._server = server
        self._registry = server.registry
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        #: The head of a line whose newline has not arrived yet.
        self._partial = bytearray()
        #: Inside an over-long line that was already refused.
        self._skipping = False
        #: Encoded responses waiting for this loop iteration's one write.
        self._pending: List[bytes] = []
        #: Answers owed for frames handed to a coalescer.
        self._owed = 0
        #: No frame will be read any more (EOF, or the server is stopping).
        self._reading_done = False
        #: Resolved once the transport is closed.
        self.closed: asyncio.Future = self._loop.create_future()

    # ------------------------------------------------------ asyncio protocol

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        server = self._server
        server.connections_accepted += 1
        if server._stopping:
            transport.close()  # accepted while stop() ran: nothing will serve it
        else:
            server._connections.add(self)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._server._connections.discard(self)
        if not self.closed.done():
            self.closed.set_result(None)

    def pause_writing(self) -> None:
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        if not self._reading_done:
            self._transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        start = 0
        if self._skipping or self._partial:
            end = data.find(b"\n")
            if end < 0:
                if not self._skipping:
                    self._partial += data
                    if len(self._partial) > MAX_FRAME_BYTES:
                        self._refuse_long_line()
                return
            if self._skipping:
                self._skipping = False
            else:
                self._partial += data[:end]
                line = bytes(self._partial)
                self._partial.clear()
                self._serve_line(line)
            start = end + 1
        end = data.find(b"\n", start)
        while end >= 0:
            self._serve_line(data[start:end])
            start = end + 1
            end = data.find(b"\n", start)
        if start < len(data):
            self._partial += data[start:]
            if len(self._partial) > MAX_FRAME_BYTES:
                self._refuse_long_line()

    def eof_received(self) -> bool:
        self._reading_done = True
        if self._partial:  # a last line without its newline
            line = bytes(self._partial)
            self._partial.clear()
            self._serve_line(line)
        # True keeps the transport open for the answers still to come;
        # _flush closes it once the last of them is written.
        return bool(self._owed or self._pending)

    # --------------------------------------------------------------- serving

    def _refuse_long_line(self) -> None:
        self._partial.clear()
        self._skipping = True
        self._fail(None, ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes"))

    def _serve_line(self, line: bytes) -> None:
        request_id: Any = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            self._serve_frame(request_id, frame)
        except Exception as error:  # noqa: BLE001 — typed error frame
            self._fail(request_id, error)

    def _serve_frame(self, request_id: Any, frame: Dict[str, Any]) -> None:
        op = frame.get("op")
        if op == "check":
            tenant, requester, resource = _require(
                frame, "tenant", "requester", "resource"
            )
            self._submit(
                self._registry.get(tenant).enqueue_check,
                request_id,
                _access_result,
                requester,
                resource,
                timeout=frame.get("timeout"),
            )
        elif op == "reach":
            tenant, source, target, expression = _require(
                frame, "tenant", "source", "target", "expression"
            )
            self._submit(
                self._registry.get(tenant).enqueue_reach,
                request_id,
                _reach_result,
                source,
                target,
                expression,
                witness=bool(frame.get("witness", False)),
                timeout=frame.get("timeout"),
            )
        elif op == "audience":
            tenant, owner, expression = _require(
                frame, "tenant", "owner", "expression"
            )
            self._submit(
                self._registry.get(tenant).enqueue_audience,
                request_id,
                _audience_result,
                owner,
                expression,
                timeout=frame.get("timeout"),
            )
        elif op == "ping":
            self._answer(request_id, {"pong": True})
        elif op == "stats":
            tenant = frame.get("tenant")
            if tenant is None:
                statistics = self._registry.statistics()
            else:
                statistics = self._registry.get(tenant).service.statistics()
            self._answer(request_id, {"statistics": statistics})
        else:
            raise ProtocolError(f"unknown op: {op!r}")

    def _submit(
        self,
        enter: Callable[..., None],
        request_id: Any,
        result_of: Callable[[Any], Dict[str, Any]],
        *args: Any,
        **kwargs: Any,
    ) -> None:
        """Hand a frame to a session entry; its answer comes via _reply."""
        self._owed += 1
        try:
            enter(*args, functools.partial(self._reply, request_id, result_of), **kwargs)
        except BaseException:
            self._owed -= 1  # refused before it was queued: no answer will come
            raise

    def _reply(
        self,
        request_id: Any,
        result_of: Callable[[Any], Dict[str, Any]],
        outcome: object,
    ) -> None:
        self._owed -= 1
        if isinstance(outcome, Raised):
            self._fail(request_id, outcome.error)
        else:
            self._answer(request_id, result_of(outcome))

    def _answer(self, request_id: Any, result: Dict[str, Any]) -> None:
        self._server.frames_served += 1
        self._send(result_frame(request_id, result))

    def _fail(self, request_id: Any, error: BaseException) -> None:
        self._server.frames_failed += 1
        self._send(error_frame(request_id, error))

    # --------------------------------------------------------------- writing

    def _send(self, response: Dict[str, Any]) -> None:
        if self._transport.is_closing():
            return  # the connection is lost or closing: nobody to answer
        if not self._pending:
            self._loop.call_soon(self._flush)
        self._pending.append(encode_frame(response))

    def _flush(self) -> None:
        transport = self._transport
        if transport.is_closing():
            self._pending.clear()  # lost since they were queued
            return
        if self._pending:
            transport.write(b"".join(self._pending))
            self._pending.clear()
        if self._reading_done and not self._owed:
            transport.close()  # half-closed, and nothing more is owed

    def stop_reading(self) -> None:
        """Read no further frames (the server is stopping)."""
        self._reading_done = True
        if not self._transport.is_closing():
            self._transport.pause_reading()

    def close(self) -> None:
        """Write whatever is pending, then close."""
        self._flush()
        self._transport.close()


class ServingServer:
    """TCP front end: ``await start()``, connect, send JSON lines."""

    def __init__(
        self,
        registry: TenantRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Connections made and not yet lost.
        self._connections: Set[Connection] = set()
        self._stopping = False
        self.connections_accepted = 0
        self.frames_served = 0
        self.frames_failed = 0

    # ------------------------------------------------------------- lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._stopping = False
        self._server = await asyncio.get_running_loop().create_server(
            lambda: Connection(self), self.host, self.port
        )
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, answer every frame already read, close everything.

        Every connection stops reading.  Closing the registry then runs
        every queued batch, so each frame read so far has its answer; each
        connection writes what it has and closes, and this returns once
        every accepted transport is closed — none outlives the caller's
        event loop, so loop teardown has nothing to cancel or log.
        """
        self._stopping = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        connections = list(self._connections)
        for connection in connections:
            connection.stop_reading()
        await self.registry.close()
        for connection in connections:
            connection.close()
        if connections:
            await asyncio.gather(*(connection.closed for connection in connections))
        if server is not None:
            await server.wait_closed()

    def __repr__(self) -> str:
        state = "started" if self._server is not None else "stopped"
        return f"<ServingServer {state} tenants={len(self.registry)}>"
