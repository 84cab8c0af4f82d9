"""Asyncio TCP server speaking the JSON-lines serving protocol.

One :class:`ServingServer` fronts one :class:`~repro.serving.session.
TenantRegistry`.  Each connection reads newline-delimited request frames;
every frame is dispatched as its own task, so a connection can have many
requests in flight and responses return **out of order** — the echoed
``id`` is the correlation key.  That per-frame concurrency is what feeds
the coalescer: frames that share a path expression and arrive together, or
while an earlier batch holds the loop (they wait in the socket buffer and
are read in one go), become one bulk execution.  Responses encoded in one
event-loop iteration leave in one write per connection.

Ops (see ``docs/serving_protocol.md`` for the field tables):

=========  ==========================================================
``ping``   liveness; echoes ``{"pong": true}``
``reach``  tenant, source, target, expression[, witness, timeout]
``audience``  tenant, owner, expression[, direction, timeout]
``check``  tenant, requester, resource[, timeout]
``stats``  tenant -> that tenant's counters; no tenant -> aggregate
=========  ==========================================================

Typed failures (admission rejections, budget trips, unknown tenants or
nodes, malformed frames) become structured error frames; the connection
stays up.  Only an unparseable line with no recoverable ``id`` answers
with ``id: null``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import ProtocolError
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_frame,
    result_frame,
)
from repro.serving.session import TenantRegistry

__all__ = ["ServingServer"]


def _require(frame: Dict[str, Any], *fields: str) -> Tuple[Any, ...]:
    missing = [name for name in fields if name not in frame]
    if missing:
        raise ProtocolError(
            f"op {frame.get('op')!r} requires field(s): {', '.join(missing)}"
        )
    return tuple(frame[name] for name in fields)


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
        #: Every live connection handler, and the subset still in its read
        #: loop (the only ones :meth:`stop` has to interrupt).
        self._conn_tasks: Set[asyncio.Task] = set()
        self._reading: Set[asyncio.Task] = set()
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
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, finish every connection, close tenant sessions.

        A handler still reading is cancelled out of its read; one already
        closing (its peer hung up) is left to finish.  Either way it is
        awaited here, so no handler outlives the caller's event loop — loop
        teardown cancelling a half-closed handler is what made asyncio log a
        ``CancelledError`` per connection.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._reading:
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.registry.close()

    # ------------------------------------------------------------ connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        #: Encoded responses waiting for this loop iteration's one write.
        pending: List[bytes] = []
        frame_tasks: Set[asyncio.Task] = set()
        me = asyncio.current_task()
        # Deregistered only once the task is done: until then stop() must
        # still find (and await) this handler, closing or not.
        self._conn_tasks.add(me)
        me.add_done_callback(self._conn_tasks.discard)
        self._reading.add(me)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # A line past the cap: the reader dropped what it had
                    # buffered; the rest, if any, arrives as a malformed line.
                    error = ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
                    self.frames_failed += 1
                    self._send(writer, pending, error_frame(None, error))
                    continue
                if not line:
                    break
                task = asyncio.ensure_future(self._serve_frame(line, writer, pending))
                frame_tasks.add(task)
                task.add_done_callback(frame_tasks.discard)
        except asyncio.CancelledError:
            pass
        finally:
            self._reading.discard(me)
            if frame_tasks:
                await asyncio.gather(*frame_tasks, return_exceptions=True)
            self._write_pending(writer, pending)  # queued lines leave before the close
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_frame(
        self, line: bytes, writer: asyncio.StreamWriter, pending: List[bytes]
    ) -> None:
        request_id: Any = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            result = await self._dispatch(frame)
            response = result_frame(request_id, result)
            self.frames_served += 1
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 — typed error frame
            response = error_frame(request_id, error)
            self.frames_failed += 1
        self._send(writer, pending, response)
        try:
            await writer.drain()  # back-pressure: a paused transport holds us
        except (ConnectionError, OSError):
            pass  # peer went away; nothing to deliver the answer to

    def _send(
        self, writer: asyncio.StreamWriter, pending: List[bytes], response: Dict
    ) -> None:
        """Queue one response line for this loop iteration's single write: a
        fan-out resolves a batch of frame tasks at once, and whole lines in
        one buffer cannot interleave."""
        if writer.is_closing():
            return  # the connection is already lost: nobody to answer
        if not pending:
            asyncio.get_running_loop().call_soon(self._write_pending, writer, pending)
        pending.append(encode_frame(response))

    @staticmethod
    def _write_pending(writer: asyncio.StreamWriter, pending: List[bytes]) -> None:
        if pending and not writer.is_closing():  # else lost since they were queued
            writer.write(b"".join(pending))
        pending.clear()

    # -------------------------------------------------------------- dispatch

    async def _dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        op = frame.get("op")
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            if "tenant" in frame and frame["tenant"] is not None:
                session = self.registry.get(frame["tenant"])
                return {"statistics": await session.statistics()}
            return {"statistics": await self.registry.serving_statistics()}
        if op == "reach":
            tenant, source, target, expression = _require(
                frame, "tenant", "source", "target", "expression"
            )
            session = self.registry.get(tenant)
            served = await session.reach(
                source,
                target,
                expression,
                witness=bool(frame.get("witness", False)),
                timeout=frame.get("timeout"),
            )
            result: Dict[str, Any] = {
                "reachable": served.reachable,
                "coalesced": served.coalesced,
                "batch_size": served.batch_size,
            }
            if served.witness is not None:
                result["witness"] = [str(node) for node in served.witness.nodes()]
            return result
        if op == "audience":
            tenant, owner, expression = _require(
                frame, "tenant", "owner", "expression"
            )
            session = self.registry.get(tenant)
            served = await session.audience(
                owner,
                expression,
                direction=frame.get("direction", "auto"),
                timeout=frame.get("timeout"),
            )
            return {
                "audience": served.audience,
                "partial": served.partial,
                "coalesced": served.coalesced,
                "batch_size": served.batch_size,
            }
        if op == "check":
            tenant, requester, resource = _require(
                frame, "tenant", "requester", "resource"
            )
            session = self.registry.get(tenant)
            served = await session.check(
                requester, resource, timeout=frame.get("timeout")
            )
            return {
                "granted": served.granted,
                "reason": served.reason,
                "coalesced": served.coalesced,
                "batch_size": served.batch_size,
            }
        raise ProtocolError(f"unknown op: {op!r}")

    def __repr__(self) -> str:
        state = "started" if self._server is not None else "stopped"
        return f"<ServingServer {state} tenants={len(self.registry)}>"
