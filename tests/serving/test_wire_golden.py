"""Golden wire bytes: every byte the server writes for a fixed frame script.

A seeded graph and policy store serve a scripted sequence of reads through
:meth:`Connection.data_received` on an in-memory transport.  Each step is
one read; the next step starts once every frame of the step has been
answered, and the bytes written for each step are compared with the
recorded file ``golden/wire_frames.txt``.  The script covers every answer
shape the server encodes: solo and coalesced checks (owner, no rule,
unknown resource, absent requester, grant and deny), boolean and witness
reaches, audiences, an absent node on each verb, and the frames refused
before admission (a bad ``timeout``, an unknown op, an over-long line).

After an intentional change to the wire format, re-record the file:

    PYTHONPATH=src python tests/serving/test_wire_golden.py --update
"""

import asyncio
import difflib
import json
import random
import sys
from pathlib import Path
from typing import List, Tuple

from repro.graph.social_graph import SocialGraph
from repro.policy.store import PolicyStore
from repro.service.facade import GraphService
from repro.serving.protocol import MAX_FRAME_BYTES
from repro.serving.server import Connection, ServingServer
from repro.serving.session import TenantRegistry

GOLDEN = Path(__file__).with_name("golden") / "wire_frames.txt"
UPDATE_COMMAND = "PYTHONPATH=src python tests/serving/test_wire_golden.py --update"
SEED = 43

Step = Tuple[str, List[bytes]]


def _graph():
    rng = random.Random(SEED)
    graph = SocialGraph()
    users = [f"u{index:02d}" for index in range(30)]
    for user in users:
        graph.add_user(user, age=rng.randint(14, 60))
    for _ in range(75):
        source, target = rng.sample(users, 2)
        label = rng.choice(("friend", "colleague"))
        if not graph.has_relationship(source, target, label):
            graph.add_relationship(source, target, label, trust=rng.randint(1, 9))
    return graph, users


_RULES = (
    ("photo", "friend+[1,2]"),
    ("notes", ["friend+[1]", "colleague+[1,3]"]),
    ("diary", "friend+[1,3]{age >= 18}"),
    ("slides", "colleague*[1,2]"),
)


def _store(users):
    store = PolicyStore()
    for index, (resource, expressions) in enumerate(_RULES):
        store.share(users[index], resource)
        store.allow(resource, expressions)
    store.share(users[5], "open")  # a resource without rules
    return store


def _frame(**fields) -> bytes:
    return json.dumps(fields, sort_keys=True).encode()


def _script(users) -> List[Step]:
    """The steps: a description and the frames of one read."""
    rng = random.Random(SEED + 1)
    graph, _users = _graph()
    probe = GraphService(graph, _store(users))
    # A granted and a denied ruled check, for the coalesced batch.
    candidates = [
        (requester, resource)
        for resource, _expressions in _RULES
        for requester in rng.sample(users, 8)
        if requester != probe.store.resource(resource).owner
    ]
    grants = [pair for pair in candidates if probe.is_allowed(*pair)]
    denials = [pair for pair in candidates if not probe.is_allowed(*pair)]
    assert len(grants) >= 3 and len(denials) >= 3
    # Reachable and unreachable pairs under the reach script's expressions.
    sampled = [tuple(rng.sample(users, 2)) for _ in range(60)]
    near = [pair for pair in sampled if probe.is_reachable(*pair, "friend+[1,3]")]
    far = [pair for pair in sampled if not probe.is_reachable(*pair, "friend+[1,3]")]
    work = [pair for pair in sampled if probe.is_reachable(*pair, "colleague*[1,2]")]
    assert len(near) >= 3 and len(far) >= 3 and work

    def check(request_id, requester, resource):
        return _frame(id=request_id, op="check", tenant="t", requester=requester,
                      resource=resource)

    def reach(request_id, source, target, expression, **extra):
        return _frame(id=request_id, op="reach", tenant="t", source=source,
                      target=target, expression=expression, **extra)

    def audience(request_id, owner, expression):
        return _frame(id=request_id, op="audience", tenant="t", owner=owner,
                      expression=expression)

    return [
        ("ping", [_frame(id=0, op="ping")]),
        ("a batch of one ruled check", [check(1, *grants[0])]),
        (
            "checks in one read: owner, no rule, unknown resource, absent "
            "requester, then coalesced grants and denials",
            [
                check(2, users[0], "photo"),
                check(3, users[9], "open"),
                check(4, users[9], "ghost-resource"),
                check(5, "nobody", "photo"),
                check(6, *grants[1]),
                check(7, *denials[0]),
                check(8, *grants[2]),
                check(9, *denials[1]),
            ],
        ),
        ("a batch of one boolean reach", [reach(10, *near[0], "friend+[1,3]")]),
        (
            "boolean reaches in one read, two expressions, one absent target",
            [
                reach(11, *near[1], "friend+[1,3]"),
                reach(12, *far[0], "friend+[1,3]"),
                reach(13, near[2][0], "nobody", "friend+[1,3]"),
                reach(14, *far[1], "friend+[1,3]"),
                reach("s", *work[0], "colleague*[1,2]"),
                reach(15, *far[2], "colleague*[1,2]"),
            ],
        ),
        (
            "witness reaches: a path, no path, an absent source",
            [
                reach(16, *near[1], "friend+[1,3]", witness=True),
                reach(17, *far[0], "friend+[1,3]", witness=True),
                reach(18, "nobody", users[1], "friend+[1,3]", witness=True),
            ],
        ),
        ("a batch of one audience", [audience(19, users[3], "friend+[1,2]")]),
        (
            "audiences in one read, two expressions, one absent owner",
            [
                audience(20, users[4], "friend+[1,2]"),
                audience(21, users[7], "friend+[1,2]"),
                audience(22, "nobody", "friend+[1,2]"),
                audience(23, users[4], "colleague+[1,3]{age >= 18}"),
                audience(24, users[11], "friend+[1,2]"),
            ],
        ),
        (
            "refused frames: bad timeouts, an unknown op, bad JSON, an "
            "unknown tenant, a missing field",
            [
                reach(25, *near[0], "friend+[1,3]", timeout="soon"),
                reach(26, *near[0], "friend+[1,3]", timeout=True),
                check(27, *grants[1])[:-1] + b', "timeout": NaN}',
                _frame(id=28, op="frobnicate"),
                b"{not json",
                _frame(id=29, op="check", tenant="ghost", requester="a", resource="b"),
                _frame(id=30, op="audience", tenant="t", owner=users[1]),
            ],
        ),
        (
            "an over-long line, then a frame on the same connection",
            [
                b'{"id": 31, "op": "ping", "pad": "' + b"x" * MAX_FRAME_BYTES + b'"}',
                _frame(id=32, op="ping"),
            ],
        ),
    ]


class _RecordingTransport(asyncio.Transport):
    """An in-memory transport that keeps every byte written to it."""

    def __init__(self):
        super().__init__()
        self.written = bytearray()
        self.closing = False
        self._waiting = None

    def write(self, data):
        self.written += data
        waiting = self._waiting
        if waiting is not None and self.written.count(b"\n") >= waiting[0]:
            self._waiting = None
            waiting[1].set_result(None)

    def lines_written(self, count):
        """A future resolved once ``count`` answer lines have been written."""
        future = asyncio.get_running_loop().create_future()
        if self.written.count(b"\n") >= count:
            future.set_result(None)
        else:
            self._waiting = (count, future)
        return future

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


def render() -> str:
    """Serve the script and return the recorded text of every step."""
    graph, users = _graph()
    steps = _script(users)

    async def main() -> List[bytes]:
        registry = TenantRegistry()
        registry.create("t", graph, _store(users))
        server = ServingServer(registry)
        connection, transport = Connection(server), _RecordingTransport()
        connection.connection_made(transport)
        outputs, answered = [], 0
        for _title, frames in steps:
            before = len(transport.written)
            connection.data_received(b"\n".join(frames) + b"\n")
            answered += len(frames)
            await transport.lines_written(answered)
            outputs.append(bytes(transport.written[before:]))
        connection.close()
        await registry.close()
        return outputs

    outputs = asyncio.run(main())
    parts = []
    for index, ((title, _frames), output) in enumerate(zip(steps, outputs)):
        parts.append(f"=== step {index}: {title}\n")
        parts.append(output.decode("utf-8"))
    return "".join(parts)


def test_wire_bytes_match_the_recorded_frames():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = render()
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                "recorded",
                "served",
            )
        )
        raise AssertionError(
            f"wire bytes differ from {GOLDEN.name}; if the change is intended, "
            f"re-record with `{UPDATE_COMMAND}`\n{diff}"
        )


if __name__ == "__main__":
    if "--update" not in sys.argv[1:]:
        sys.exit(f"usage: {UPDATE_COMMAND}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
