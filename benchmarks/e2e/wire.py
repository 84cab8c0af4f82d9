"""The wire workloads: ``wire_point`` and ``wire_audience``.

A child process (``server_child.py``) hosts ``ServingServer``; this process
is the load generator.  An end-to-end run starts the child three times (that
is ``setup_s``) and sends each one a round of phases, as shares of a third of
``--seconds``: closed-loop warm-up (discarded) → open-loop ``base`` →
open-loop ``peak`` → closed-loop ``sat``.  A traced run has one round: an
untraced ``base``, then the child's timing shims go on and ``base`` and
``sat`` repeat shorter.
"""

from __future__ import annotations

import asyncio
import gc
import json
import subprocess
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import inputs
import loadgen
import tracing
from common import (
    HERE,
    LIMIT_MS,
    RESULTS,
    SETUP_REPEATS,
    VERIFY_SAMPLE,
    Outcome,
    median,
    percentile,
    quiet,
    ratio,
    sample_ids,
)
from lib import counter_metrics, parse_us, span_metrics
from oracle import Oracle

from repro.graph.compiled import compile_graph
from repro.serving.protocol import decode_frame, encode_frame, result_frame
from repro.service.facade import GraphService

#: Open-loop rates (requests/second) and the closed-loop depth, calibrated on
#: the seed commit (2 cores): ``base`` is everyday load, ``peak`` sits below
#: the knee so no backlog builds, ``sat`` finds the ceiling.
RATES = {
    "wire_point": {"base": 1000.0, "peak": 2000.0},
    "wire_audience": {"base": 100.0, "peak": 150.0},
}
IN_FLIGHT = 64
#: Frames encoded for the closed-loop phase, per second of it (an upper bound
#: on what the server can answer).
SAT_FRAMES_PER_SECOND = 12_000
SHARES = {"warm": 0.08, "base": 0.42, "peak": 0.25, "sat": 0.25}
TRACED_SHARES = {"warm": 0.06, "base": 0.22, "warm_traced": 0.04, "base_traced": 0.22,
                 "sat_traced": 0.10}
SHARDING_OWNERS = 256
#: Slices per phase (see ``common.quiet``).
WINDOWS = 8
SLICE_SAMPLES = 250
_clock = time.perf_counter


# -------------------------------------------------------------------- child


class Child:
    """The server process: spawned, pinged, talked to over stdin, reaped."""

    def __init__(self, users: int) -> None:
        self.started = _clock()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), str(users)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.port = 0
        self.users = self.edges = 0
        self.max_rss_kb = 0.0

    def wait_ready(self) -> float:
        """Block until READY, then until the first pong; returns ``setup_s``."""
        words = self._reply("READY")
        self.port, self.users, self.edges = (int(word) for word in words)
        pong = asyncio.run(loadgen.WireClient(self.port, None).call({"id": 0, "op": "ping"}))
        if not pong.get("ok"):
            raise RuntimeError(f"server child did not pong: {pong}")
        return _clock() - self.started

    def command(self, line: str, reply: str) -> List[str]:
        self.process.stdin.write((line + "\n").encode())
        self.process.stdin.flush()
        return self._reply(reply)

    def _reply(self, expected: str) -> List[str]:
        line = self.process.stdout.readline().decode()
        words = line.split()
        if not words or words[0] != expected:
            raise RuntimeError(f"server child said {line!r}, expected {expected}")
        return words[1:]

    def stop(self) -> None:
        """Close stdin (the child's cue to leave), read its exit line, reap;
        a child that does not leave is killed, so no path leaves an orphan."""
        process = self.process
        try:
            output, _ = process.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            output, _ = process.communicate()
        for line in output.decode().splitlines():
            words = line.split()
            if len(words) == 2 and words[0] == "EXIT":
                self.max_rss_kb = float(words[1])


def _spawn_ready(users: int, material: inputs.Inputs) -> Tuple[Child, float]:
    child = Child(users)
    try:
        setup_s = child.wait_ready()
        graph = material.graph
        if (child.users, child.edges) != (graph.number_of_users(), graph.number_of_relationships()):
            raise RuntimeError("server child built a different graph than the generator")
    except BaseException:
        child.stop()
        raise
    return child, setup_s


# ------------------------------------------------------------------- phases


@dataclass
class Phase:
    """One stretch of one round: open loop on a schedule, or closed loop."""

    name: str
    round: int
    seconds: float
    ids: range
    #: Poisson send offsets (open loop); ``None`` for a closed-loop phase.
    offsets: Optional[List[float]] = None
    report: dict = field(default_factory=dict)

    @property
    def timed(self) -> bool:
        return not self.name.startswith("warm")


class Plan:
    """The ops, frames and phases of one run, laid out before the clock.

    An end-to-end run has one *round* of phases per set-up (the server child
    is started ``SETUP_REPEATS`` times for ``setup_s`` anyway): where the
    scheduler puts the child's two threads and the generator is settled anew
    with every process and then stays, and moves the same seed's p50 by a
    tenth and its tails by a quarter.  Each round gets an equal share of
    ``--seconds``; the slices of all rounds are pooled.
    """

    def __init__(self, workload: str, material: inputs.Inputs, seed: int,
                 seconds: float, trace: bool) -> None:
        rates = RATES[workload]
        shares = TRACED_SHARES if trace else SHARES
        self.rounds = 1 if trace else SETUP_REPEATS
        self.phases: List[Phase] = []
        first = 0
        for round_ in range(self.rounds):
            for name, share in shares.items():
                length = share * seconds / self.rounds
                if name.startswith(("sat", "warm")):
                    offsets = None
                    count = int(SAT_FRAMES_PER_SECOND * length) + IN_FLIGHT
                else:
                    offsets = loadgen.poisson_offsets(
                        rates["peak" if name.startswith("peak") else "base"],
                        length, seed * 7919 + 10 + len(self.phases),
                    )
                    count = len(offsets)
                self.phases.append(
                    Phase(name, round_, length, range(first, first + count), offsets)
                )
                first += count
        if workload == "wire_point":
            self.ops = inputs.point_ops(material, seed, first, inputs.CHECK_SHARE_WIRE)
        else:
            self.ops = inputs.audience_ops(material, seed, first)
        self.frames = [
            loadgen.encode_request(i, inputs.TENANT, op) for i, op in enumerate(self.ops)
        ]

    def named(self, name: str) -> List[Phase]:
        return [phase for phase in self.phases if phase.name == name]


async def _drive(plan: Plan, round_: int, child: Child, recorder: loadgen.Recorder) -> dict:
    """Run one round's phases in order (each keeps its report); returns the
    tenant's counters read after them."""
    client = loadgen.WireClient(child.port, recorder)
    await client.open()
    try:
        for phase in plan.phases:
            if phase.round != round_:
                continue
            ids = phase.ids
            frames = plan.frames[ids.start:ids.stop]
            if phase.name == "warm_traced":
                child.command("trace", "TRACING")
            if phase.offsets is None:
                phase.report = await client.closed_loop(
                    ids.start, frames, IN_FLIGHT, phase.seconds
                )
            else:
                phase.report = await client.open_loop(ids.start, frames, phase.offsets)
        stats = await client.call({"id": 0, "op": "stats", "tenant": inputs.TENANT})
    finally:
        await client.close()
    return stats["result"]["statistics"]


def _latencies(recorder: loadgen.Recorder, phases: List[Phase]) -> List[float]:
    """Answered requests' latency from the scheduled send time, ascending."""
    return sorted(
        recorder.received[i] - recorder.due[i]
        for phase in phases for i in phase.report["ids"] if recorder.ok[i] == 1
    )


def _sliced(recorder: loadgen.Recorder, phases: List[Phase], fraction: float) -> float:
    """Quiet quartile, over the slices (by scheduled time) of these phases,
    of each slice's latency percentile.  A slice holds at least
    ``SLICE_SAMPLES`` requests, so a slow phase has fewer slices: below that
    its own tail estimate is noisier than the machine."""
    values: List[float] = []
    for phase in phases:
        report = phase.report
        count = max(1, min(WINDOWS, len(report["ids"]) // SLICE_SAMPLES))
        width = report["seconds"] / count
        parts: List[List[float]] = [[] for _ in range(count)]
        for i in report["ids"]:
            if recorder.ok[i] == 1:
                at = min(count - 1, int((recorder.due[i] - report["started"]) / width))
                parts[at].append(recorder.received[i] - recorder.due[i])
        values += [percentile(sorted(part), fraction) for part in parts if part]
    return quiet(values)


def _throughput(recorder: loadgen.Recorder, phases: List[Phase]) -> float:
    """Quiet quartile, over the closed-loop phases' slices, of answers per second."""
    values: List[float] = []
    for phase in phases:
        report = phase.report
        count = max(1, min(WINDOWS, int(report["seconds"] / 0.3)))
        width = report["seconds"] / count
        counts = [0] * count
        for i in report["ids"]:
            at = int((recorder.received[i] - report["started"]) / width)
            if recorder.ok[i] == 1 and at < count:
                counts[at] += 1
        values += [answers / width for answers in counts]
    return quiet(values, "higher")


def _within(recorder: loadgen.Recorder, report: dict, limit: float) -> int:
    """Requests of an open-loop phase answered correctly within the limit."""
    good = 0
    for i in report["ids"]:
        if recorder.ok[i] == 1 and recorder.received[i] - recorder.due[i] <= limit:
            good += 1
    if report["backlog"]:
        # Sending stopped with the queue still growing: what was unanswered
        # then is a miss even if the drain later caught up.
        stop = max(recorder.sent[i] for i in report["ids"])
        good -= sum(
            1 for i in report["ids"]
            if recorder.ok[i] == 1 and recorder.received[i] > stop
            and recorder.received[i] - recorder.due[i] <= limit
        )
    return good


# -------------------------------------------------------------- verification


def _verify(plan: Plan, recorder: loadgen.Recorder, material: inputs.Inputs,
            outcome: Outcome) -> None:
    oracle = Oracle.from_graph(material.graph)
    rules = {rid: (owner, expression) for rid, owner, expression in material.resources}
    for request_id in sorted(recorder.keep):
        line = recorder.lines.get(request_id)
        if line is None or recorder.ok[request_id] != 1:
            continue  # unanswered or refused: already counted as failed
        result = json.loads(line)["result"]
        op = plan.ops[request_id]
        if op[0] == inputs.CHECK:
            owner, expression = rules[op[2]]
            agrees = result["granted"] == oracle.check(op[1], owner, expression)
        elif op[0] == inputs.REACH:
            agrees = result["reachable"] == oracle.reach(op[1], op[2], op[3])
        else:
            agrees = set(result["audience"]) == oracle.audience(op[1], op[2]) and not result["partial"]
        outcome.checked += 1
        if not agrees:
            outcome.mismatches += 1


# ------------------------------------------------------------------ tracing


def _load_spans(path) -> List[tracing.Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(row) for row in json.load(handle)["spans"]]


def _note_key(note) -> Tuple:
    return tuple(note) if isinstance(note, list) else (note,)


def _serves(span: tracing.Span, key: Tuple) -> bool:
    """Whether a worker-side service span's arguments cover a request."""
    name, note = span[1], span[6]
    kind = key[0]
    if kind == "check":
        if name == "service.bulk_access":
            return key[2] in note
        return name == "service.check" and note == [key[1], key[2]]
    if kind == "reach":
        if name == "service.reach_many":
            return [key[1], key[2]] in note
        return name == "service.reach" and note == [key[1], key[2]]
    return name == "service.audience" and key[1] in note


def _trace_metrics(spans: List[tracing.Span], recorder: loadgen.Recorder,
                   ids: range, layer: Dict[str, float]) -> None:
    """Split each traced request's round trip across the layers it crossed.

    Server-side spans carry the wire id (set where the frame was decoded);
    the service call that answered a request runs on the worker thread with
    no id, so it is matched as the last worker root span that lies inside
    the request's ``submit`` span and whose arguments cover the request.
    """
    span_metrics(spans, layer)
    by_name = tracing.median_by_name(spans, 1e6)
    layer["serving.admit_us"] = by_name.get("serving.admit", 0.0) + by_name.get(
        "serving.release", 0.0
    )
    roots = sorted(
        (s for s in spans if s[4] is None and s[1].startswith("service.")),
        key=lambda s: s[2],
    )
    sessions = {s[5]: s for s in spans if s[1] == "serving.session"}
    submits = {s[5]: s for s in spans if s[1] == "serving.submit"}
    starts = [s[2] for s in roots]
    waits, fanouts, wire_self = [], [], []
    attributed = round_trips = 0.0
    for request_id in ids:
        session, submit = sessions.get(request_id), submits.get(request_id)
        if session is None or submit is None or recorder.ok[request_id] != 1:
            continue
        round_trip = recorder.received[request_id] - recorder.sent[request_id]
        round_trips += round_trip
        outside = round_trip - (session[3] - session[2])
        wire_self.append(outside)
        key = _note_key(session[6])
        served = None
        at = bisect_left(starts, submit[2])
        while at < len(roots) and roots[at][2] <= submit[3]:
            if roots[at][3] <= submit[3] and _serves(roots[at], key):
                served = roots[at]
            at += 1
        if served is None:
            continue
        waits.append(served[2] - submit[2])
        fanouts.append(submit[3] - served[3])
        attributed += outside + (session[3] - session[2])
    layer["serving.gather_wait_ms"] = median(waits) * 1e3
    layer["serving.fanout_us"] = median(fanouts) * 1e6
    layer["serving.wire_self_ms"] = median(wire_self) * 1e3
    layer["trace.coverage"] = ratio(attributed, round_trips)


def _codec_metrics(plan: Plan, recorder: loadgen.Recorder, layer: Dict[str, float]) -> None:
    """``decode_frame`` / ``encode_frame(result_frame(..))`` replayed over the
    run's own request lines and the responses kept for verification."""
    decode, encode = [], []
    for request_id, line in recorder.lines.items():
        started = _clock()
        decode_frame(plan.frames[request_id])
        decode.append(_clock() - started)
        result = json.loads(line).get("result")
        if result is None:
            continue
        if "audience" in result:
            result["audience"] = frozenset(result["audience"])
        started = _clock()
        encode_frame(result_frame(request_id, result))
        encode.append(_clock() - started)
    layer["serving.decode_us"] = median(decode) * 1e6
    layer["serving.encode_us"] = median(encode) * 1e6


def _sharding_metrics(material: inputs.Inputs, seed: int, layer: Dict[str, float]) -> None:
    """``SHARDING_OWNERS`` audience requests through a 2-shard service pinned
    to the sharded route, beside the same requests unsharded."""
    ops = inputs.audience_ops(material, seed + 1, SHARDING_OWNERS)
    sharded = GraphService(material.graph, shards=2, default_backend="sharded")
    started = _clock()
    sharded.audience(ops[0][1], ops[0][2])
    first = _clock() - started
    timings = []
    for _kind, owner, expression in ops[1:]:
        started = _clock()
        sharded.audience(owner, expression)
        timings.append(_clock() - started)
    stats = sharded.statistics()
    layer["sharding.partition_s"] = max(0.0, first - median(timings))
    layer["sharding.audience_us"] = median(timings) * 1e6
    layer["sharding.escalated_share"] = ratio(
        stats.get("shard_escalated_queries", 0.0), stats.get("shard_queries", 0.0)
    )
    layer["sharding.summary_prune_share"] = ratio(
        stats.get("shard_summary_prunes", 0.0), stats.get("shard_queries", 0.0)
    )


# --------------------------------------------------------------------- run


def run_wire(workload: str, users: int, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    generate_started = _clock()
    material = inputs.build_inputs(users, seed)
    generate_s = _clock() - generate_started
    plan = Plan(workload, material, seed, seconds, trace)
    outcome.notes["request_hash"] = inputs.request_hash(plan.frames)

    timed = [phase for phase in plan.phases if phase.timed]
    # Closed-loop callers get only as far as the server keeps up; the first
    # few requests of each always go out, so only those are candidates.
    candidates = [
        i for phase in timed
        for i in (phase.ids[: 4 * IN_FLIGHT] if phase.offsets is None else phase.ids)
    ]
    recorder = loadgen.Recorder(
        len(plan.frames), set(sample_ids(candidates, VERIFY_SAMPLE, seed))
    )

    setups: List[float] = []
    max_rss_kb = 0.0
    stats: Dict[str, float] = {}
    spans: List[tracing.Span] = []
    gc.collect()
    gc.disable()  # the generator must not pause mid-schedule
    try:
        for round_ in range(plan.rounds):
            child, setup_s = _spawn_ready(users, material)
            try:
                setups.append(setup_s)
                stats = asyncio.run(_drive(plan, round_, child, recorder))
                if trace:
                    RESULTS.mkdir(exist_ok=True)
                    path = RESULTS / f"trace_{workload}.json"
                    child.command(f"dump {path}", "DUMPED")
                    spans = _load_spans(path)
            finally:
                child.stop()
            max_rss_kb = max(max_rss_kb, child.max_rss_kb)
    finally:
        gc.enable()

    _verify(plan, recorder, material, outcome)
    limit = LIMIT_MS[workload] / 1e3
    sent = answered = refused = 0
    for phase in timed:
        ids = phase.report["ids"]
        sent += sum(1 for i in ids if recorder.sent[i])
        answered += sum(1 for i in ids if recorder.ok[i] == 1)
        refused += sum(1 for i in ids if recorder.ok[i] == 2)
    outcome.attempted = sent
    outcome.failed = sent - answered + outcome.mismatches
    open_phases = [phase for phase in timed if phase.offsets is not None]
    outcome.notes["requests"] = {
        "sent": sent, "answered": answered, "refused": refused,
        "backlogged_phases": [
            f"{phase.name}.{phase.round}" for phase in timed if phase.report["backlog"]
        ],
        "longest_drain_s": round(max(phase.report["drain_s"] for phase in timed), 4),
    }
    refusals = [line for i, line in recorder.lines.items() if recorder.ok[i] == 2]
    if refusals:
        outcome.notes["first_refusal"] = refusals[0].decode("utf-8", "replace")[:200]
    if not trace:
        outcome.end_to_end = {
            "setup_s": median(setups),
            "p50_ms": _sliced(recorder, plan.named("base"), 0.5) * 1e3,
            "p90_ms": _sliced(recorder, plan.named("base"), 0.9) * 1e3,
            "peak_p90_ms": _sliced(recorder, plan.named("peak"), 0.9) * 1e3,
            "goodput_share": ratio(
                sum(_within(recorder, phase.report, limit) for phase in open_phases),
                sum(1 for phase in open_phases for i in phase.report["ids"] if recorder.sent[i]),
            ),
            "sat_ops_s": _throughput(recorder, plan.named("sat")),
            "peak_rss_mb": max_rss_kb / 1024.0,
        }
    else:
        layer = outcome.per_layer
        base_latencies = _latencies(recorder, plan.named("base"))
        traced = plan.named("base_traced")
        _trace_metrics(spans, recorder, traced[0].report["ids"], layer)
        _codec_metrics(plan, recorder, layer)
        # No plan travels on the wire; each engine's memo lookups count the
        # answers its backend gave.
        backends = {
            name: int(stats.get(f"{name}_hits", 0.0) + stats.get(f"{name}_misses", 0.0))
            for name in ("bfs", "dfs", "transitive-closure", "cluster-index")
        }
        counter_metrics(stats, backends, layer)
        submitted = stats.get("coalescer_requests_submitted", 0.0)
        layer["serving.batch_size_mean"] = ratio(
            submitted, stats.get("coalescer_batches_executed", 0.0)
        )
        layer["serving.coalesced_share"] = ratio(
            stats.get("coalescer_requests_coalesced", 0.0), submitted
        )
        layer["serving.solo_share"] = ratio(stats.get("serving_solo_requests", 0.0), submitted)
        layer["serving.fallbacks"] = stats.get("serving_fallbacks", 0.0)
        layer["serving.rejected"] = stats.get("admission_rejected", 0.0)
        layer["serving.frames_failed"] = float(refused)
        layer["serving.p99_ms"] = percentile(base_latencies, 0.99) * 1e3
        layer["serving.max_ms"] = (base_latencies[-1] if base_latencies else 0.0) * 1e3
        late = sorted(
            recorder.sent[i] - recorder.due[i]
            for phase in open_phases for i in phase.report["ids"] if recorder.sent[i]
        )
        layer["loadgen.late_p99_ms"] = percentile(late, 0.99) * 1e3
        layer["loadgen.sent"] = float(sent)
        layer["loadgen.answered"] = float(answered)
        layer["failed_share"] = ratio(outcome.failed, outcome.attempted)
        layer["tracing_overhead"] = ratio(
            percentile(_latencies(recorder, traced), 0.5), percentile(base_latencies, 0.5)
        )
        layer["graph.generate_s"] = generate_s
        compile_started = _clock()
        compile_graph(material.graph)
        layer["graph.compile_s"] = _clock() - compile_started
        layer["policy.parse_us"] = parse_us()
        if workload == "wire_audience":
            _sharding_metrics(material, seed, layer)
    return outcome
