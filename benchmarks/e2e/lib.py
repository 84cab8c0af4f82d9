"""The in-process workloads: ``lib_read`` and ``lib_churn``.

One caller thread, closed loop, straight through ``GraphService``.  The op
list is generated once and cycled; the cold ops in one pass outnumber the
4096-entry memos many times over, so a cold op is still a miss when its turn
comes round again.
"""

from __future__ import annotations

import gc
import random
import time
from bisect import bisect_left
from array import array
from typing import Dict, List, Optional, Tuple

import inputs
import tracing
from common import (
    LIMIT_MS,
    RESULTS,
    SETUP_REPEATS,
    VERIFY_SAMPLE,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    quiet,
    ratio,
    slices,
    work_directory,
)
from oracle import Missing, Oracle

from repro.exceptions import NodeNotFoundError
from repro.graph.compiled import compile_graph
from repro.graph.snapshot import SnapshotStore
from repro.policy.path_expression import PathExpression
from repro.reliability.guard import QueryGuard
from repro.service.facade import GraphService
from repro.workloads.driver import install_policies
from repro.workloads.generator import apply_churn_op

OPS_PER_PASS = 256 * 800
CHECKPOINT_EVERY = 20
CHURN_BURSTS = 1500
#: Reads after each burst kept for the oracle (it checks as many of them as
#: make up ``VERIFY_SAMPLE`` over the run's cycles).
SAMPLES_PER_CYCLE = 12
#: Slices per run (see ``common.quiet``).
WINDOWS = 24
CHURN_WINDOWS = 8
#: Answers: False / True / the requester or an endpoint is gone.
GONE = 2
_clock = time.perf_counter


# ------------------------------------------------------------------- set-up


def _build_service(users: int, seed: int, snapshot_path=None):
    """Graph, policies, compiled snapshot, one warm check per expression."""
    timings = {}
    started = _clock()
    material = inputs.build_inputs(users, seed)
    timings["generate_s"] = _clock() - started
    compile_started = _clock()
    service = GraphService(material.graph, snapshot_path=snapshot_path)
    service.refresh()
    timings["compile_s"] = _clock() - compile_started
    install_policies(service, material.workload)
    seen = set()
    for resource_id, _owner, expression in material.resources:
        if expression not in seen:
            seen.add(expression)
            service.check(material.users[-1], resource_id, explain=False)
    timings["setup_s"] = _clock() - started
    return material, service, timings


def _set_up(users: int, seed: int, repeats: int, import_s: float, snapshot_dir=None):
    """``repeats`` full set-ups; the last one stays.  ``setup_s`` is the
    import time (paid once per process) plus the median set-up."""
    rows = []
    material = service = None
    for index in range(repeats):
        material = service = None
        gc.collect()
        path = None if snapshot_dir is None else snapshot_dir / f"setup{index}" / "graph.snap"
        material, service, timings = _build_service(users, seed, path)
        rows.append(timings)
    summary = {key: median([row[key] for row in rows]) for key in rows[0]}
    summary["setup_s"] += import_s
    return material, service, summary


# ---------------------------------------------------------------- read loop


class ReadLog:
    """Per-op latency, answer and backend counts of one read loop."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.answers = bytearray()
        self.backends: Dict[str, int] = {}
        self.position = 0  # next op index (cycled)
        #: Clock after every chunk of (up to) 256 ops, for per-slice throughput.
        self.chunk_ends = array("d")

    def run(self, service: GraphService, ops: List[Tuple], count: Optional[int] = None,
            seconds: Optional[float] = None) -> float:
        """Issue ``count`` ops, or chunks of 256 until ``seconds`` pass.
        Returns the wall seconds spent."""
        check, reach, clock = service.check, service.reach, _clock
        latencies, answers, backends = self.latencies, self.answers, self.backends
        chunk_ends = self.chunk_ends
        total = len(ops)
        started = clock()
        deadline = None if seconds is None else started + seconds
        remaining = count
        while True:
            size = 256 if remaining is None else min(256, remaining)
            chunk = ops[self.position:self.position + size]
            if len(chunk) < size:
                chunk += ops[:size - len(chunk)]
            for op in chunk:
                t0 = clock()
                try:
                    if op[0] == inputs.CHECK:
                        result = check(op[1], op[2], explain=False)
                        answer = result.granted
                    else:
                        result = reach(op[1], op[2], op[3], collect_witness=False)
                        answer = result.reachable
                    t1 = clock()
                    backend = result.plan.backend
                    backends[backend] = backends.get(backend, 0) + 1
                except NodeNotFoundError:
                    t1 = clock()
                    answer = GONE
                latencies.append(t1 - t0)
                answers.append(answer)
            self.position = (self.position + size) % total
            chunk_ends.append(clock())
            if remaining is not None:
                remaining -= size
                if remaining <= 0:
                    break
            elif clock() >= deadline:
                break
        return clock() - started


def _expected(oracle: Oracle, rules: Dict[str, Tuple], op: Tuple) -> int:
    try:
        if op[0] == inputs.CHECK:
            owner, expression = rules[op[2]]
            return int(oracle.check(op[1], owner, expression))
        return int(oracle.reach(op[1], op[2], op[3]))
    except Missing:
        return GONE


def _rules(material: inputs.Inputs) -> Dict[str, Tuple]:
    return {rid: (owner, expression) for rid, owner, expression in material.resources}


# ------------------------------------------------------------ trace metrics


def span_metrics(spans: List[tracing.Span], layer: Dict[str, float]) -> None:
    """Per-layer timings every workload reads from its spans."""
    by_name = tracing.median_by_name(spans, 1e6)
    for op in ("check", "reach", "reach_many", "audience", "bulk_access"):
        layer[f"service.{op}_us"] = by_name.get(f"service.{op}", 0.0)
    layer["service.plan_us"] = by_name.get("service.plan", 0.0)
    layer["policy.check_access_us"] = by_name.get("policy.check_access", 0.0)
    layer["reachability.evaluate_us"] = by_name.get("reachability.evaluate", 0.0)
    own = tracing.self_times(spans)
    roots = [own[s[0]] for s in spans if s[4] is None and s[1].startswith("service.")]
    layer["service.self_us"] = median(roots) * 1e6
    sweeps = [s for s in spans if s[1] == "reachability.sweep"]
    if sweeps:
        owners = sum(s[6] or 0 for s in sweeps)
        seconds = sum(s[3] - s[2] for s in sweeps)
        layer["reachability.sweep_ms"] = median([s[3] - s[2] for s in sweeps]) * 1e3
        layer["reachability.sweep_owners_mean"] = owners / len(sweeps)
        layer["reachability.sweep_us_per_owner"] = ratio(seconds * 1e6, owners)
    layer["reachability.index_build_s"] = sum(
        own[s[0]] for s in spans if s[1] == "reachability.index_build"
    )


def counter_metrics(stats: Dict[str, float], backends: Dict[str, int],
                    layer: Dict[str, float]) -> None:
    """Counters every workload reads from ``statistics()`` / the stats frame."""
    hits = sum(v for k, v in stats.items() if k.endswith("_hits") and not k.startswith("planner"))
    misses = sum(v for k, v in stats.items() if k.endswith("_misses") and not k.startswith("planner"))
    layer["reachability.memo_hit_share"] = ratio(hits, hits + misses)
    layer["service.plan_cache_hit_share"] = ratio(
        stats.get("planner_plan_cache_hits", 0.0),
        stats.get("planner_plan_cache_hits", 0.0) + stats.get("planner_plan_cache_misses", 0.0),
    )
    answered = sum(backends.values())
    for name in ("bfs", "dfs", "transitive-closure", "cluster-index"):
        layer[f"reachability.backend_share.{name}"] = ratio(backends.get(name, 0), answered)
    layer["reliability.guard_trips"] = stats.get("guard_trips", 0.0)
    layer["reliability.breaker_trips"] = sum(
        v for k, v in stats.items() if k.startswith("breaker_") and k.endswith("_trips")
    )
    layer["reliability.queries_degraded"] = stats.get("queries_degraded", 0.0)
    layer["graph.delta_segments"] = stats.get("snapshot_delta_segments", 0.0)
    layer["graph.snapshot_bytes"] = stats.get("snapshot_disk_bytes", 0.0)


def parse_us() -> float:
    """Cold ``PathExpression.parse`` of the rule pool (no cache in the way)."""
    timings = []
    for _ in range(5):
        for text in inputs.RULE_EXPRESSIONS:
            started = _clock()
            PathExpression.parse(text)
            timings.append(_clock() - started)
    return median(timings) * 1e6


def _guard_overhead(material: inputs.Inputs, ops: List[Tuple]) -> float:
    """The same 5k-op slice through a guarded and an unguarded service
    (fresh services, so both start with cold memos), three alternations."""
    slice_ops = ops[:5000]
    shares = []
    for _ in range(3):
        seconds = {}
        for guarded in (False, True):
            service = GraphService(
                material.graph, query_guard=QueryGuard() if guarded else None
            )
            install_policies(service, material.workload)
            seconds[guarded] = ReadLog().run(service, slice_ops, count=len(slice_ops))
        shares.append(ratio(seconds[True] - seconds[False], seconds[False]))
    return median(shares)


def _finish_layer(outcome: Outcome, log: ReadLog) -> None:
    layer = outcome.per_layer
    layer["loadgen.sent"] = float(len(log.answers))
    layer["loadgen.answered"] = float(len(log.answers))
    layer["failed_share"] = ratio(outcome.failed, outcome.attempted)


# ----------------------------------------------------------------- lib_read


def run_lib_read(users: int, seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    outcome = Outcome()
    material, service, setup = _set_up(users, seed, 1 if trace else SETUP_REPEATS, import_s)
    ops, cold = inputs.lib_ops(material, seed, OPS_PER_PASS)
    outcome.notes["request_hash"] = inputs.request_hash(ops)
    gc.collect()
    gc.freeze()

    ReadLog().run(service, ops, seconds=0.05 * seconds)  # warm-up, discarded
    log = ReadLog()
    spans: List[tracing.Span] = []
    if trace:
        untraced = ReadLog()
        untraced.run(service, ops, seconds=0.2 * seconds)
        tracer = tracing.Tracer()
        tracer.install_library()
        try:
            log.position = untraced.position
            log.run(service, ops, seconds=0.2 * seconds)
        finally:
            tracer.uninstall()
        spans = list(tracer.spans)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / "trace_lib_read.json")
    else:
        log.run(service, ops, seconds=0.95 * seconds)
    rss = peak_rss_mb()
    stats = service.statistics()

    # Verification, outside the timed phase: a seeded sample, half of it cold.
    executed = len(log.answers)
    total = len(ops)
    start = (log.position - executed) % total

    def index_of(k: int) -> int:
        """Op index of the ``k``-th executed op."""
        return (start + k) % total

    positions = list(range(executed))
    cold_positions = [k for k in positions if cold[index_of(k)]]
    rng = random.Random(seed)
    sample = rng.sample(cold_positions, min(len(cold_positions), VERIFY_SAMPLE // 2))
    sample += rng.sample(positions, min(executed, VERIFY_SAMPLE - len(sample)))
    oracle = Oracle.from_graph(material.graph)
    rules = _rules(material)
    for k in sample:
        outcome.checked += 1
        if _expected(oracle, rules, ops[index_of(k)]) != log.answers[k]:
            outcome.mismatches += 1

    ordered = sorted(log.latencies)
    outcome.attempted = executed
    outcome.failed = outcome.mismatches + sum(1 for a in log.answers if a == GONE)
    if not trace:
        parts = [sorted(part) for part in slices(log.latencies, WINDOWS)]
        cold_parts = [
            sorted(log.latencies[k] for k in part if cold[index_of(k)])
            for part in slices(range(executed), WINDOWS)
        ]
        rates = [
            256 * (len(part) - 1) / (part[-1] - part[0])
            for part in slices(log.chunk_ends, WINDOWS)
        ]
        limit = LIMIT_MS["lib_read"] / 1e3
        outcome.end_to_end = {
            "setup_s": setup["setup_s"],
            "p50_ms": quiet([percentile(part, 0.5) for part in parts]) * 1e3,
            "p90_ms": quiet([percentile(part, 0.9) for part in parts]) * 1e3,
            "peak_p90_ms": quiet([percentile(part, 0.9) for part in cold_parts if part]) * 1e3,
            "goodput_share": ratio(
                sum(1 for v in ordered if v <= limit) - outcome.failed, executed
            ),
            "sat_ops_s": quiet(rates, "higher"),
            "peak_rss_mb": rss,
        }
    else:
        layer = outcome.per_layer
        span_metrics(spans, layer)
        counter_metrics(stats, log.backends, layer)
        layer["graph.generate_s"] = setup["generate_s"]
        layer["graph.compile_s"] = setup["compile_s"]
        layer["policy.parse_us"] = parse_us()
        layer["reliability.guard_overhead_share"] = _guard_overhead(material, ops)
        layer["serving.p99_ms"] = percentile(ordered, 0.99) * 1e3
        layer["serving.max_ms"] = ordered[-1] * 1e3
        layer["tracing_overhead"] = ratio(
            percentile(ordered, 0.5), percentile(sorted(untraced.latencies), 0.5)
        )
        roots = sum(s[3] - s[2] for s in spans if s[4] is None)
        layer["trace.coverage"] = ratio(roots, sum(log.latencies))
        _finish_layer(outcome, log)
    return outcome


# ---------------------------------------------------------------- lib_churn


def run_lib_churn(users: int, seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    with work_directory() as directory:
        return _run_lib_churn(users, seed, seconds, trace, import_s, directory)


class _ChurnLog:
    """Cycles of write burst -> first read -> the read mix, with what the
    metrics and the replay verification need from each."""

    def __init__(self, service: GraphService, ops: List[Tuple], bursts) -> None:
        self.service, self.ops, self.bursts = service, ops, bursts
        self.log = ReadLog()
        self.first_reads = array("d")
        self.mutate = array("d")
        self.burst_ends = array("d")
        self.samples: List[List[Tuple[int, int]]] = []  # per cycle: (op index, answer)
        self.writes = 0
        #: Per cycle: clock at its start and end, and where its reads begin.
        self.cycle_starts = array("d")
        self.cycle_ends = array("d")
        self.read_starts = array("l")

    def run(self, seconds: float) -> None:
        service, log, graph = self.service, self.log, self.service.graph
        started = _clock()
        while len(self.samples) < len(self.bursts):
            cycle = len(self.samples)
            self.cycle_starts.append(_clock())
            for op in self.bursts[cycle]:
                t0 = _clock()
                apply_churn_op(graph, op)
                self.mutate.append(_clock() - t0)
            self.writes += len(self.bursts[cycle])
            if (cycle + 1) % CHECKPOINT_EVERY == 0:
                service.refresh()
            self.burst_ends.append(_clock())
            before, position = len(log.answers), log.position
            self.read_starts.append(before)
            log.run(service, self.ops, count=inputs.READS_PER_CYCLE)
            self.cycle_ends.append(_clock())
            self.first_reads.append(log.latencies[before])
            self.samples.append([
                ((position + k) % len(self.ops), log.answers[before + k])
                for k in range(SAMPLES_PER_CYCLE)
            ])
            if _clock() - started >= seconds:
                break


def _run_lib_churn(users, seed, seconds, trace, import_s, directory) -> Outcome:
    outcome = Outcome()
    material, service, setup = _set_up(
        users, seed, 1 if trace else SETUP_REPEATS, import_s, snapshot_dir=directory
    )
    graph = material.graph
    ops, _cold = inputs.lib_ops(material, seed, OPS_PER_PASS)
    bursts = inputs.churn_bursts(material, seed, CHURN_BURSTS)
    outcome.notes["request_hash"] = inputs.request_hash(ops, bursts)
    gc.collect()
    gc.freeze()

    churn = _ChurnLog(service, ops, bursts)
    spans: List[tracing.Span] = []
    if trace:
        churn.run(0.2 * seconds)
        untraced_p50 = percentile(sorted(churn.log.latencies), 0.5)
        untraced_reads = len(churn.log.latencies)
        untraced_cycles = len(churn.samples)
        tracer = tracing.Tracer()
        tracer.install_library()
        try:
            churn.run(0.25 * seconds)
        finally:
            tracer.uninstall()
        spans = list(tracer.spans)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / "trace_lib_churn.json")
        timed = churn.log.latencies[untraced_reads:]
    else:
        churn.run(seconds)
        timed = churn.log.latencies
    log = churn.log
    cycles = len(churn.samples)
    rss = peak_rss_mb()

    # Warm start from the store: the checkpointed tip must map back in.
    service.refresh()
    stats = service.statistics()
    load_started = _clock()
    warm = GraphService(graph, service.store, snapshot_path=service.snapshot_store.base_path)
    load_ms = (_clock() - load_started) * 1e3
    if warm.warm_start != "mapped":
        outcome.mismatches += 1
        outcome.notes["warm_start"] = warm.warm_start

    # Verification by replay: a fresh copy of the initial graph feeds the
    # oracle, which mirrors each burst and checks the reads that followed it.
    oracle = Oracle.from_graph(inputs.build_inputs(users, seed).graph)
    rules = _rules(material)
    per_cycle = max(1, min(SAMPLES_PER_CYCLE, -(-VERIFY_SAMPLE // cycles)))
    for cycle in range(cycles):
        for op in bursts[cycle]:
            oracle.apply(op)
        for index, answer in churn.samples[cycle][:per_cycle]:
            outcome.checked += 1
            if _expected(oracle, rules, ops[index]) != answer:
                outcome.mismatches += 1
    live_edges = {(r.source, r.target, r.label) for r in graph.relationships()}
    if oracle.edge_set() != live_edges or set(oracle.attributes) != set(graph.users()):
        outcome.mismatches += 1
        outcome.notes["graph_diverged"] = True
    for op in ops[:20]:  # the warm-started service answers from the mapped state
        outcome.checked += 1
        answers = ReadLog()
        answers.run(warm, [op], count=1)
        if _expected(oracle, rules, op) != answers.answers[0]:
            outcome.mismatches += 1

    ordered = sorted(timed)
    limit = LIMIT_MS["lib_churn"] / 1e3
    reads = len(log.answers)
    outcome.attempted = reads + churn.writes
    outcome.failed = outcome.mismatches
    outcome.notes["cycles"] = cycles
    outcome.notes["removed_requester_reads"] = sum(1 for a in log.answers if a == GONE)
    if not trace:
        groups = slices(range(cycles), CHURN_WINDOWS)
        per_cycle = inputs.READS_PER_CYCLE + inputs.CHURN_BURST
        reads_of = inputs.READS_PER_CYCLE
        parts = [
            sorted(log.latencies[churn.read_starts[g[0]]:churn.read_starts[g[-1]] + reads_of])
            for g in groups
        ]
        outcome.end_to_end = {
            "setup_s": setup["setup_s"],
            "p50_ms": quiet([percentile(part, 0.5) for part in parts]) * 1e3,
            "p90_ms": quiet([percentile(part, 0.9) for part in parts]) * 1e3,
            "peak_p90_ms": quiet([
                percentile(sorted(churn.first_reads[g[0]:g[-1] + 1]), 0.9) for g in groups
            ]) * 1e3,
            "goodput_share": ratio(sum(1 for v in ordered if v <= limit) - outcome.failed, reads),
            "sat_ops_s": quiet([
                per_cycle * len(g) / (churn.cycle_ends[g[-1]] - churn.cycle_starts[g[0]])
                for g in groups
            ], "higher"),
            "peak_rss_mb": rss,
        }
    else:
        layer = outcome.per_layer
        span_metrics(spans, layer)
        counter_metrics(stats, log.backends, layer)
        layer["graph.generate_s"] = setup["generate_s"]
        layer["graph.compile_s"] = setup["compile_s"]
        layer["graph.refresh_p50_ms"] = median(churn.first_reads) * 1e3
        layer["graph.mutate_us"] = median(churn.mutate) * 1e6
        layer["graph.snapshot_load_ms"] = load_ms
        # The first compile_graph after each burst is the one that patches
        # the snapshot; later ones only compare epochs.
        compiles = sorted((s[2], s[3] - s[2]) for s in spans if s[1] == "graph.compile")
        starts = [start for start, _duration in compiles]
        patches = []
        for end in churn.burst_ends[untraced_cycles:]:
            at = bisect_left(starts, end)
            if at < len(compiles):
                patches.append(compiles[at][1])
        layer["graph.apply_deltas_ms"] = median(patches) * 1e3
        layer["graph.checkpoint_ms"] = tracing.median_by_name(spans, 1e3).get(
            "graph.checkpoint", 0.0
        )
        store = SnapshotStore(directory / "side" / "graph.snap")
        save_started = _clock()
        store.save(compile_graph(graph))
        layer["graph.snapshot_save_s"] = _clock() - save_started
        layer["policy.parse_us"] = parse_us()
        layer["serving.p99_ms"] = percentile(ordered, 0.99) * 1e3
        layer["serving.max_ms"] = ordered[-1] * 1e3
        layer["tracing_overhead"] = ratio(percentile(ordered, 0.5), untraced_p50)
        reads_traced = sum(
            s[3] - s[2] for s in spans if s[4] is None and s[1] != "service.refresh"
        )
        layer["trace.coverage"] = ratio(reads_traced, sum(timed))
        _finish_layer(outcome, log)
    return outcome
