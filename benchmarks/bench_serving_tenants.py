"""PERF-15 — cross-tenant latency: a light tenant served beside a heavy one.

Tenants share one serving process, so one tenant's load can delay
another's answers.  This benchmark measures how much:

* a **light** tenant sends access checks one at a time (closed loop, one
  frame in flight, ``LIGHT_GAP_SECONDS`` between answer and next send);
* a **heavy** tenant keeps ``HEAVY_DEPTH`` audience frames in flight over
  eight shared path expressions, every frame with a fresh owner, so each
  of its batches runs a real multi-owner sweep.

The light tenant's latency is measured twice, alone and then beside the
heavy load, and the heavy tenant's throughput during the second phase is
recorded.  Three processes keep the clients' own work off the server's
interpreter: the server (``python -m repro.serving --tenants 2``:
``tenant-0`` is heavy, ``tenant-1`` light), the heavy load generator (this
script with ``--heavy``) and the light client (this process).

Acceptance (asserted at every size): every light answer equals a
sequential replay on an identically seeded twin, no light or heavy frame
fails, and the heavy tenant was answered while the light tenant was
measured.  Latencies are recorded, not asserted: they depend on the
machine.

Artifacts: ``benchmarks/results/BENCH_serving_tenants.json`` and
``perf15_serving_tenants.txt``.  Runnable directly:
``PYTHONPATH=src python benchmarks/bench_serving_tenants.py``
(``BENCH_SMOKE=1`` for the small run, which writes no artifact).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Users per tenant graph (both tenants; only the heavy one sweeps them).
USERS = 600 if SMOKE else 20_000
SEED = 7  # the server seeds tenant i with SEED + i
HEAVY_TENANT, LIGHT_TENANT = "tenant-0", "tenant-1"
HEAVY_DEPTH = 16 if SMOKE else 64
LIGHT_REQUESTS = 40 if SMOKE else 400
LIGHT_GAP_SECONDS = 0.002
#: Heavy load runs this long before the light tenant is measured beside it.
HEAVY_WARMUP_SECONDS = 0.2 if SMOKE else 1.0

EXPRESSIONS = (
    "friend+[1]",
    "friend+[1,2]",
    "friend+[1,2]/colleague+[1]",
    "colleague+[1,2]",
    "friend+[1]/colleague+[1]",
    "parent+[1]/friend+[1]",
    "colleague*[1,2]",
    "friend*[1,2]",
)


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _frame(request_id: int, body: dict) -> bytes:
    body = dict(body, id=request_id)
    return (json.dumps(body, separators=(",", ":")) + "\n").encode()


# ------------------------------------------------------------ heavy client


async def _heavy_load(host: str, port: int) -> dict:
    """Keep ``HEAVY_DEPTH`` audience frames in flight until SIGTERM."""
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 26)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    sent = answered = errors = 0

    def send() -> None:
        nonlocal sent
        owner = f"u{sent % USERS}"
        expression = EXPRESSIONS[sent % len(EXPRESSIONS)]
        body = {"op": "audience", "tenant": HEAVY_TENANT, "owner": owner,
                "expression": expression}
        writer.write(_frame(sent, body))
        sent += 1

    for _ in range(HEAVY_DEPTH):
        send()
    started = time.perf_counter()
    while answered < sent:
        line = await reader.readline()
        if not line:
            break
        answered += 1
        if b'"ok":true' not in line[:40]:  # keys are sorted: id, ok, ...
            errors += 1
        if answered == 1:
            print("ready", flush=True)
        if not stop.is_set():
            send()
    seconds = time.perf_counter() - started
    writer.close()
    await writer.wait_closed()
    return {"sent": sent, "answered": answered, "errors": errors, "seconds": seconds}


# ------------------------------------------------------------ light client


def _light_phase(host: str, port: int, requests) -> tuple:
    """Send each check alone; return (latencies, answers, failures)."""
    latencies, answers, failures = [], [], 0
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = sock.makefile("rb")
        for index, (requester, resource_id) in enumerate(requests):
            frame = _frame(index, {"op": "check", "tenant": LIGHT_TENANT,
                                   "requester": requester, "resource": resource_id})
            started = time.perf_counter()
            sock.sendall(frame)
            response = json.loads(stream.readline())
            latencies.append(time.perf_counter() - started)
            if not response.get("ok"):
                failures += 1
                answers.append(None)
            else:
                answers.append(response["result"]["granted"])
            time.sleep(LIGHT_GAP_SECONDS)
    return latencies, answers, failures


def _light_requests_and_truth():
    """The light tenant's checks and a sequential replay on a twin."""
    from repro.service.facade import GraphService
    from repro.workloads.driver import install_policies
    from repro.workloads.generator import WorkloadSpec, build_workload

    workload = build_workload(WorkloadSpec(users=USERS, seed=SEED + 1))
    service = GraphService(workload.graph)
    install_policies(service, workload)
    pool = workload.requests
    requests = [
        (str(requester), resource_id)
        for requester, resource_id in (
            pool[i % len(pool)] for i in range(LIGHT_REQUESTS)
        )
    ]
    truth = [service.check(requester, resource_id).granted
             for requester, resource_id in requests]
    return requests, truth


def _start_server():
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serving", "--port", "0", "--tenants", "2",
         "--users", str(USERS), "--seed", str(SEED)],
        stdout=subprocess.PIPE, env=_env(), text=True,
    )
    line = server.stdout.readline()  # "serving 2 tenant(s) on host:port"
    if not line.startswith("serving"):
        server.kill()
        server.wait()
        raise RuntimeError(f"server failed to start: {line!r}")
    host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
    return server, host, int(port)


def _stop(process) -> None:
    process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if process.stdout is not None:
        process.stdout.close()


def _summary(latencies) -> dict:
    return {
        "requests": len(latencies),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p90_ms": _percentile(latencies, 0.90) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "max_ms": max(latencies) * 1e3,
    }


def run_benchmark() -> dict:
    requests, truth = _light_requests_and_truth()
    server, host, port = _start_server()
    heavy = None
    try:
        _light_phase(host, port, requests[:1])  # compiles the light tenant's snapshot
        alone, alone_answers, alone_failures = _light_phase(host, port, requests)
        heavy = subprocess.Popen(
            [sys.executable, __file__, "--heavy", host, str(port)],
            stdout=subprocess.PIPE, env=_env(), text=True,
        )
        if heavy.stdout.readline().strip() != "ready":
            raise RuntimeError("heavy load generator failed to start")
        time.sleep(HEAVY_WARMUP_SECONDS)
        beside, beside_answers, beside_failures = _light_phase(host, port, requests)
        heavy.send_signal(signal.SIGTERM)
        heavy_result = json.loads(heavy.stdout.readline())
        heavy.wait(timeout=30)
    finally:
        if heavy is not None and heavy.poll() is None:
            heavy.kill()
            heavy.wait()
        if heavy is not None:
            heavy.stdout.close()
        _stop(server)

    assert alone_failures == 0 and beside_failures == 0
    assert alone_answers == truth and beside_answers == truth
    assert heavy_result["answered"] > 0 and heavy_result["errors"] == 0

    return {
        "experiment": "PERF-15 cross-tenant latency",
        "smoke": SMOKE,
        "users": USERS,
        "heavy_depth": HEAVY_DEPTH,
        "light_gap_seconds": LIGHT_GAP_SECONDS,
        "expressions": list(EXPRESSIONS),
        "light_alone": _summary(alone),
        "light_beside_heavy": _summary(beside),
        "heavy": {
            "answered": heavy_result["answered"],
            "seconds": heavy_result["seconds"],
            "requests_per_second": heavy_result["answered"] / heavy_result["seconds"],
        },
        "answers_verified": 2 * len(requests),
    }


def _format_table(summary: dict) -> str:
    heavy = summary["heavy"]
    lines = [
        "PERF-15 — cross-tenant latency: light checks beside a heavy audience tenant"
        + (" (SMOKE)" if summary["smoke"] else ""),
        f"{summary['users']} users per tenant; heavy tenant keeps "
        f"{summary['heavy_depth']} audience frames in flight over "
        f"{len(summary['expressions'])} expressions ({heavy['requests_per_second']:.0f} "
        f"answered/s); light tenant sends one check at a time; "
        f"{summary['answers_verified']} light answers verified against sequential replay",
        "",
        f"{'light tenant':>20} {'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8} {'max ms':>8}",
        "-" * 56,
    ]
    for name in ("light_alone", "light_beside_heavy"):
        row = summary[name]
        lines.append(
            f"{name.replace('light_', ''):>20} {row['p50_ms']:>8.2f} "
            f"{row['p90_ms']:>8.2f} {row['p99_ms']:>8.2f} {row['max_ms']:>8.2f}"
        )
    return "\n".join(lines)


def test_light_tenant_answers_equal_the_sequential_replay_beside_a_heavy_one():
    summary = run_benchmark()  # every light answer is differentially asserted
    print()
    print(_format_table(summary))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--heavy"]:
        print(json.dumps(asyncio.run(_heavy_load(sys.argv[2], int(sys.argv[3])))))
        sys.exit(0)
    summary = run_benchmark()
    table = _format_table(summary)
    print()
    print(table)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_serving_tenants.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        (RESULTS_DIR / "perf15_serving_tenants.txt").write_text(
            table + "\n", encoding="utf-8"
        )
