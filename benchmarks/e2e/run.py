"""One command for the repo's end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

generates workload ``W`` from the seed, runs it for ``S`` seconds, checks a
sample of the answers against the independent oracle and prints every metric
by name with its unit; the last line is the JSON result the driver reads.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs the timing shims and reports the per-layer ones.
``--workload all`` runs the four workloads one after another.

Options beyond the driver's: ``--users`` (graph size, for the smoke test) and
``--append FILE`` (one JSON row per run; ``compare.py`` reads such files, and
``results/trajectory.jsonl`` is one).
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent.parent
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{_ROOT / 'src' / 'repro'} not found: the benchmark measures that package")
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_ROOT / "src"))

import common  # noqa: E402
import inputs  # noqa: E402
import lib  # noqa: E402
import wire  # noqa: E402

_IMPORT_SECONDS = time.perf_counter() - _PROCESS_STARTED


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=_ROOT, text=True,
            capture_output=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def environment(args: argparse.Namespace) -> dict:
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "users": args.users,
    }


def run_one(workload: str, args: argparse.Namespace) -> dict:
    trace = bool(args.trace)
    if workload.startswith("wire"):
        outcome = wire.run_wire(workload, args.users, args.seed, args.seconds, trace)
    elif workload == "lib_read":
        outcome = lib.run_lib_read(args.users, args.seed, args.seconds, trace, _IMPORT_SECONDS)
    else:
        outcome = lib.run_lib_churn(args.users, args.seed, args.seconds, trace, _IMPORT_SECONDS)

    table = common.PER_LAYER if trace else common.END_TO_END
    measured = outcome.per_layer if trace else outcome.end_to_end
    # A layer a workload never enters reports 0 for its metrics.
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": spec["unit"]}
        for name, spec in table.items()
    }
    print(f"# {workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"users={args.users}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# oracle: checked {outcome.checked} answers, {outcome.mismatches} mismatches")
    for name, metric in metrics.items():
        print(f"{name:46s} {metric['value']:14.6g} {metric['unit']}")
    result = {
        "correct": outcome.mismatches == 0 and outcome.checked >= min(500, outcome.attempted),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.append:
        row = dict(result, workload=workload, trace=args.trace, env=environment(args))
        path = Path(args.append)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return result


def _terminate(_signum, _frame):
    raise SystemExit(143)  # unwind through the finally blocks that reap the child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=common.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(common.BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--users", type=int, default=inputs.USERS)
    parser.add_argument("--append", metavar="FILE")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    names = common.WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        result = run_one(name, args)
        if not result["correct"]:
            status = 1
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
