#!/usr/bin/env python3
"""Function census: which ``src/repro`` functions do the served roots call?

Run from the repository root:

    python tools/census.py                         # every root, report to stdout
    python tools/census.py --output docs/census.md # the committed report
    python tools/census.py --roots walkthrough     # one root (names below)

Each *root* is a command that exercises the system the way it is used: the
four end-to-end workloads, the paper's figures and worked example, the
walkthrough, the crash matrix and the PERF-10 denial-filter test.  Every root runs
as a subprocess whose ``PYTHONPATH`` starts with a temporary directory
holding a ``sitecustomize`` module.  Python imports that module at start-up,
so every interpreter the root launches — the e2e server child and
multiprocessing spawn children included — installs a stdlib
``sys.setprofile`` hook (and ``threading.setprofile`` for new threads).
Fork children inherit the hook.  The hook notes each Python function the
first time it is called and, if the function lives under ``src/repro``,
appends its file and first line to a per-process file, so a child that
leaves through ``os._exit`` loses nothing.  The qualified name comes from
the source (the ``ast`` table of ``defined_functions``), not from the code
object, so the hook runs on every supported Python.

The report lists, per module, the named functions (``def``s; lambdas and
comprehensions are not counted) that no root called.  ``repro.testing`` is
the reference implementation the differential tests compare against: it is
listed but marked as kept.  At 2,000 users every root together takes about
two minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: Modules kept whatever the census says: the reference walk every
#: differential harness compares against, and the graphs it draws.
KEPT = {"repro/testing": "reference implementation, kept"}

#: ``(relative path, qualified name, first line)``; the first line is the
#: first decorator's for a decorated function, as in ``co_firstlineno``.
#: A property's setter or deleter is named ``Class.prop.setter`` /
#: ``Class.prop.deleter``.
Function = Tuple[str, str, int]

_HOOK = r'''
import os
import sys
import threading

_package = os.environ.get("REPRO_CENSUS_PACKAGE")
_out = os.environ.get("REPRO_CENSUS_DIR")
if _package and _out:
    _prefix = os.path.realpath(_package) + os.sep
    _parent = os.path.dirname(os.path.realpath(_package)) + os.sep
    _seen = {}  # id(code) -> code; holding the code keeps its id unique
    _sink = [None, None]  # (pid, fd) of the current process's record

    def _note(code):
        _seen[id(code)] = code
        path = os.path.realpath(code.co_filename)
        # Class bodies and modules lack CO_OPTIMIZED (0x1); lambdas and
        # comprehensions are named "<...>".
        if (
            not path.startswith(_prefix)
            or not code.co_flags & 0x1
            or code.co_name.startswith("<")
        ):
            return
        pid = os.getpid()
        if _sink[0] != pid:  # first record, or first since a fork
            _sink[0] = pid
            _sink[1] = os.open(
                os.path.join(_out, "calls-%d.txt" % pid),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        line = "%s\t%d\n" % (
            path[len(_parent):].replace(os.sep, "/"),
            code.co_firstlineno,
        )
        os.write(_sink[1], line.encode())

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _note(code)

    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''


def roots(users: int, seconds: float) -> Dict[str, List[str]]:
    """The served roots, by name, as commands run from the repository root."""
    python = sys.executable
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    return {
        "e2e": [
            python, "benchmarks/e2e/run.py", "--workload", "all",
            "--users", str(users), "--seconds", str(seconds),
        ],
        "figures": pytest + sorted(
            str(path.relative_to(REPO))
            for path in (REPO / "benchmarks").glob("bench_figure*.py")
        ) + ["benchmarks/bench_worked_example.py"],
        "walkthrough": [python, "examples/paper_walkthrough.py"],
        "crash-matrix": pytest + ["tests/reliability/test_crash_matrix.py"],
        "perf10-filter": pytest + [
            "benchmarks/bench_planner_selection.py"
            "::test_auto_answers_like_bfs_and_the_filter_prunes_the_tail_denials"
        ],
    }


def defined_functions(package: Path = PACKAGE) -> Set[Function]:
    """Every named function defined under ``package``, from the source."""
    functions: Set[Function] = set()
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _collect(tree.body, "", relative, functions)
    return functions


def _collect(body: Iterable[ast.stmt], prefix: str, relative: str, out: Set[Function]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            accessor = next(
                (
                    d.attr for d in node.decorator_list
                    if isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
                ),
                None,
            )
            out.add((relative, qualname + "." + accessor if accessor else qualname, first))
            _collect(node.body, qualname + ".<locals>.", relative, out)
        elif isinstance(node, ast.ClassDef):
            _collect(node.body, prefix + node.name + ".", relative, out)
        else:
            # Definitions nested in if / try / with blocks keep their prefix.
            for field in ("body", "orelse", "finalbody", "handlers"):
                nested = getattr(node, field, None)
                if isinstance(nested, list):
                    _collect(nested, prefix, relative, out)


def run_roots(
    names: Iterable[str],
    commands: Dict[str, List[str]],
    defined: Set[Function],
) -> Tuple[Set[Function], Dict[str, float]]:
    """Run each named root under the hook; returns the called functions.

    The hook records ``(file, first line)``; ``defined`` names them.
    """
    by_line = {(relative, first): (relative, qualname, first) for relative, qualname, first in defined}
    called: Set[Function] = set()
    seconds: Dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-census-") as scratch:
        hook_dir = Path(scratch) / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_HOOK, encoding="utf-8")
        for name in names:
            out = Path(scratch) / name
            out.mkdir()
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(hook_dir), str(SRC)]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            env["REPRO_CENSUS_PACKAGE"] = str(PACKAGE)
            env["REPRO_CENSUS_DIR"] = str(out)
            started = time.perf_counter()
            done = subprocess.run(
                commands[name], cwd=REPO, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            seconds[name] = time.perf_counter() - started
            if done.returncode != 0:
                raise SystemExit(
                    f"census root {name!r} failed ({done.returncode}):\n{done.stderr[-2000:]}"
                )
            for record in out.glob("calls-*.txt"):
                for line in record.read_text(encoding="utf-8").splitlines():
                    relative, first = line.split("\t")
                    function = by_line.get((relative, int(first)))
                    if function is not None:
                        called.add(function)
    return called, seconds


def render(
    defined: Set[Function],
    called: Set[Function],
    commands: Dict[str, List[str]],
    names: List[str],
) -> str:
    """The Markdown report of the defined functions no root called."""
    uncalled = sorted(defined - called)
    by_module: Dict[str, List[Function]] = defaultdict(list)
    for function in uncalled:
        by_module[function[0]].append(function)
    totals: Dict[str, int] = defaultdict(int)
    for function in defined:
        totals[function[0]] += 1
    lines = [
        "# Function census of `src/repro`",
        "",
        "Generated by `python tools/census.py`; the named functions (`def`s)",
        "of `src/repro` that none of the roots below called.  It is a snapshot",
        "of the tree it was generated from: re-run it after a change and commit",
        "the new report (`tests/test_census.py` fails while it names a function",
        "that no longer exists).",
        "",
        "## Roots",
        "",
    ]
    for name in names:
        command = " ".join(
            "python" if part == sys.executable else part for part in commands[name]
        )
        lines.append(f"- `{name}`: `{command}`")
    lines += [
        "",
        "## Summary",
        "",
        f"- defined: {len(defined)}",
        f"- called by some root: {len(defined & called)}",
        f"- called by no root: {len(uncalled)}",
        "",
        "## Called by no root",
    ]
    for module in sorted(by_module):
        functions = by_module[module]
        note = next(
            (f" — {why}" for prefix, why in KEPT.items() if module.startswith(prefix + "/")),
            "",
        )
        lines += ["", f"### `{module}` ({len(functions)} of {totals[module]}){note}", ""]
        lines += [f"- `{qualname}`" for _module, qualname, _first in functions]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--users", type=int, default=2000, help="e2e graph size")
    parser.add_argument("--seconds", type=float, default=8.0, help="e2e seconds per workload")
    parser.add_argument("--roots", nargs="+", metavar="ROOT", help="a subset of the roots")
    parser.add_argument("--output", metavar="FILE", help="write the report here")
    args = parser.parse_args(argv)
    commands = roots(args.users, args.seconds)
    names = args.roots or list(commands)
    unknown = [name for name in names if name not in commands]
    if unknown:
        parser.error(f"unknown roots {unknown}; choose from {list(commands)}")
    defined = defined_functions()
    called, seconds = run_roots(names, commands, defined)
    for name in names:
        print(f"census: {name} took {seconds[name]:.1f} s", file=sys.stderr)
    report = render(defined, called, commands, names)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
