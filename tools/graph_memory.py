#!/usr/bin/env python3
"""Build memory of the graph of record and of its compiled snapshot.

Run from anywhere (CI's ``docs`` job runs it at 2,000 users):

    python tools/graph_memory.py --users 20000

It builds the end-to-end benchmark's graph (``build_inputs(users, 1)``
from ``benchmarks/e2e/inputs.py``) under :mod:`tracemalloc` and prints:

* the bytes ``SocialGraph`` owns — every live allocation made in
  ``repro/graph/social_graph.py``, node attribute dicts included — in
  total and per edge;
* the bytes ``CompiledGraph`` keeps after one compile of that graph, and
  the compile's transient (its traced peak above what it keeps);
* the transient of ``SnapshotStore.save`` of that compiled snapshot (its
  traced peak above what was live before it) and the file's size.  The
  file goes to a temporary directory that is removed afterwards.

These are the figures docs/architecture.md's bytes-per-edge table cites.
Nothing is timed and nothing is asserted: the numbers depend on the
interpreter (CPython 3.9 objects are larger than 3.11's), so the script
reports them and leaves bounds to the tests.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

from inputs import build_inputs  # noqa: E402  (path bootstrap above)
from repro.graph.compiled import CompiledGraph  # noqa: E402
from repro.graph.snapshot import SnapshotStore  # noqa: E402

MIB = 2 ** 20


def measure(users: int) -> dict:
    """Trace one build, one compile and one save; return the byte counts."""
    tracemalloc.start()
    try:
        graph = build_inputs(users, 1).graph
        owned = sum(
            stat.size
            for stat in tracemalloc.take_snapshot()
            .filter_traces([tracemalloc.Filter(True, "*/repro/graph/social_graph.py")])
            .statistics("filename")
        )
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        compiled = CompiledGraph(graph)
        after, peak = tracemalloc.get_traced_memory()
        with tempfile.TemporaryDirectory() as directory:
            tracemalloc.reset_peak()
            saved_from = tracemalloc.get_traced_memory()[0]
            file_bytes = SnapshotStore(Path(directory) / "graph.snap").save(compiled)
            save_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del compiled
    return {
        "users": graph.number_of_users(),
        "edges": graph.number_of_relationships(),
        "graph_bytes": owned,
        "compiled_bytes": after - before,
        "transient_bytes": peak - after,
        "save_transient_bytes": save_peak - saved_from,
        "file_bytes": file_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--users", type=int, default=20000, help="graph size (default 20000)")
    args = parser.parse_args(argv)
    m = measure(args.users)
    edges = m["edges"]
    print(
        f"CPython {sys.version.split()[0]}: {m['users']:,} users, {edges:,} edges\n"
        f"SocialGraph        {m['graph_bytes'] / MIB:6.2f} MiB "
        f"({m['graph_bytes'] / edges:.0f} B/edge)\n"
        f"CompiledGraph kept {m['compiled_bytes'] / MIB:6.2f} MiB "
        f"({m['compiled_bytes'] / edges:.0f} B/edge)\n"
        f"compile transient  {m['transient_bytes'] / MIB:+6.2f} MiB\n"
        f"save transient     {m['save_transient_bytes'] / MIB:+6.2f} MiB "
        f"(a {m['file_bytes'] / MIB:.2f} MiB snapshot file)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
