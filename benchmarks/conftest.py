"""Shared fixtures and reporting helpers for the benchmark harness.

Every ``bench_*`` module regenerates one artifact of docs/benchmarks.md's experiment
index (a figure of the paper or one of the PERF-* studies).  Besides the
wall-clock numbers collected by ``pytest-benchmark``, each experiment prints
its result table and appends it to ``benchmarks/results/`` so that
docs/benchmarks.md can quote stable artifacts.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def record_table(name: str, text: str) -> None:
    """Print a result table and persist it under ``benchmarks/results/``."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def figure1():
    """The paper's Figure-1 graph."""
    from repro.datasets.paper_graph import paper_graph

    return paper_graph()


@pytest.fixture(scope="session")
def figure1_engines(figure1):
    """Every reachability backend built over the Figure-1 graph."""
    from repro.reachability import available_backends, create_evaluator

    return {name: create_evaluator(name, figure1) for name in available_backends()}


@pytest.fixture(scope="session")
def scaling_graphs():
    """Barabási–Albert graphs of increasing size (PERF-1 / PERF-2 sweeps)."""
    from repro.graph.generators import preferential_attachment_graph

    sizes = (50, 100, 200, 400, 800)
    return {n: preferential_attachment_graph(n, edges_per_node=3, seed=71) for n in sizes}


@pytest.fixture(scope="session")
def index_scale_graphs(scaling_graphs):
    """The subset of the scaling graphs small enough for full index construction."""
    return {n: graph for n, graph in scaling_graphs.items() if n <= 400}
