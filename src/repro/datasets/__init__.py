"""Bundled datasets: the Figure-1 example graph."""

from repro.datasets.paper_graph import (
    EDGES,
    LABELS,
    Q1_EXPECTED_AUDIENCE,
    Q1_EXPRESSION,
    USERS,
    WORKED_EXAMPLE_EXPECTED_AUDIENCE,
    WORKED_EXAMPLE_EXPRESSION,
    WORKED_EXAMPLE_WITNESS_NODES,
    paper_graph,
)

__all__ = [
    "paper_graph",
    "USERS",
    "EDGES",
    "LABELS",
    "Q1_EXPRESSION",
    "Q1_EXPECTED_AUDIENCE",
    "WORKED_EXAMPLE_EXPRESSION",
    "WORKED_EXAMPLE_EXPECTED_AUDIENCE",
    "WORKED_EXAMPLE_WITNESS_NODES",
]
