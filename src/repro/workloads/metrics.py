"""Measurement helpers shared by the benchmark harness.

``pytest-benchmark`` measures wall-clock time per call; the experiments in
docs/benchmarks.md additionally need derived metrics (index sizes, throughput,
crossover points) and a uniform way to print comparison tables.
This module centralizes those: a :class:`Timer`, a :class:`MetricSeries` for
parameter sweeps, and table formatting used by every ``bench_*`` module so
that the printed output of the harness reads like the paper's evaluation
section would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["Timer", "MetricSeries", "format_table"]


class Timer:
    """A context manager measuring elapsed wall-clock seconds."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.elapsed = time.perf_counter() - self._started


@dataclass
class MetricSeries:
    """Rows of measurements produced by one parameter sweep."""

    name: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, **values: object) -> None:
        """Append one row (values keyed by column name)."""
        self.rows.append(dict(values))

    def column(self, name: str) -> List[object]:
        """Return one column as a list (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def to_table(self) -> str:
        """Render the series as an aligned text table."""
        return format_table(self.columns, self.rows, title=self.name)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    columns: Sequence[str],
    rows: Iterable[Mapping[str, object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rendered_rows = [[_format_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [len(column) for column in columns]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)
