"""Evaluation results returned by reachability backends.

Every backend returns an :class:`EvaluationResult`, which carries the boolean
answer ("is the requester reachable from the owner under the constraints?"),
an optional concrete witness :class:`~repro.graph.paths.Path`, and a bag of
counters describing the work done (states expanded, join tuples examined,
line queries evaluated...).  The counters feed the benchmark harness and the
ablation experiments without requiring backend-specific plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.graph.paths import Path

__all__ = ["EvaluationResult"]


@dataclass
class EvaluationResult:
    """The outcome of evaluating one ordered label-constraint reachability query."""

    reachable: bool
    witness: Optional[Path] = None
    backend: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.reachable

    def count(self, name: str, amount: int = 1) -> None:
        """Increment a named work counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def describe(self) -> str:
        """Return a one-line human-readable summary."""
        verdict = "reachable" if self.reachable else "not reachable"
        parts = [verdict]
        if self.backend:
            parts.append(f"backend={self.backend}")
        if self.witness is not None:
            parts.append("via " + " -> ".join(str(node) for node in self.witness.nodes()))
        if self.counters:
            counters = ", ".join(f"{name}={value}" for name, value in sorted(self.counters.items()))
            parts.append(f"[{counters}]")
        return "; ".join(parts)

    def __str__(self) -> str:
        return self.describe()
