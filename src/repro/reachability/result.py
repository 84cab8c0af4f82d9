"""Evaluation results returned by reachability backends.

Every backend returns an :class:`EvaluationResult`, which carries the boolean
answer ("is the requester reachable from the owner under the constraints?"),
an optional concrete witness :class:`~repro.graph.paths.Path`, and the
counters describing the work done (states expanded, join tuples examined,
line queries evaluated...).  The counters feed the benchmark harness and the
ablation experiments without requiring backend-specific plumbing.

A result is an immutable value: the backend that decides the answer counts
its work in a local dict and builds the result once, with the counters
behind a read-only :class:`~types.MappingProxyType`.  The engine's decision
memo stores and hands out that same object, so no caller can change what
a later hit returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from repro.graph.paths import Path

__all__ = ["EvaluationResult", "NO_COUNTERS"]

#: The counters of a result that counted nothing; one read-only mapping
#: serves every such result.
NO_COUNTERS: Mapping[str, int] = MappingProxyType({})


@dataclass(frozen=True)
class EvaluationResult:
    """The outcome of evaluating one ordered label-constraint reachability query."""

    reachable: bool
    witness: Optional[Path] = None
    backend: str = ""
    counters: Mapping[str, int] = field(default_factory=lambda: NO_COUNTERS)
    elapsed_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.reachable
