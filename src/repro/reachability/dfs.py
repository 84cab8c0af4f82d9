"""The ``dfs`` backend name: the same constrained walk as ``bfs``.

The paper names depth-first and breadth-first search as the two
straightforward baselines (Section 1).  Both names select
:class:`~repro.reachability.compiled_search.CompiledSearchMixin`, whose one
traversal loop is the FIFO :class:`~repro.reachability.compiled_search.
MaskSweep`, so ``dfs`` answers every query exactly as ``bfs`` does and its
witnesses are shortest ones too.  The name stays because callers pin it.
"""

from __future__ import annotations

from repro.reachability.compiled_search import CompiledSearchMixin

__all__ = ["OnlineDFSEvaluator"]


class OnlineDFSEvaluator(CompiledSearchMixin):
    """Evaluate ordered label-constraint reachability queries under the ``dfs`` name."""

    name = "dfs"
