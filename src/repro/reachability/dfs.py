"""Online constrained depth-first search.

The depth-first twin of :class:`~repro.reachability.bfs.OnlineBFSEvaluator`
(the paper mentions both as the straightforward baselines).  Semantics are
identical — the two must agree on every query — but the exploration order
differs: DFS dives along one branch first, which tends to find *a* witness
faster on graphs with long chains, at the cost of not returning shortest
witnesses.  The frontier is an explicit stack, so deep graphs do not hit
Python's recursion limit.

Everything but the pop order is shared with the BFS evaluator through
:class:`~repro.reachability.compiled_search.CompiledSearchMixin`.
"""

from __future__ import annotations

from repro.reachability.compiled_search import CompiledSearchMixin

__all__ = ["OnlineDFSEvaluator"]


class OnlineDFSEvaluator(CompiledSearchMixin):
    """Evaluate ordered label-constraint reachability queries by constrained DFS."""

    name = "dfs"
    _depth_first = True
