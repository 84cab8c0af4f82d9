"""Online constrained breadth-first search — the paper's first baseline.

"A straight-forward method for answering constraint-labeled reachability
queries is to apply a Depth-First Search algorithm (respectively,
Breadth-First Search algorithm) together with the constraints to reduce the
search space" (Section 1).  This evaluator does exactly that: a BFS over the
product of the social graph and the path expression's step automaton,
visiting each ``(user, automaton state)`` pair at most once.  It needs no
precomputation and returns shortest witnesses; its per-query cost grows with
the size of the explored neighbourhood — the ``O(|V| + |E|)`` behaviour the
paper wants to avoid on large graphs.

The search runs on the graph's compiled CSR snapshot
(:mod:`repro.graph.compiled`): user ids and labels are interned to dense
integers, the product walk is a one-bit
:class:`~repro.reachability.compiled_search.MaskSweep` over ``array('l')``
adjacency, and witness paths are decoded from its parent links into
:class:`Relationship` objects on demand.  All of it lives on
:class:`~repro.reachability.compiled_search.CompiledSearchMixin`; the
cache-free walk the test suite compares it against is
:mod:`repro.testing.oracle`.
"""

from __future__ import annotations

from repro.reachability.compiled_search import CompiledSearchMixin

__all__ = ["OnlineBFSEvaluator"]


class OnlineBFSEvaluator(CompiledSearchMixin):
    """Evaluate ordered label-constraint reachability queries by constrained BFS."""

    name = "bfs"
