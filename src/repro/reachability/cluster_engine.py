"""The cluster-index evaluator: the full Section-3 pipeline.

Evaluating an ordered label-constraint reachability query through the index
proceeds exactly as the paper describes:

1. **Line-query expansion** (Section 3.1 / Figure 4): the query is expanded
   into one line query per authorized depth combination.
2. **Pattern matching over the join index** (Section 3.3): each consecutive
   pair of hops of a line query is a reachability condition
   ``label_i ⤳ label_{i+1}``; the W-table names the relevant centers and
   their clusters provide the candidate line-vertex pairs.
3. **Post-processing** (Section 3.4): candidate tuples are kept only when
   (a) consecutive line vertices are *adjacent* — the tuple describes a
   single path, not a set of disjoint paths; (b) the owner is the start of
   the first vertex and the requester the end of the last one; (c) the users
   reached at step boundaries satisfy the step's attribute conditions.
   Distance constraints are already enforced by the expansion (each hop is
   one edge).

Two deviations from a literal reading of the paper, made for tractability
and recorded in docs/architecture.md:

* tuples are assembled left-to-right with the adjacency check applied
  *while* chaining join pairs instead of only after full tuples are
  materialized — materializing the full cartesian pattern-match first can be
  exponentially larger, and filtering early yields exactly the same final
  tuple set (adjacency is a per-consecutive-pair predicate);
* the assembly additionally deduplicates chains by their tail vertex at
  every position: whether a partial tuple can be extended depends only on
  its last line vertex, so one representative chain (with parent links for
  witness decoding) stands for all chains sharing a tail — the frontier is
  bounded by the number of line vertices instead of growing with the number
  of distinct paths.

The matching runs on the snapshot's
:class:`~repro.reachability.interned.InternedLineIndex` — line vertices are
dense ints, the frontier is deduplicated through ``bytearray`` seen-sets and
string ids are decoded only for witness paths.  The string-facing
:class:`LineGraph` / :class:`JoinIndex` structures (the paper's Figure 3/5/6/7
artefacts) are decoded lazily, for :meth:`ClusterIndexEvaluator.statistics`
and inspection only.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.exceptions import IndexNotBuiltError, NodeNotFoundError
from repro.graph.paths import Path
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression
from repro.policy.steps import Direction
from repro.reachability.compiled_search import AutomatonCache, audience_sweep
from repro.reachability.interned import FORWARD_BYTE, InternedLineIndex, interned_line_index
from repro.reachability.join_index import JoinIndex
from repro.reachability.linegraph import LineGraph
from repro.reachability.query import (
    LineQuery,
    check_expansion_limit,
    expand_line_queries,
)
from repro.reachability.result import EvaluationResult
from repro.reliability.guard import active_guard

__all__ = ["ClusterIndexEvaluator"]

#: Per-hop matching spec:
#: (label id, allows forward, allows backward, condition step index or -1).
_HopSpec = Tuple[int, bool, bool, int]


class ClusterIndexEvaluator:
    """Index-backed evaluator (line graph + 2-hop cover + cluster join index)."""

    name = "cluster-index"

    def __init__(
        self,
        graph: SocialGraph,
        *,
        include_reverse: bool = True,
        expansion_limit: Optional[int] = 4096,
    ) -> None:
        self.graph = graph
        self.include_reverse = include_reverse
        self.expansion_limit = expansion_limit
        self._line_graph: Optional[LineGraph] = None
        self._join_index: Optional[JoinIndex] = None
        self._index: Optional[InternedLineIndex] = None
        # Compiled automata for the batched audience sweep.  The build-time
        # snapshot's structure is frozen, but its attribute dicts are live
        # (shared with the graph), so the cache — whose automata memoize
        # per-(step, node) condition outcomes — must be invalidated on the
        # *live* graph epoch, not the snapshot's frozen one; that keeps
        # sweep_targets_many's condition reads exactly as fresh as the
        # per-owner matcher's (which builds a new memo every call).
        self._audience_automata = AutomatonCache()
        self._audience_epoch: Optional[int] = None
        self.build_seconds = 0.0
        self._built = False

    # ---------------------------------------------------------------- build

    def build(self) -> "ClusterIndexEvaluator":
        """Construct the index (the expensive, offline part).

        Only the dense :class:`InternedLineIndex` is built here; the
        string-facing :class:`LineGraph` / :class:`JoinIndex` views (base
        tables, clusters, W-table — the paper artifacts) decode from it
        lazily on first access, so evaluation never pays for them.
        The index is never maintained in place: after mutations, bringing it
        up to date is another ``build()`` over a fresh snapshot.
        """
        started = time.perf_counter()
        self._line_graph = None
        self._join_index = None
        # refresh=True: an explicit build() always pays (and re-seeds) the
        # construction, so build_seconds never times a cache hit.
        self._index = interned_line_index(
            self.graph, include_reverse=self.include_reverse, refresh=True
        )
        # This evaluator answers every query from the build-time snapshot
        # (stale-read semantics).  Pin it so delta maintenance for the
        # online backends never patches the structure this index's dense
        # arrays were derived from — after the next mutation,
        # compile_graph() hands everyone else a fresh object.
        self._index.snapshot.pin()
        self._built = True
        self.build_seconds = time.perf_counter() - started
        return self

    def _views(self) -> Tuple[LineGraph, JoinIndex]:
        """Materialize (or return) the string-facing line graph + join index."""
        if self._join_index is None or self._line_graph is None:
            self._line_graph = LineGraph(self.graph, include_reverse=self.include_reverse)
            self._join_index = JoinIndex(self._line_graph).build()
        return self._line_graph, self._join_index

    @property
    def line_graph(self) -> Optional[LineGraph]:
        """The decoded line graph (``None`` before :meth:`build`)."""
        if not self._built:
            return None
        return self._views()[0]

    @property
    def join_index(self) -> Optional[JoinIndex]:
        """The decoded join index (``None`` before :meth:`build`)."""
        if not self._built:
            return None
        return self._views()[1]

    def statistics(self) -> Dict[str, float]:
        """Return index construction / size metrics.

        Size metrics include the string-facing artifacts (base-table rows,
        W-table entries, centers), so this call materializes the lazy
        :class:`LineGraph` / :class:`JoinIndex` views.
        The views read the *live* graph: after post-build mutations they
        describe the current graph, while queries keep answering from the
        snapshot captured at :meth:`build` time.
        """
        if not self._built:
            return {"build_seconds": 0.0, "index_entries": 0.0}
        stats = dict(self._views()[1].statistics())
        stats["build_seconds"] = self.build_seconds
        return stats

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("call build() before evaluating queries")

    # ------------------------------------------------------------------ api

    def evaluate(
        self,
        source: Hashable,
        target: Hashable,
        expression: PathExpression,
        *,
        collect_witness: bool = True,
    ) -> EvaluationResult:
        """Return whether ``target`` is reachable from ``source`` under ``expression``."""
        self._require_built()
        if not self.graph.has_user(source):
            raise NodeNotFoundError(source)
        if not self.graph.has_user(target):
            raise NodeNotFoundError(target)
        self._check_directions(expression)
        started = time.perf_counter()
        result = EvaluationResult(reachable=False, backend=self.name)
        self._evaluate_interned(source, target, expression, result, collect_witness)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    def find_targets(self, source: Hashable, expression: PathExpression) -> Set[Hashable]:
        """Return every user reachable from ``source`` under ``expression``."""
        self._require_built()
        self._check_directions(expression)
        return self._find_targets_interned(source, expression, {})

    def sweep_targets_many(self, sources: Iterable[Hashable], expression: PathExpression):
        """Materialize audiences for many owners in one multi-source sweep.

        The sweep runs the shared owner-bitset product walk
        (:func:`~repro.reachability.compiled_search.audience_sweep`) over
        the index's **build-time snapshot**, so the stale-read
        semantics match the per-owner :meth:`find_targets` exactly: owners
        added after :meth:`build` (absent from the snapshot) get an empty
        audience, an owner in neither the snapshot nor the live graph
        raises ``NodeNotFoundError``, and post-build mutations stay
        invisible.  The sweep itself needs no depth expansion, but the
        ``expansion_limit`` guard is still enforced so this method raises on
        exactly the expressions :meth:`find_targets` raises on (the engine
        memoizes both under the same key, so diverging here would make
        results call-order dependent).

        Returns ``({owner: audience}, executed SweepPlan)``.
        """
        self._require_built()
        self._check_directions(expression)
        check_expansion_limit(expression, self.expansion_limit)
        sources = list(sources)
        snapshot = self._index.snapshot
        live_epoch = self.graph.epoch
        if live_epoch != self._audience_epoch:
            # Attribute mutations are visible through the snapshot's live
            # attrs, so cached condition memos must not outlive the epoch.
            self._audience_automata = AutomatonCache()
            self._audience_epoch = live_epoch
        automaton = self._audience_automata.get(expression, snapshot)
        node_index = snapshot.node_index
        present = []
        for position, source in enumerate(sources):
            index = node_index.get(source)
            if index is not None:
                present.append((position, index))
            elif not self.graph.has_user(source):
                raise NodeNotFoundError(source)
        sweep = audience_sweep(
            snapshot, automaton, [index for _position, index in present]
        )
        user_of = snapshot.node_ids
        audiences: Dict[Hashable, Set[Hashable]] = {source: set() for source in sources}
        for (position, _index), accepted in zip(present, sweep.audiences):
            audiences[sources[position]] = {user_of[node] for node in accepted}
        return audiences, sweep.plan

    def _check_directions(self, expression: PathExpression) -> None:
        """A forward-only line graph cannot evaluate steps that traverse edges backwards."""
        if self.include_reverse:
            return
        if any(step.direction is not Direction.OUTGOING for step in expression):
            raise IndexNotBuiltError(
                "this index was built with include_reverse=False and only supports "
                "outgoing ('+') steps; rebuild with include_reverse=True for '-' or '*' steps"
            )

    # ------------------------------------------------- interned matching

    def _evaluate_interned(
        self,
        source: Hashable,
        target: Hashable,
        expression: PathExpression,
        result: EvaluationResult,
        collect_witness: bool,
    ) -> None:
        index = self._index
        assert index is not None
        # Users added after build() exist in the live graph but not in the
        # snapshot; the stale index answers "unreachable" rather than
        # raising.  -1 is a target sentinel no vertex endpoint matches.
        source_index = index.snapshot.node_index.get(source)
        target_index = index.snapshot.node_index.get(target, -1)
        if source_index is None:
            return
        condition_memo: Dict[int, bytearray] = {}
        for line_query in expand_line_queries(expression, limit=self.expansion_limit):
            result.count("line_queries")
            chain = self._match_interned(
                line_query, expression, source_index, target_index, result,
                condition_memo, witness=collect_witness,
            )
            if chain is not None:
                result.reachable = True
                if collect_witness:
                    result.witness = Path(
                        source, [index.traversal(vertex) for vertex in chain]
                    )
                break

    def _find_targets_interned(
        self,
        source: Hashable,
        expression: PathExpression,
        condition_memo: Dict[int, bytearray],
    ) -> Set[Hashable]:
        index = self._index
        assert index is not None
        # An owner added after build() gets an empty audience: no line
        # vertex starts there.  One the live graph lacks too is unknown.
        source_index = index.snapshot.node_index.get(source)
        if source_index is None:
            if not self.graph.has_user(source):
                raise NodeNotFoundError(source)
            return set()
        result = EvaluationResult(reachable=False, backend=self.name)
        user_of = index.snapshot.node_ids
        ends = index.ends
        targets: Set[Hashable] = set()
        for line_query in expand_line_queries(expression, limit=self.expansion_limit):
            finals = self._match_interned(
                line_query, expression, source_index, None, result,
                condition_memo, witness=False, first_only=False,
            )
            targets.update(user_of[ends[vertex]] for vertex in finals)
        return targets

    def _hop_specs(self, line_query: LineQuery, expression: PathExpression) -> List[_HopSpec]:
        index = self._index
        assert index is not None
        label_id_of = index.snapshot.label_id
        specs: List[_HopSpec] = []
        for hop in line_query.hops:
            step = expression[hop.step_index]
            condition_step = hop.step_index if (hop.closes_step and step.conditions) else -1
            specs.append(
                (
                    label_id_of(hop.label),
                    hop.direction.allows_forward(),
                    hop.direction.allows_backward(),
                    condition_step,
                )
            )
        return specs

    def _condition_holds(
        self,
        step_index: int,
        node: int,
        expression: PathExpression,
        memo: Dict[int, bytearray],
    ) -> bool:
        """Memoized per-(step, user) attribute-condition check (0/1/2 tri-state)."""
        index = self._index
        assert index is not None
        states = memo.get(step_index)
        if states is None:
            states = memo[step_index] = bytearray(index.snapshot.number_of_nodes())
        cached = states[node]
        if cached:
            return cached == 1
        holds = expression[step_index].satisfied_by(index.snapshot.attrs[node])
        states[node] = 1 if holds else 2
        return holds

    def _match_interned(
        self,
        line_query: LineQuery,
        expression: PathExpression,
        source: int,
        target: Optional[int],
        result: EvaluationResult,
        condition_memo: Dict[int, bytearray],
        *,
        witness: bool,
        first_only: bool = True,
    ):
        """Match one line query on the interned index.

        With ``first_only`` (the ``evaluate`` form) returns the first
        complete chain as a tuple of line-vertex ints (an empty tuple when
        ``witness`` is off — existence is all the caller needs), or ``None``
        when the line query has no answer.  Otherwise (the ``find_targets``
        form) returns the deduplicated list of final tail vertices.
        """
        index = self._index
        assert index is not None
        label_ids = index.label_ids
        dirs = index.dirs
        ends = index.ends
        start_offsets = index.start_offsets
        start_vertices = index.start_vertices
        reaches = index.reaches
        hops = self._hop_specs(line_query, expression)
        last = len(hops) - 1

        def acceptable(position: int, vertex: int) -> bool:
            label_id, allow_forward, allow_backward, condition_step = hops[position]
            if label_ids[vertex] != label_id:
                return False
            if dirs[vertex] == FORWARD_BYTE:
                if not allow_forward:
                    return False
            elif not allow_backward:
                return False
            if position == last and target is not None and ends[vertex] != target:
                return False
            if condition_step >= 0 and not self._condition_holds(
                condition_step, ends[vertex], expression, condition_memo
            ):
                return False
            return True

        # Seed: line vertices leaving the owner that match the first hop
        # (Section 3.4's "owner is the first node" endpoint check).
        frontier = [
            start_vertices[cursor]
            for cursor in range(start_offsets[source], start_offsets[source + 1])
            if acceptable(0, start_vertices[cursor])
        ]
        result.count("tuples_examined", len(frontier))
        if not frontier:
            return None if first_only else []
        parents: Optional[List[Dict[int, int]]] = None
        if first_only:
            if last == 0:
                return (frontier[0],) if witness else ()
            if witness:
                parents = [dict.fromkeys(frontier, -1)]
        elif last == 0:
            return frontier

        # Tuple assembly + post-processing.  Each consecutive hop pair is a
        # reachability condition ``label_i ⤳ label_{i+1}`` evaluated through
        # the per-component 2-hop labels (``Lout(x) ∩ Lin(y)``, Section 3.3);
        # the adjacency check of Section 3.4 (the tuple must describe one
        # path) is the frontier extension itself, and tails are deduplicated
        # per position with a byte seen-set.
        guard = active_guard()
        for position in range(1, last + 1):
            seen = bytearray(index.count)
            next_frontier: List[int] = []
            layer_parents: Optional[Dict[int, int]] = {} if parents is not None else None
            for tail in frontier:
                head = ends[tail]
                row_start = start_offsets[head]
                row_end = start_offsets[head + 1]
                if guard is not None and not guard.spend(1 + row_end - row_start):
                    # Partial mode: stop matching; an under-approximated
                    # answer (no chain / fewer tails) is the documented
                    # degraded result for guarded bulk shapes.
                    return None if first_only else []
                for cursor in range(row_start, row_end):
                    successor = start_vertices[cursor]
                    result.count("tuples_examined")
                    result.count("join_checks")
                    if not reaches(tail, successor):
                        continue
                    if seen[successor]:
                        continue
                    seen[successor] = 1
                    if not acceptable(position, successor):
                        continue
                    next_frontier.append(successor)
                    if layer_parents is not None:
                        layer_parents[successor] = tail
                    if first_only and position == last:
                        if not witness:
                            return ()
                        assert parents is not None and layer_parents is not None
                        parents.append(layer_parents)
                        return self._decode_chain(successor, parents)
            frontier = next_frontier
            if not frontier:
                return None if first_only else []
            if parents is not None and layer_parents is not None:
                parents.append(layer_parents)
        return None if first_only else frontier

    @staticmethod
    def _decode_chain(tail: int, parents: List[Dict[int, int]]) -> Tuple[int, ...]:
        """Walk the per-position parent links back into a full vertex chain."""
        chain = [tail]
        current = tail
        for layer in range(len(parents) - 1, 0, -1):
            current = parents[layer][current]
            chain.append(current)
        chain.reverse()
        return tuple(chain)
