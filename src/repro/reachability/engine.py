"""The unified reachability engine: backend registry and facade.

Four interchangeable backends evaluate ordered label-constraint reachability
queries:

``bfs``
    Online constrained breadth-first search — no precomputation, the paper's
    straightforward baseline.
``dfs``
    A pin name for the same online walk as ``bfs`` (shortest witnesses too).
``transitive-closure``
    Full transitive-closure precomputation used to prune, plus constrained
    search for the survivors — the paper's second baseline.
``cluster-index``
    The paper's proposal: line graph + SCC condensation + interval labeling +
    2-hop cover + cluster-based join index + post-processing.

:func:`create_evaluator` builds any of them by name;
:class:`ReachabilityEngine` wraps one backend behind a stable facade used by
the access-control engine, the examples and the benchmark harness.

Cache-invalidation contract
---------------------------
The facade's memos are correct because every layer observes one rule: a
derived result is served only while ``graph.epoch`` — bumped by *every*
committed mutation, including writes through the live mapping returned by
``graph.attributes(u)`` — still equals the epoch the result was computed at.

* The **decision memo** (``(source, target, expression text, witness?)``)
  and the **target-set memo** (``(source, expression text)``) are cleared
  wholesale the first time a call observes a moved epoch; entries are LRU
  with capacity ``cache_size``.  ``cache_size=0`` disables both memos (no
  entries, no hit/miss accounting) — benchmarks use it to measure raw
  backend cost.  Expression text is coerced through the process-wide,
  bounded :func:`~repro.policy.path_expression.as_path_expression` memo,
  which is pure and never invalidated.
* Under the facade, ``compile_graph`` keeps the CSR snapshot fresh the same
  way — since the delta-maintenance layer (see :mod:`repro.graph.compiled`)
  it absorbs journal-covered mutation bursts in O(|delta|) instead of
  rebuilding, without changing anything observable here.
* :meth:`ReachabilityEngine.sweep_targets_many` serves warm owners from
  the target-set memo and sweeps only the misses; the executed
  :class:`~repro.reachability.compiled_search.SweepPlan` is **returned
  with the audiences** (``None`` when nothing was swept).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.exceptions import UnknownBackendError
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression, as_path_expression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.compiled_search import SweepPlan
from repro.reachability.dfs import OnlineDFSEvaluator
from repro.reachability.result import EvaluationResult
from repro.reachability.transitive_closure import TransitiveClosureEvaluator
from repro.reliability.guard import active_guard

__all__ = [
    "BACKENDS",
    "available_backends",
    "create_evaluator",
    "ReachabilityEngine",
]

EvaluatorFactory = Callable[..., object]

BACKENDS: Dict[str, EvaluatorFactory] = {
    "bfs": OnlineBFSEvaluator,
    "dfs": OnlineDFSEvaluator,
    "transitive-closure": TransitiveClosureEvaluator,
    "cluster-index": ClusterIndexEvaluator,
}


def available_backends() -> List[str]:
    """Return the registered backend names, sorted."""
    return sorted(BACKENDS)


def create_evaluator(backend: str, graph: SocialGraph, *, build: bool = True, **options):
    """Instantiate (and by default build) the named backend over ``graph``.

    ``options`` are forwarded to the backend constructor (e.g.
    ``include_reverse=False`` for the cluster index).
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise UnknownBackendError(backend, available_backends()) from None
    evaluator = factory(graph, **options)
    if build:
        evaluator.build()
    return evaluator


class ReachabilityEngine:
    """Facade over one evaluation backend, with convenience query forms.

    Besides dispatching to the backend, the facade memoizes at two levels:

    * expression text goes through the shared **parse memo**
      (:func:`~repro.policy.path_expression.as_path_expression` — the policy
      engine re-submits the same textual conditions for every access
      request);
    * an **LRU decision memo** keyed by ``(source, target, expression,
      collect_witness)`` and stamped with the graph's mutation epoch — any
      committed graph mutation invalidates the whole memo, so cached
      decisions are never stale.  :meth:`~repro.policy.engine.
      AccessControlEngine.check_access` rides on this cache directly; set
      ``cache_size=0`` to disable it (e.g. for benchmarking raw backends).
    """

    def __init__(
        self,
        graph: SocialGraph,
        backend: Union[str, object] = "bfs",
        *,
        build: bool = True,
        cache_size: int = 4096,
        **options,
    ) -> None:
        self.graph = graph
        if isinstance(backend, str):
            self._evaluator = create_evaluator(backend, graph, build=build, **options)
        else:
            self._evaluator = backend
        self.backend_name = getattr(self._evaluator, "name", type(self._evaluator).__name__)
        self._cache_size = max(0, cache_size)
        self._caching = self._cache_size > 0
        self._cache_epoch: Optional[int] = None
        self._decision_cache: "OrderedDict[Tuple, EvaluationResult]" = OrderedDict()
        self._targets_cache: "OrderedDict[Tuple, FrozenSet[Hashable]]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def evaluator(self):
        """The underlying backend instance."""
        return self._evaluator

    # -------------------------------------------------------------- caching

    def _cache_ready(self) -> bool:
        """Roll the memo forward to the current graph epoch; False disables it."""
        if not self._caching:
            return False
        epoch = self.graph.epoch
        if epoch != self._cache_epoch:
            self._decision_cache.clear()
            self._targets_cache.clear()
            self._cache_epoch = epoch
        return True

    def _cache_put(self, cache: OrderedDict, key: Tuple, value) -> None:
        # A query that blew its guard budget produced an under-approximated
        # answer — correct to degrade with, poison if memoized: the memo
        # outlives the guard scope and would serve the truncated result to
        # later unguarded queries at the same epoch.
        guard = active_guard()
        if guard is not None and guard.tripped:
            return
        cache[key] = value
        if len(cache) > self._cache_size:
            cache.popitem(last=False)

    def cache_info(self) -> Dict[str, int]:
        """Return decision-memo occupancy and hit/miss counts."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "decisions": len(self._decision_cache),
            "target_sets": len(self._targets_cache),
            "max_size": self._cache_size,
        }

    # ------------------------------------------------------------------ api

    def evaluate(
        self,
        source: Hashable,
        target: Hashable,
        expression: Union[str, PathExpression],
        *,
        collect_witness: bool = True,
    ) -> EvaluationResult:
        """Evaluate one query; ``expression`` may be a string or a parsed expression."""
        expression = as_path_expression(expression)
        if not self._cache_ready():
            return self._evaluator.evaluate(
                source, target, expression, collect_witness=collect_witness
            )
        key = (source, target, expression.to_text(), collect_witness)
        cached = self._decision_cache.get(key)
        if cached is not None:
            self._decision_cache.move_to_end(key)
            self.cache_hits += 1
            # Hand out a copy so callers mutating counters cannot poison the memo.
            return dataclasses.replace(cached, counters=dict(cached.counters))
        self.cache_misses += 1
        result = self._evaluator.evaluate(
            source, target, expression, collect_witness=collect_witness
        )
        self._cache_put(self._decision_cache, key,
                        dataclasses.replace(result, counters=dict(result.counters)))
        return result

    def is_reachable(
        self,
        source: Hashable,
        target: Hashable,
        expression: Union[str, PathExpression],
    ) -> bool:
        """Boolean-only form of :meth:`evaluate`."""
        return self.evaluate(source, target, expression, collect_witness=False).reachable

    def find_targets(
        self,
        source: Hashable,
        expression: Union[str, PathExpression],
    ) -> Set[Hashable]:
        """Return every user reachable from ``source`` under ``expression``."""
        expression = as_path_expression(expression)
        if not self._cache_ready():
            return self._evaluator.find_targets(source, expression)
        key = (source, expression.to_text())
        cached = self._targets_cache.get(key)
        if cached is not None:
            self._targets_cache.move_to_end(key)
            self.cache_hits += 1
            return set(cached)
        self.cache_misses += 1
        targets = self._evaluator.find_targets(source, expression)
        self._cache_put(self._targets_cache, key, frozenset(targets))
        return targets

    def sweep_targets_many(
        self,
        sources: Iterable[Hashable],
        expression: Union[str, PathExpression],
    ) -> Tuple[Dict[Hashable, Set[Hashable]], Optional[SweepPlan]]:
        """Materialize audiences for many owners at once, with the plan run.

        The batched form of :meth:`find_targets`: the backend compiles its
        per-expression machinery once and runs a single multi-source
        owner-bitset sweep shared by all owners.  The epoch-stamped
        target-set memo is consulted per owner first, so a warm cache serves
        the cached owners from the memo and sweeps only the misses — as one
        mask.

        Returns ``(audiences, plan)``.  The executed
        :class:`~repro.reachability.compiled_search.SweepPlan` belongs to
        *this* call — ``None`` when nothing was swept (every owner came from
        the memo).
        """
        expression = as_path_expression(expression)
        sources = list(dict.fromkeys(sources))
        if not self._cache_ready():
            return self._evaluator.sweep_targets_many(sources, expression)
        text = expression.to_text()
        audiences: Dict[Hashable, Set[Hashable]] = {}
        missing: List[Hashable] = []
        for source in sources:
            cached = self._targets_cache.get((source, text))
            if cached is not None:
                self._targets_cache.move_to_end((source, text))
                self.cache_hits += 1
                audiences[source] = set(cached)
            else:
                missing.append(source)
        plan: Optional[SweepPlan] = None
        if missing:
            self.cache_misses += len(missing)
            computed, plan = self._evaluator.sweep_targets_many(missing, expression)
            for source, targets in computed.items():
                self._cache_put(self._targets_cache, (source, text), frozenset(targets))
                audiences[source] = targets
        return audiences, plan

    def find_targets_many(
        self,
        sources: Iterable[Hashable],
        expression: Union[str, PathExpression],
    ) -> Dict[Hashable, Set[Hashable]]:
        """Audiences-only form of :meth:`sweep_targets_many`."""
        return self.sweep_targets_many(sources, expression)[0]

    def statistics(self) -> Dict[str, float]:
        """Return the backend's index statistics (size, build time...)."""
        stats = dict(self._evaluator.statistics())
        stats["decision_cache_hits"] = float(self.cache_hits)
        stats["decision_cache_misses"] = float(self.cache_misses)
        return stats

    def __repr__(self) -> str:
        return f"<ReachabilityEngine backend={self.backend_name!r} over {self.graph!r}>"
