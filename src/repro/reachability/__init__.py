"""Ordered label-constraint reachability query evaluation (Section 3).

The package provides the online baselines (BFS / DFS, one walk), the
transitive-closure baseline, and the paper's index pipeline (line graph →
SCC condensation → interval labeling → 2-hop cover → base tables / W-table /
cluster join index → post-processing), all behind the common
:class:`~repro.reachability.engine.ReachabilityEngine` facade.
"""

from repro.reachability.automaton import AutomatonState, StepAutomaton
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.compiled_search import (
    AudienceSweep,
    AutomatonCache,
    CompiledAutomaton,
    SweepPlan,
    audience_sweep,
)
from repro.reachability.dfs import OnlineDFSEvaluator
from repro.reachability.engine import (
    BACKENDS,
    ReachabilityEngine,
    available_backends,
    create_evaluator,
)
from repro.reachability.interned import InternedLineIndex, interned_line_index
from repro.reachability.interval import IntervalLabeling, ReachabilityTable, topological_order
from repro.reachability.join_index import ClusterEntry, JoinIndex
from repro.reachability.linegraph import LineGraph, LineVertex
from repro.reachability.query import (
    LineHop,
    LineQuery,
    ReachabilityQuery,
    expand_line_queries,
)
from repro.reachability.result import EvaluationResult
from repro.reachability.scc import Condensation, condense, strongly_connected_components
from repro.reachability.transitive_closure import (
    TransitiveClosureEvaluator,
    TransitiveClosureIndex,
)
from repro.reachability.twohop import TwoHopCover, TwoHopIndex, TwoHopLabeling

__all__ = [
    "AutomatonState",
    "StepAutomaton",
    "AutomatonCache",
    "CompiledAutomaton",
    "SweepPlan",
    "AudienceSweep",
    "audience_sweep",
    "InternedLineIndex",
    "interned_line_index",
    "OnlineBFSEvaluator",
    "OnlineDFSEvaluator",
    "TransitiveClosureIndex",
    "TransitiveClosureEvaluator",
    "ClusterIndexEvaluator",
    "ReachabilityEngine",
    "BACKENDS",
    "available_backends",
    "create_evaluator",
    "IntervalLabeling",
    "ReachabilityTable",
    "topological_order",
    "JoinIndex",
    "ClusterEntry",
    "LineGraph",
    "LineVertex",
    "LineHop",
    "LineQuery",
    "ReachabilityQuery",
    "expand_line_queries",
    "EvaluationResult",
    "Condensation",
    "condense",
    "strongly_connected_components",
    "TwoHopCover",
    "TwoHopIndex",
    "TwoHopLabeling",
]
