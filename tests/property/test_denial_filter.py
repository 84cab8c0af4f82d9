"""The denial filter: exact on forward reachability, sound, and built once.

:class:`~repro.reachability.compiled_search.DenialFilter` condenses a
snapshot's all-label forward adjacency into its strongly connected
components and labels each component with the components it reaches.  On
hypothesis graphs under churn — edge adds and removes, ``remove_user`` with
slot reuse, attribute writes, and snapshots read both through their row
overlays and after every overlay is folded:

* for every live pair its verdict equals
  :meth:`~repro.reachability.transitive_closure.TransitiveClosureIndex.
  reachable`, the closure ``TransitiveClosureEvaluator._prune`` probes;
* every query it prunes is denied by :mod:`repro.testing.oracle`, and the
  walk answers every other query like the oracle;
* a structural patch drops the filter and the denial work with it, and an
  attribute-only patch keeps both;
* nothing is built while the denial work is below what the build reads,
  and the filter is built exactly once when it reaches it.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import compiled
from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.policy.steps import Direction
from repro.reachability import compiled_search
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.compiled_search import DenialFilter
from repro.reachability.transitive_closure import TransitiveClosureIndex
from repro.service import GraphService
from repro.testing.oracle import reference_reachable
from tests.property.test_overlay_equivalence import BURSTS, apply_op
from tests.property.test_property_backends import SETTINGS, expressions, social_graphs

FILTER, WORK = "denial-filter", "denial-work"


def forward_only(expression: PathExpression) -> PathExpression:
    """``expression`` with every step turned to walk edges forward."""
    return PathExpression.of(
        *(replace(step, direction=Direction.OUTGOING) for step in expression)
    )


def build_reads(snapshot) -> int:
    """What a build reads: one offset per slot plus every forward entry."""
    return snapshot.number_of_nodes() + sum(
        snapshot.number_of_edges(label_id)
        for label_id in range(snapshot.number_of_labels())
    )


def assert_exact_and_sound(graph, expression) -> None:
    """Build a filter on the live snapshot, then check every live pair."""
    snapshot = compile_graph(graph)
    denial_filter = snapshot.derived[FILTER] = DenialFilter(snapshot)
    closure = TransitiveClosureIndex(graph).build()  # folds every overlay
    evaluator = OnlineBFSEvaluator(graph)
    users = sorted(graph.users())
    for source in users:
        for target in users:
            verdict = denial_filter.reaches(
                snapshot.index_of(source), snapshot.index_of(target)
            )
            assert verdict == closure.reachable(source, target), (source, target)
            result = evaluator.evaluate(source, target, expression, collect_witness=False)
            expected = reference_reachable(graph, source, target, expression)
            assert result.reachable == expected, (source, target)
            assert ("filter_pruned" in result.counters) == (not verdict)
            if not verdict:
                assert not expected, (source, target)


@given(social_graphs(min_users=3), BURSTS, expressions(), st.booleans())
@settings(**SETTINGS)
def test_the_filter_equals_the_closure_and_prunes_only_denials(
    base, bursts, expression, fold
):
    expression = forward_only(expression)
    # Without threshold folds the row overlays carry every patch; with
    # ``fold`` each burst's overlays are folded before the filter reads them.
    with mock.patch.object(compiled, "_FOLD_SHARE", 0):
        graph = base
        assert_exact_and_sound(graph, expression)
        for burst in bursts:
            for op in burst:
                apply_op(graph, op)
            snapshot = compile_graph(graph)
            if fold:
                for label_id in range(snapshot.number_of_labels()):
                    snapshot.forward(label_id)
            assert_exact_and_sound(graph, expression)


@given(social_graphs(min_users=3), BURSTS, st.integers(10, 70))
@settings(**SETTINGS)
def test_structural_patches_drop_the_filter_and_attribute_patches_keep_it(
    base, bursts, age
):
    graph = base
    for burst in bursts:
        snapshot = compile_graph(graph)
        entries = snapshot.derived[FILTER], snapshot.derived[WORK] = (
            DenialFilter(snapshot), 1
        )
        graph.update_user(sorted(graph.users())[0], age=age)
        assert compile_graph(graph) is snapshot
        assert (snapshot.derived[FILTER], snapshot.derived[WORK]) == entries
        assert snapshot.derived[FILTER] is entries[0]

        for op in burst:
            apply_op(graph, op)
        deltas = graph.mutations_since(snapshot.epoch)
        refreshed = compile_graph(graph)
        if refreshed is not snapshot:  # a rebuild starts with nothing derived
            assert FILTER not in refreshed.derived and WORK not in refreshed.derived
        elif any(delta[0] != "update_user" for delta in deltas):
            assert FILTER not in snapshot.derived and WORK not in snapshot.derived
        else:
            assert snapshot.derived[FILTER] is entries[0]
            assert snapshot.derived[WORK] == entries[1]


class _CountedFilter(DenialFilter):
    builds = []

    def __init__(self, snapshot) -> None:
        _CountedFilter.builds.append(snapshot.epoch)
        super().__init__(snapshot)


@given(social_graphs(min_users=3), BURSTS, expressions())
@settings(**SETTINGS)
def test_the_filter_is_built_once_when_denial_work_reaches_the_build(
    base, bursts, expression
):
    expression = forward_only(expression)
    graph = base
    evaluator = OnlineBFSEvaluator(graph)
    _CountedFilter.builds = []
    with mock.patch.object(compiled_search, "DenialFilter", _CountedFilter):
        for burst in [()] + bursts:
            for op in burst:
                apply_op(graph, op)
            users = sorted(graph.users())
            builds_before = len(_CountedFilter.builds)
            kept = FILTER in compile_graph(graph).derived  # an attribute-only burst
            for _round in range(3):
                for source in users:
                    for target in users:
                        snapshot = compile_graph(graph)
                        work = snapshot.derived.get(WORK, 0)
                        built = FILTER in snapshot.derived
                        result = evaluator.evaluate(
                            source, target, expression, collect_witness=False
                        )
                        if built or result.reachable:
                            assert snapshot.derived.get(WORK, 0) == work
                            assert (FILTER in snapshot.derived) == built
                            continue
                        work += result.counters.get("edges_expanded", 0)
                        assert snapshot.derived[WORK] == work
                        assert (FILTER in snapshot.derived) == (work >= build_reads(snapshot))
            built = FILTER in compile_graph(graph).derived and not kept
            assert len(_CountedFilter.builds) - builds_before == int(built)


def test_a_pinned_closure_builds_no_filter_and_auto_still_does():
    """The closure prunes with its own build-time reachability and walks the
    rest plainly: under a pinned ``transitive-closure`` no walk pays denial
    work, so no filter is built, while auto builds one on the same stream."""
    expression = PathExpression.parse("friend+[1,3]")
    built = {}
    for pin in ("transitive-closure", None):
        graph = preferential_attachment_graph(300, edges_per_node=3, seed=9)
        users = sorted(graph.users())
        service = GraphService(graph, cache_size=0, default_backend=pin)
        _CountedFilter.builds = []
        pruned = 0
        with mock.patch.object(compiled_search, "DenialFilter", _CountedFilter):
            for index in range(3000):
                source = users[index % len(users)]
                target = users[(index * 7 + 3) % len(users)]
                result = service.reach(source, target, expression, collect_witness=False)
                pruned += "filter_pruned" in result.counters
        built[pin] = len(_CountedFilter.builds), pruned
    assert built["transitive-closure"] == (0, 0)
    assert built[None][0] == 1 and built[None][1] > 0
