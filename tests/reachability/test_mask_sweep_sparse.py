"""A mask sweep's work does not grow with ``|V|``.

:class:`~repro.reachability.compiled_search.MaskSweep` keeps sparse tables:
only the slots a sweep touches ever hold an entry, and the accept slots are
decoded from those entries.  Padding the paper graph with thousands of
isolated users — added *after* it, so the component's node indices do not
move — must therefore leave every sweep of the walkthrough's rules with the
same tables, the same scan count and the same accepted nodes.
"""

from __future__ import annotations

import pytest

from repro.datasets.paper_graph import (
    ALICE,
    DAVID,
    DAVID_EXTENDED_AUDIENCE_EXPRESSION,
    DAVID_INCOMING_FRIENDS_EXPRESSION,
    FRIEND_PATH_EXPRESSION,
    Q1_EXPRESSION,
    WORKED_EXAMPLE_EXPRESSION,
    paper_graph,
)
from repro.graph.compiled import compile_graph
from repro.policy.path_expression import PathExpression
from repro.reachability.compiled_search import CompiledAutomaton, MaskSweep
from repro.service.facade import GraphService
from repro.testing.oracle import reference_targets

#: ``(owner, rule expression)`` of every audience the walkthrough materializes.
WALKTHROUGH_RULES = (
    (ALICE, Q1_EXPRESSION),
    (ALICE, WORKED_EXAMPLE_EXPRESSION),
    (ALICE, FRIEND_PATH_EXPRESSION),
    (DAVID, DAVID_INCOMING_FRIENDS_EXPRESSION),
    (DAVID, DAVID_EXTENDED_AUDIENCE_EXPRESSION),
)

PADDING = (0, 5_000)


def _padded_paper_graph(isolated: int):
    graph = paper_graph()
    for index in range(isolated):
        graph.add_user(f"isolated-{index}")
    return graph


def _single_owner_sweep(graph, owner, text):
    snapshot = compile_graph(graph)
    automaton = CompiledAutomaton(PathExpression.parse(text), snapshot)
    sweep = MaskSweep(snapshot, automaton)
    assert len(sweep.seen) == len(sweep.pending) == 0
    sweep.seed(snapshot.index_of(owner), automaton.start_id, 1)
    assert sweep.run()
    return sweep


@pytest.mark.parametrize("owner, text", WALKTHROUGH_RULES)
def test_sweep_work_is_independent_of_isolated_users(owner, text):
    footprints = []
    for isolated in PADDING:
        sweep = _single_owner_sweep(_padded_paper_graph(isolated), owner, text)
        footprints.append(
            (len(sweep.seen), sweep.scanned, sorted(sweep.accepted()))
        )
    assert footprints[0] == footprints[1]


@pytest.mark.parametrize("isolated", PADDING)
def test_uncached_service_audiences_equal_the_oracle(isolated):
    graph = _padded_paper_graph(isolated)
    service = GraphService(graph, cache_size=0)
    for owner, text in WALKTHROUGH_RULES:
        expected = reference_targets(graph, owner, PathExpression.parse(text))
        assert service.audience(owner, text)[owner] == expected, (owner, text)
