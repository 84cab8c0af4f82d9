"""Property-based differential of the row overlay against a fresh compile.

A journal-covered burst patches the compiled snapshot through per-label row
overlays and maintained degree counters (:mod:`repro.graph.compiled`).  On
arbitrary graphs and arbitrary op sequences — edge adds and removes, an add
then a remove (and a remove then a re-add) of the same edge inside one burst,
``add_user``, ``remove_user`` with slot reuse, a label the base never had,
attribute writes — the patched snapshot must, after every burst and **with no
fold having run**, be indistinguishable from ``CompiledGraph(graph)``:

* every row read the way the traversal loops read it equals the fresh row
  (as a multiset);
* ``degree_statistics()`` equals the from-scratch tuple for every label;
* ``product_search`` (the ``evaluate`` / ``find_targets`` core) and both
  directions of ``audience_sweep`` equal :mod:`repro.testing.oracle`.

The same holds after a clone (``compacted()``), after a forced fold, after
``SnapshotStore.save`` -> ``load``, and on a mapped snapshot patched
copy-on-write, whose file must come out of it byte-identical.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import compiled
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.snapshot import SnapshotStore
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.compiled_search import (
    CompiledAutomaton,
    audience_sweep,
    product_search,
)
from repro.reachability.result import EvaluationResult
from repro.testing.oracle import reference_reachable, reference_targets
from tests.property.test_property_backends import SETTINGS, expressions, social_graphs

#: The base graphs use the first three; ``mentor`` is first seen in a burst.
LABELS = ("friend", "colleague", "parent", "mentor")
NEW_LABEL_EXPRESSION = PathExpression.parse("mentor*[1,2]/friend+[1]")

_INDEX = st.integers(0, 63)
_LABEL = st.integers(0, len(LABELS) - 1)
_AGE = st.integers(10, 70)
OPS = st.one_of(
    st.tuples(st.just("toggle"), _INDEX, _INDEX, _LABEL),
    st.tuples(st.just("flip_twice"), _INDEX, _INDEX, _LABEL),
    st.tuples(st.just("add_user"), _AGE),
    st.tuples(st.just("remove_user"), _INDEX),
    st.tuples(st.just("replace_user"), _INDEX, _INDEX, _LABEL),
    st.tuples(st.just("attribute"), _INDEX, _AGE),
)
BURSTS = st.lists(st.lists(OPS, min_size=1, max_size=8), min_size=1, max_size=3)


def _toggle(graph, source, target, label) -> None:
    if graph.has_relationship(source, target, label):
        graph.remove_relationship(source, target, label)
    else:
        graph.add_relationship(source, target, label)


def apply_op(graph, op) -> None:
    """Interpret one abstract op against the graph's current state."""
    users = sorted(graph.users())
    pick = lambda index: users[index % len(users)]  # noqa: E731
    kind = op[0]
    if kind == "toggle":
        _toggle(graph, pick(op[1]), pick(op[2]), LABELS[op[3]])
    elif kind == "flip_twice":  # add-then-remove, or remove-then-re-add
        for _ in range(2):
            _toggle(graph, pick(op[1]), pick(op[2]), LABELS[op[3]])
    elif kind == "add_user":
        graph.add_user(f"n{graph.epoch}", age=op[1], gender="female")
    elif kind == "remove_user":
        if len(users) > 2:
            graph.remove_user(pick(op[1]))
    elif kind == "replace_user":  # the newcomer reuses the freed slot
        if len(users) > 2:
            graph.remove_user(pick(op[1]))
            newcomer = f"n{graph.epoch}"
            graph.add_user(newcomer, age=33, gender="male")
            survivors = sorted(set(graph.users()) - {newcomer})
            graph.add_relationship(
                newcomer, survivors[op[2] % len(survivors)], LABELS[op[3]]
            )
    else:
        graph.attributes(pick(op[1]))["age"] = op[2]


def decoded_rows(snapshot: CompiledGraph, label_id: int, *, backward: bool):
    """``user -> Counter(neighbour users)``, read like the traversal loops do."""
    view = snapshot.in_rows(label_id) if backward else snapshot.out_rows(label_id)
    offsets, targets, overlay = view
    user_of = snapshot.node_ids
    rows = {}
    for node in range(snapshot.number_of_nodes()):
        if overlay and node in overlay:
            row = overlay[node]
        else:
            row = targets[offsets[node]:offsets[node + 1]]
        if node in snapshot.dead_slots:
            assert len(row) == 0
        else:
            rows[user_of[node]] = Counter(user_of[neighbor] for neighbor in row)
    return rows


def assert_equivalent(snapshot: CompiledGraph, graph, expression) -> None:
    """``snapshot`` (any state) against a fresh compile and the oracle."""
    fresh = CompiledGraph(graph)
    assert set(snapshot.node_index) == set(graph.users())
    assert set(fresh.labels) <= set(snapshot.labels)
    stats = {row.label: row for row in snapshot.degree_statistics()}
    fresh_stats = {row.label: row for row in fresh.degree_statistics()}
    for label in snapshot.labels:
        label_id = snapshot.label_id(label)
        if label not in fresh.label_index:  # its last edge went: empty, not gone
            assert snapshot.number_of_edges(label_id) == 0
            assert (stats[label].edges, stats[label].max_out_degree) == (0, 0)
            continue
        assert stats[label] == fresh_stats[label]
        assert snapshot.number_of_edges(label_id) == fresh_stats[label].edges
        for backward in (False, True):
            assert decoded_rows(snapshot, label_id, backward=backward) == decoded_rows(
                fresh, fresh.label_id(label), backward=backward
            ), (label, backward)

    live = [
        node for node in range(snapshot.number_of_nodes())
        if node not in snapshot.dead_slots
    ]
    user_of = snapshot.node_ids
    for text in (expression, NEW_LABEL_EXPRESSION):
        automaton = CompiledAutomaton(text, snapshot)
        expected = {user: reference_targets(graph, user, text) for user in graph.users()}
        for node in live:
            outcome = product_search(
                snapshot, automaton, node, None,
                EvaluationResult(reachable=False, backend="test"),
                collect_witness=False,
            )
            assert outcome.users() == expected[user_of[node]]
        stop = live[len(live) // 2]  # the evaluate (stop_at) form, one target
        for node in live:
            outcome = product_search(
                snapshot, automaton, node, stop,
                EvaluationResult(reachable=False, backend="test"),
                collect_witness=False,
            )
            assert outcome.contains(user_of[stop]) == (
                user_of[stop] in expected[user_of[node]]
            )
        for direction in ("forward", "reverse"):
            sweep = audience_sweep(snapshot, automaton, live, direction=direction)
            assert not sweep.partial
            for node, audience in zip(live, sweep.audiences):
                assert {user_of[n] for n in audience} == expected[user_of[node]], direction


@given(social_graphs(min_users=3), BURSTS, expressions(), st.booleans())
@settings(**SETTINGS)
def test_patched_snapshots_equal_a_fresh_compile_in_every_state(
    base, bursts, expression, warm_statistics
):
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        compiled, "_FOLD_SHARE", 0  # no threshold folds: the overlay carries it all
    ):
        store = SnapshotStore(Path(directory) / "mapped.snap")
        in_memory, on_disk = base, base.copy()
        arms = [(in_memory, compile_graph(in_memory))]
        store.save(compile_graph(on_disk))
        arms.append((on_disk, store.load(on_disk)))
        assert arms[1][1].mapped and compile_graph(on_disk) is arms[1][1]
        base_bytes = store.base_path.read_bytes()
        if warm_statistics:  # maintained counters, else the lazy overlay-aware scan
            for _graph, snapshot in arms:
                snapshot.degree_statistics()

        for burst in bursts:
            for graph, snapshot in arms:
                for op in burst:
                    apply_op(graph, op)
                assert compile_graph(graph) is snapshot, "must patch in place"
                assert_equivalent(snapshot, graph, expression)
                assert snapshot.delta_events["label_compactions"] == 0
                assert snapshot.delta_events["fold_entries_copied"] == 0
        assert in_memory == on_disk

        for graph, snapshot in arms:
            # The public evaluator rides the same patched snapshot.
            evaluator = OnlineBFSEvaluator(graph)
            users = sorted(graph.users())
            for source in users[:3]:
                assert evaluator.find_targets(source, expression) == reference_targets(
                    graph, source, expression
                )
                assert evaluator.evaluate(
                    source, users[-1], expression, collect_witness=False
                ).reachable == reference_reachable(graph, source, users[-1], expression)

            clone = snapshot.compacted()
            assert not clone.dead_slots
            assert_equivalent(clone, graph, expression)

            for label_id in range(snapshot.number_of_labels()):
                snapshot.forward(label_id)  # the forced fold
            assert snapshot.overlay_rows == 0
            assert_equivalent(snapshot, graph, expression)

            side = SnapshotStore(Path(directory) / "side.snap")
            side.save(snapshot)
            loaded = side.load()
            assert loaded.mapped and loaded.graph is None
            assert_equivalent(loaded, graph, expression)
        assert store.base_path.read_bytes() == base_bytes  # mapped: never written
