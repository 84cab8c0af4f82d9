"""The edge layout's contract: enumeration order, no stored relationships,
a bounded cost per edge, and a compile whose transient memory stays small
beside what it keeps.

``SocialGraph`` keeps one flat ``(label, attributes, ...)`` row per
connected pair, shared by ``_succ`` and ``_pred``.  The order the
enumerations yield is observable — the compiled CSR rows, and through them
the paper figures, are built in it — so it is pinned here against a
list-based model.  The order of labels inside a row is not content:
equality ignores it, and lookups search the label slots only.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc

import pytest

from repro.exceptions import DuplicateEdgeError, EdgeNotFoundError
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.graph.social_graph import Relationship, SocialGraph


class ListModel:
    """The documented order, kept in plain lists: sources in user insertion
    order, then targets in the order each pair was (last) first connected,
    then labels in insertion order."""

    def __init__(self):
        self.users = []
        self.targets = {}
        self.sources = {}
        self.labels = {}

    def add_user(self, user):
        self.users.append(user)
        self.targets[user] = []
        self.sources[user] = []

    def add_edge(self, source, target, label):
        labels = self.labels.setdefault((source, target), [])
        if not labels:
            self.targets[source].append(target)
            self.sources[target].append(source)
        labels.append(label)

    def remove_edge(self, source, target, label):
        labels = self.labels[(source, target)]
        labels.remove(label)
        if not labels:
            del self.labels[(source, target)]
            self.targets[source].remove(target)
            self.sources[target].remove(source)

    def remove_user(self, user):
        for target in list(self.targets[user]):
            for label in list(self.labels[(user, target)]):
                self.remove_edge(user, target, label)
        for source in list(self.sources[user]):
            for label in list(self.labels[(source, user)]):
                self.remove_edge(source, user, label)
        self.users.remove(user)
        del self.targets[user], self.sources[user]

    def edges(self):
        return [
            (source, target, label)
            for source in self.users
            for target in self.targets[source]
            for label in self.labels[(source, target)]
        ]

    def out_edges(self, user, label=None):
        return [
            (user, target, each)
            for target in self.targets[user]
            for each in self.labels[(user, target)]
            if label is None or each == label
        ]

    def in_edges(self, user, label=None):
        return [
            (source, user, each)
            for source in self.sources[user]
            for each in self.labels[(source, user)]
            if label is None or each == label
        ]


def _keys(relationships):
    return [rel.key() for rel in relationships]


def _assert_same_order(graph, model):
    assert _keys(graph.relationships()) == model.edges()
    for user in model.users:
        assert _keys(graph.out_relationships(user)) == model.out_edges(user)
        assert _keys(graph.in_relationships(user)) == model.in_edges(user)
        for label in ("friend", "colleague"):
            assert _keys(graph.out_relationships(user, label)) == model.out_edges(user, label)
            assert _keys(graph.in_relationships(user, label)) == model.in_edges(user, label)


def _assert_same_degrees(graph, model):
    for user in model.users:
        for label in (None, "friend", "colleague", "parent"):
            assert graph.out_degree(user, label) == len(model.out_edges(user, label))
            assert graph.in_degree(user, label) == len(model.in_edges(user, label))


def test_hand_written_sequence_enumerates_in_documented_order():
    graph = SocialGraph()
    for user in ("a", "b", "c"):
        graph.add_user(user)
    graph.add_relationship("a", "b", "friend")
    graph.add_relationship("a", "c", "friend")
    # The pair (a, b) gains its second label after (a, c) was connected:
    # it stays in front of c, and its labels keep insertion order.
    graph.add_relationship("a", "b", "colleague")
    graph.add_relationship("b", "b", "friend")  # a self-loop
    graph.add_relationship("c", "a", "colleague")
    assert _keys(graph.relationships()) == [
        ("a", "b", "friend"),
        ("a", "b", "colleague"),
        ("a", "c", "friend"),
        ("b", "b", "friend"),
        ("c", "a", "colleague"),
    ]
    assert _keys(graph.in_relationships("b")) == [
        ("a", "b", "friend"),
        ("a", "b", "colleague"),
        ("b", "b", "friend"),
    ]
    # Emptying a pair drops its row; re-connecting appends it at the end.
    graph.remove_relationship("a", "b", "friend")
    graph.remove_relationship("a", "b", "colleague")
    graph.add_relationship("a", "b", "colleague")
    assert _keys(graph.out_relationships("a")) == [
        ("a", "c", "friend"),
        ("a", "b", "colleague"),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_seeded_add_remove_readd_keeps_the_documented_order(seed):
    rng = random.Random(seed)
    graph, model = SocialGraph(), ListModel()
    serial = 0

    def new_user():
        nonlocal serial
        user = f"u{serial}"
        serial += 1
        graph.add_user(user)
        model.add_user(user)

    for _ in range(8):
        new_user()
    # Fixed first steps: a self-loop, and a multi-label pair that gains its
    # second label after its source connected another target.
    for source, target, label in (
        ("u0", "u0", "friend"),
        ("u1", "u2", "friend"),
        ("u1", "u3", "colleague"),
        ("u1", "u2", "colleague"),
    ):
        graph.add_relationship(source, target, label)
        model.add_edge(source, target, label)
    for _ in range(400):
        roll = rng.random()
        live = model.edges()
        if roll < 0.05 and len(model.users) > 2:
            victim = rng.choice(model.users)
            graph.remove_user(victim)
            model.remove_user(victim)
        elif roll < 0.1:
            new_user()
        elif roll < 0.45 and live:
            edge = rng.choice(live)
            graph.remove_relationship(*edge)
            model.remove_edge(*edge)
        else:
            source, target = rng.choice(model.users), rng.choice(model.users)
            label = rng.choice(("friend", "colleague"))
            if not graph.has_relationship(source, target, label):
                graph.add_relationship(source, target, label)
                model.add_edge(source, target, label)
        _assert_same_order(graph, model)
        _assert_same_degrees(graph, model)
    assert graph.number_of_relationships() == len(model.edges())


def test_degrees_count_multi_label_pairs_and_self_loops():
    graph, model = SocialGraph(), ListModel()
    for user in ("a", "b", "c"):
        graph.add_user(user)
        model.add_user(user)
    for source, target, label in (
        ("a", "b", "friend"),
        ("a", "b", "colleague"),
        ("a", "b", "parent"),
        ("a", "a", "friend"),
        ("a", "a", "colleague"),
        ("c", "a", "friend"),
    ):
        graph.add_relationship(source, target, label)
        model.add_edge(source, target, label)
    _assert_same_degrees(graph, model)
    assert (graph.out_degree("a"), graph.in_degree("a")) == (5, 3)
    assert graph.degree("a", "friend") == 4  # the self-loop counts both ways
    graph.remove_relationship("a", "b", "colleague")
    model.remove_edge("a", "b", "colleague")
    _assert_same_degrees(graph, model)


def _two_label_pair(first, second, trust=0.5):
    graph = SocialGraph()
    for user in ("a", "b"):
        graph.add_user(user, age=30)
    graph.add_relationship("a", "b", first, trust=trust)
    graph.add_relationship("a", "b", second, trust=trust)
    return graph


def test_equality_ignores_the_order_a_pair_gained_its_labels():
    forward = _two_label_pair("friend", "colleague")
    backward = _two_label_pair("colleague", "friend")
    assert forward == backward and backward == forward
    # Different content still differs: an edge attribute, or a label.
    assert forward != _two_label_pair("colleague", "friend", trust=0.25)
    assert forward != _two_label_pair("friend", "parent")
    backward.remove_relationship("a", "b", "colleague")
    assert forward != backward


def test_an_absent_label_of_a_connected_pair_is_edge_not_found():
    graph = _two_label_pair("friend", "colleague")
    before = graph.copy()
    # An edge's attribute mapping sits beside its label in the row; it is
    # never a label itself.
    for label in ("parent", "trust", {"trust": 0.5}):
        with pytest.raises(EdgeNotFoundError):
            graph.get_relationship("a", "b", label)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_relationship("a", "b", label)
        assert not graph.has_relationship("a", "b", label)
    with pytest.raises(EdgeNotFoundError):
        graph.remove_relationship("b", "a", "friend")
    assert graph == before and graph.number_of_relationships() == 2


def test_a_label_is_stored_as_text_and_checked_as_text():
    graph = SocialGraph()
    for user in ("a", "b"):
        graph.add_user(user)
    graph.add_relationship("a", "b", 5)
    with pytest.raises(DuplicateEdgeError):
        graph.add_relationship("a", "b", 5)
    assert _keys(graph.relationships()) == [("a", "b", "5")]
    assert graph.number_of_relationships() == graph.number_of_relationships("5") == 1


def _owned_by_the_graph_module() -> int:
    traces = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/repro/graph/social_graph.py")]
    )
    return sum(stat.size for stat in traces.statistics("filename"))


def test_bytes_per_edge_stay_bounded():
    # Measured on this graph (8,983 edges, one label per pair): the tuple
    # rows cost 479 B/edge on CPython 3.11-3.13 and 574 B/edge on 3.9/3.10;
    # {label: attributes} dict rows cost 609 and 751.  The bounds split
    # each gap.
    bound = 540 if sys.version_info >= (3, 11) else 660
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        gc.collect()
        before = _owned_by_the_graph_module()
        graph = preferential_attachment_graph(2000, seed=3)
        owned = _owned_by_the_graph_module() - before
    finally:
        if not outer:
            tracemalloc.stop()
    assert owned / graph.number_of_relationships() <= bound


def _live_relationships() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Relationship))


def test_the_graph_stores_no_relationship_objects():
    before = _live_relationships()
    graph = preferential_attachment_graph(300, seed=11)
    graph.add_relationship("u0", "u1", "parent", trust=0.5)
    compile_graph(graph)
    assert len(list(graph.relationships())) == graph.number_of_relationships()
    assert _live_relationships() == before
    # Values are built on read, and their attributes are the stored mapping.
    rel = graph.get_relationship("u0", "u1", "parent")
    rel.attributes["trust"] = 0.25
    assert graph.get_relationship("u0", "u1", "parent").attributes["trust"] == 0.25


def test_compile_transient_is_small_beside_the_csr_it_keeps():
    graph = preferential_attachment_graph(2000, seed=3)
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        snapshot = CompiledGraph(graph)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not outer:
            tracemalloc.stop()
    halves = list(snapshot._forward) + list(snapshot._backward)
    halves += [snapshot._forward_all, snapshot._backward_all]
    csr_bytes = sum(sys.getsizeof(array) for half in halves for array in half)
    assert peak - current <= 0.5 * csr_bytes
