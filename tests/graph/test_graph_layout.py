"""The edge layout's contract: enumeration order, no stored relationships,
and a compile whose transient memory stays small beside what it keeps.

``SocialGraph`` keeps one ``{label: attributes}`` row per connected pair,
shared by ``_succ`` and ``_pred``.  The order the enumerations yield is
observable — the compiled CSR rows, and through them the paper figures,
are built in it — so it is pinned here against a list-based model.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc

import pytest

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
    assert graph.number_of_relationships() == len(model.edges())


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
