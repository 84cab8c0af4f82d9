"""Persistent snapshot store: round-trip property harness + failure modes.

The safety net for the PERF-11 mmap format.  The core is a seeded
differential harness (same idiom as ``tests/property/test_backend_
equivalence.py``): 100+ random graphs are compiled, saved, memory-mapped
back, and every reachability backend answering from the mapped snapshot
must agree exactly with one answering from a fresh in-memory compile —
``evaluate`` decisions and ``find_targets`` audiences alike.

Around it: delta-segment replay (one and many segments, attribute
payloads), the staleness contract (adoption refuses epochs the journal
cannot cover — ``journal_limit = 0`` forces the gap), torn-write and
corruption cases (always a typed :class:`SnapshotFormatError`, never a raw
``struct.error``), the ``GraphService`` warm-start wiring, and a fork-based
smoke test of one mapping shared across processes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import struct
import sys

import pytest

from repro.exceptions import SnapshotFormatError, SnapshotStaleError
from repro.graph.compiled import compile_graph
from repro.graph.snapshot import (
    SnapshotStore,
    load_snapshot,
    read_snapshot_header,
    save_snapshot,
)
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.compiled_search import CompiledAutomaton, audience_sweep
from repro.reachability.dfs import OnlineDFSEvaluator
from repro.reachability.transitive_closure import TransitiveClosureEvaluator
from repro.testing.graphs import LABELS, adversarial_graph
from repro.workloads.queries import random_expression

GRAPH_SEEDS = range(25)
EXPRESSIONS_PER_GRAPH = 4
PAIRS_PER_EXPRESSION = 3


def _mutate(graph: SocialGraph, rng: random.Random, ops: int) -> None:
    """A journal-coverable churn burst (no removals)."""
    users = sorted(graph.users())
    for _ in range(ops):
        kind = rng.random()
        if kind < 0.3:
            user = f"n{graph.number_of_users()}_{rng.randint(0, 999)}"
            graph.add_user(user, age=rng.randint(10, 70))
            users.append(user)
        elif kind < 0.6:
            graph.update_user(rng.choice(users), age=rng.randint(10, 70))
        else:
            source, target = rng.choice(users), rng.choice(users)
            label = rng.choice(LABELS)
            if graph.has_relationship(source, target, label):
                graph.remove_relationship(source, target, label)
            else:
                graph.add_relationship(source, target, label)


def _backends(graph):
    return {
        "bfs": OnlineBFSEvaluator(graph),
        "dfs": OnlineDFSEvaluator(graph),
        "transitive-closure": TransitiveClosureEvaluator(graph).build(),
        "cluster-index": ClusterIndexEvaluator(graph).build(),
    }


def _rebuild(graph: SocialGraph) -> SocialGraph:
    """A structurally identical graph replayed in one deterministic pass.

    Replaying add_user/add_relationship in the original interning order
    yields the same epoch, which is how an independent worker process
    arrives at a graph the persisted snapshot can be adopted into.
    """
    clone = SocialGraph(name=graph.name)
    for user in graph.users():
        clone.add_user(user, **dict(graph.attributes(user)))
    for rel in graph.relationships():
        clone.add_relationship(rel.source, rel.target, rel.label)
    return clone


# ---------------------------------------------------------------------------
# The round-trip property harness (the acceptance-criteria floor)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
@pytest.mark.parametrize("variant", ("plain", "delta", "stale"))
def test_mapped_snapshots_are_backend_equivalent(tmp_path, seed, variant):
    """save → mmap → every backend agrees with a fresh in-memory compile.

    ``plain``  round-trips the base file alone; ``delta`` checkpoints a
    churn burst into segments first; ``stale`` truncates the journal so the
    store must take the recompile-and-rewrite fallback — in every case the
    adopted snapshot must be *exactly* as fresh as a cold compile.
    """
    rng = random.Random(9_000 + seed)
    graph = adversarial_graph(rng)
    store = SnapshotStore(tmp_path / "g.snap")
    store.save(compile_graph(graph))

    if variant == "delta":
        _mutate(graph, rng, rng.randint(1, 6))
        assert store.checkpoint(graph) in ("delta", "rebase")
    elif variant == "stale":
        _mutate(graph, rng, rng.randint(1, 6))
        graph.journal_limit = 0  # drops the journal: the gap is uncoverable
        graph.journal_limit = 4096

    # ``plain`` adopts into an independently replayed graph (the worker-
    # process shape: pure-add history, same epoch); the churned variants
    # keep the original object — epochs are history-dependent, and a
    # replayed churn history is exactly what the ``stale`` path rejects.
    live = _rebuild(graph) if variant == "plain" else graph
    if variant == "stale":
        with pytest.raises((SnapshotStaleError, SnapshotFormatError)):
            store.load(live)
        snapshot, source = store.load_or_compile(live)
        assert source in ("stale", "corrupt")
        assert not snapshot.mapped
    else:
        snapshot = store.load(live)
        assert snapshot.mapped
    assert snapshot.epoch == live.epoch
    assert getattr(live, "_compiled_snapshot") is snapshot

    oracle_graph = _rebuild(graph)
    oracles = _backends(oracle_graph)
    contenders = _backends(live)
    users = sorted(graph.users())
    for _ in range(EXPRESSIONS_PER_GRAPH):
        expression = random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        for _ in range(PAIRS_PER_EXPRESSION):
            source, target = rng.choice(users), rng.choice(users)
            for name in oracles:
                expected = oracles[name].evaluate(
                    source, target, expression, collect_witness=False
                ).reachable
                got = contenders[name].evaluate(
                    source, target, expression, collect_witness=False
                ).reachable
                assert got == expected, (seed, variant, name, source, target,
                                         expression.to_text())
            source = rng.choice(users)
            for name in oracles:
                assert contenders[name].find_targets(source, expression) == \
                    oracles[name].find_targets(source, expression), (
                        seed, variant, name, source, expression.to_text())


def test_seed_budget_meets_the_acceptance_floor():
    """The harness must cover at least 100 seeded round-trip cases."""
    assert len(GRAPH_SEEDS) * 3 * EXPRESSIONS_PER_GRAPH >= 100


# ---------------------------------------------------------------------------
# Standalone (no live graph) loading
# ---------------------------------------------------------------------------


def test_standalone_load_answers_sweeps_without_a_graph(tmp_path):
    rng = random.Random(7)
    graph = adversarial_graph(rng)
    snapshot = compile_graph(graph)
    path = tmp_path / "g.snap"
    save_snapshot(snapshot, path)

    loaded = load_snapshot(path)
    assert loaded.mapped and loaded.graph is None
    assert loaded.node_ids == snapshot.node_ids
    assert loaded.labels == snapshot.labels
    expression = PathExpression.parse("friend+[1,3]")
    sources = list(range(loaded.number_of_nodes()))
    got = audience_sweep(
        loaded, CompiledAutomaton(expression, loaded), sources, direction="forward"
    )
    expected = audience_sweep(
        snapshot, CompiledAutomaton(expression, snapshot), sources, direction="forward"
    )
    assert got.audiences == expected.audiences


def test_standalone_attribute_conditions_read_persisted_attrs(tmp_path):
    graph = SocialGraph()
    graph.add_user("a", age=24, gender="female")
    graph.add_user("b", age=61, gender="male")
    graph.add_relationship("a", "b", "friend")
    path = tmp_path / "g.snap"
    save_snapshot(compile_graph(graph), path)

    loaded = load_snapshot(path)
    expression = PathExpression.parse("friend+[1,1]{age < 30}")
    automaton = CompiledAutomaton(expression, loaded)
    sweep = audience_sweep(loaded, automaton, [0, 1], direction="forward")
    # b (age 61) fails the condition, so a's audience is empty; conditions
    # apply to traversed nodes, and b is the only candidate from a.
    assert list(sweep.audiences[0]) == []


def test_standalone_witness_edges_are_synthesized(tmp_path):
    graph = SocialGraph()
    for user in ("a", "b"):
        graph.add_user(user, age=30)
    graph.add_relationship("a", "b", "friend")
    path = tmp_path / "g.snap"
    save_snapshot(compile_graph(graph), path)
    loaded = load_snapshot(path)
    relationship = loaded.relationship(0, 1, loaded.label_index["friend"])
    assert (relationship.source, relationship.target, relationship.label) == \
        ("a", "b", "friend")


def test_nbytes_accounts_mapped_and_private_buffers(tmp_path):
    graph = adversarial_graph(random.Random(3))
    snapshot = compile_graph(graph)
    path = tmp_path / "g.snap"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    # Same CSR content → same buffer byte count, mapped or not.
    assert loaded.nbytes == snapshot.nbytes > 0
    assert path.stat().st_size > loaded.nbytes  # header + meta overhead


# ---------------------------------------------------------------------------
# Delta segments
# ---------------------------------------------------------------------------


def test_checkpoint_appends_contiguous_delta_segments(tmp_path):
    rng = random.Random(11)
    graph = adversarial_graph(rng)
    store = SnapshotStore(tmp_path / "g.snap")
    assert store.checkpoint(graph) == "base"
    assert store.checkpoint(graph) == "current"
    for expected_segments in (1, 2, 3):
        _mutate(graph, rng, 3)
        assert store.checkpoint(graph) == "delta"
        assert store.stat()["delta_segments"] == expected_segments
    assert store.tip_epoch() == graph.epoch
    loaded = store.load()
    assert loaded.epoch == graph.epoch
    assert loaded.number_of_nodes() == graph.number_of_users()


def test_persisted_update_user_payload_replays_standalone(tmp_path):
    graph = SocialGraph()
    graph.add_user("a", age=24)
    graph.add_user("b", age=30)
    graph.add_relationship("a", "b", "friend")
    store = SnapshotStore(tmp_path / "g.snap")
    store.checkpoint(graph)
    graph.update_user("b", age=99)
    assert store.checkpoint(graph) == "delta"
    loaded = store.load()  # no graph: attrs must come from the payload
    assert loaded.attrs[loaded.node_index["b"]]["age"] == 99


def test_user_removal_emits_a_delta_segment(tmp_path):
    graph = SocialGraph()
    for user in ("a", "b", "c"):
        graph.add_user(user, age=30)
    graph.add_relationship("a", "b", "friend")
    graph.add_relationship("b", "c", "friend")
    store = SnapshotStore(tmp_path / "g.snap")
    store.checkpoint(graph)
    graph.remove_user("c")
    assert store.checkpoint(graph) == "delta"
    assert store.stat()["delta_segments"] == 1
    # Standalone replay tombstones the slot: three dense slots, two users.
    loaded = store.load()
    assert loaded.number_of_nodes() == 3
    assert loaded.number_of_live_nodes() == 2
    assert set(loaded.node_index) == {"a", "b"}
    assert len(loaded.out_neighbors(loaded.node_index["b"])) == 0  # b->c gone
    assert len(loaded.out_neighbors(loaded.node_index["a"])) == 1  # a->b kept
    # Adoption into the live graph verifies structure against the live state.
    adopted = store.load(graph)
    assert set(adopted.node_index) == {"a", "b"}


def test_removal_bearing_delta_round_trip_with_slot_reuse(tmp_path):
    """remove + re-add in one persisted span: replay reuses the slot."""
    graph = SocialGraph()
    for user in ("a", "b", "c"):
        graph.add_user(user, age=30)
    graph.add_relationship("a", "b", "friend")
    graph.add_relationship("b", "c", "friend")
    store = SnapshotStore(tmp_path / "g.snap")
    store.checkpoint(graph)
    graph.remove_user("c")
    graph.add_user("d", age=41)
    graph.add_relationship("b", "d", "friend")
    graph.update_user("d", age=42)
    assert store.checkpoint(graph) == "delta"
    loaded = store.load()
    assert loaded.number_of_live_nodes() == 3
    assert set(loaded.node_index) == {"a", "b", "d"}
    assert loaded.attrs[loaded.node_index["d"]]["age"] == 42
    decoded = {
        loaded.node_ids[n]
        for n in loaded.out_neighbors(loaded.node_index["b"])
    }
    assert decoded == {"d"}
    # A post-replay save squeezes the tombstone out: fresh readers see a
    # dense, fully live snapshot.
    rebased = SnapshotStore(tmp_path / "rebased.snap")
    rebased.save(loaded)
    reread = rebased.load()
    assert reread.number_of_nodes() == reread.number_of_live_nodes() == 3


def test_segment_budget_triggers_a_rebase(tmp_path):
    rng = random.Random(13)
    graph = adversarial_graph(rng)
    store = SnapshotStore(tmp_path / "g.snap", max_delta_segments=2)
    store.checkpoint(graph)
    for _ in range(2):
        _mutate(graph, rng, 2)
        assert store.checkpoint(graph) == "delta"
    _mutate(graph, rng, 2)
    assert store.checkpoint(graph) == "rebase"
    assert store.stat()["delta_segments"] == 0


def test_uncovered_journal_gap_forces_a_rebase(tmp_path):
    rng = random.Random(17)
    graph = adversarial_graph(rng)
    store = SnapshotStore(tmp_path / "g.snap")
    store.checkpoint(graph)
    _mutate(graph, rng, 2)
    graph.journal_limit = 0  # drop the journal: mutations_since → None
    graph.journal_limit = 4096
    assert store.checkpoint(graph) == "rebase"


# ---------------------------------------------------------------------------
# Staleness contract
# ---------------------------------------------------------------------------


def test_adoption_replays_the_live_journal_gap(tmp_path):
    rng = random.Random(19)
    graph = adversarial_graph(rng)
    store = SnapshotStore(tmp_path / "g.snap")
    store.save(compile_graph(graph))
    live = _rebuild(graph)
    _mutate(live, rng, 3)  # persisted state is behind, journal covers it
    snapshot = store.load(live)
    assert snapshot.mapped and snapshot.epoch == live.epoch
    assert not snapshot.is_stale()


def test_adoption_survives_a_label_losing_its_last_edge(tmp_path):
    """Regression: the live graph forgets a label with its last edge, the
    snapshot keeps the (now empty) label id — that is not staleness.  Both
    orders: the removal persisted as a delta segment, and the removal only
    in the live journal.  (Seen as ``warm_start == "stale"`` in long
    ``lib_churn`` runs on small graphs.)"""
    for persist_removal in (True, False):
        graph = SocialGraph()
        for user in ("a", "b", "c"):
            graph.add_user(user, age=30)
        graph.add_relationship("a", "b", "friend")
        graph.add_relationship("b", "c", "parent")
        store = SnapshotStore(tmp_path / f"g{int(persist_removal)}.snap")
        assert store.checkpoint(graph) == "base"
        graph.remove_relationship("b", "c", "parent")
        assert graph.labels() == ("friend",)
        if persist_removal:
            assert store.checkpoint(graph) == "delta"
        snapshot, source = SnapshotStore(store.base_path).load_or_compile(graph)
        assert source == "mapped"
        assert snapshot.epoch == graph.epoch and not snapshot.is_stale()
        assert snapshot.number_of_edges(snapshot.label_id("parent")) == 0
        bfs = OnlineBFSEvaluator(graph)
        assert bfs.find_targets("a", PathExpression.parse("friend+[1]")) == {"b"}
        assert bfs.find_targets("b", PathExpression.parse("parent+[1]")) == set()


def test_adoption_refuses_a_foreign_graph(tmp_path):
    graph = SocialGraph()
    for user in ("a", "b"):
        graph.add_user(user, age=30)
    graph.add_relationship("a", "b", "friend")
    store = SnapshotStore(tmp_path / "g.snap")
    store.save(compile_graph(graph))

    other = SocialGraph()
    for user in ("x", "y"):
        other.add_user(user, age=30)
    other.add_relationship("x", "y", "friend")
    with pytest.raises(SnapshotStaleError):
        store.load(other)


def test_adoption_refuses_an_uncoverable_epoch_gap(tmp_path):
    rng = random.Random(23)
    graph = adversarial_graph(rng)
    store = SnapshotStore(tmp_path / "g.snap")
    store.save(compile_graph(graph))
    live = _rebuild(graph)
    _mutate(live, rng, 3)
    live.journal_limit = 0
    live.journal_limit = 4096
    with pytest.raises(SnapshotStaleError) as excinfo:
        store.load(live)
    assert "journal" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Torn writes / corruption: always typed, never struct.error
# ---------------------------------------------------------------------------


def _saved_store(tmp_path) -> SnapshotStore:
    graph = adversarial_graph(random.Random(29))
    store = SnapshotStore(tmp_path / "g.snap")
    store.save(compile_graph(graph))
    return store


def test_truncated_header_raises_typed_error(tmp_path):
    store = _saved_store(tmp_path)
    data = store.base_path.read_bytes()
    store.base_path.write_bytes(data[:10])
    with pytest.raises(SnapshotFormatError) as excinfo:
        load_snapshot(store.base_path)
    assert excinfo.value.field == "size"


def test_torn_write_truncated_arrays_raises_typed_error(tmp_path):
    store = _saved_store(tmp_path)
    data = store.base_path.read_bytes()
    store.base_path.write_bytes(data[:-16])  # lost the tail of the CSR region
    with pytest.raises(SnapshotFormatError) as excinfo:
        load_snapshot(store.base_path)
    assert excinfo.value.field == "arrays"


def test_bad_magic_and_version_name_their_field(tmp_path):
    store = _saved_store(tmp_path)
    data = bytearray(store.base_path.read_bytes())
    original = bytes(data)
    data[:4] = b"NOPE"
    store.base_path.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError) as excinfo:
        load_snapshot(store.base_path)
    assert excinfo.value.field == "magic"

    data = bytearray(original)
    data[8:12] = struct.pack("<I", 999)  # version field
    # re-stamp the header crc so the version check (not the crc) fires
    import zlib
    header = bytes(data[:40])
    data[40:44] = struct.pack("<I", zlib.crc32(header) & 0xFFFFFFFF)
    store.base_path.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError) as excinfo:
        load_snapshot(store.base_path)
    assert excinfo.value.field == "version"


def test_flipped_header_bit_fails_the_header_crc(tmp_path):
    store = _saved_store(tmp_path)
    data = bytearray(store.base_path.read_bytes())
    data[16] ^= 0xFF  # somewhere inside the packed header
    store.base_path.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError) as excinfo:
        load_snapshot(store.base_path)
    assert excinfo.value.field in ("header_crc", "counts")


def test_corrupt_meta_fails_the_meta_crc(tmp_path):
    store = _saved_store(tmp_path)
    data = bytearray(store.base_path.read_bytes())
    data[60] ^= 0xFF  # inside the JSON metadata block
    store.base_path.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError) as excinfo:
        load_snapshot(store.base_path)
    assert excinfo.value.field == "meta_crc"


def test_corrupt_arrays_detected_with_verify(tmp_path):
    store = _saved_store(tmp_path)
    data = bytearray(store.base_path.read_bytes())
    data[-8] ^= 0xFF  # inside the CSR region
    store.base_path.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError) as excinfo:
        load_snapshot(store.base_path, verify=True)
    assert excinfo.value.field == "arrays_crc32"


def test_empty_file_raises_typed_error(tmp_path):
    path = tmp_path / "g.snap"
    path.write_bytes(b"")
    with pytest.raises(SnapshotFormatError) as excinfo:
        load_snapshot(path)
    assert excinfo.value.field == "size"


def test_corrupt_delta_segment_raises_typed_error(tmp_path):
    rng = random.Random(31)
    graph = adversarial_graph(rng)
    store = SnapshotStore(tmp_path / "g.snap")
    store.checkpoint(graph)
    _mutate(graph, rng, 2)
    assert store.checkpoint(graph) == "delta"
    delta = store.delta_path(0)
    document = json.loads(delta.read_text())
    document["ops_crc32"] ^= 1
    delta.write_text(json.dumps(document))
    with pytest.raises(SnapshotFormatError) as excinfo:
        store.load()
    assert excinfo.value.field == "ops_crc32"


def test_load_or_compile_recovers_from_corruption(tmp_path):
    rng = random.Random(37)
    graph = adversarial_graph(rng)
    store = _saved_store(tmp_path)
    with open(store.base_path, "r+b") as handle:
        handle.seek(16)
        handle.write(b"\xff" * 8)
    snapshot, source = store.load_or_compile(graph)
    assert source == "corrupt"
    assert snapshot is compile_graph(graph)
    # The store was rewritten clean: the next load maps again.
    assert store.load(_rebuild(graph)).mapped


def test_read_snapshot_header_is_a_cheap_probe(tmp_path):
    store = _saved_store(tmp_path)
    header = read_snapshot_header(store.base_path)
    assert header["epoch"] == store.tip_epoch()
    assert header["nodes"] > 0


# ---------------------------------------------------------------------------
# GraphService warm-start integration
# ---------------------------------------------------------------------------


def test_graph_service_warm_start_and_checkpoint(tmp_path):
    from repro import GraphService

    path = tmp_path / "service.snap"
    graph = adversarial_graph(random.Random(41))
    service = GraphService(graph, snapshot_path=path)
    assert service.warm_start == "absent"  # first open compiles + writes
    service.refresh()
    assert service.last_checkpoint == "current"
    _mutate(graph, random.Random(43), 3)
    service.refresh()
    assert service.last_checkpoint in ("delta", "rebase")

    stats = service.statistics()
    assert stats["snapshot_nbytes"] > 0
    assert stats["snapshot_disk_bytes"] > 0

    warm = GraphService(_rebuild(graph), snapshot_path=path)
    assert warm.warm_start == "mapped"
    assert warm.statistics()["snapshot_mapped"] == 1.0


def test_graph_service_without_store_reports_cold(tmp_path):
    graph = adversarial_graph(random.Random(47))
    from repro import GraphService

    service = GraphService(graph)
    assert service.warm_start == "cold"
    assert service.snapshot_store is None
    service.refresh()
    assert service.last_checkpoint is None
    assert "snapshot_disk_bytes" not in service.statistics()


# ---------------------------------------------------------------------------
# Multi-process smoke: one mapping, several workers
# ---------------------------------------------------------------------------


def _worker_sweep(path, expression_text, queue):
    snapshot = load_snapshot(path)
    expression = PathExpression.parse(expression_text)
    automaton = CompiledAutomaton(expression, snapshot)
    sweep = audience_sweep(
        snapshot,
        automaton,
        list(range(snapshot.number_of_nodes())),
        direction="forward",
    )
    queue.put([sorted(audience) for audience in sweep.audiences])


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork start-method not available"
)
def test_multiple_processes_share_one_mapping(tmp_path):
    graph = adversarial_graph(random.Random(53))
    snapshot = compile_graph(graph)
    path = tmp_path / "shared.snap"
    save_snapshot(snapshot, path)

    expression = "friend+[1,3]"
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    workers = [
        context.Process(target=_worker_sweep, args=(str(path), expression, queue))
        for _ in range(3)
    ]
    for worker in workers:
        worker.start()
    results = [queue.get(timeout=30) for _ in workers]
    for worker in workers:
        worker.join(timeout=30)
        assert worker.exitcode == 0

    parsed = PathExpression.parse(expression)
    local = audience_sweep(
        snapshot,
        CompiledAutomaton(parsed, snapshot),
        list(range(snapshot.number_of_nodes())),
        direction="forward",
    )
    expected = [sorted(audience) for audience in local.audiences]
    assert all(result == expected for result in results)
