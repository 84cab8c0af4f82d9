"""Unit tests for the backend registry and ReachabilityEngine facade."""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import UnknownBackendError
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.engine import (
    BACKENDS,
    ReachabilityEngine,
    available_backends,
    create_evaluator,
)


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ["bfs", "cluster-index", "transitive-closure"]
        assert set(BACKENDS) == set(available_backends())

    def test_create_evaluator_builds_by_default(self, figure1):
        evaluator = create_evaluator("transitive-closure", figure1)
        assert evaluator.statistics()["index_entries"] > 0

    def test_create_evaluator_without_build(self, figure1):
        evaluator = create_evaluator("cluster-index", figure1, build=False)
        assert evaluator.statistics()["index_entries"] == 0.0

    def test_options_forwarded(self, figure1):
        evaluator = create_evaluator("cluster-index", figure1, include_reverse=False)
        assert evaluator.include_reverse is False

    def test_unknown_backend(self, figure1):
        with pytest.raises(UnknownBackendError) as excinfo:
            create_evaluator("oracle", figure1)
        assert "bfs" in str(excinfo.value)


class TestFacade:
    @pytest.fixture
    def engine(self, figure1):
        return ReachabilityEngine(figure1, "bfs")

    def test_evaluate_accepts_strings_and_expressions(self, engine):
        assert engine.evaluate("Alice", "Colin", "friend+[1]").reachable
        assert engine.evaluate("Alice", "Colin", PathExpression.parse("friend+[1]")).reachable

    def test_is_reachable(self, engine):
        assert engine.is_reachable("Alice", "Fred", "friend+[1,2]/colleague+[1]")
        assert not engine.is_reachable("Alice", "George", "colleague+[1]")

    def test_find_targets_accepts_strings(self, engine):
        assert engine.find_targets("Alice", "friend+[1]") == {"Colin", "Bill"}

    def test_backend_name_exposed(self, engine):
        assert engine.backend_name == "bfs"
        assert "bfs" in repr(engine)

    def test_wrapping_a_prebuilt_evaluator(self, figure1):
        evaluator = OnlineBFSEvaluator(figure1)
        engine = ReachabilityEngine(figure1, evaluator)
        assert engine.evaluator is evaluator
        assert engine.is_reachable("Alice", "Colin", "friend")

    def test_statistics_passthrough(self, figure1):
        engine = ReachabilityEngine(figure1, "transitive-closure")
        assert engine.statistics()["index_entries"] > 0

    @pytest.mark.parametrize("backend", available_backends())
    def test_every_backend_through_the_facade(self, figure1, backend):
        engine = ReachabilityEngine(figure1, backend)
        assert engine.is_reachable("Alice", "Fred", "friend+[1,2]/colleague+[1]")
        assert not engine.is_reachable("George", "Alice", "friend+[1,3]")


class TestDecisionMemo:
    @pytest.fixture
    def engine(self, figure1):
        return ReachabilityEngine(figure1, "bfs")

    def test_repeated_decisions_hit_the_cache(self, engine):
        assert engine.is_reachable("Alice", "Colin", "friend+[1]")
        assert engine.cache_info()["misses"] == 1
        for _ in range(3):
            assert engine.is_reachable("Alice", "Colin", "friend+[1]")
        assert engine.cache_info()["hits"] == 3

    def test_string_and_parsed_expressions_share_entries(self, engine):
        engine.is_reachable("Alice", "Colin", "friend+[1]")
        engine.is_reachable("Alice", "Colin", PathExpression.parse("friend+[1]"))
        assert engine.cache_info()["hits"] == 1

    def test_mutation_invalidates_cached_decisions(self, figure1, engine):
        assert not engine.is_reachable("Alice", "George", "colleague+[1]")
        figure1.add_relationship("Alice", "George", "colleague")
        assert engine.is_reachable("Alice", "George", "colleague+[1]")
        figure1.remove_relationship("Alice", "George", "colleague")
        assert not engine.is_reachable("Alice", "George", "colleague+[1]")

    def test_find_targets_is_memoized_and_copies(self, engine):
        first = engine.find_targets("Alice", "friend+[1]")
        second = engine.find_targets("Alice", "friend+[1]")
        assert first == second == {"Colin", "Bill"}
        assert engine.cache_info()["hits"] == 1
        second.add("Mallory")  # caller-side mutation must not poison the memo
        assert engine.find_targets("Alice", "friend+[1]") == {"Colin", "Bill"}

    def test_cached_results_are_isolated_by_immutability(self, engine):
        """A memo hit returns the stored result itself; no caller can change it."""
        first = engine.evaluate("Alice", "Colin", "friend+[1]")
        counters = dict(first.counters)
        with pytest.raises(TypeError):
            first.counters["states_visited"] = 10_000
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.reachable = not first.reachable
        second = engine.evaluate("Alice", "Colin", "friend+[1]")
        assert second is first
        assert dict(second.counters) == counters
        assert engine.cache_info()["hits"] == 1

    def test_cache_can_be_disabled(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs", cache_size=0)
        engine.is_reachable("Alice", "Colin", "friend+[1]")
        engine.is_reachable("Alice", "Colin", "friend+[1]")
        info = engine.cache_info()
        assert info["hits"] == 0 and info["decisions"] == 0

    def test_lru_eviction_respects_cache_size(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs", cache_size=2)
        users = ["Colin", "Bill", "David"]
        for user in users:
            engine.is_reachable("Alice", user, "friend+[1,2]")
        assert engine.cache_info()["decisions"] == 2

    def test_statistics_expose_cache_counts(self, engine):
        engine.is_reachable("Alice", "Colin", "friend+[1]")
        engine.is_reachable("Alice", "Colin", "friend+[1]")
        stats = engine.statistics()
        assert stats["decision_cache_hits"] == 1.0
        assert stats["decision_cache_misses"] == 1.0
