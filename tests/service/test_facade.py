"""GraphService end to end: the verbs, registry freshness, result plans."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import UnknownBackendError
from repro.policy.engine import AccessControlEngine
from repro.policy.rules import AccessRule
from repro.policy.store import PolicyStore
from repro.reachability.engine import ReachabilityEngine, available_backends
from repro.service import GraphService


def service_over(figure1, **kwargs) -> GraphService:
    store = PolicyStore()
    store.share("Alice", "photos")
    store.add_rule(AccessRule.build("photos", "Alice", "friend+[1,2]/colleague+[1]"))
    store.share("David", "jokes")
    store.add_rule(AccessRule.build("jokes", "David", "friend-[1,2]"))
    return GraphService(figure1, store, **kwargs)


class TestVerbs:
    def test_reach_matches_the_engine(self, figure1):
        service = service_over(figure1)
        engine = ReachabilityEngine(figure1, "bfs")
        for source, target in (("Alice", "David"), ("David", "Alice"), ("Fred", "Bill")):
            result = service.reach(source, target, "friend+[1,2]")
            assert result.reachable == engine.is_reachable(source, target, "friend+[1,2]")
            assert result.plan.kind == "reach"
            assert result.plan.backend in available_backends()
            assert result.elapsed_seconds >= 0.0

    def test_witnesses_travel_on_the_result(self, figure1):
        result = service_over(figure1).reach("Alice", "David", "friend+[1,2]")
        assert result.reachable and result.witness is not None
        assert result.witness.nodes()[0] == "Alice"
        assert result.counters  # work counters come along too

    def test_a_denied_or_unreachable_answer_is_false(self, figure1):
        """An answer's truth is its verdict: a result object without
        ``__bool__`` would be true, and ``if service.check(...)`` would grant."""
        service = service_over(figure1)
        engine = ReachabilityEngine(figure1, "bfs")
        for source, target in (("Alice", "David"), ("Fred", "Bill")):
            expected = engine.is_reachable(source, target, "friend+[1,2]")
            assert bool(service.reach(source, target, "friend+[1,2]")) is expected
            assert bool(engine.evaluate(source, target, "friend+[1,2]")) is expected
        verdicts = set()
        for requester in sorted(figure1.users()):
            result = service.check(requester, "photos")
            assert bool(result) is result.granted
            verdicts.add(result.granted)
        assert verdicts == {True, False}

    def test_audience_matches_the_engine(self, figure1):
        service = service_over(figure1)
        engine = ReachabilityEngine(figure1, "bfs")
        result = service.audience(("Alice", "Bill"), "friend+[1,2]")
        assert dict(result.audiences) == engine.sweep_targets_many(
            ["Alice", "Bill"], "friend+[1,2]"
        )[0]
        assert result["Alice"] == result.audiences["Alice"]
        assert result.sweep_plan is not None and result.sweep_plan.owners == 2

    def test_access_matches_the_policy_engine(self, figure1):
        service = service_over(figure1)
        reference = AccessControlEngine(figure1, service.store, backend="bfs")
        for requester in sorted(figure1.users()):
            for resource in ("photos", "jokes"):
                got = service.check(requester, resource)
                assert got.granted == reference.is_allowed(requester, resource), (
                    requester, resource,
                )
        assert service.explain("Fred", "photos")  # explanations still render

    def test_bulk_access_matches_per_resource(self, figure1):
        service = service_over(figure1)
        result = service.bulk_access(("photos", "jokes"))
        assert result["photos"] == service.authorized_audience("photos")
        assert result["jokes"] == service.authorized_audience("jokes")
        assert set(result.sweep_plans) <= {"friend+[1,2]/colleague+[1]", "friend-[1,2]"}

    def test_reach_times_itself_within_the_call(self, figure1):
        service = service_over(figure1)
        started = time.perf_counter()
        result = service.reach("Alice", "Fred", "friend+[1,2]/colleague+[1]")
        wall = time.perf_counter() - started
        assert result.reachable
        assert 0.0 <= result.elapsed_seconds <= wall

    def test_reach_many_times_itself_within_the_call(self, figure1):
        service = service_over(figure1)
        started = time.perf_counter()
        result = service.reach_many([("Alice", "David"), ("Fred", "Bill")], "friend+[1,2]")
        wall = time.perf_counter() - started
        assert result[("Alice", "David")] and not result[("Fred", "Bill")]
        assert 0.0 <= result.elapsed_seconds <= wall



class TestOwnerNormalization:
    """One owner or an iterable of them; a set sweeps in ``str`` order."""

    def test_a_single_owner_is_one_owner(self, figure1):
        result = service_over(figure1).audience("Alice", "friend+[1]")
        assert list(result.audiences) == ["Alice"]
        assert result.sweep_plan.owners == 1

    @pytest.mark.parametrize("owners", [["Alice", "Bill"], ("Alice", "Bill")])
    def test_lists_and_tuples_keep_their_order(self, figure1, owners):
        result = service_over(figure1).audience(owners, "friend+[1]")
        assert list(result.audiences) == ["Alice", "Bill"]

    def test_sets_get_a_deterministic_order(self, figure1):
        result = service_over(figure1).audience({"Bill", "Alice"}, "friend+[1]")
        assert list(result.audiences) == ["Alice", "Bill"]

    def test_a_single_resource_id_is_one_resource(self, figure1):
        result = service_over(figure1).bulk_access("photos")
        assert list(result.audiences) == ["photos"]


class TestBackendPins:
    def test_per_query_pin_wins(self, figure1):
        service = service_over(figure1)
        result = service.reach("Alice", "David", "friend+[1,2]", backend="cluster-index")
        assert result.plan.backend == "cluster-index" and result.plan.backend_forced

    def test_service_wide_default_backend(self, figure1):
        service = service_over(figure1, default_backend="cluster-index")
        result = service.reach("Alice", "David", "friend+[1,2]")
        assert result.plan.backend == "cluster-index" and result.plan.backend_forced
        # "auto" on the query does not unpin the service default — the pin
        # is the service's configuration, the query just declines to add one.
        assert service.reach("Alice", "Bill", "friend+[1]").plan.backend == "cluster-index"

    def test_every_pinned_backend_agrees(self, figure1):
        service = service_over(figure1)
        for expression in ("friend+[1]", "friend+[1,2]", "friend*[1,2]"):
            reference = None
            for backend in available_backends():
                result = service.reach("Alice", "George", expression, backend=backend)
                if reference is None:
                    reference = result.reachable
                assert result.reachable == reference, (backend, expression)

    # "dfs" named the same walk as "bfs" until it was deleted; a stale pin
    # of it must fail loudly, not fall back to the walk.
    @pytest.mark.parametrize("name", ["oracle", "dfs"])
    def test_unknown_pin_raises(self, figure1, name):
        service = service_over(figure1)
        with pytest.raises(UnknownBackendError):
            service.reach("Alice", "Bill", "friend+[1]", backend=name)
        with pytest.raises(UnknownBackendError):
            service_over(figure1, default_backend=name)

    def test_a_sweep_direction_in_the_backend_slot_is_refused(self, figure1):
        # Audiences have one direction (forward from the owner); a caller
        # still passing "forward" / "reverse" positionally hits the pin check.
        service = service_over(figure1)
        for stale in ("forward", "reverse"):
            with pytest.raises(UnknownBackendError):
                service.audience("Alice", "friend+[1]", backend=stale)
            with pytest.raises(UnknownBackendError):
                service.bulk_access(["photos"], backend=stale)

    def test_every_registered_backend_is_a_valid_pin(self, figure1):
        service = service_over(figure1)
        for backend in available_backends():
            result = service.audience("Alice", "friend+[1]", backend=backend)
            assert result.plan.backend == backend and result.plan.backend_forced
        # "sharded" is a pin only when the service has shards.
        with pytest.raises(UnknownBackendError):
            service.audience("Alice", "friend+[1]", backend="sharded")


class TestIndexFreshness:
    """The facade's contract: a query never reads a stale index."""

    def test_cluster_index_is_rebuilt_after_mutations(self, figure1):
        service = service_over(figure1, default_backend="cluster-index")
        assert not service.is_reachable("Alice", "Fred", "mentor+[1]")
        figure1.add_relationship("Alice", "Fred", "mentor")
        # A directly-held evaluator would still answer from its build-time
        # snapshot; the service rebuilds before routing the query.
        assert service.is_reachable("Alice", "Fred", "mentor+[1]")

    def test_transitive_closure_is_rebuilt_after_mutations(self, figure1):
        service = service_over(figure1, default_backend="transitive-closure")
        assert not service.is_reachable("Alice", "Fred", "mentor+[1]")
        figure1.add_relationship("Alice", "Fred", "mentor")
        assert service.is_reachable("Alice", "Fred", "mentor+[1]")

    def test_parsing_never_rebuilds_an_index_behind_the_planner(self, figure1):
        """Regression: _parse used to route through engine(), whose freshness
        check rebuilt a stale index backend just to parse text — even when
        the planner then chose an online backend."""
        service = service_over(figure1)
        service.reach("Alice", "Bill", "friend+[1]", backend="transitive-closure")
        built_at = service._routes["transitive-closure"].epoch
        figure1.update_user("Alice", age=33)  # stales the closure
        result = service.reach("Alice", "Bill", "friend+[1]")  # auto -> online
        assert result.plan.backend == "bfs"
        # The stale closure was not rebuilt as a parsing side effect.
        assert service._routes["transitive-closure"].epoch == built_at


class TestSweepPlanRace:
    """A memo-warm call must not disturb (or get confused with) an earlier
    call's executed sweep plan."""

    def test_warm_audience_results_carry_their_own_plan(self, figure1):
        service = service_over(figure1)
        cold = service.audience(["Alice", "Bill"], "friend+[1,2]")
        assert cold.sweep_plan is not None and cold.sweep_plan.owners == 2
        warm = service.audience(["Alice", "Bill"], "friend+[1,2]")
        # The warm call swept nothing: its result says so...
        assert warm.sweep_plan is None
        # ...and the cold result's plan is untouched.
        assert cold.sweep_plan is not None and cold.sweep_plan.owners == 2

    def test_engine_sweep_returns_the_plan_of_this_call(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        _, cold_plan = engine.sweep_targets_many(["Alice", "Bill"], "friend+[1]")
        assert cold_plan is not None and cold_plan.owners == 2
        # Partially warm: only the miss is swept, and the returned plan
        # describes exactly that one-owner sweep.
        _, partial_plan = engine.sweep_targets_many(["Alice", "George"], "friend+[1]")
        assert partial_plan is not None and partial_plan.owners == 1
        _, warm_plan = engine.sweep_targets_many(["Alice", "George"], "friend+[1]")
        assert warm_plan is None
        assert cold_plan.owners == 2  # immutably this call's plan


class TestServiceBookkeeping:
    def test_statistics_aggregate_engines_and_planner(self, figure1):
        service = service_over(figure1)
        service.reach("Alice", "Bill", "friend+[1]")
        service.reach("Alice", "Bill", "friend+[1]")
        stats = service.statistics()
        assert stats["queries_executed"] == 2.0
        assert stats["planner_plan_cache_misses"] >= 1.0
        assert stats["bfs_hits"] >= 1.0  # second call was a memo hit
        assert "bfs" in service.cache_info()

    def test_refresh_returns_the_compiled_snapshot(self, figure1):
        service = service_over(figure1)
        snapshot = service.refresh()
        assert snapshot.epoch == figure1.epoch
        figure1.update_user("Alice", age=32)
        assert service.refresh().epoch == figure1.epoch

    def test_repr_mentions_the_pin(self, figure1):
        assert "auto" in repr(service_over(figure1))
        assert "bfs" in repr(service_over(figure1, default_backend="bfs"))
