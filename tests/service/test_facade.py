"""GraphService end to end: execution, registry freshness, result plans."""

from __future__ import annotations

import pytest

from repro.exceptions import UnknownBackendError
from repro.policy.engine import AccessControlEngine
from repro.policy.path_expression import as_path_expression
from repro.policy.rules import AccessRule
from repro.policy.store import PolicyStore
from repro.reachability.engine import ReachabilityEngine
from repro.service import (
    AccessQuery,
    AudienceQuery,
    BulkAccessQuery,
    GraphService,
    ReachQuery,
)


def service_over(figure1, **kwargs) -> GraphService:
    store = PolicyStore()
    store.share("Alice", "photos")
    store.add_rule(AccessRule.build("photos", "Alice", "friend+[1,2]/colleague+[1]"))
    store.share("David", "jokes")
    store.add_rule(AccessRule.build("jokes", "David", "friend-[1,2]"))
    return GraphService(figure1, store, **kwargs)


class TestExecuteDispatch:
    def test_reach_matches_the_engine(self, figure1):
        service = service_over(figure1)
        engine = ReachabilityEngine(figure1, "bfs")
        for source, target in (("Alice", "David"), ("David", "Alice"), ("Fred", "Bill")):
            result = service.execute(ReachQuery(source, target, "friend+[1,2]"))
            assert result.reachable == engine.is_reachable(source, target, "friend+[1,2]")
            assert result.plan.kind == "reach"
            assert result.plan.backend in service.backends
            assert result.elapsed_seconds >= 0.0

    def test_witnesses_travel_on_the_result(self, figure1):
        result = service_over(figure1).reach("Alice", "David", "friend+[1,2]")
        assert result.reachable and result.witness is not None
        assert result.witness.nodes()[0] == "Alice"
        assert result.counters  # work counters come along too

    def test_audience_matches_the_engine(self, figure1):
        service = service_over(figure1)
        engine = ReachabilityEngine(figure1, "bfs")
        result = service.execute(AudienceQuery(("Alice", "Bill"), "friend+[1,2]"))
        assert dict(result.audiences) == engine.find_targets_many(
            ["Alice", "Bill"], "friend+[1,2]"
        )
        assert result["Alice"] == result.audiences["Alice"]
        assert result.sweep_plan is not None and result.sweep_plan.owners == 2

    def test_access_matches_the_policy_engine(self, figure1):
        service = service_over(figure1)
        reference = AccessControlEngine(figure1, service.store, backend="bfs")
        for requester in sorted(figure1.users()):
            for resource in ("photos", "jokes"):
                got = service.execute(AccessQuery(requester, resource))
                assert got.granted == reference.is_allowed(requester, resource), (
                    requester, resource,
                )
        assert service.explain("Fred", "photos")  # explanations still render

    def test_bulk_access_matches_per_resource(self, figure1):
        service = service_over(figure1)
        result = service.execute(BulkAccessQuery(("photos", "jokes")))
        assert result["photos"] == service.authorized_audience("photos")
        assert result["jokes"] == service.authorized_audience("jokes")
        assert set(result.sweep_plans) <= {"friend+[1,2]/colleague+[1]", "friend-[1,2]"}

    def test_non_queries_are_rejected(self, figure1):
        with pytest.raises(TypeError):
            service_over(figure1).execute("friend+[1]")


class TestBackendPins:
    def test_per_query_pin_wins(self, figure1):
        service = service_over(figure1)
        result = service.reach("Alice", "David", "friend+[1,2]", backend="dfs")
        assert result.plan.backend == "dfs" and result.plan.backend_forced

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
            for backend in service.backends:
                result = service.reach("Alice", "George", expression, backend=backend)
                if reference is None:
                    reference = result.reachable
                assert result.reachable == reference, (backend, expression)

    def test_unknown_pin_raises(self, figure1):
        service = service_over(figure1)
        with pytest.raises(UnknownBackendError):
            service.reach("Alice", "Bill", "friend+[1]", backend="oracle")
        with pytest.raises(UnknownBackendError):
            service_over(figure1, default_backend="oracle")

    def test_a_sweep_direction_in_the_backend_slot_is_refused(self, figure1):
        # Audiences have one direction (forward from the owner); a caller
        # still passing "forward" / "reverse" positionally hits the pin check.
        service = service_over(figure1)
        for stale in ("forward", "reverse"):
            with pytest.raises(UnknownBackendError):
                service.execute(AudienceQuery("Alice", "friend+[1]", stale))
            with pytest.raises(UnknownBackendError):
                service.execute(BulkAccessQuery(["photos"], stale))

    def test_restricted_backend_set(self, figure1):
        service = GraphService(figure1, backends=("bfs", "dfs"))
        assert service.backends == ("bfs", "dfs")
        with pytest.raises(UnknownBackendError):
            service.reach("Alice", "Bill", "friend+[1]", backend="cluster-index")


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
        built_at = service._built_epoch["transitive-closure"]
        figure1.update_user("Alice", age=33)  # stales the closure
        result = service.reach("Alice", "Bill", "friend+[1]")  # auto -> online
        assert result.plan.backend == "bfs"
        # The stale closure was not rebuilt as a parsing side effect.
        assert service._built_epoch["transitive-closure"] == built_at

    def test_stability_counter_resets_on_mutation(self, figure1):
        service = service_over(figure1)
        for _ in range(5):
            service.is_reachable("Alice", "Bill", "friend+[1]")
        assert service.statistics()["stability"] == 5.0
        figure1.update_user("Alice", age=31)
        service.is_reachable("Alice", "Bill", "friend+[1]")
        assert service.statistics()["stability"] == 0.0


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


class TestDenialFeedbackFlip:
    """The service's observed-outcome feedback can flip auto-selection to
    the transitive closure on denial-heavy, mutation-free streams."""

    def _denial_material(self):
        from collections import deque

        from repro.graph.generators import preferential_attachment_graph

        graph = preferential_attachment_graph(150, edges_per_node=2, seed=5)
        users = sorted(graph.users(), key=str)
        source = users[0]
        ball = {source}
        queue = deque([source])
        while queue:
            user = queue.popleft()
            for neighbor in graph.successors(user):
                if neighbor not in ball:
                    ball.add(neighbor)
                    queue.append(neighbor)
        outside = [user for user in users if user not in ball]
        assert outside, "need forward-unreachable targets for a denial stream"
        return graph, source, outside

    def test_denial_stream_plus_stability_selects_the_closure(self):
        graph, source, outside = self._denial_material()
        service = GraphService(graph)
        expression = "friend+[1,3]/colleague+[1,2]"
        # Build up the observed unreachable rate (all denials)...
        for index in range(20):
            result = service.reach(
                source, outside[index % len(outside)], expression,
                collect_witness=False,
            )
            assert not result.reachable
            assert result.plan.backend == "bfs"  # cold: online stays cheapest
        # ...then fast-forward the mutation-free streak: the amortized build
        # charge melts and the planner flips to the closure's O(1) prune.
        service._stability = 10**9
        flipped = service.reach(
            source, outside[0], expression, collect_witness=False
        )
        assert flipped.plan.backend == "transitive-closure"
        assert not flipped.plan.backend_forced
        assert "unreachable rate" in flipped.plan.estimate_for(
            "transitive-closure"
        ).note
        # The flip built the index; answers stay identical to bfs.
        assert not flipped.reachable
        assert service.reach(
            source, outside[1], expression, collect_witness=False, backend="bfs"
        ).reachable == service.reach(
            source, outside[1], expression, collect_witness=False
        ).reachable

    def test_shifting_workload_decays_the_unreachable_rate(self):
        """The estimator is an EWMA, not a lifetime ratio: when a
        denial-heavy expression turns grant-heavy, the rate decays within
        ~3/alpha samples instead of being pinned near the historic average,
        and the planner stops discounting the closure for it."""
        graph, source, outside = self._denial_material()
        service = GraphService(graph)
        expression = "friend+[1,3]/colleague+[1,2]"
        text = as_path_expression(expression).to_text()
        for index in range(60):
            service.reach(
                source, outside[index % len(outside)], expression,
                collect_witness=False,
            )
        denial_rate = service._unreachable_rate(text)
        assert denial_rate > 0.5
        # The workload shifts to grants.  A lifetime [queries, denials]
        # ratio would still read ~0.33 after twice as many grants as
        # denials; the decayed estimate forgets the denial era.
        for _ in range(120):
            service._observe_outcome(text, reachable=True)
        decayed = service._unreachable_rate(text)
        assert decayed < 0.05
        # Even a fully melted build charge no longer flips the planner.
        service._stability = 10**9
        result = service.reach(
            source, outside[0], expression, collect_witness=False
        )
        assert result.plan.backend == "bfs"

    def test_feedback_needs_a_minimum_sample(self):
        graph, source, outside = self._denial_material()
        service = GraphService(graph)
        # Two denials are below the sample floor: the rate stays 0.0 and no
        # stability can talk the planner into an index build.
        for index in range(2):
            service.reach(
                source, outside[index], "friend+[1,3]/colleague+[1,2]",
                collect_witness=False,
            )
        service._stability = 10**9
        result = service.reach(
            source, outside[2], "friend+[1,3]/colleague+[1,2]",
            collect_witness=False,
        )
        assert result.plan.backend == "bfs"


class TestServiceBookkeeping:
    def test_statistics_aggregate_engines_and_planner(self, figure1):
        service = service_over(figure1)
        service.reach("Alice", "Bill", "friend+[1]")
        service.reach("Alice", "Bill", "friend+[1]")
        stats = service.statistics()
        assert stats["queries_executed"] == 2.0
        assert stats["planner_plans_computed"] >= 1.0
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
