"""The query planner's cost model, amortization flip and plan cache."""

from __future__ import annotations

import inspect

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.service.planner import QueryPlanner

BACKENDS = ("bfs", "dfs", "transitive-closure", "cluster-index")

#: Nothing fresh but the online walks — the cold-start state of a service.
COLD = {"bfs": True, "dfs": True, "transitive-closure": False, "cluster-index": False}
#: The transitive closure is built and current.
TC_FRESH = dict(COLD, **{"transitive-closure": True})

CHEAP = PathExpression.parse("friend+[1]")
HEAVY = PathExpression.parse("friend+[1,3]/colleague+[1,2]")
MIXED_DIRECTIONS = PathExpression.parse("friend-[1,3]/colleague*[1,2]")


@pytest.fixture(scope="module")
def snapshot():
    return compile_graph(preferential_attachment_graph(300, edges_per_node=3, seed=9))


def plan(planner, snapshot, expression, *, fresh, stability, pinned=None, rate=0.0):
    return planner.plan_reach(
        snapshot, expression,
        backends=BACKENDS, fresh=fresh, stability=stability, pinned=pinned,
        unreachable_rate=rate,
    )


class TestReachCostModel:
    def test_queries_run_online_without_denial_feedback(self, snapshot):
        for expression in (CHEAP, HEAVY):
            verdict = plan(
                QueryPlanner(), snapshot, expression, fresh=TC_FRESH, stability=10**9
            )
            assert verdict.backend == "bfs"
            assert not verdict.backend_forced
            # The full cost table travels on the plan for post-hoc grading.
            assert {e.backend for e in verdict.estimates} == set(BACKENDS)

    def test_cluster_index_is_never_cheapest_on_point_queries(self, snapshot):
        # Measured reality (PERF-1): the compiled product walk beats the
        # cluster index on point queries, so the honest model prices it out
        # of auto-selection; it stays fully available as a pin.
        fresh_cluster = dict(COLD, **{"cluster-index": True})
        for expression in (CHEAP, HEAVY, MIXED_DIRECTIONS):
            verdict = plan(
                QueryPlanner(), snapshot, expression,
                fresh=fresh_cluster, stability=10**9,
            )
            assert verdict.backend != "cluster-index"
            cluster = verdict.estimate_for("cluster-index")
            bfs = verdict.estimate_for("bfs")
            assert cluster.query_cost > bfs.query_cost

    def test_denial_feedback_prefers_a_fresh_closure(self, snapshot):
        verdict = plan(
            QueryPlanner(), snapshot, HEAVY, fresh=TC_FRESH, stability=0, rate=1.0
        )
        assert verdict.backend == "transitive-closure"
        closure = verdict.estimate_for("transitive-closure")
        bfs = verdict.estimate_for("bfs")
        assert closure.total < bfs.total
        assert closure.build_charge == 0.0  # fresh: no build to amortize
        assert "unreachable rate" in closure.note

    def test_mixed_direction_expressions_barely_discount_the_closure(self, snapshot):
        # The undirected closure prunes almost nothing, whatever the rate.
        verdict = plan(
            QueryPlanner(), snapshot, MIXED_DIRECTIONS,
            fresh=TC_FRESH, stability=10**9, rate=1.0,
        )
        assert verdict.backend == "bfs"

    def test_unbuilt_index_is_charged_its_build(self, snapshot):
        verdict = plan(QueryPlanner(), snapshot, HEAVY, fresh=COLD, stability=0, rate=1.0)
        assert verdict.backend == "bfs"  # build / 1 query dwarfs any saving
        closure = verdict.estimate_for("transitive-closure")
        assert closure.build_cost > 0 and closure.build_charge == closure.build_cost

    def test_stability_amortizes_the_build_until_the_closure_flips(self, snapshot):
        planner = QueryPlanner()
        early = plan(planner, snapshot, HEAVY, fresh=COLD, stability=1, rate=1.0)
        assert early.backend == "bfs"
        flipped = plan(planner, snapshot, HEAVY, fresh=COLD, stability=10**9, rate=1.0)
        assert flipped.backend == "transitive-closure"
        assert flipped.estimate_for("transitive-closure").build_charge < 1.0

    def test_without_feedback_no_stability_flips_anything(self, snapshot):
        # rate=0: the closure is pure overhead, cluster is a slower walk —
        # bfs stays cheapest at any stability.
        verdict = plan(QueryPlanner(), snapshot, HEAVY, fresh=COLD, stability=10**9)
        assert verdict.backend == "bfs"

    def test_pinned_backend_is_forced_and_not_second_guessed(self, snapshot):
        for name in ("transitive-closure", "cluster-index", "dfs"):
            verdict = plan(
                QueryPlanner(), snapshot, CHEAP, fresh=COLD, stability=0, pinned=name
            )
            assert verdict.backend == name
            assert verdict.backend_forced

    def test_expansion_limit_rules_the_cluster_index_out(self, snapshot):
        planner = QueryPlanner(backend_options={"cluster-index": {"expansion_limit": 2}})
        wide = PathExpression.parse("friend+[1,3]/friend+[1,3]")  # 9 expansions
        verdict = plan(planner, snapshot, wide, fresh=COLD, stability=0)
        cluster = verdict.estimate_for("cluster-index")
        assert not cluster.available and "expansion" in cluster.note


class TestPlanCache:
    def test_warm_plans_come_from_the_cache(self, snapshot):
        planner = QueryPlanner()
        first = plan(planner, snapshot, CHEAP, fresh=COLD, stability=5)
        second = plan(planner, snapshot, CHEAP, fresh=COLD, stability=6)
        assert second is first  # same object: one dict probe on the warm path
        assert planner.plans_computed == 1 and planner.plans_cached == 1

    def test_cache_replans_when_the_amortization_could_flip(self, snapshot):
        planner = QueryPlanner()
        early = plan(planner, snapshot, HEAVY, fresh=COLD, stability=1, rate=1.0)
        assert early.backend == "bfs"
        # Before the flip point: served from cache, still bfs.
        assert plan(planner, snapshot, HEAVY, fresh=COLD, stability=2, rate=1.0) is early
        late = plan(planner, snapshot, HEAVY, fresh=COLD, stability=10**9, rate=1.0)
        assert late is not early and late.backend == "transitive-closure"

    def test_freshness_change_is_a_different_cache_key(self, snapshot):
        planner = QueryPlanner()
        cold = plan(planner, snapshot, HEAVY, fresh=COLD, stability=0, rate=1.0)
        fresh = plan(planner, snapshot, HEAVY, fresh=TC_FRESH, stability=0, rate=1.0)
        assert cold.backend == "bfs" and fresh.backend == "transitive-closure"

    def test_rate_buckets_are_different_cache_keys(self, snapshot):
        planner = QueryPlanner()
        low = plan(planner, snapshot, HEAVY, fresh=TC_FRESH, stability=0, rate=0.0)
        high = plan(planner, snapshot, HEAVY, fresh=TC_FRESH, stability=0, rate=1.0)
        assert low.backend == "bfs" and high.backend == "transitive-closure"
        # A drifting rate maps onto a bounded number of buckets, not one
        # cache entry per query.
        assert plan(
            planner, snapshot, HEAVY, fresh=TC_FRESH, stability=1, rate=0.99
        ).backend == "transitive-closure"

    def test_audience_plans_cache_too(self, snapshot):
        planner = QueryPlanner()
        first = planner.plan_audience(
            snapshot, CHEAP, 4,
            backends=BACKENDS, fresh=COLD, stability=0,
        )
        second = planner.plan_audience(
            snapshot, CHEAP, 9,
            backends=BACKENDS, fresh=COLD, stability=1,
        )
        assert first.backend == "bfs" and second is first


class TestAudiencePlanning:
    def test_auto_keeps_audiences_online_and_carries_the_direction_pin(self, snapshot):
        verdict = QueryPlanner().plan_audience(
            snapshot, HEAVY, 32,
            backends=BACKENDS, fresh=TC_FRESH, stability=10**9,
            direction="reverse",
        )
        assert verdict.backend == "bfs"
        assert verdict.direction == "reverse"
        assert verdict.kind == "audience"

    def test_pin_routes_audiences_through_any_backend(self, snapshot):
        verdict = QueryPlanner().plan_audience(
            snapshot, CHEAP, 2,
            backends=BACKENDS, fresh=COLD, stability=0, pinned="cluster-index",
        )
        assert verdict.backend == "cluster-index" and verdict.backend_forced


class TestSignatures:
    @pytest.mark.parametrize(
        "name", ["plan_reach", "plan_access", "plan_audience", "plan_bulk_access"]
    )
    def test_no_plan_method_prices_shards(self, name):
        """``"sharded"`` is a pin the service resolves, not a planner route;
        the four names stay (``benchmarks/e2e/tracing.py`` wraps them)."""
        parameters = inspect.signature(getattr(QueryPlanner, name)).parameters
        assert {"backends", "fresh", "stability", "pinned"} <= set(parameters)
        assert not [name for name in parameters if name.startswith("shard")]
