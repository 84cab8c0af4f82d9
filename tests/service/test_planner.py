"""The query planner's cost model, amortization flip and plan cache."""

from __future__ import annotations

import inspect

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.service import GraphService
from repro.service.planner import PRICED_BACKENDS, QueryPlanner

BACKENDS = ("bfs", "transitive-closure", "cluster-index")
PINS_ONLY = ("cluster-index", "sharded")

#: Nothing fresh but the online walks — the cold-start state of a service.
COLD = {"bfs": True, "transitive-closure": False, "cluster-index": False}
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
            # The priced rows travel on the plan for post-hoc grading.
            assert tuple(e.backend for e in verdict.estimates) == PRICED_BACKENDS

    def test_the_table_holds_only_the_configured_priced_rows(self, snapshot):
        for backends, rows in (
            (BACKENDS, PRICED_BACKENDS),
            (("cluster-index", "sharded", "bfs"), ("bfs",)),
            (("transitive-closure", "bfs"), PRICED_BACKENDS),
        ):
            verdict = QueryPlanner().plan_reach(
                snapshot, HEAVY, backends=backends, fresh=COLD, stability=10**9,
                unreachable_rate=1.0,
            )
            assert tuple(e.backend for e in verdict.estimates) == rows
            assert verdict.backend in rows

    def test_pin_only_backends_are_never_auto_selected(self, snapshot):
        # Not even fresh, at unbounded stability, on a denial-heavy stream.
        fresh_everything = dict.fromkeys(BACKENDS, True)
        for expression in (CHEAP, HEAVY, MIXED_DIRECTIONS):
            for rate in (0.0, 1.0):
                verdict = plan(
                    QueryPlanner(), snapshot, expression,
                    fresh=fresh_everything, stability=10**9, rate=rate,
                )
                assert verdict.backend in PRICED_BACKENDS

    def test_without_bfs_nothing_is_priced(self, snapshot):
        # The closure is priced against the walk; with no walk configured
        # auto runs the first backend, the sweep plans' rule.
        for backends in (PINS_ONLY, ("transitive-closure", "cluster-index")):
            verdict = QueryPlanner().plan_reach(
                snapshot, HEAVY, backends=backends, fresh=COLD, stability=10**9,
                unreachable_rate=1.0,
            )
            assert verdict.backend == backends[0] and not verdict.backend_forced
            assert verdict.estimates == ()
            audience = QueryPlanner().plan_audience(
                snapshot, HEAVY, 4, backends=backends, fresh=COLD, stability=0
            )
            assert audience.backend == verdict.backend

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
        # rate=0: the closure is pure overhead — bfs stays cheapest at any
        # stability.
        verdict = plan(QueryPlanner(), snapshot, HEAVY, fresh=COLD, stability=10**9)
        assert verdict.backend == "bfs"

    def test_pinned_backend_is_forced_and_not_second_guessed(self, snapshot):
        for name in ("transitive-closure", *PINS_ONLY):
            verdict = plan(
                QueryPlanner(), snapshot, CHEAP, fresh=COLD, stability=0, pinned=name
            )
            assert verdict.backend == name
            assert verdict.backend_forced
            # A pin's own row is never priced: availability (expansion limit,
            # orientation) is the evaluator's to report at execution time.
            assert tuple(e.backend for e in verdict.estimates) == PRICED_BACKENDS


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
    def test_auto_keeps_audiences_online(self, snapshot):
        verdict = QueryPlanner().plan_audience(
            snapshot, HEAVY, 32,
            backends=BACKENDS, fresh=TC_FRESH, stability=10**9,
        )
        assert verdict.backend == "bfs"
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


class TestServiceAutoSelection:
    def test_a_service_without_bfs_auto_runs_its_first_backend(self):
        graph = preferential_attachment_graph(60, edges_per_node=2, seed=3)
        service = GraphService(graph, backends=("transitive-closure", "cluster-index"))
        users = sorted(graph.users())
        reach = service.reach(users[0], users[-1], "friend+[1,2]")
        assert reach.plan.backend == "transitive-closure" and not reach.plan.backend_forced
        assert reach.plan.estimates == ()
        audience = service.audience(users[:3], "friend+[1,2]")
        assert audience.plan.backend == "transitive-closure"
        assert "cluster-index" not in service._engines  # never built behind auto
