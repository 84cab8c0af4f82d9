"""The query planner routes by pin, and caches its plans per epoch."""

from __future__ import annotations

import inspect

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.service import GraphService
from repro.service.planner import QueryPlanner

PINS = ("bfs", "transitive-closure", "cluster-index", "sharded")

CHEAP = PathExpression.parse("friend+[1]")
HEAVY = PathExpression.parse("friend+[1,3]/colleague+[1,2]")
MIXED_DIRECTIONS = PathExpression.parse("friend-[1,3]/colleague*[1,2]")


@pytest.fixture(scope="module")
def snapshot():
    return compile_graph(preferential_attachment_graph(300, edges_per_node=3, seed=9))


class TestRouting:
    def test_unpinned_point_queries_run_on_bfs(self, snapshot):
        for expression in (CHEAP, HEAVY, MIXED_DIRECTIONS):
            verdict = QueryPlanner().plan_reach(snapshot, expression)
            assert verdict.backend == "bfs"
            assert not verdict.backend_forced
            assert verdict.kind == "reach" and verdict.epoch == snapshot.epoch

    def test_an_expression_free_check_runs_on_bfs(self, snapshot):
        verdict = QueryPlanner().plan_access(snapshot, [])
        assert verdict.backend == "bfs" and not verdict.backend_forced
        assert verdict.reason == "no path expressions to evaluate"

    def test_bulk_audiences_run_on_bfs(self, snapshot):
        bulk = QueryPlanner().plan_bulk_access(snapshot, 3)
        assert bulk.backend == "bfs" and bulk.kind == "bulk-access"

    def test_pinned_backend_is_forced(self, snapshot):
        for name in PINS:
            for verdict in (
                QueryPlanner().plan_reach(snapshot, CHEAP, pinned=name),
                QueryPlanner().plan_access(snapshot, [CHEAP, HEAVY], pinned=name),
                QueryPlanner().plan_bulk_access(snapshot, 2, pinned=name),
            ):
                assert verdict.backend == name
                assert verdict.backend_forced
                assert verdict.reason == f"backend pinned to {name!r} by the caller"


class TestPlanCache:
    def test_warm_plans_come_from_the_cache(self, snapshot):
        planner = QueryPlanner()
        first = planner.plan_reach(snapshot, CHEAP)
        second = planner.plan_reach(snapshot, CHEAP)
        assert second is first  # same object: one dict probe on the warm path
        assert planner.plans_computed == 1 and planner.plans_cached == 1

    def test_audience_plans_cache_too(self, snapshot):
        planner = QueryPlanner()
        first = planner.plan_audience(snapshot, CHEAP, 4)
        second = planner.plan_audience(snapshot, CHEAP, 9)
        assert first.backend == "bfs" and second is first

    def test_a_new_epoch_replans(self):
        graph = preferential_attachment_graph(40, edges_per_node=2, seed=4)
        planner = QueryPlanner()
        first = planner.plan_reach(compile_graph(graph), CHEAP)
        graph.add_user("late")
        second = planner.plan_reach(compile_graph(graph), CHEAP)
        assert second is not first and second.epoch == graph.epoch
        assert planner.plans_computed == 2

    def test_warm_entries_need_a_bound_engine(self, snapshot):
        planner = QueryPlanner()
        plan = planner.plan_reach(snapshot, CHEAP)
        key = ("reach", (CHEAP.to_text(),), None)
        assert planner.warm(key, snapshot.epoch) is None  # planned, not bound
        planner.bind(key, plan, "engine")
        entry = planner.warm(key, snapshot.epoch)
        assert entry.plan is plan and entry.engine == "engine"
        assert planner.warm(key, snapshot.epoch + 1) is None

    def test_a_zero_size_cache_caches_nothing(self, snapshot):
        planner = QueryPlanner(cache_size=0)
        assert planner.plan_reach(snapshot, CHEAP) is not planner.plan_reach(
            snapshot, CHEAP
        )
        assert planner.plans_cached == 0


class TestAudiencePlanning:
    def test_auto_keeps_audiences_online(self, snapshot):
        verdict = QueryPlanner().plan_audience(snapshot, HEAVY, 32)
        assert verdict.backend == "bfs"
        assert verdict.kind == "audience"

    def test_pin_routes_audiences_through_any_backend(self, snapshot):
        verdict = QueryPlanner().plan_audience(snapshot, CHEAP, 2, pinned="cluster-index")
        assert verdict.backend == "cluster-index" and verdict.backend_forced


class TestSignatures:
    @pytest.mark.parametrize(
        "name", ["plan_reach", "plan_access", "plan_audience", "plan_bulk_access"]
    )
    def test_no_plan_method_prices_shards(self, name):
        """``"sharded"`` is a pin the service resolves, not a planner route;
        the four names stay (``benchmarks/e2e/tracing.py`` wraps them), and
        nothing but the pin steers them."""
        parameters = inspect.signature(getattr(QueryPlanner, name)).parameters
        keywords = [
            key for key, parameter in parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert keywords == ["pinned"]


class TestServiceAutoSelection:
    def test_auto_never_builds_a_pin_only_index(self):
        graph = preferential_attachment_graph(60, edges_per_node=2, seed=3)
        service = GraphService(graph)
        users = sorted(graph.users())
        reach = service.reach(users[0], users[-1], "friend+[1,2]")
        assert reach.plan.backend == "bfs" and not reach.plan.backend_forced
        audience = service.audience(users[:3], "friend+[1,2]")
        assert audience.plan.backend == "bfs"
        assert set(service._engines) == {"bfs"}  # no index built behind auto

    def test_a_denial_stream_never_selects_a_pin_only_backend(self):
        graph = preferential_attachment_graph(60, edges_per_node=2, seed=3)
        service = GraphService(graph)
        users = sorted(graph.users())
        for source in users[-20:]:
            for target in users[:10]:
                result = service.reach(source, target, HEAVY, collect_witness=False)
                assert result.plan.backend == "bfs"
                assert not result.plan.backend_forced
        assert compile_graph(graph).derived.get("denial-work", 0) > 0
        assert set(service._engines) == {"bfs"}
