"""The query planner routes by pin; the service's route table reuses its plans."""

from __future__ import annotations

import asyncio
import inspect
from unittest import mock

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.policy.store import PolicyStore
from repro.service import GraphService
from repro.service.planner import QueryPlanner
from repro.serving import TenantSession

PINS = ("bfs", "transitive-closure", "cluster-index", "sharded")
PLAN_METHODS = ("plan_reach", "plan_access", "plan_audience", "plan_bulk_access")

CHEAP = PathExpression.parse("friend+[1]")
HEAVY = PathExpression.parse("friend+[1,3]/colleague+[1,2]")


@pytest.fixture(scope="module")
def snapshot():
    return compile_graph(preferential_attachment_graph(300, edges_per_node=3, seed=9))


def small_service(**kwargs):
    """A 60-user service with two resources, each guarded by two rules."""
    graph = preferential_attachment_graph(60, edges_per_node=2, seed=3)
    users = sorted(graph.users())
    store = PolicyStore()
    for index, resource in enumerate(("r0", "r1")):
        store.share(users[index], resource)
        store.allow(resource, [CHEAP.to_text(), HEAVY.to_text()])
    return GraphService(graph, store, **kwargs), users


class TestRouting:
    def test_unpinned_point_queries_run_on_bfs(self, snapshot):
        for verdict in (
            QueryPlanner().plan_reach(snapshot.epoch),
            QueryPlanner().plan_access(snapshot.epoch),
        ):
            assert verdict.backend == "bfs"
            assert not verdict.backend_forced
            assert verdict.epoch == snapshot.epoch and verdict.route == "single"

    def test_an_expression_free_check_runs_on_bfs(self):
        service, users = small_service()
        service.store.share(users[5], "bare")
        result = service.check(users[9], "bare")
        assert result.plan.backend == "bfs" and not result.plan.backend_forced
        assert result.plan == service.check(users[9], "r0").plan

    def test_bulk_audiences_run_on_bfs(self, snapshot):
        bulk = QueryPlanner().plan_bulk_access(snapshot.epoch)
        assert bulk.backend == "bfs" and bulk.kind == "bulk-access"

    def test_pinned_backend_is_forced(self, snapshot):
        for name in PINS:
            for method in PLAN_METHODS:
                verdict = getattr(QueryPlanner(), method)(snapshot.epoch, pinned=name)
                assert verdict.backend == name
                assert verdict.backend_forced
                assert verdict.reason == f"backend pinned to {name!r} by the caller"
                assert verdict.route == ("sharded" if name == "sharded" else "single")

    def test_the_planner_keeps_no_state(self, snapshot):
        planner = QueryPlanner()
        first = planner.plan_reach(snapshot.epoch)
        assert planner.plan_reach(snapshot.epoch) == first
        assert vars(planner) == {}


class TestRoutePlans:
    def test_warm_plans_come_from_the_route(self):
        service, users = small_service()
        first = service.reach(users[0], users[7], CHEAP).plan
        second = service.reach(users[0], users[7], CHEAP).plan
        assert second is first  # one dict probe on the warm path
        stats = service.statistics()
        assert stats["planner_plan_cache_misses"] == 1.0
        assert stats["planner_plan_cache_hits"] == 1.0

    def test_warm_reaches_share_one_plan_across_expressions(self):
        """The plan does not depend on the expression: one per kind and epoch."""
        service, users = small_service()
        first = service.reach(users[0], users[7], CHEAP, collect_witness=False).plan
        second = service.reach(users[3], users[2], HEAVY, collect_witness=False).plan
        assert second is first

    def test_audience_plans_are_reused_too(self):
        service, users = small_service()
        first = service.audience(users[:4], CHEAP).plan
        second = service.audience(users[:9], HEAVY).plan
        assert first.backend == "bfs" and second is first

    def test_a_new_epoch_replans(self):
        service, users = small_service()
        first = service.reach(users[0], users[7], CHEAP).plan
        service.graph.add_user("late")
        second = service.reach(users[0], users[7], CHEAP).plan
        assert second is not first and second.epoch == service.graph.epoch
        assert service.statistics()["planner_plan_cache_misses"] == 2.0

    def test_a_pin_and_auto_share_the_bfs_route_with_their_own_plans(self):
        service, users = small_service()
        auto = service.reach(users[0], users[7], CHEAP).plan
        pinned = service.reach(users[0], users[7], CHEAP, backend="bfs").plan
        assert not auto.backend_forced and pinned.backend_forced
        assert set(service.cache_info()) == {"bfs"}
        assert service.reach(users[1], users[8], HEAVY, backend="bfs").plan is pinned

    def test_sharded_plans_are_made_once_per_epoch(self):
        service, users = small_service(shards=2)
        first = service.reach(users[0], users[7], CHEAP, backend="sharded").plan
        second = service.reach(users[4], users[1], HEAVY, backend="sharded").plan
        assert first.route == "sharded" and second is first


class TestRulesLookups:
    """A verb reads a resource's policy record once: the planner sees no rules."""

    @staticmethod
    def _reads():
        return mock.patch.object(
            PolicyStore, "policy", autospec=True, side_effect=PolicyStore.policy
        )

    def test_a_warm_check_reads_the_record_once(self):
        service, users = small_service()
        service.check(users[9], "r0", explain=False)
        with self._reads() as policy:
            service.check(users[9], "r0", explain=False)
        assert policy.call_count == 1

    def test_bulk_access_reads_the_record_once_per_resource(self):
        service, _users = small_service()
        with self._reads() as policy:
            service.bulk_access(["r0", "r1"])
        assert sorted(call.args[1] for call in policy.call_args_list) == ["r0", "r1"]

    def test_a_coalesced_batch_reads_the_record_once_per_member(self):
        service, users = small_service()
        members = [(users[9 + i], ("r0", "r1")[i % 2]) for i in range(6)]

        async def serve():
            session = TenantSession("t", service, max_batch=64)
            try:
                return await asyncio.gather(
                    *(session.check(requester, resource) for requester, resource in members)
                )
            finally:
                await session.close()

        with self._reads() as policy:
            answers = asyncio.run(serve())
        assert {answer.batch_size for answer in answers} == {len(members)}
        # One read per member, then bulk_access's one per distinct resource.
        assert sorted(call.args[1] for call in policy.call_args_list) == sorted(
            [resource for _requester, resource in members] + ["r0", "r1"]
        )


class TestAudiencePlanning:
    def test_auto_keeps_audiences_online(self, snapshot):
        verdict = QueryPlanner().plan_audience(snapshot.epoch)
        assert verdict.backend == "bfs"
        assert verdict.kind == "audience"

    def test_pin_routes_audiences_through_any_backend(self, snapshot):
        verdict = QueryPlanner().plan_audience(snapshot.epoch, pinned="cluster-index")
        assert verdict.backend == "cluster-index" and verdict.backend_forced


class TestSignatures:
    @pytest.mark.parametrize("name", PLAN_METHODS)
    def test_no_plan_method_prices_shards(self, name):
        """A plan is built from the epoch and the pin alone; the four names
        stay (``benchmarks/e2e/tracing.py`` wraps them)."""
        parameters = inspect.signature(getattr(QueryPlanner, name)).parameters
        assert [
            (key, parameter.kind) for key, parameter in parameters.items()
        ] == [
            ("self", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("epoch", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("pinned", inspect.Parameter.KEYWORD_ONLY),
        ]


class TestServiceAutoSelection:
    def test_auto_never_builds_a_pin_only_index(self):
        service, users = small_service()
        reach = service.reach(users[0], users[-1], "friend+[1,2]")
        assert reach.plan.backend == "bfs" and not reach.plan.backend_forced
        audience = service.audience(users[:3], "friend+[1,2]")
        assert audience.plan.backend == "bfs"
        assert set(service.cache_info()) == {"bfs"}  # no index built behind auto

    def test_a_denial_stream_never_selects_a_pin_only_backend(self):
        service, users = small_service()
        for source in users[-20:]:
            for target in users[:10]:
                result = service.reach(source, target, HEAVY, collect_witness=False)
                assert result.plan.backend == "bfs"
                assert not result.plan.backend_forced
        assert compile_graph(service.graph).derived.get("denial-work", 0) > 0
        assert set(service.cache_info()) == {"bfs"}
