"""Tenant registry: routing, isolation, aggregate statistics."""

import asyncio

import pytest

from repro.exceptions import UnknownTenantError
from repro.graph.social_graph import SocialGraph
from repro.serving.session import TenantRegistry


def _chain_graph(names):
    graph = SocialGraph()
    for name in names:
        graph.add_user(name)
    for left, right in zip(names, names[1:]):
        graph.add_relationship(left, right, "friend")
    return graph


def test_get_unknown_tenant_raises_typed_error():
    registry = TenantRegistry()
    registry.create("alpha", _chain_graph(["a", "b"]))
    with pytest.raises(UnknownTenantError) as excinfo:
        registry.get("beta")
    assert "alpha" in str(excinfo.value)
    assert "alpha" in registry and "beta" not in registry
    assert registry.tenants == ("alpha",)


def test_duplicate_tenant_rejected():
    registry = TenantRegistry()
    registry.create("alpha", _chain_graph(["a", "b"]))
    with pytest.raises(ValueError):
        registry.create("alpha", _chain_graph(["c", "d"]))


def test_create_needs_graph_or_service():
    with pytest.raises(ValueError):
        TenantRegistry().create("alpha")


def test_registry_sessions_get_a_guard_by_default():
    registry = TenantRegistry()
    session = registry.create("alpha", _chain_graph(["a", "b"]))
    assert session.service.query_guard is not None


def test_tenant_isolation_mutation_and_counters():
    """Mutating tenant A's graph must not change tenant B's answers, and
    per-tenant counters must not bleed."""
    registry = TenantRegistry()
    session_a = registry.create("a", _chain_graph(["u1", "u2", "u3"]))
    session_b = registry.create("b", _chain_graph(["u1", "u2", "u3"]))

    async def main():
        assert (await session_a.reach("u1", "u3", "friend+[1]")).reachable is False
        assert (await session_b.reach("u1", "u3", "friend+[1]")).reachable is False
        # Tenant A grows a direct edge; tenant B's graph is untouched.
        registry.get("a").service.graph.add_relationship("u1", "u3", "friend")
        after_a = await session_a.reach("u1", "u3", "friend+[1]")
        after_b = await session_b.reach("u1", "u3", "friend+[1]")
        assert after_a.reachable is True
        assert after_b.reachable is False
        stats_a = await session_a.statistics()
        stats_b = await session_b.statistics()
        # A answered one more query than B; counters are per tenant.
        assert stats_a["coalescer_requests_submitted"] == 2.0
        assert stats_b["coalescer_requests_submitted"] == 2.0
        assert stats_a["queries_executed"] != 0.0
        await registry.close()

    asyncio.run(main())


def test_a_busy_tenant_starts_one_batch_per_loop_iteration():
    """Tenants share the event loop.  A tenant with many queued batches
    hands its runner one per loop iteration, so another tenant's request
    that arrives meanwhile waits for a few of them, not for all of them."""
    registry = TenantRegistry()
    heavy = registry.create("heavy", _chain_graph([f"u{i}" for i in range(12)]))
    light = registry.create("light", _chain_graph(["u1", "u2"]))
    expressions = [f"friend+[1,{hops}]" for hops in range(1, 9)]  # 8 coalesce keys
    log = []  # (tenant, loop iteration) per batch, in the order they ran
    iteration = 0
    light_answer = []

    def spy(session, name):
        reach_many = session.service.reach_many

        def call(*args, **kwargs):
            log.append((name, iteration))
            if name == "heavy" and not light_answer:
                # The light tenant's request arrives while heavy's first batch runs.
                light_answer.append(asyncio.ensure_future(light.reach("u1", "u2", "friend+[1]")))
            return reach_many(*args, **kwargs)

        session.service.reach_many = call

    spy(heavy, "heavy")
    spy(light, "light")

    async def main():
        loop = asyncio.get_running_loop()

        def tick():
            nonlocal iteration
            iteration += 1
            if len(log) < 9:
                loop.call_soon(tick)

        loop.call_soon(tick)
        answers = await asyncio.gather(
            *(heavy.reach("u0", "u3", expression) for expression in expressions)
        )
        assert (await light_answer[0]).reachable is True
        await registry.close()
        return answers

    answers = asyncio.run(main())
    assert [answer.reachable for answer in answers] == [False, False] + [True] * 6
    names = [name for name, _iteration in log]
    heavy_iterations = [it for name, it in log if name == "heavy"]
    assert names.count("heavy") == 8 and names.count("light") == 1
    assert len(set(heavy_iterations)) == 8  # one heavy batch per iteration
    # The light batch ran while heavy batches were still queued: its task's
    # first step, the idle dispatch and its batch task take one iteration
    # each (a wire frame's read callback would stand where the task's
    # first step does).
    assert names.index("light") <= 4 and names[-1] == "heavy"


def test_serving_statistics_aggregates_and_totals():
    registry = TenantRegistry()
    session_a = registry.create("a", _chain_graph(["u1", "u2"]))
    registry.create("b", _chain_graph(["u1", "u2"]))

    async def main():
        await session_a.reach("u1", "u2", "friend+[1]")
        aggregate = await registry.serving_statistics()
        assert set(aggregate) == {"a", "b", "_totals"}
        assert aggregate["a"]["admission_admitted"] == 1.0
        assert aggregate["b"]["admission_admitted"] == 0.0
        assert aggregate["_totals"]["admission_admitted"] == 1.0
        await registry.close()

    asyncio.run(main())


def test_remove_tenant_closes_its_session():
    registry = TenantRegistry()

    async def main():
        session = registry.create("a", _chain_graph(["u1", "u2"]))
        await registry.remove("a")
        assert "a" not in registry
        with pytest.raises(RuntimeError):
            await session.reach("u1", "u2", "friend+[1]")

    asyncio.run(main())

