"""End-to-end integration tests: graph + policy + reachability + audit together."""

from __future__ import annotations

import pytest

from repro import (
    AccessControlEngine,
    AuditLog,
    CarminatiEngine,
    CarminatiRule,
    PolicyStore,
)
from repro.graph.generators import layered_organization_graph, preferential_attachment_graph
from repro.reachability import available_backends
from repro.workloads.generator import WorkloadSpec, build_workload
from repro.workloads.scenarios import SCENARIOS


class TestPhotoSharingLifecycle:
    """A full lifecycle: build a network, share, protect, request, audit, revoke."""

    def test_lifecycle(self, figure1):
        audit = AuditLog()
        store = PolicyStore()
        engine = AccessControlEngine(figure1, store, audit_log=audit)

        # Alice shares an album, initially unprotected: only she can see it.
        store.share("Alice", "album", kind="photos", title="holidays")
        assert engine.is_allowed("Alice", "album")
        assert not engine.is_allowed("Bill", "album")

        # She opens it to friends and friends of friends.
        rule = store.allow("album", "friend+[1,2]", description="friends circle")
        assert engine.is_allowed("Bill", "album")
        assert engine.is_allowed("David", "album")
        assert not engine.is_allowed("Fred", "album")

        # She changes her mind and revokes the rule: back to private.
        store.remove_rule(rule.rule_id)
        assert not engine.is_allowed("Bill", "album")

        # Every request so far has been audited.
        assert len(audit) == 6
        assert audit.requests_per_resource() == {"album": 6}

    def test_graph_evolution_is_reflected_immediately(self, figure1):
        """Online backends see new relationships without any rebuild."""
        store = PolicyStore()
        store.share("Alice", "doc")
        store.allow("doc", "friend+[1]")
        engine = AccessControlEngine(figure1, store, backend="bfs")
        assert not engine.is_allowed("Elena", "doc")
        figure1.add_relationship("Alice", "Elena", "friend")
        assert engine.is_allowed("Elena", "doc")


class TestEnterpriseScenario:
    """The layered-organization example: managers, departments, cross-team friends."""

    @pytest.fixture
    def organization(self):
        return layered_organization_graph(departments=3, members_per_department=5, seed=13)

    def test_department_wide_sharing(self, organization):
        manager = "emp-d0-mgr"
        store = PolicyStore()
        store.share(manager, "roadmap", kind="document")
        store.allow("roadmap", "manages+[1]", description="my direct reports")
        engine = AccessControlEngine(organization, store)
        audience = engine.authorized_audience("roadmap")
        assert audience == {manager} | {f"emp-d0-m{i}" for i in range(5)}

    def test_colleagues_of_reports(self, organization):
        manager = "emp-d1-mgr"
        store = PolicyStore()
        store.share(manager, "retro-notes")
        store.allow("retro-notes", "manages+[1]/colleague+[1]")
        engine = AccessControlEngine(organization, store)
        audience = engine.authorized_audience("retro-notes")
        # Colleagues of department-1 members are the other members and the manager.
        assert {f"emp-d1-m{i}" for i in range(5)} <= audience
        assert manager in audience
        assert not any(user.startswith("emp-d0-m") for user in audience)


class TestScenarioCatalogueOnWorkloads:
    def test_all_scenarios_enforceable_on_synthetic_graph(self):
        graph = preferential_attachment_graph(80, edges_per_node=3, seed=17)
        owner = sorted(graph.users())[0]
        store = PolicyStore()
        engine = AccessControlEngine(graph, store)
        for index, scenario in enumerate(SCENARIOS.values()):
            resource = f"res-{index}"
            store.share(owner, resource)
            store.allow(resource, list(scenario.expressions))
            audience = engine.authorized_audience(resource)
            assert owner in audience  # owner always included


class TestWorkloadReplay:
    @pytest.mark.parametrize("backend", available_backends())
    def test_replaying_a_workload_gives_identical_audit_trails(self, backend):
        workload = build_workload(WorkloadSpec(users=60, owners=4, requests=50, seed=23))
        reference_log = self._replay(workload, "bfs")
        candidate_log = self._replay(workload, backend)
        assert [entry.effect for entry in reference_log] == [
            entry.effect for entry in candidate_log
        ]

    @staticmethod
    def _replay(workload, backend):
        store = PolicyStore()
        for resource_id, owner, expressions in workload.resources:
            store.share(owner, resource_id)
            store.allow(resource_id, list(expressions))
        log = AuditLog()
        engine = AccessControlEngine(workload.graph, store, backend=backend, audit_log=log)
        for requester, resource_id in workload.requests:
            engine.is_allowed(requester, resource_id)
        return log.entries()


class TestCarminatiComparison:
    def test_reachability_model_is_strictly_more_expressive(self, figure1):
        """PERF-5's qualitative claim: the Q1 audience cannot be expressed as a
        single-relationship depth rule without over- or under-sharing."""
        store = PolicyStore()
        store.share("Alice", "res")
        store.allow("res", "friend+[1,2]/colleague+[1]")
        ours = AccessControlEngine(figure1, store).authorized_audience("res")

        baseline = CarminatiEngine(figure1)
        candidates = []
        for relationship in figure1.labels():
            for depth in (1, 2, 3):
                engine = CarminatiEngine(figure1)
                engine.add_rule(CarminatiRule(f"{relationship}-{depth}", "Alice", relationship, max_depth=depth))
                candidates.append(engine.authorized_audience(f"{relationship}-{depth}"))
        assert ours not in candidates

    def test_simple_rules_agree_between_models(self, figure1):
        """Where the baseline *can* express the policy (direct friends), both agree."""
        store = PolicyStore()
        store.share("Alice", "res")
        store.allow("res", "friend+[1]")
        ours = AccessControlEngine(figure1, store).authorized_audience("res")

        baseline = CarminatiEngine(figure1)
        baseline.add_rule(CarminatiRule("res", "Alice", "friend", max_depth=1))
        assert baseline.authorized_audience("res") == ours

