"""Installing a generated workload's policies in a service."""

from __future__ import annotations

import pytest

from repro.service import GraphService
from repro.workloads.driver import install_policies
from repro.workloads.generator import WorkloadSpec, build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        WorkloadSpec(
            users=80, owners=4, rules_per_owner=1, requests=30, seed=17,
            audience_batches=2, audience_batch_size=3,
        )
    )


def test_install_policies_is_idempotent(workload):
    service = GraphService(workload.graph)
    install_policies(service, workload)
    before = (service.store.resource_count(), service.store.rule_count())
    install_policies(service, workload)
    assert (service.store.resource_count(), service.store.rule_count()) == before
    assert before[0] == len(workload.resources)
