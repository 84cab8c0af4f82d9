"""Admission control: bounded pending queue, rejections, deadlines."""

import asyncio
import time

import pytest

from repro.exceptions import AdmissionRejected, QueryBudgetExceeded
from repro.reliability.guard import QueryGuard
from repro.service.facade import GraphService
from repro.serving.admission import AdmissionController
from repro.serving.session import TenantSession
from repro.workloads import WorkloadSpec, build_workload, install_policies


def _service(users=100, seed=9, **kwargs):
    workload = build_workload(WorkloadSpec(users=users, seed=seed))
    service = GraphService(workload.graph, **kwargs)
    install_policies(service, workload)
    return service, workload


# ----------------------------------------------------------------- controller


def test_admit_release_counters():
    controller = AdmissionController("t", max_pending=2)
    controller.admit()
    controller.admit()
    assert controller.pending == 2 and controller.peak_pending == 2
    controller.release()
    controller.admit()
    assert controller.admitted == 3
    stats = controller.statistics()
    assert stats["pending"] == 2.0 and stats["peak_pending"] == 2.0


def test_admit_rejects_at_capacity_with_typed_error():
    controller = AdmissionController("tenant-x", max_pending=1)
    controller.admit()
    with pytest.raises(AdmissionRejected) as excinfo:
        controller.admit()
    error = excinfo.value
    assert error.tenant == "tenant-x"
    assert error.pending == 1 and error.limit == 1
    assert controller.rejected == 1
    controller.release()
    controller.admit()  # capacity freed -> admitted again


def test_release_without_admit_is_an_error():
    controller = AdmissionController("t")
    with pytest.raises(RuntimeError):
        controller.release()


def test_deadline_for_prefers_explicit_timeout():
    controller = AdmissionController("t", default_timeout=10.0)
    assert controller.deadline_for(None) == pytest.approx(
        time.monotonic() + 10.0, abs=0.5
    )
    assert controller.deadline_for(0.25) == pytest.approx(
        time.monotonic() + 0.25, abs=0.5
    )
    assert AdmissionController("t").deadline_for(None) is None


def test_invalid_max_pending():
    with pytest.raises(ValueError):
        AdmissionController("t", max_pending=0)


# -------------------------------------------------------------- via sessions


def test_session_sheds_load_when_queue_is_full():
    """With max_pending=4, a burst of 12 gets exactly 8 typed rejections
    while requests sitting in the gather window count as pending."""
    service, workload = _service()
    users = sorted(workload.graph.users())

    async def main():
        session = TenantSession(
            "t", service, window=0.5, max_batch=64, max_pending=4
        )
        try:
            outcomes = await asyncio.gather(
                *(
                    session.reach(users[i], users[i + 1], "friend+[1]")
                    for i in range(12)
                ),
                return_exceptions=True,
            )
        finally:
            await session.close()
        return outcomes

    outcomes = asyncio.run(main())
    rejected = [o for o in outcomes if isinstance(o, AdmissionRejected)]
    served = [o for o in outcomes if not isinstance(o, BaseException)]
    assert len(rejected) == 8 and len(served) == 4
    assert service.statistics()["admission_rejected"] == 8.0
    assert service.statistics()["admission_peak_pending"] == 4.0


def test_expired_deadline_surfaces_typed_budget_error():
    """A deadline already in the past trips the guard: the point shape
    answers with QueryBudgetExceeded, exactly as a sequential guarded call."""
    service, workload = _service(query_guard=QueryGuard(check_interval=1))
    users = sorted(workload.graph.users())

    async def main():
        session = TenantSession("t", service, window=0.05)
        try:
            return await asyncio.gather(
                session.reach(
                    users[0], users[5], "friend+[1,2]", timeout=-1.0
                ),
                return_exceptions=True,
            )
        finally:
            await session.close()

    (outcome,) = asyncio.run(main())
    assert isinstance(outcome, QueryBudgetExceeded)


def test_generous_deadline_does_not_interfere():
    service, workload = _service(query_guard=QueryGuard(check_interval=1))
    users = sorted(workload.graph.users())

    async def main():
        session = TenantSession("t", service, window=0.02, default_timeout=30.0)
        try:
            return await session.reach(users[0], users[5], "friend+[1,2]")
        finally:
            await session.close()

    served = asyncio.run(main())
    assert isinstance(served.reachable, bool)


def test_closed_session_refuses_new_requests():
    service, workload = _service()
    users = sorted(workload.graph.users())

    async def main():
        session = TenantSession("t", service)
        await session.close()
        with pytest.raises(RuntimeError):
            await session.reach(users[0], users[1], "friend+[1]")

    asyncio.run(main())


def test_a_cancelled_awaiter_holds_its_slot_until_its_batch_has_run():
    """release() runs at fan-out, just before the request's answer is
    delivered — for a cancelled awaiter, to nobody."""
    service, workload = _service()
    users = sorted(workload.graph.users())

    async def main():
        session = TenantSession("t", service, window=0.5)
        pending = asyncio.ensure_future(session.reach(users[0], users[1], "friend+[1]"))
        await asyncio.sleep(0)  # admitted and queued
        pending.cancel()
        held = session.admission.pending
        await session.close()  # runs the batch
        return held, session.admission.pending, pending.cancelled()

    assert asyncio.run(main()) == (1, 0, True)


def test_an_unhashable_direction_is_refused_without_leaking_its_slot():
    service, workload = _service()
    owner = sorted(workload.graph.users())[0]

    async def main():
        session = TenantSession("t", service, window=0.5)
        try:
            with pytest.raises(TypeError):
                await session.audience(owner, "friend+[1]", direction=["forward"])
            return session.admission.pending
        finally:
            await session.close()

    assert asyncio.run(main()) == 0
