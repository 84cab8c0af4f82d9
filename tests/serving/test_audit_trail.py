"""The audit trail of served checks: one record per check, coalesced or not."""

import asyncio

from repro.graph.social_graph import SocialGraph
from repro.policy.audit import AuditLog
from repro.policy.decisions import Effect
from repro.policy.store import PolicyStore
from repro.service.facade import GraphService
from repro.serving.session import TenantSession


def _service():
    graph = SocialGraph()
    for name in "abcde":
        graph.add_user(name)
    for left, right in zip("abcd", "bcde"):
        graph.add_relationship(left, right, "friend")
    store = PolicyStore()
    store.share("a", "photo")
    store.allow("photo", "friend+[1,2]")
    store.share("a", "open")  # no rules: the default effect decides
    return GraphService(graph, store, audit_log=AuditLog())


REQUESTS = [
    ("b", "photo"),  # coalesced grant
    ("d", "photo"),  # coalesced deny
    ("c", "photo"),  # coalesced grant
    ("e", "photo"),  # coalesced deny
    ("a", "photo"),  # the owner: solo
    ("b", "open"),  # no rule: solo
]


def _serve(service):
    async def main():
        session = TenantSession("t", service)
        answers = await asyncio.gather(
            *(session.check(requester, resource) for requester, resource in REQUESTS)
        )
        await session.close()
        return answers

    return asyncio.run(main())


def test_every_served_check_leaves_one_audit_record_with_its_answer():
    service = _service()
    answers = _serve(service)
    records = service.audit_log.entries()
    assert len(records) == len(REQUESTS)
    by_request = {(record.requester, record.resource_id): record for record in records}
    assert set(by_request) == set(REQUESTS)
    for (requester, resource), answer in zip(REQUESTS, answers):
        record = by_request[(requester, resource)]
        assert record.effect is (Effect.GRANT if answer.granted else Effect.DENY)
        assert record.reason == answer.decision.reason
        assert record.owner == "a"
    granted = [answer.granted for answer in answers]
    assert granted == [True, False, True, False, True, False]
    sizes = [answer.batch_size for answer in answers]
    assert sizes == [6, 6, 6, 6, 1, 1]  # the solo members joined the batch too
    for answer, request in zip(answers[:4], REQUESTS):
        # A coalesced answer's decision is the record the log holds.
        assert answer.decision is by_request[request]
        assert answer.decision.reason.endswith("(served via audience sweep)")
