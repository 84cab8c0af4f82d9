#!/usr/bin/env python3
"""Quickstart: protect a resource with a reachability-based access rule.

Builds a tiny social network, shares a photo album, writes one access rule in
the paper's path-expression language, and checks a few access requests — all
through the :class:`repro.GraphService` facade, the one session object that
owns the graph, the policy store, the query planner and every backend.
Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import AuditLog, GraphBuilder, GraphService, PolicyStore


def main() -> None:
    # 1. A small social graph: users carry attributes, relationships carry types.
    builder = GraphBuilder(name="quickstart", symmetric_labels={"friend"})
    builder.user("alice", age=24, gender="female", city="paris")
    builder.user("bob", age=31, city="paris")
    builder.user("carol", age=27, city="berlin")
    builder.user("dan", age=16, city="paris")
    builder.user("erin", age=45, city="rome")
    builder.relate("alice", "bob", "friend", trust=0.9)
    builder.relate("bob", "carol", "friend", trust=0.7)
    builder.relate("alice", "erin", "colleague")
    builder.relate("carol", "dan", "parent")
    graph = builder.build()
    print(f"built {graph}")

    # 2. Alice shares an album and states who may see it: her friends and the
    #    friends of her friends, as long as they are adults.
    store = PolicyStore()
    store.share("alice", "holiday-album", kind="photos", title="Holidays 2026")
    rule = store.allow(
        "holiday-album",
        "friend*[1,2]{age >= 18}",
        description="adult friends up to two hops away",
    )
    print()
    print(rule.describe())

    # 3. One service fronts everything: it plans each query (picking a
    #    reachability backend), executes it, and returns a result that
    #    carries its own ExecutionPlan.
    audit = AuditLog()
    service = GraphService(graph, store, audit_log=audit)

    print()
    for requester in ("bob", "carol", "dan", "erin"):
        result = service.check(requester, "holiday-album")
        verdict = "GRANTED" if result.granted else "DENIED"
        print(f"  {requester:>6}: {verdict}  (backend: {result.plan.backend})")

    # 4. Decisions come with explanations (which rule matched, via which path).
    print()
    print(service.explain("carol", "holiday-album"))

    # 5. The whole authorized audience can be materialized at once.
    print()
    print("authorized audience:", sorted(service.authorized_audience("holiday-album")))

    # 6. Audiences for MANY resources are answered in one bulk pass: the
    #    service groups access conditions by path expression and runs one
    #    multi-source sweep per distinct expression.  The result carries the
    #    executed sweep plans — no side-channel to read afterwards.
    store.share("bob", "board-games", kind="wishlist")
    store.allow("board-games", "friend*[1,2]", description="friends of friends")
    store.share("carol", "travel-notes", kind="notes")
    store.allow("travel-notes", "friend*[1,2]", description="friends of friends")
    print()
    bulk = service.bulk_access(["holiday-album", "board-games", "travel-notes"])
    for resource_id, audience in sorted(bulk.audiences.items()):
        print(f"  {resource_id:>13}: {sorted(audience)}")
    # The shared "friend*[1,2]" condition of bob and carol was materialized
    # by ONE sweep; its plan travels on the result.
    for text, plan in bulk.sweep_plans.items():
        print(f"  sweep for {text!r}: {plan.owners} owners")

    # 7. The same batching exists for raw reachability: one AudienceQuery
    #    materializes several owners' reachable sets in one shared product
    #    walk (here: everyone's adult friend-of-friend ball).
    result = service.audience(["alice", "bob", "carol"], "friend*[1,2]{age >= 18}")
    print()
    for owner, targets in sorted(result.audiences.items()):
        print(f"  {owner} reaches {sorted(targets)}")
    print(f"  (planned: {result.plan.reason})")

    print()
    print(f"audit log: {len(audit)} decisions, grant rate {audit.grant_rate():.2f}")


if __name__ == "__main__":
    main()
