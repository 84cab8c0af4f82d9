#!/usr/bin/env python3
"""Photo-sharing scenario on a synthetic online social network.

The introduction of the paper motivates the model with sharing situations
such as "only my family and my friends can view my birthday photos" or "only
my children and their friends can read my notes".  This example generates a
realistic scale-free network, lets a few users publish albums under those
policies (taken from the scenario catalogue), and contrasts the resulting
audiences with the coarse friend-list model the introduction criticizes.

Run with::

    python examples/photo_sharing.py
"""

from __future__ import annotations

from repro import AuditLog, GraphService, PolicyStore
from repro.graph.generators import preferential_attachment_graph
from repro.graph.statistics import summarize
from repro.workloads.scenarios import scenario


def main() -> None:
    graph = preferential_attachment_graph(400, edges_per_node=3, seed=2026)
    summary = summarize(graph)
    print(f"synthetic network: {summary.users} users, {summary.relationships} relationships, "
          f"labels {summary.labels}, effective diameter ≈ {summary.effective_diameter}")

    # Pick three owners with very different connectivity.
    by_degree = sorted(graph.users(), key=graph.out_degree)
    owners = {
        "low-degree owner": by_degree[len(by_degree) // 10],
        "median owner": by_degree[len(by_degree) // 2],
        "hub owner": by_degree[-1],
    }

    policies = {
        "birthday photos": scenario("family-and-friends"),
        "simpsons notes": scenario("children-of-friends-of-friends"),
        "work documents": scenario("q1-colleagues-of-friends"),
    }

    audit = AuditLog()
    store = PolicyStore()
    # The service facade: unpinned rules are evaluated on the bfs walk (pin
    # another backend with default_backend="cluster-index" if needed).
    service = GraphService(graph, store, audit_log=audit)

    print()
    header = f"{'owner':<18} {'out-degree':>10} {'resource':<18} {'policy':<40} {'audience':>9}"
    print(header)
    print("-" * len(header))
    for owner_kind, owner in owners.items():
        for resource_kind, policy in policies.items():
            resource_id = f"{owner}:{resource_kind}"
            store.share(owner, resource_id, kind=resource_kind)
            store.allow(resource_id, list(policy.expressions), description=policy.description)
            audience = service.authorized_audience(resource_id)
            print(
                f"{owner_kind:<18} {graph.out_degree(owner):>10} {resource_kind:<18} "
                f"{'; '.join(policy.expressions):<40} {len(audience) - 1:>9}"
            )

    # Contrast with the "all friends" list model for the hub owner.
    hub = owners["hub owner"]
    store.share(hub, "hub:all-friends-list", kind="photos")
    store.allow("hub:all-friends-list", "friend+[1]", description="the Facebook-list baseline")
    flat_audience = service.authorized_audience("hub:all-friends-list")
    fine_audience = service.authorized_audience(f"{hub}:birthday photos")
    print()
    print(f"hub owner {hub!r}: a flat friend list reaches {len(flat_audience) - 1} users, "
          f"the 'family and friends' rule reaches {len(fine_audience) - 1}.")

    # A few concrete access requests, audited.
    print()
    some_users = sorted(graph.users())[:5]
    for requester in some_users:
        result = service.check(requester, f"{hub}:birthday photos")
        print(f"  request by {requester:<6}: {'GRANTED' if result.granted else 'DENIED'}")
    print()
    print(f"audit log: {len(audit)} decisions recorded, grant rate {audit.grant_rate():.2f}, "
          f"average latency {1000 * audit.average_latency():.2f} ms")


if __name__ == "__main__":
    main()
