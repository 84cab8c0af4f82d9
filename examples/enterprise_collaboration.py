#!/usr/bin/env python3
"""Enterprise collaboration scenario: org-chart-aware access control.

Social-network access control is not limited to consumer OSNs: the same
reachability constraints express organizational policies ("my direct
reports", "colleagues of my reports", "managers of people I befriended at
other departments").  This example builds a layered organization graph,
protects a handful of documents with such rules, and compares decisions
across every reachability backend.

Run with::

    python examples/enterprise_collaboration.py
"""

from __future__ import annotations

from repro import GraphService, PolicyStore
from repro.graph.generators import layered_organization_graph
from repro.reachability import available_backends


def main() -> None:
    graph = layered_organization_graph(departments=4, members_per_department=8, seed=7)
    print(f"organization graph: {graph}")
    managers = sorted(user for user in graph.users() if graph.attribute(user, "role") == "manager")
    cto = managers[0]

    store = PolicyStore()

    # 1. The roadmap: direct reports only.
    store.share(cto, "roadmap", kind="document", title="2027 roadmap")
    store.allow("roadmap", "manages+[1]", description="my direct reports")

    # 2. Retro notes: reports and the colleagues of reports (i.e. the department).
    store.share(cto, "retro-notes", kind="document")
    store.allow("retro-notes", "manages+[1]/colleague+[1]", description="the whole department")
    store.allow("retro-notes", "manages+[1]", description="reports themselves")

    # 3. A cross-team design doc: people my reports befriended in other teams,
    #    as long as they are not students/interns (attribute condition).
    store.share(cto, "design-doc", kind="document")
    store.allow(
        "design-doc",
        "manages+[1]/friend*[1]{job != student}",
        description="friends of my reports, interns excluded",
    )

    # 4. A salary review: nobody but the owner (no rule at all).
    store.share(cto, "salary-review", kind="document")

    # One service pinned to the paper's cluster index; the bulk call
    # materializes every document's audience in a single pass and carries
    # the executed sweep plans on the result.
    service = GraphService(graph, store, default_backend="cluster-index")
    documents = ("roadmap", "retro-notes", "design-doc", "salary-review")
    bulk = service.bulk_access(documents)
    print()
    print(f"{'resource':<14} {'audience size':>13}   sample of authorized users")
    print("-" * 70)
    for resource in documents:
        audience = sorted(bulk[resource])
        sample = ", ".join(str(user) for user in audience[:4])
        more = f" (+{len(audience) - 4} more)" if len(audience) > 4 else ""
        print(f"{resource:<14} {len(audience):>13}   {sample}{more}")

    # A concrete denied request, explained.
    outsider = [user for user in graph.users() if graph.attribute(user, "department") == 3][0]
    print()
    print(service.explain(outsider, "roadmap"))

    # All backends agree on every decision (spot-check on the roadmap):
    # the same service routes the query through each backend via a plan pin.
    print()
    print("cross-backend agreement on 'roadmap':")
    agreement = GraphService(graph, store)
    for backend in available_backends():
        audience = agreement.bulk_access(["roadmap"], backend=backend)["roadmap"]
        print(f"  {backend:<19} audience size = {len(audience)}")


if __name__ == "__main__":
    main()
