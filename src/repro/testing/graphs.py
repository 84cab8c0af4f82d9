"""The one adversarial small-graph generator of the differential harnesses.

Every seeded family in ``tests/`` (backend, planner, snapshot, delta and
shard differentials) draws its random graphs here, so the awkward shapes an
index or a router must survive are stated once:

* **self-loops** — an edge's target is its own source with probability 0.15;
* **multi-label pairs** — several labels between the same ordered pair;
* **islands** — edge budgets low enough that isolated users and separate
  components appear regularly.

The RNG draw order is part of the contract: a family is identified by its
seed, and changing the order of draws here changes every graph of every
family at once.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from repro.graph.social_graph import SocialGraph

__all__ = ["LABELS", "adversarial_graph"]

LABELS = ("friend", "colleague", "parent")

#: How each supported attribute is drawn, in draw order.
_ATTRIBUTE_DRAWS = {
    "age": lambda rng: rng.randint(10, 70),
    "gender": lambda rng: rng.choice(["female", "male"]),
}


def adversarial_graph(
    rng: random.Random,
    *,
    users: Tuple[int, int] = (3, 9),
    edges_per_user: Tuple[int, int] = (0, 2),
    attributes: Sequence[str] = ("age", "gender"),
    prefix: str = "u",
) -> SocialGraph:
    """Draw one small labelled graph from ``rng``.

    ``users`` is the inclusive user-count range; the edge budget is drawn
    from ``edges_per_user`` times the drawn count (a budget, not an edge
    count: duplicate draws are skipped).  ``attributes`` names the per-user
    attributes to draw (``"age"``, ``"gender"``) and ``prefix`` the user-id
    prefix (ids are ``f"{prefix}{i}"``).
    """
    unknown = set(attributes) - set(_ATTRIBUTE_DRAWS)
    if unknown:
        raise ValueError(f"no draw rule for attributes {sorted(unknown)}")
    graph = SocialGraph(name="adversarial")
    count = rng.randint(*users)
    ids = [f"{prefix}{i}" for i in range(count)]
    draws = [item for item in _ATTRIBUTE_DRAWS.items() if item[0] in attributes]
    for user in ids:
        graph.add_user(user, **{name: draw(rng) for name, draw in draws})
    low, high = edges_per_user
    for _ in range(rng.randint(low * count, high * count)):
        source = rng.choice(ids)
        # rng.random() is drawn for every edge, so the stream stays aligned
        # whether or not the edge turns out to be a self-loop.
        target = source if rng.random() < 0.15 else rng.choice(ids)
        label = rng.choice(LABELS)
        if not graph.has_relationship(source, target, label):
            graph.add_relationship(source, target, label)
    return graph
