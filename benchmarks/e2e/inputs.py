"""Seeded inputs of the four workloads.

Everything a workload sends is generated here from ``--seed``; the program
under test (``src/repro``) only ever receives the generated graph, policies
and requests.  One graph serves all four workloads and all seeds so their
numbers compare: a Barabási–Albert graph, ``OWNERS`` owners with two
single-rule resources each over a nine-expression pool.  The seed draws the
requests, not the graph: hub sizes differ by a factor of two between
Barabási–Albert graph seeds, which moved ``wire_audience``'s p50 by 17 % and
its saturated throughput by 31 % from seed to seed — two seeds should differ
in what is asked, not in how hard the graph is.

Requesters follow Zipf(1.1) over a seeded permutation of the users (a few
hot requesters, a long tail); resources are uniform.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from bisect import bisect
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.workloads.generator import Workload, WorkloadSpec, build_workload

#: The eight audience expressions of ``bench_serving_latency.py``.
AUDIENCE_EXPRESSIONS: Tuple[str, ...] = (
    "friend+[1]",
    "friend+[1,2]",
    "friend+[1,2]/colleague+[1]",
    "colleague+[1,2]",
    "friend+[1]/colleague+[1]",
    "parent+[1]/friend+[1]",
    "colleague*[1,2]",
    "friend*[1,2]",
)
#: Rule pool: the eight above plus one attribute-conditioned expression.
RULE_EXPRESSIONS: Tuple[str, ...] = AUDIENCE_EXPRESSIONS + (
    "friend*[1,2]{age >= 18}",
)

USERS = 20_000
GRAPH_SEED = 7
#: The one tenant the wire workloads register and address.
TENANT = "bench"
OWNERS = 400
ZIPF_EXPONENT = 1.1
#: ``lib_*``: size of the hot pair set (fits the 4096-entry memos) and the
#: share of ops drawn from it.  0.8 keeps p50 inside the memo-hit population
#: and p90 inside the memo-miss one; at 0.9 the p90 would sit on the boundary
#: between the two and flip from run to run.
HOT_PAIRS = 1024
HOT_SHARE = 0.8
CHECK_SHARE_LIB = 0.8
CHECK_SHARE_WIRE = 0.75
CHURN_BURST = 32
READS_PER_CYCLE = 500

# Op tuples.  Kind first so the runners dispatch on ``op[0]``.
CHECK, REACH, AUDIENCE = "check", "reach", "audience"
Op = Tuple


def graph_spec(users: int) -> WorkloadSpec:
    """The one graph + policy spec shared by all workloads and seeds."""
    return WorkloadSpec(
        family="barabasi-albert",
        users=users,
        seed=GRAPH_SEED,
        owners=min(OWNERS, max(2, users // 8)),
        rules_per_owner=2,
        requests=0,
        expressions=RULE_EXPRESSIONS,
    )


@dataclass
class Inputs:
    """The generated material one run draws its requests from."""

    workload: Workload
    users: List[Hashable]
    #: ``(resource_id, owner, expression)`` — one single-condition rule each.
    resources: List[Tuple[str, Hashable, str]]
    #: Zipf-ordered requesters and their cumulative weights.
    ranked: List[Hashable]
    cum_weights: List[float]

    @property
    def graph(self):
        return self.workload.graph

    def requester(self, rng: random.Random) -> Hashable:
        return self.ranked[bisect(self.cum_weights, rng.random() * self.cum_weights[-1])]


def build_inputs(users: int, seed: int) -> Inputs:
    workload = build_workload(graph_spec(users))
    names = sorted(workload.graph.users(), key=str)
    ranked = list(names)
    random.Random(seed * 7919 + 1).shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    resources = [
        (resource_id, owner, expressions[0])
        for resource_id, owner, expressions in workload.resources
    ]
    return Inputs(
        workload=workload,
        users=names,
        resources=resources,
        ranked=ranked,
        cum_weights=list(itertools.accumulate(weights)),
    )


def _point_op(inputs: Inputs, rng: random.Random, check_share: float, requester) -> Op:
    resource_id, owner, expression = rng.choice(inputs.resources)
    if rng.random() < check_share:
        return (CHECK, requester, resource_id)
    return (REACH, owner, requester, expression)


def point_ops(inputs: Inputs, seed: int, count: int, check_share: float) -> List[Op]:
    """``check`` / boolean ``reach`` ops: Zipf requesters, uniform resources."""
    rng = random.Random(seed * 7919 + 2)
    return [
        _point_op(inputs, rng, check_share, inputs.requester(rng)) for _ in range(count)
    ]


def audience_ops(inputs: Inputs, seed: int, count: int) -> List[Op]:
    """``audience`` ops with a unique owner per request (no memo can serve
    one): a seeded permutation of all users, cycled only past |V| requests,
    far beyond the memo's reach."""
    order = list(inputs.users)
    random.Random(seed * 7919 + 3).shuffle(order)
    return [
        (AUDIENCE, order[i % len(order)], AUDIENCE_EXPRESSIONS[i % len(AUDIENCE_EXPRESSIONS)])
        for i in range(count)
    ]


def lib_ops(inputs: Inputs, seed: int, count: int) -> Tuple[List[Op], bytearray]:
    """The ``lib_*`` read mix: ``HOT_SHARE`` of ops from a hot set of
    ``HOT_PAIRS`` ops, the rest uniform cold.  Returns the ops and a
    parallel flag array (1 = cold)."""
    rng = random.Random(seed * 7919 + 4)
    hot = [
        _point_op(inputs, rng, CHECK_SHARE_LIB, inputs.requester(rng))
        for _ in range(min(HOT_PAIRS, max(1, len(inputs.users))))
    ]
    ops: List[Op] = []
    cold = bytearray()
    for _ in range(count):
        if rng.random() < HOT_SHARE:
            ops.append(rng.choice(hot))
            cold.append(0)
        else:
            ops.append(_point_op(inputs, rng, CHECK_SHARE_LIB, rng.choice(inputs.users)))
            cold.append(1)
    return ops, cold


def churn_bursts(inputs: Inputs, seed: int, bursts: int) -> List[Tuple[Op, ...]]:
    """``bursts`` write bursts of ``CHURN_BURST`` ops, valid replayed in order.

    Per op: 25 % attribute rewrite, 10 % user churn (alternating
    ``remove_user`` / ``add_user``), the rest edge churn (alternating remove /
    add so |E| holds).  Resource owners are never removal victims — a rule's
    owner must stay resolvable.  The edge and user populations are simulated
    with list + index mirrors so each op costs O(degree), not O(|E|).
    """
    rng = random.Random(seed * 7919 + 5)
    graph = inputs.graph
    labels = sorted(graph.labels()) or ["friend"]
    owners = {owner for _rid, owner, _expr in inputs.resources}
    edges: List[Tuple] = sorted(
        (rel.source, rel.target, rel.label) for rel in graph.relationships()
    )
    position: Dict[Tuple, int] = {edge: i for i, edge in enumerate(edges)}
    incident: Dict[Hashable, set] = {}
    for edge in edges:
        incident.setdefault(edge[0], set()).add(edge)
        incident.setdefault(edge[1], set()).add(edge)
    pool = list(inputs.users)
    removable = [user for user in pool if user not in owners]
    serial = itertools.count()

    def drop_edge(edge: Tuple) -> None:
        index = position.pop(edge)
        last = edges.pop()
        if last != edge:
            edges[index] = last
            position[last] = index
        incident[edge[0]].discard(edge)
        incident[edge[1]].discard(edge)

    out: List[Tuple[Op, ...]] = []
    remove_edge_next = remove_user_next = True
    for _ in range(bursts):
        ops: List[Op] = []
        while len(ops) < CHURN_BURST:
            roll = rng.random()
            if roll < 0.25:
                ops.append(("set_attribute", rng.choice(pool), "age", rng.randint(13, 90)))
            elif roll < 0.35:
                if remove_user_next and len(removable) > 2:
                    index = rng.randrange(len(removable))
                    user = removable[index]
                    removable[index] = removable[-1]
                    removable.pop()
                    pool.remove(user)
                    # Sorted: set order follows the process's hash seed.
                    for edge in sorted(incident.get(user, ())):
                        drop_edge(edge)
                    incident.pop(user, None)
                    ops.append(("remove_user", user))
                else:
                    user = f"churn-user-{next(serial)}"
                    pool.append(user)
                    removable.append(user)
                    ops.append(("add_user", user))
                remove_user_next = not remove_user_next
            elif remove_edge_next and edges:
                edge = edges[rng.randrange(len(edges))]
                drop_edge(edge)
                ops.append(("remove_edge",) + edge)
                remove_edge_next = False
            else:
                edge = (rng.choice(pool), rng.choice(pool), rng.choice(labels))
                if edge in position:
                    continue
                position[edge] = len(edges)
                edges.append(edge)
                incident.setdefault(edge[0], set()).add(edge)
                incident.setdefault(edge[1], set()).add(edge)
                ops.append(("add_edge",) + edge)
                remove_edge_next = True
        out.append(tuple(ops))
    return out


def request_hash(*sequences: Sequence) -> str:
    """SHA-256 over the generated request lists: equal for equal ``--seed``."""
    digest = hashlib.sha256()
    for sequence in sequences:
        for item in sequence:
            digest.update(repr(item).encode("utf-8"))
            digest.update(b"\n")
    return digest.hexdigest()[:16]
