"""The social network graph model (Definition 1 of the paper).

A :class:`SocialGraph` is a directed, edge-labelled multigraph
``G = (V, E, nu, lambda)`` where

* ``V`` is the set of users (nodes), each carrying an attribute tuple
  ``nu(v)`` (e.g. ``gender``, ``age``, ``job``),
* ``E`` is the set of relationships, each carrying a relationship type
  ``lambda(e)`` drawn from a finite alphabet (e.g. ``friend``, ``colleague``,
  ``parent``) plus optional edge attributes (e.g. a trust weight).

Between the same ordered pair of users several relationships may exist as
long as their labels differ — exactly one edge per ``(source, target, label)``
triple.  This mirrors the example of the paper's Figure 1, where Alice and
David are linked by both a ``colleague`` and a ``friend`` relationship.

The class is deliberately self-contained (a plain adjacency-dict design)
rather than a thin wrapper over :mod:`networkx`, because every indexing
algorithm in :mod:`repro.reachability` manipulates it directly; conversion
helpers to/from networkx are provided for interoperability and testing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)

__all__ = ["AttributeMap", "Relationship", "SocialGraph", "raw_attributes_getter"]

UserId = Hashable

#: One journal record: the operation tag plus its identifying operands.
#: ``("add_user", u)`` / ``("remove_user", u)`` / ``("update_user", u)`` /
#: ``("add_edge", u, v, label)`` / ``("remove_edge", u, v, label)``.
MutationOp = Tuple[Any, ...]

#: Default bound of the mutation journal (entries, not epochs).  Large enough
#: to absorb a realistic churn burst between two snapshot refreshes, small
#: enough that an idle graph never hoards memory.
DEFAULT_JOURNAL_LIMIT = 4096


def raw_attributes_getter(graph):
    """Return the cheapest read-only attribute accessor ``graph`` offers.

    The traversal hot paths read attributes once per visited node; this
    resolves :meth:`SocialGraph.raw_attributes` (no per-call
    :class:`AttributeMap` allocation) when the graph provides it and falls
    back to ``graph.attributes`` for duck-typed graphs that do not.  The
    returned callable is meant to be hoisted out of the loop, and its
    results must be treated as read-only.
    """
    raw = getattr(graph, "raw_attributes", None)
    return raw if raw is not None else graph.attributes


class AttributeMap(MutableMapping):
    """A live, mutable view of one user's attribute tuple ``nu(v)``.

    Returned by :meth:`SocialGraph.attributes`.  Reads delegate straight to
    the canonical per-node dict, so they are always current; every mutation
    (item assignment / deletion and the :class:`MutableMapping` methods
    built on them — ``update``, ``pop``, ``setdefault``, ``clear``) bumps
    the owning graph's ``epoch``, invalidating compiled snapshots' condition
    memos and the engine's decision caches exactly like
    :meth:`SocialGraph.update_user` does.  This closes the historical
    write-through loophole where attribute writes left stale cached
    decisions behind.
    """

    __slots__ = ("_graph", "_data", "_user")

    def __init__(self, graph: "SocialGraph", data: Dict[str, Any], user: UserId = None) -> None:
        self._graph = graph
        self._data = data
        self._user = user

    # Reads delegate without touching the epoch.

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    # Writes are real graph mutations: bump the epoch (and the journal).

    def __setitem__(self, key: str, value: Any) -> None:
        self._data[key] = value
        self._graph._record("update_user", self._user)

    def __delitem__(self, key: str) -> None:
        del self._data[key]
        self._graph._record("update_user", self._user)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AttributeMap):
            return self._data == other._data
        return self._data == other

    __hash__ = None  # mutable mapping

    def __repr__(self) -> str:
        return repr(self._data)


@dataclass(frozen=True)
class Relationship:
    """A single labelled, directed relationship between two users.

    ``source -[label]-> target`` with optional free-form ``attributes``
    (the paper's Figure 1 annotates some edges with a trust value, e.g.
    ``Babysitting; 0.8``).

    Identity (equality and hashing) is the ``(source, target, label)`` triple;
    the attribute mapping is carried along but does not participate, so that
    relationships can live in sets and act as dictionary keys.
    """

    source: UserId
    target: UserId
    label: str
    attributes: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def key(self) -> Tuple[UserId, UserId, str]:
        """Return the identifying triple of this relationship."""
        return (self.source, self.target, self.label)

    def reversed(self) -> "Relationship":
        """Return the same relationship traversed in the opposite direction."""
        return Relationship(self.target, self.source, self.label, self.attributes)

    def __str__(self) -> str:
        return f"{self.source} -[{self.label}]-> {self.target}"


class SocialGraph:
    """Directed, edge-labelled social network graph with node attributes.

    The public API talks about *users* and *relationships* to stay close to
    the paper's vocabulary, but the structure is a general directed labelled
    multigraph and is reused as-is by the line-graph and index machinery.

    Examples
    --------
    >>> g = SocialGraph()
    >>> g.add_user("alice", gender="female", age=24)
    >>> g.add_user("bill")
    >>> g.add_relationship("alice", "bill", "friend")
    >>> g.has_relationship("alice", "bill", "friend")
    True
    """

    def __init__(self, name: str = "", *, journal_limit: int = DEFAULT_JOURNAL_LIMIT) -> None:
        self.name = name
        self._nodes: Dict[UserId, Dict[str, Any]] = {}
        # _succ[u][v][label] -> Relationship ; _pred mirrors it for reverse walks.
        self._succ: Dict[UserId, Dict[UserId, Dict[str, Relationship]]] = {}
        self._pred: Dict[UserId, Dict[UserId, Dict[str, Relationship]]] = {}
        self._num_edges = 0
        self._label_counts: Dict[str, int] = {}
        self._epoch = 0
        # Bounded, *compacting* mutation journal.  Each entry is a mutable
        # ``[last_epoch, op, weight]`` triple: ``op`` is the operation,
        # ``weight`` how many epoch bumps the entry stands for, and
        # ``last_epoch`` the most recent of them.  Repeated attribute writes
        # to the same user merge into one entry (the op is a pure
        # invalidation marker — it carries no attribute payload — so
        # coalescing is replay-safe; see :meth:`_record`), which is what lets
        # ``journal_limit`` absorb attribute-hot churn bursts far larger than
        # the entry bound.  The journal is *complete* for every epoch in
        # ``(_journal_floor, epoch]``; once an entry falls off the left end
        # the floor advances and older snapshots can no longer be patched —
        # they rebuild from scratch.
        self._journal: Deque[List[Any]] = deque()
        self._journal_limit = max(0, journal_limit)
        self._journal_floor = 0
        # Total weight of the retained entries: every bump recorded since the
        # floor is represented.  ``mutations_since`` checks the invariant
        # ``weight >= epoch - floor`` to detect epoch bumps that bypassed the
        # journal (a defensive guard against buggy mutation paths).
        self._journal_weight = 0
        # user -> its live ("update_user", user) journal entry, for merging.
        self._attr_entries: Dict[UserId, List[Any]] = {}
        #: Journal entries :meth:`mutations_since` has walked so far — an
        #: exact work counter (it must track the delta, not the journal).
        self.journal_entries_visited = 0

    # ---------------------------------------------------- epochs and journal

    @property
    def epoch(self) -> int:
        """A version stamp bumped by every mutation.

        Derived structures (compiled snapshots, decision caches) record the
        epoch they were built at and rebuild lazily when it moves on.  Every
        mutation path bumps it — the structural methods here as well as
        writes through the live :class:`AttributeMap` returned by
        :meth:`attributes`.
        """
        return self._epoch

    @property
    def journal_limit(self) -> int:
        """The journal's entry bound; ``0`` disables journaling entirely.

        Assigning a new limit clears the journal and advances its floor to
        the current epoch, so coverage never spans a reconfiguration.  The
        churn benchmarks set ``journal_limit = 0`` to force every snapshot
        refresh down the full-rebuild path.
        """
        return self._journal_limit

    @journal_limit.setter
    def journal_limit(self, limit: int) -> None:
        self._journal_limit = max(0, limit)
        self._journal.clear()
        self._attr_entries.clear()
        self._journal_weight = 0
        self._journal_floor = self._epoch

    def _record(self, *op: Any) -> None:
        """Commit one mutation: bump the epoch and journal the operation.

        Every mutating path funnels through here — the structural methods
        and :class:`AttributeMap` write-through alike — so the journal is
        exactly as complete as the epoch is monotone.

        **Compaction.**  An ``("update_user", u)`` record is a pure
        invalidation marker: it names the user whose attributes changed but
        carries no values (the compiled snapshot shares the attribute dicts,
        so replaying the marker just re-invalidates derived state).  A
        repeat write to the same user therefore *merges* with the user's
        existing entry: the old slot is **tombstoned** (weight zeroed — its
        coverage transfers wholesale) and one fresh entry carrying the
        combined weight is appended at the young end.  Floating the marker
        later in the replayed span is safe because attribute markers commute
        with every other operation (``remove_user`` aborts delta patches
        wholesale before any op is applied), and coverage stays exact: an
        entry is part of the span ``(epoch, now]`` iff any of its merged
        bumps is, and ``last_epoch`` is their maximum.  Keeping merged
        coverage at the young end matters for eviction: overflow pops the
        *oldest* slot, which for a merge chain is a free tombstone — the
        floor only ever advances past coverage that is genuinely gone, so
        attribute-hot histories with interleaved structural ops keep their
        delta coverage instead of collapsing to a full rebuild.
        """
        self._epoch += 1
        if not self._journal_limit:
            self._journal_floor = self._epoch
            return
        self._journal_weight += 1
        weight = 1
        if op[0] == "update_user":
            merged = self._attr_entries.get(op[1])
            if merged is not None:
                weight += merged[2]
                merged[2] = 0  # tombstone: coverage moves to the new entry
        entry: List[Any] = [self._epoch, op, weight]
        self._journal.append(entry)
        if op[0] == "update_user":
            self._attr_entries[op[1]] = entry
        while len(self._journal) > self._journal_limit:
            evicted = self._journal.popleft()
            if not evicted[2]:
                continue  # a tombstone: its coverage lives in a younger entry
            self._journal_weight -= evicted[2]
            if evicted[0] > self._journal_floor:
                self._journal_floor = evicted[0]
            evicted_op = evicted[1]
            if (
                evicted_op[0] == "update_user"
                and self._attr_entries.get(evicted_op[1]) is evicted
            ):
                del self._attr_entries[evicted_op[1]]

    def mutations_since(self, epoch: int) -> Optional[List[MutationOp]]:
        """Return the mutations committed after ``epoch``, oldest first.

        Repeated attribute writes to one user are **coalesced**: the span may
        contain a single ``("update_user", u)`` marker standing for many
        writes (and, when the merged entry straddles ``epoch``, for writes
        from just before the span too — harmless over-invalidation).  Every
        structural operation appears exactly once, in commit order.

        Returns ``None`` when the journal cannot prove completeness for the
        span ``(epoch, self.epoch]`` — the journal overflowed past ``epoch``,
        ``epoch`` is from another graph's timeline, or an epoch bump bypassed
        the journal (a defensive weight check).  ``None`` tells
        :func:`~repro.graph.compiled.compile_graph` to fall back to a full
        snapshot rebuild; a (possibly empty) list is a complete delta.

        Cost: O(|delta|) — entries are appended in epoch order, so the walk
        starts at the young end and stops at the first entry not after
        ``epoch``.
        """
        if epoch == self._epoch:
            return []
        if epoch < self._journal_floor or epoch > self._epoch:
            return None
        if self._journal_weight < self._epoch - self._journal_floor:
            return None  # some bump bypassed _record: coverage is unprovable
        ops: List[MutationOp] = []
        visited = 0
        for entry_epoch, op, weight in reversed(self._journal):
            visited += 1
            if entry_epoch <= epoch:
                break
            if weight:  # weight 0: a merged marker's tombstoned old slot
                ops.append(op)
        self.journal_entries_visited += visited
        ops.reverse()
        return ops

    # ------------------------------------------------------------------ users

    def add_user(self, user: UserId, **attributes: Any) -> None:
        """Add a user node with the given attributes.

        Raises :class:`DuplicateNodeError` if the user already exists; use
        :meth:`update_user` to change attributes of an existing user.
        """
        if user in self._nodes:
            raise DuplicateNodeError(f"user {user!r} already exists")
        self._nodes[user] = dict(attributes)
        self._succ[user] = {}
        self._pred[user] = {}
        self._record("add_user", user)

    def ensure_user(self, user: UserId, **attributes: Any) -> None:
        """Add the user if missing, merging ``attributes`` into existing ones."""
        if user not in self._nodes:
            self.add_user(user, **attributes)
        elif attributes:
            self._nodes[user].update(attributes)
            self._record("update_user", user)

    def update_user(self, user: UserId, **attributes: Any) -> None:
        """Merge ``attributes`` into an existing user's attribute tuple."""
        self._nodes[self._require(user)].update(attributes)
        self._record("update_user", user)

    def remove_user(self, user: UserId) -> None:
        """Remove a user and every relationship incident to it."""
        self._require(user)
        # A self-loop shows up in both incidence lists; deduplicate by key so
        # it is removed exactly once.
        incident = {
            rel.key(): rel
            for rel in list(self.out_relationships(user)) + list(self.in_relationships(user))
        }
        for rel in incident.values():
            self.remove_relationship(rel.source, rel.target, rel.label)
        del self._nodes[user]
        del self._succ[user]
        del self._pred[user]
        # Close the user's attribute-merge anchor: a write after a later
        # re-add must append a fresh entry (in order w.r.t. the removal)
        # rather than float this user's pre-removal marker forward.
        self._attr_entries.pop(user, None)
        self._record("remove_user", user)

    def has_user(self, user: UserId) -> bool:
        """Return whether ``user`` is a node of the graph."""
        return user in self._nodes

    def users(self) -> Iterator[UserId]:
        """Iterate over all user ids."""
        return iter(self._nodes)

    def attributes(self, user: UserId) -> AttributeMap:
        """Return the attribute mapping ``nu(user)`` (a live, epoch-aware view).

        Reads see current values without any copying; writes through the
        returned :class:`AttributeMap` bump the mutation :attr:`epoch` so
        cached decisions and condition memos are invalidated, same as
        :meth:`update_user`.
        """
        return AttributeMap(self, self._nodes[self._require(user)], user)

    def raw_attributes(self, user: UserId) -> Dict[str, Any]:
        """Return the raw attribute dict of ``user`` — read-only by convention.

        The traversal hot paths use this to avoid allocating an epoch-aware
        :class:`AttributeMap` per visited node.  Callers must not write
        through the returned dict (that would bypass epoch bookkeeping);
        mutate via :meth:`attributes` or :meth:`update_user` instead.
        """
        return self._nodes[self._require(user)]

    def attribute(self, user: UserId, name: str, default: Any = None) -> Any:
        """Return a single attribute of a user, or ``default`` if unset."""
        return self._nodes[self._require(user)].get(name, default)

    # --------------------------------------------------------- relationships

    def add_relationship(
        self,
        source: UserId,
        target: UserId,
        label: str,
        *,
        reciprocal: bool = False,
        **attributes: Any,
    ) -> Relationship:
        """Add a relationship ``source -[label]-> target``.

        Both endpoints must already exist (use :class:`~repro.graph.builder.
        GraphBuilder` for a more forgiving construction API).  When
        ``reciprocal`` is true the symmetric edge ``target -[label]-> source``
        is added as well (convenient for inherently mutual relationships such
        as ``friend`` on undirected-style networks).

        Returns the forward :class:`Relationship`.
        """
        self._require(source)
        self._require(target)
        if label in self._succ[source].get(target, {}):
            raise DuplicateEdgeError(
                f"relationship {source!r} -[{label}]-> {target!r} already exists"
            )
        rel = Relationship(source, target, str(label), dict(attributes))
        self._succ[source].setdefault(target, {})[rel.label] = rel
        self._pred[target].setdefault(source, {})[rel.label] = rel
        self._num_edges += 1
        self._label_counts[rel.label] = self._label_counts.get(rel.label, 0) + 1
        self._record("add_edge", source, target, rel.label)
        if reciprocal and not self.has_relationship(target, source, label):
            self.add_relationship(target, source, label, **attributes)
        return rel

    def remove_relationship(self, source: UserId, target: UserId, label: str) -> None:
        """Remove the relationship identified by ``(source, target, label)``."""
        try:
            rel = self._succ[self._require(source)][target][label]
        except KeyError:
            raise EdgeNotFoundError(source, target, label) from None
        del self._succ[source][target][label]
        if not self._succ[source][target]:
            del self._succ[source][target]
        del self._pred[target][source][label]
        if not self._pred[target][source]:
            del self._pred[target][source]
        self._num_edges -= 1
        self._label_counts[rel.label] -= 1
        if not self._label_counts[rel.label]:
            del self._label_counts[rel.label]
        self._record("remove_edge", source, target, rel.label)

    def has_relationship(self, source: UserId, target: UserId, label: Optional[str] = None) -> bool:
        """Return whether a relationship exists from ``source`` to ``target``.

        With ``label=None`` any label counts; otherwise the label must match.
        """
        edges = self._succ.get(source, {}).get(target)
        if not edges:
            return False
        return True if label is None else label in edges

    def get_relationship(self, source: UserId, target: UserId, label: str) -> Relationship:
        """Return the :class:`Relationship` for the given triple."""
        try:
            return self._succ[source][target][label]
        except KeyError:
            raise EdgeNotFoundError(source, target, label) from None

    def relationships(self) -> Iterator[Relationship]:
        """Iterate over every relationship in the graph."""
        for targets in self._succ.values():
            for edges in targets.values():
                yield from edges.values()

    def out_relationships(self, user: UserId, label: Optional[str] = None) -> Iterator[Relationship]:
        """Iterate over relationships going out of ``user`` (optionally filtered by label)."""
        for edges in self._succ[self._require(user)].values():
            for rel in edges.values():
                if label is None or rel.label == label:
                    yield rel

    def in_relationships(self, user: UserId, label: Optional[str] = None) -> Iterator[Relationship]:
        """Iterate over relationships coming into ``user`` (optionally filtered by label)."""
        for edges in self._pred[self._require(user)].values():
            for rel in edges.values():
                if label is None or rel.label == label:
                    yield rel

    def successors(self, user: UserId, label: Optional[str] = None) -> Iterator[UserId]:
        """Iterate over users reachable from ``user`` by one (label-matching) edge."""
        for target, edges in self._succ[self._require(user)].items():
            if label is None or label in edges:
                yield target

    def predecessors(self, user: UserId, label: Optional[str] = None) -> Iterator[UserId]:
        """Iterate over users with a (label-matching) edge into ``user``."""
        for source, edges in self._pred[self._require(user)].items():
            if label is None or label in edges:
                yield source

    def neighbors(self, user: UserId, label: Optional[str] = None) -> Iterator[UserId]:
        """Iterate over users adjacent to ``user`` in either direction (deduplicated)."""
        seen = set()
        for other in self.successors(user, label):
            if other not in seen:
                seen.add(other)
                yield other
        for other in self.predecessors(user, label):
            if other not in seen:
                seen.add(other)
                yield other

    # ----------------------------------------------------------------- sizes

    def number_of_users(self) -> int:
        """Return ``|V|``."""
        return len(self._nodes)

    def number_of_relationships(self, label: Optional[str] = None) -> int:
        """Return ``|E|``, or the number of edges with the given label."""
        if label is None:
            return self._num_edges
        return self._label_counts.get(label, 0)

    def labels(self) -> Tuple[str, ...]:
        """Return the relationship-type alphabet (sorted for determinism)."""
        return tuple(sorted(self._label_counts))

    def out_degree(self, user: UserId, label: Optional[str] = None) -> int:
        """Return the number of relationships going out of ``user``."""
        targets = self._succ[self._require(user)]
        if label is None:
            return sum(map(len, targets.values()))
        return sum(1 for edges in targets.values() if label in edges)

    def in_degree(self, user: UserId, label: Optional[str] = None) -> int:
        """Return the number of relationships coming into ``user``."""
        sources = self._pred[self._require(user)]
        if label is None:
            return sum(map(len, sources.values()))
        return sum(1 for edges in sources.values() if label in edges)

    def degree(self, user: UserId, label: Optional[str] = None) -> int:
        """Return the total (in + out) degree of ``user``."""
        return self.out_degree(user, label) + self.in_degree(user, label)

    # ------------------------------------------------------------- protocols

    def __contains__(self, user: UserId) -> bool:
        return self.has_user(user)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[UserId]:
        return iter(self._nodes)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<SocialGraph{label}: {self.number_of_users()} users, "
            f"{self.number_of_relationships()} relationships, "
            f"{len(self._label_counts)} relationship types>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        if set(self._nodes) != set(other._nodes):
            return False
        for user, attrs in self._nodes.items():
            if attrs != other._nodes[user]:
                return False
        mine = {rel.key(): dict(rel.attributes) for rel in self.relationships()}
        theirs = {rel.key(): dict(rel.attributes) for rel in other.relationships()}
        return mine == theirs

    # ----------------------------------------------------------------- views

    def copy(self, name: Optional[str] = None) -> "SocialGraph":
        """Return a deep structural copy of the graph."""
        clone = SocialGraph(name=self.name if name is None else name)
        for user, attrs in self._nodes.items():
            clone.add_user(user, **attrs)
        for rel in self.relationships():
            clone.add_relationship(rel.source, rel.target, rel.label, **dict(rel.attributes))
        return clone

    def subgraph(self, users: Iterable[UserId], name: str = "") -> "SocialGraph":
        """Return the induced subgraph on ``users`` (unknown ids are ignored)."""
        keep = {u for u in users if u in self._nodes}
        sub = SocialGraph(name=name or (self.name + "-subgraph" if self.name else "subgraph"))
        for user in keep:
            sub.add_user(user, **self._nodes[user])
        # Only the kept nodes' out-edges can be induced, so the scan is
        # O(edges leaving the kept set) rather than O(|E|).
        for user in keep:
            for target, edges in self._succ[user].items():
                if target in keep:
                    for rel in edges.values():
                        sub.add_relationship(user, target, rel.label, **dict(rel.attributes))
        return sub

    def reversed(self, name: str = "") -> "SocialGraph":
        """Return a copy of the graph with every relationship direction flipped."""
        rev = SocialGraph(name=name or (self.name + "-reversed" if self.name else "reversed"))
        for user, attrs in self._nodes.items():
            rev.add_user(user, **attrs)
        for rel in self.relationships():
            rev.add_relationship(rel.target, rel.source, rel.label, **dict(rel.attributes))
        return rev

    # --------------------------------------------------------------- interop

    def to_networkx(self):
        """Return an equivalent :class:`networkx.MultiDiGraph`."""
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for user, attrs in self._nodes.items():
            graph.add_node(user, **attrs)
        for rel in self.relationships():
            graph.add_edge(rel.source, rel.target, key=rel.label, label=rel.label, **dict(rel.attributes))
        return graph

    @classmethod
    def from_networkx(cls, graph, label_attribute: str = "label", default_label: str = "friend") -> "SocialGraph":
        """Build a :class:`SocialGraph` from a networkx directed (multi)graph.

        Edge labels are read from ``label_attribute``; edges without one get
        ``default_label``.  Parallel edges with the same label collapse into
        one relationship.
        """
        sg = cls(name=str(graph.graph.get("name", "")))
        for node, attrs in graph.nodes(data=True):
            sg.add_user(node, **attrs)
        for source, target, attrs in graph.edges(data=True):
            label = attrs.get(label_attribute, default_label)
            extra = {k: v for k, v in attrs.items() if k != label_attribute}
            if not sg.has_relationship(source, target, label):
                sg.add_relationship(source, target, label, **extra)
        return sg

    # --------------------------------------------------------------- private

    def _require(self, user: UserId) -> UserId:
        if user not in self._nodes:
            raise NodeNotFoundError(user)
        return user
