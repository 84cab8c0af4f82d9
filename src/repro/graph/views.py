"""Read-only filtered views over a :class:`~repro.graph.social_graph.SocialGraph`.

Views avoid copying the underlying graph when an algorithm only needs to see
a subset of it: the relationships of a single type (e.g. the ``friend``
sub-network used by a single-label access rule), the relationships whose
attributes pass a predicate (e.g. trust above a threshold, as in the
Carminati et al. baseline), or the users matching an attribute filter.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional

from repro.graph.social_graph import (
    AttributeMap,
    Relationship,
    SocialGraph,
    UserId,
    raw_attributes_getter,
)

__all__ = ["GraphView", "label_view", "trust_view", "user_filter_view"]

RelationshipPredicate = Callable[[Relationship], bool]
UserPredicate = Callable[[UserId, Dict[str, Any]], bool]


class GraphView:
    """A lazily filtered, read-only view of a social graph.

    The view exposes the subset of the graph API needed by the traversal
    engines (successor / predecessor iteration and attribute lookups); it
    never materializes a copy.  Users excluded by the user predicate are
    invisible along with all their relationships.  The reachability
    evaluators search compiled snapshots and reject a view with ``TypeError``:
    :meth:`materialize` it first, or walk it with :mod:`repro.testing.oracle`.
    """

    def __init__(
        self,
        graph: SocialGraph,
        relationship_predicate: Optional[RelationshipPredicate] = None,
        user_predicate: Optional[UserPredicate] = None,
    ) -> None:
        self._graph = graph
        self._keep_relationship = relationship_predicate or (lambda _rel: True)
        self._keep_user = user_predicate or (lambda _user, _attrs: True)

    # ----------------------------------------------------------------- users

    def has_user(self, user: UserId) -> bool:
        """Return whether the user exists and passes the user filter."""
        return self._graph.has_user(user) and self._keep_user(
            user, self.raw_attributes(user)
        )

    def users(self) -> Iterator[UserId]:
        """Iterate over visible users."""
        for user in self._graph.users():
            if self._keep_user(user, self.raw_attributes(user)):
                yield user

    def attributes(self, user: UserId) -> AttributeMap:
        """Return the attributes of a visible user (a live, epoch-aware view).

        Like :meth:`SocialGraph.attributes`, writes through the returned
        mapping bump the underlying graph's epoch.
        """
        return self._graph.attributes(user)

    def raw_attributes(self, user: UserId) -> Dict[str, Any]:
        """Raw read-only attribute dict (see :meth:`SocialGraph.raw_attributes`)."""
        return raw_attributes_getter(self._graph)(user)

    # --------------------------------------------------------- relationships

    def _visible(self, rel: Relationship) -> bool:
        return (
            self._keep_relationship(rel)
            and self._keep_user(rel.source, self.raw_attributes(rel.source))
            and self._keep_user(rel.target, self.raw_attributes(rel.target))
        )

    def relationships(self) -> Iterator[Relationship]:
        """Iterate over visible relationships."""
        for rel in self._graph.relationships():
            if self._visible(rel):
                yield rel

    def out_relationships(self, user: UserId, label: Optional[str] = None) -> Iterator[Relationship]:
        """Iterate over visible relationships leaving ``user``."""
        for rel in self._graph.out_relationships(user, label):
            if self._visible(rel):
                yield rel

    def in_relationships(self, user: UserId, label: Optional[str] = None) -> Iterator[Relationship]:
        """Iterate over visible relationships entering ``user``."""
        for rel in self._graph.in_relationships(user, label):
            if self._visible(rel):
                yield rel

    def successors(self, user: UserId, label: Optional[str] = None) -> Iterator[UserId]:
        """Iterate over visible direct successors of ``user``."""
        seen = set()
        for rel in self.out_relationships(user, label):
            if rel.target not in seen:
                seen.add(rel.target)
                yield rel.target

    def predecessors(self, user: UserId, label: Optional[str] = None) -> Iterator[UserId]:
        """Iterate over visible direct predecessors of ``user``."""
        seen = set()
        for rel in self.in_relationships(user, label):
            if rel.source not in seen:
                seen.add(rel.source)
                yield rel.source

    # ----------------------------------------------------------------- misc

    def number_of_users(self) -> int:
        """Return the number of visible users."""
        return sum(1 for _ in self.users())

    def number_of_relationships(self) -> int:
        """Return the number of visible relationships."""
        return sum(1 for _ in self.relationships())

    def materialize(self, name: str = "") -> SocialGraph:
        """Copy the visible part of the graph into a standalone :class:`SocialGraph`."""
        result = SocialGraph(name=name)
        for user in self.users():
            result.add_user(user, **self._graph.attributes(user))
        for rel in self.relationships():
            result.add_relationship(rel.source, rel.target, rel.label, **dict(rel.attributes))
        return result

    def __repr__(self) -> str:
        return f"<GraphView over {self._graph!r}>"


def label_view(graph: SocialGraph, *labels: str) -> GraphView:
    """Return a view containing only relationships with one of ``labels``."""
    allowed = set(labels)
    return GraphView(graph, relationship_predicate=lambda rel: rel.label in allowed)


def trust_view(graph: SocialGraph, minimum_trust: float, attribute: str = "trust") -> GraphView:
    """Return a view keeping only relationships with trust >= ``minimum_trust``.

    Relationships without a trust attribute are treated as fully trusted
    (trust 1.0), matching the convention used by the Carminati baseline.
    """
    return GraphView(
        graph,
        relationship_predicate=lambda rel: float(rel.attributes.get(attribute, 1.0)) >= minimum_trust,
    )


def user_filter_view(graph: SocialGraph, predicate: UserPredicate) -> GraphView:
    """Return a view keeping only users for which ``predicate(user, attrs)`` is true."""
    return GraphView(graph, user_predicate=predicate)
