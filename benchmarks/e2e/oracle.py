"""Independent answer oracle: the paper's semantics, nothing shared.

An access condition is a sequence of steps ``(label, direction, [lo, hi],
conditions)``.  A step matches a walk of ``d`` consecutive edges, ``lo <= d
<= hi``, all carrying the step's label and all traversed in an authorized
direction (``+`` along the edge, ``-`` against it, ``*`` either), ending at a
user whose attributes satisfy every condition.  Steps chain: where one ends
the next begins.  The audience of an owner is every user at which the last
step can end; an access request is granted to the owner and to the audience
of any of the resource's rules.

This module parses the expression text itself and walks plain dict-of-set
adjacency built from ``SocialGraph.relationships()`` / ``attributes()``.  It
imports nothing from ``repro`` and keeps no cache, so it cannot share a bug
with the engine's parser, automaton, compiled sweeps, memos or planner.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Dict, Hashable, Iterable, List, Set, Tuple

_STEP = re.compile(
    r"\s*(?P<label>[A-Za-z_][A-Za-z0-9_]*)\s*(?P<dir>[+\-*])?\s*"
    r"(?:\[\s*(?P<lo>\d+)\s*(?:,\s*(?P<hi>\d+)\s*)?\])?\s*"
    r"(?:\{(?P<conds>[^}]*)\})?\s*$"
)
_COND = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(==|!=|<=|>=|=|<|>)\s*(.+?)\s*$")
_OPS = {
    "=": operator.eq, "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class Missing(Exception):
    """The asked-for user is not in the graph (the engine must raise
    ``NodeNotFoundError`` for the same request)."""


def _number(value: Any) -> Any:
    if isinstance(value, str):
        for cast in (int, float):
            try:
                return cast(value)
            except ValueError:
                pass
    return value


def parse(text: str) -> List[Tuple[str, str, int, int, List[Tuple[str, Any, Any]]]]:
    steps = []
    for part in text.split("/"):
        match = _STEP.match(part)
        if match is None:
            raise ValueError(f"oracle cannot parse step {part!r}")
        lo = int(match["lo"] or 1)
        hi = int(match["hi"] or lo)
        conditions = []
        for chunk in filter(None, (match["conds"] or "").split(",")):
            attribute, symbol, raw = _COND.match(chunk).groups()
            conditions.append((attribute, _OPS[symbol], _number(raw.strip("'\""))))
        steps.append((match["label"], match["dir"] or "+", lo, hi, conditions))
    return steps


class Oracle:
    """Plain adjacency + attributes, mutated only through :meth:`apply`."""

    def __init__(self, attributes: Dict[Hashable, Dict[str, Any]], edges: Iterable[Tuple]) -> None:
        self.attributes = attributes
        # label -> user -> neighbours, one table per direction.
        self.out: Dict[str, Dict[Hashable, Set[Hashable]]] = {}
        self.inn: Dict[str, Dict[Hashable, Set[Hashable]]] = {}
        for source, target, label in edges:
            self._add(source, target, label)

    @classmethod
    def from_graph(cls, graph) -> "Oracle":
        return cls(
            {user: dict(graph.attributes(user)) for user in graph.users()},
            ((rel.source, rel.target, rel.label) for rel in graph.relationships()),
        )

    def _add(self, source, target, label) -> None:
        self.out.setdefault(label, {}).setdefault(source, set()).add(target)
        self.inn.setdefault(label, {}).setdefault(target, set()).add(source)

    def _drop(self, source, target, label) -> None:
        self.out[label][source].discard(target)
        self.inn[label][target].discard(source)

    # ------------------------------------------------------------- mutation

    def apply(self, op: Tuple) -> None:
        """Mirror one churn op (same tuples ``apply_churn_op`` replays)."""
        kind = op[0]
        if kind == "add_edge":
            self._add(op[1], op[2], op[3])
        elif kind == "remove_edge":
            self._drop(op[1], op[2], op[3])
        elif kind == "set_attribute":
            self.attributes[op[1]][op[2]] = op[3]
        elif kind == "add_user":
            self.attributes[op[1]] = {}
        elif kind == "remove_user":
            user = op[1]
            del self.attributes[user]
            for table, mirror in ((self.out, self.inn), (self.inn, self.out)):
                for label, adjacency in table.items():
                    for other in adjacency.pop(user, ()):
                        mirror[label][other].discard(user)
        else:
            raise ValueError(f"unknown churn op {op!r}")

    def edge_set(self) -> Set[Tuple]:
        return {
            (source, target, label)
            for label, adjacency in self.out.items()
            for source, targets in adjacency.items()
            for target in targets
        }

    # -------------------------------------------------------------- answers

    def audience(self, owner: Hashable, text: str) -> Set[Hashable]:
        """Every user the expression can end at, walking from ``owner``.

        An absent owner has the empty audience (the sweep skips it)."""
        if owner not in self.attributes:
            return set()
        current: Set[Hashable] = {owner}
        for label, direction, lo, hi, conditions in parse(text):
            tables = []
            if direction in "+*":
                tables.append(self.out.get(label, {}))
            if direction in "-*":
                tables.append(self.inn.get(label, {}))
            ends: Set[Hashable] = set()
            frontier = current
            for depth in range(1, hi + 1):
                # Walk semantics: the users exactly ``depth`` edges away,
                # revisits allowed, so no visited set across depths.
                frontier = {
                    other
                    for table in tables
                    for user in frontier
                    for other in table.get(user, ())
                }
                if depth >= lo:
                    ends |= frontier
            current = {user for user in ends if self._satisfies(user, conditions)}
        return current

    def _satisfies(self, user: Hashable, conditions) -> bool:
        attributes = self.attributes[user]
        for attribute, compare, value in conditions:
            if attribute not in attributes:
                return False
            try:
                if not compare(_number(attributes[attribute]), value):
                    return False
            except TypeError:
                return False
        return True

    def reach(self, source: Hashable, target: Hashable, text: str) -> bool:
        for user in (source, target):
            if user not in self.attributes:
                raise Missing(user)
        return target in self.audience(source, text)

    def check(self, requester: Hashable, owner: Hashable, text: str) -> bool:
        """One single-rule resource: the owner, or the rule's audience."""
        if requester == owner:
            return True
        return self.reach(owner, requester, text)
