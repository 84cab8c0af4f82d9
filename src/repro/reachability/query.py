"""Line-query expansion of ordered label-constraint reachability queries.

An ordered label-constraint reachability query asks whether a source (the
resource owner) reaches a target (the requester) along a path that satisfies
a :class:`~repro.policy.path_expression.PathExpression`.  Section 3.1 of the
paper transforms each such query into one or more **line queries** before
evaluating it over the line-graph index: "Transforming an ordered
label-constraint reachability query may result in one or multiple line
queries depending on distance constraints".  A line query is a flat
sequence of single-edge hops — one hop per authorized depth unit — so the
query of Figure 2 (``friend+[1,2]/colleague+[1]``) expands into two line
queries, ``friend/colleague`` and ``friend/friend/colleague`` (Figure 4).
:func:`expand_line_queries` performs exactly that expansion, remembering for
every hop which original step it came from and whether it closes that step
(the hop where the step's attribute conditions must hold).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError
from repro.policy.path_expression import PathExpression
from repro.policy.steps import Direction, Step

__all__ = [
    "LineHop",
    "LineQuery",
    "check_expansion_limit",
    "expand_line_queries",
]

DEFAULT_EXPANSION_LIMIT = 4096


def check_expansion_limit(expression: PathExpression, limit: Optional[int]) -> None:
    """Reject empty expressions and ones whose depth expansion exceeds ``limit``.

    The single home of the expansion-limit policy: :func:`expand_line_queries`
    enforces it before materializing line queries, and the cluster backend's
    batched audience sweep (which needs no expansion) applies the same guard
    so batched and per-owner calls raise on exactly the same expressions.
    """
    if len(expression) == 0:
        raise QueryError("cannot expand an empty path expression")
    if limit is not None and expression.expansion_count() > limit:
        raise QueryError(
            f"expression {expression.to_text()!r} expands into "
            f"{expression.expansion_count()} line queries, above the limit of {limit}"
        )


@dataclass(frozen=True)
class LineHop:
    """One single-edge hop of a line query.

    ``step_index`` points back to the originating step of the path
    expression; ``closes_step`` marks the last hop of that step — the hop
    after which the step's attribute conditions apply to the reached user.
    """

    label: str
    direction: Direction
    step_index: int
    closes_step: bool

    def key(self) -> Tuple[str, str]:
        """The (label, direction symbol) pair used to pick the base table."""
        return (self.label, self.direction.value)

    def __str__(self) -> str:
        marker = "!" if self.closes_step else ""
        return f"{self.label}{self.direction.value}{marker}"


@dataclass(frozen=True)
class LineQuery:
    """A fully expanded query: a flat sequence of single-edge hops."""

    hops: Tuple[LineHop, ...]
    depths: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.hops)

    def __iter__(self) -> Iterator[LineHop]:
        return iter(self.hops)

    def label_sequence(self) -> Tuple[str, ...]:
        """The sequence of edge labels the line query matches."""
        return tuple(hop.label for hop in self.hops)

    def describe(self) -> str:
        """Return a compact textual form, e.g. ``friend+/friend+/colleague+``."""
        return "/".join(f"{hop.label}{hop.direction.value}" for hop in self.hops)

    def __str__(self) -> str:
        return self.describe()


def _hops_for_step(step: Step, step_index: int, depth: int) -> List[LineHop]:
    hops = []
    for position in range(depth):
        hops.append(
            LineHop(
                label=step.label,
                direction=step.direction,
                step_index=step_index,
                closes_step=(position == depth - 1),
            )
        )
    return hops


def expand_line_queries(
    expression: PathExpression,
    *,
    limit: Optional[int] = DEFAULT_EXPANSION_LIMIT,
) -> List[LineQuery]:
    """Expand a path expression into its line queries (Section 3.1, Figure 4).

    One line query is produced per combination of authorized depths, i.e.
    ``prod(step.depths.width() for step in expression)`` queries in total.
    ``limit`` guards against combinatorial blow-up of extremely wide
    expressions; ``None`` disables the guard.
    """
    check_expansion_limit(expression, limit)
    depth_choices: List[Sequence[int]] = [list(step.depths) for step in expression]
    queries: List[LineQuery] = []
    for combination in itertools.product(*depth_choices):
        hops: List[LineHop] = []
        for step_index, (step, depth) in enumerate(zip(expression, combination)):
            hops.extend(_hops_for_step(step, step_index, depth))
        queries.append(LineQuery(hops=tuple(hops), depths=tuple(combination)))
    # Shorter line queries first: they are cheaper to evaluate and more likely
    # to find a witness early, letting the evaluator stop.
    queries.sort(key=len)
    return queries
