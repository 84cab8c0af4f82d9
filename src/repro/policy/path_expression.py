"""Textual path expressions and their parser.

An access condition's path is written in a compact textual syntax, directly
mirroring the paper's notation (e.g. ``Alice/friend+[1,2]/colleague+[1]`` for
query Q1 of Figure 2 — the owner prefix is held by the
:class:`~repro.policy.rules.AccessCondition`, the rest is the path
expression)::

    expression := step ('/' step)*
    step       := label direction? interval? conditions?
    label      := identifier                       (relationship type)
    direction  := '+' | '-' | '*'                  (default '+': outgoing)
    interval   := '[' depth (',' depth)? ']'       (default [1,1])
    conditions := '{' condition (',' condition)* '}'
    condition  := attribute operator value         (see AttributeCondition)

Examples::

    friend                      a direct friend
    friend+[1,2]/colleague+[1]  colleagues of friends (up to friends of friends)
    friend*[1,3]{age >= 18}     adults within three friendship hops, any direction
    friend-/parent+             people whose friend the owner is, then their children
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, List, Tuple, Union

from repro.exceptions import PathExpressionSyntaxError
from repro.policy.conditions import AttributeCondition
from repro.policy.steps import DepthInterval, Direction, Step

__all__ = ["PathExpression", "as_path_expression", "parse_path_expression"]

# Labels may not contain '-' — it would be ambiguous with the incoming-direction
# symbol (``friend-``); use underscores for multi-word relationship types.
_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"\d+")


class _Scanner:
    """A tiny cursor over the expression text with error reporting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.position = 0

    def eof(self) -> bool:
        return self.position >= len(self.text)

    def peek(self) -> str:
        return self.text[self.position] if not self.eof() else ""

    def skip_spaces(self) -> None:
        while not self.eof() and self.text[self.position].isspace():
            self.position += 1

    def expect(self, char: str) -> None:
        if self.peek() != char:
            self.error(f"expected {char!r}")
        self.position += 1

    def match_regex(self, pattern: "re.Pattern[str]", description: str) -> str:
        match = pattern.match(self.text, self.position)
        if match is None:
            self.error(f"expected {description}")
        self.position = match.end()
        return match.group(0)

    def take_until(self, closing: str) -> str:
        start = self.position
        depth = 0
        while not self.eof():
            char = self.text[self.position]
            if char == "[":
                depth += 1
            elif char == "]" and depth > 0:
                depth -= 1
            elif char == closing and depth == 0:
                return self.text[start:self.position]
            self.position += 1
        self.error(f"missing closing {closing!r}")
        raise AssertionError("unreachable")

    def error(self, message: str) -> None:
        raise PathExpressionSyntaxError(self.text, self.position, message)


def _split_top_level(text: str, separator: str) -> List[str]:
    """Split on ``separator`` ignoring separators nested inside brackets."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char in "[{(":
            depth += 1
        elif char in "]})":
            depth -= 1
        if char == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def _parse_step(scanner: _Scanner) -> Step:
    scanner.skip_spaces()
    label = scanner.match_regex(_LABEL_RE, "a relationship label")
    direction = Direction.OUTGOING
    scanner.skip_spaces()
    if scanner.peek() and scanner.peek() in "+-*":
        direction = Direction.from_symbol(scanner.peek())
        scanner.position += 1
    depths = DepthInterval(1, 1)
    scanner.skip_spaces()
    if scanner.peek() == "[":
        scanner.expect("[")
        scanner.skip_spaces()
        low_text = scanner.match_regex(_INT_RE, "a depth")
        scanner.skip_spaces()
        if scanner.peek() == ",":
            scanner.expect(",")
            scanner.skip_spaces()
            high_text = scanner.match_regex(_INT_RE, "a depth")
        else:
            high_text = low_text
        scanner.skip_spaces()
        scanner.expect("]")
        try:
            depths = DepthInterval(int(low_text), int(high_text))
        except Exception as exc:  # RuleValidationError from DepthInterval
            scanner.error(str(exc))
    conditions: Tuple[AttributeCondition, ...] = ()
    scanner.skip_spaces()
    if scanner.peek() == "{":
        scanner.expect("{")
        body = scanner.take_until("}")
        scanner.expect("}")
        parsed = []
        for chunk in _split_top_level(body, ","):
            chunk = chunk.strip()
            if chunk:
                try:
                    parsed.append(AttributeCondition.parse(chunk))
                except Exception as exc:
                    scanner.error(f"invalid attribute condition {chunk!r}: {exc}")
        conditions = tuple(parsed)
    scanner.skip_spaces()
    return Step(label=label, direction=direction, depths=depths, conditions=conditions)


@dataclass(frozen=True)
class PathExpression:
    """An ordered sequence of steps — the path ``p`` of an access condition."""

    steps: Tuple[Step, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    # ----------------------------------------------------------- construction

    @classmethod
    def parse(cls, text: str) -> "PathExpression":
        """Parse an expression from its textual form.

        Raises :class:`~repro.exceptions.PathExpressionSyntaxError` with the
        offending position on malformed input.
        """
        scanner = _Scanner(text)
        scanner.skip_spaces()
        if scanner.eof():
            scanner.error("an access path needs at least one step")
        steps: List[Step] = [_parse_step(scanner)]
        while not scanner.eof():
            scanner.skip_spaces()
            if scanner.eof():
                break
            scanner.expect("/")
            steps.append(_parse_step(scanner))
        return cls(tuple(steps))

    @classmethod
    def of(cls, *steps: Step) -> "PathExpression":
        """Build an expression directly from :class:`Step` objects."""
        return cls(tuple(steps))

    # ---------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> Step:
        return self.steps[index]

    def labels(self) -> Tuple[str, ...]:
        """Return the relationship types used, in step order."""
        return tuple(step.label for step in self.steps)

    def min_length(self) -> int:
        """The shortest path length (in edges) that can satisfy the expression."""
        return sum(step.min_depth() for step in self.steps)

    def max_length(self) -> int:
        """The longest path length (in edges) that can satisfy the expression."""
        return sum(step.max_depth() for step in self.steps)

    def expansion_count(self) -> int:
        """Number of distinct depth combinations (= line queries after expansion)."""
        count = 1
        for step in self.steps:
            count *= step.depths.width()
        return count

    def has_attribute_conditions(self) -> bool:
        """Whether any step constrains user attributes."""
        return any(step.conditions for step in self.steps)

    @cached_property
    def _text(self) -> str:
        # Rendered once per instance: the canonical text keys every memo on
        # the request path (plan cache, decision memo, outcome feedback).
        return "/".join(step.to_text() for step in self.steps)

    def to_text(self) -> str:
        """Render the expression in the textual syntax accepted by :meth:`parse`."""
        return self._text

    def __str__(self) -> str:
        return self.to_text()


def parse_path_expression(text: str) -> PathExpression:
    """Module-level convenience alias for :meth:`PathExpression.parse`."""
    return PathExpression.parse(text)


#: The one bounded ``text -> PathExpression`` memo (thread-safe; syntax errors
#: are raised, never cached).  :meth:`PathExpression.parse` stays uncached.
parse_cached = lru_cache(maxsize=4096)(PathExpression.parse)


def as_path_expression(expression: Union[str, PathExpression]) -> PathExpression:
    """Coerce query input: text is parsed (memoized), an expression passes through.

    Every layer that accepts ``str | PathExpression`` (service facade,
    reachability engine, shard router) coerces through here, so hot texts
    are parsed once per process and share one parsed — and once-rendered —
    instance.
    """
    if isinstance(expression, PathExpression):
        return expression
    return parse_cached(expression)
