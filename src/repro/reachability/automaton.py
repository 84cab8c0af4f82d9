"""A step automaton: the compiled form of a path expression.

The online evaluator (``bfs``) walks the product of the social graph and a
small automaton derived from the path expression.  An automaton *state* is a
pair ``(step_index, depth)`` meaning "``depth`` edges of step ``step_index``
have been traversed so far".  Transitions:

* **edge transition** — from ``(i, d)`` with ``d < max_depth(i)``, traverse
  one more edge matching step ``i``'s label and direction, reaching
  ``(i, d + 1)``;
* **step advance** (spontaneous) — from ``(i, d)`` with ``d`` inside step
  ``i``'s authorized depth interval and the current user satisfying step
  ``i``'s attribute conditions, move to ``(i + 1, 0)``;
* **acceptance** — the state ``(len(steps), 0)`` is accepting: every step has
  been matched, the current user is the requester candidate.

The automaton is deterministic in structure but the product walk is not (a
user may be reached in several states), which is why the evaluators keep a
visited set of ``(user, state)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Mapping, Tuple

from repro.policy.path_expression import PathExpression
from repro.policy.steps import Step

__all__ = ["AutomatonState", "StepAutomaton"]


@dataclass(frozen=True, order=True)
class AutomatonState:
    """A position in the expression: ``depth`` edges into step ``step_index``."""

    step_index: int
    depth: int

    def __str__(self) -> str:
        return f"(step={self.step_index}, depth={self.depth})"


class StepAutomaton:
    """The compiled path expression used by the online evaluators."""

    def __init__(self, expression: PathExpression) -> None:
        self.expression = expression
        self._steps: Tuple[Step, ...] = tuple(expression)

    # ---------------------------------------------------------------- states

    @property
    def start_state(self) -> AutomatonState:
        """The initial state: about to start the first step."""
        return AutomatonState(0, 0)

    def is_accepting(self, state: AutomatonState) -> bool:
        """Whether the state means "the whole expression has been matched"."""
        return state.step_index >= len(self._steps)

    def step(self, state: AutomatonState) -> Step:
        """Return the step being matched in ``state``."""
        return self._steps[state.step_index]

    def state_count_bound(self) -> int:
        """An upper bound on the number of distinct automaton states."""
        return sum(step.max_depth() + 1 for step in self._steps) + 1

    # ----------------------------------------------------------- transitions

    def edge_requirements(self, state: AutomatonState) -> Tuple[str, bool, bool]:
        """Return ``(label, allow_forward, allow_backward)`` for the next edge.

        Only meaningful for non-accepting states where another edge of the
        current step may still be traversed.
        """
        step = self.step(state)
        return (step.label, step.direction.allows_forward(), step.direction.allows_backward())

    def can_traverse_more(self, state: AutomatonState) -> bool:
        """Whether another edge of the current step may be traversed."""
        if self.is_accepting(state):
            return False
        return state.depth < self.step(state).max_depth()

    def after_edge(self, state: AutomatonState) -> AutomatonState:
        """The state reached after traversing one more edge of the current step."""
        return AutomatonState(state.step_index, state.depth + 1)

    def closure(
        self,
        state: AutomatonState,
        attributes: Mapping[str, Any],
    ) -> List[AutomatonState]:
        """Return ``state`` plus every state reachable by spontaneous step advances.

        A step advance requires the current depth to be an authorized depth of
        the current step and the current user's ``attributes`` to satisfy the
        step's conditions.  Advancing can cascade only when a later step
        allowed depth 0, which never happens (depths are >= 1), so at most one
        advance applies per closure from a non-initial depth; the initial
        state of each step is still returned so the caller sees both options.
        """
        states = [state]
        current = state
        while not self.is_accepting(current):
            step = self.step(current)
            if current.depth in step.depths and step.satisfied_by(attributes):
                current = AutomatonState(current.step_index + 1, 0)
                states.append(current)
            else:
                break
        return states

    def __repr__(self) -> str:
        return f"<StepAutomaton over {self.expression.to_text()!r}>"

    def __iter__(self) -> Iterator[Step]:
        return iter(self._steps)
