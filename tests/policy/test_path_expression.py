"""Unit tests for the path-expression parser and renderer."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import PathExpressionSyntaxError
from repro.policy.path_expression import (
    PathExpression,
    as_path_expression,
    parse_cached,
    parse_path_expression,
)
from repro.policy.steps import DepthInterval, Direction, Step


class TestParsingBasics:
    def test_single_label_defaults(self):
        expression = PathExpression.parse("friend")
        assert len(expression) == 1
        step = expression[0]
        assert step.label == "friend"
        assert step.direction is Direction.OUTGOING
        assert step.depths == DepthInterval(1, 1)
        assert step.conditions == ()

    def test_paper_query_q1(self):
        expression = PathExpression.parse("friend+[1,2]/colleague+[1]")
        assert expression.labels() == ("friend", "colleague")
        assert expression[0].depths == DepthInterval(1, 2)
        assert expression[1].depths == DepthInterval(1, 1)

    def test_directions(self):
        expression = PathExpression.parse("friend-/parent*/colleague+")
        assert [step.direction for step in expression] == [
            Direction.INCOMING,
            Direction.ANY,
            Direction.OUTGOING,
        ]

    def test_single_depth_interval(self):
        assert PathExpression.parse("friend[3]")[0].depths == DepthInterval(3, 3)

    def test_whitespace_tolerated(self):
        expression = PathExpression.parse("  friend + [1, 2]  /  colleague [1] ")
        assert expression.labels() == ("friend", "colleague")
        assert expression[0].depths == DepthInterval(1, 2)

    def test_attribute_conditions(self):
        expression = PathExpression.parse("friend+[1,2]{age >= 18, gender = female}")
        conditions = expression[0].conditions
        assert len(conditions) == 2
        assert conditions[0].attribute == "age" and conditions[0].value == 18
        assert conditions[1].attribute == "gender" and conditions[1].value == "female"

    def test_condition_with_list_value(self):
        expression = PathExpression.parse("friend{city in [paris, rome]}")
        assert expression[0].conditions[0].value == ("paris", "rome")

    def test_underscore_labels(self):
        assert PathExpression.parse("best_friend")[0].label == "best_friend"

    def test_module_level_helper(self):
        assert parse_path_expression("friend") == PathExpression.parse("friend")


class TestParsingErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "/friend",
            "friend//colleague",
            "friend/",
            "friend[",
            "friend[1",
            "friend[a]",
            "friend[2,1]",
            "friend[0]",
            "friend{age >>> 3}",
            "friend{broken",
            "123friend",
            "friend colleague",
        ],
    )
    def test_malformed_expressions_raise(self, text):
        with pytest.raises(PathExpressionSyntaxError):
            PathExpression.parse(text)

    def test_error_carries_position_and_expression(self):
        with pytest.raises(PathExpressionSyntaxError) as excinfo:
            PathExpression.parse("friend[1")
        error = excinfo.value
        assert error.expression == "friend[1"
        assert isinstance(error.position, int)
        assert "friend[1" in str(error)


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "friend+[1]",
            "friend+[1,2]/colleague+[1]",
            "friend-[2]/parent*[1,3]",
            "friend+[1,2]{age >= 18}/colleague+[1]{city = paris}",
        ],
    )
    def test_round_trip(self, text):
        expression = PathExpression.parse(text)
        assert PathExpression.parse(expression.to_text()) == expression

    def test_to_text_of_defaults_is_canonical(self):
        assert PathExpression.parse("friend").to_text() == "friend+[1]"

    def test_str(self):
        assert str(PathExpression.parse("friend/parent")) == "friend+[1]/parent+[1]"


class TestProperties:
    def test_lengths(self):
        expression = PathExpression.parse("friend+[1,2]/colleague+[2,3]")
        assert expression.min_length() == 3
        assert expression.max_length() == 5

    def test_expansion_count(self):
        expression = PathExpression.parse("friend+[1,2]/colleague+[1,3]")
        assert expression.expansion_count() == 6

    def test_has_attribute_conditions(self):
        assert not PathExpression.parse("friend").has_attribute_conditions()
        assert PathExpression.parse("friend{age>=18}").has_attribute_conditions()

    def test_of_constructor_and_indexing(self):
        steps = (Step("friend"), Step("colleague", direction=Direction.ANY))
        expression = PathExpression.of(*steps)
        assert expression[1].direction is Direction.ANY
        assert list(expression) == list(steps)

    def test_labels(self):
        assert PathExpression.parse("a/b/a").labels() == ("a", "b", "a")


class TestSharedParseMemo:
    def test_text_is_parsed_once_and_expressions_pass_through(self):
        first = as_path_expression("friend+[1,2]/colleague+[1]")
        assert as_path_expression("friend+[1,2]/colleague+[1]") is first
        assert as_path_expression(first) is first
        assert first == PathExpression.parse("friend+[1,2]/colleague+[1]")

    def test_parse_itself_stays_uncached(self):
        text = "friend+[1,2]"
        assert PathExpression.parse(text) is not PathExpression.parse(text)

    def test_the_memo_is_bounded(self):
        limit = parse_cached.cache_info().maxsize
        assert limit == 4096
        for index in range(limit + 64):
            as_path_expression(f"friend+[1]/label_{index}+[1]")
        assert parse_cached.cache_info().currsize == limit

    def test_syntax_errors_are_raised_every_time(self):
        for _ in range(2):
            with pytest.raises(PathExpressionSyntaxError):
                as_path_expression("friend+[")

    def test_canonical_text_is_rendered_once_per_instance(self):
        expression = PathExpression.parse("friend/parent")
        assert expression.to_text() is expression.to_text()
        assert expression.to_text() == "friend+[1]/parent+[1]"

    def test_loop_thread_and_worker_thread_get_equal_expressions(self):
        text = "friend*[1,3]{age >= 18}/colleague-[2]"

        async def main():
            worker = asyncio.get_running_loop().run_in_executor(
                None, as_path_expression, text
            )
            return as_path_expression(text), await worker

        on_loop, on_worker = asyncio.run(main())
        assert on_loop == on_worker == PathExpression.parse(text)
        assert on_loop.to_text() == on_worker.to_text()
