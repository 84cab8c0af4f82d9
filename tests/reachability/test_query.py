"""Unit tests for line-query expansion (Fig. 4)."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.policy.path_expression import PathExpression
from repro.policy.steps import Direction
from repro.reachability.query import LineHop, expand_line_queries


class TestLineHop:
    def test_key_and_str(self):
        hop = LineHop("friend", Direction.INCOMING, step_index=0, closes_step=True)
        assert hop.key() == ("friend", "-")
        assert str(hop) == "friend-!"


class TestExpansion:
    def test_q1_expands_into_two_line_queries(self):
        expression = PathExpression.parse("friend+[1,2]/colleague+[1]")
        queries = expand_line_queries(expression)
        assert len(queries) == 2
        assert [query.label_sequence() for query in queries] == [
            ("friend", "colleague"),
            ("friend", "friend", "colleague"),
        ]

    def test_expansion_count_matches_interval_product(self):
        expression = PathExpression.parse("friend+[1,3]/colleague+[2,3]")
        queries = expand_line_queries(expression)
        assert len(queries) == expression.expansion_count() == 6

    def test_exact_depth_expands_to_single_query(self):
        queries = expand_line_queries(PathExpression.parse("friend[2]"))
        assert len(queries) == 1
        assert queries[0].label_sequence() == ("friend", "friend")
        assert queries[0].depths == (2,)

    def test_queries_sorted_by_length(self):
        expression = PathExpression.parse("friend+[1,3]")
        lengths = [len(query) for query in expand_line_queries(expression)]
        assert lengths == sorted(lengths) == [1, 2, 3]

    def test_step_index_and_closing_flags(self):
        expression = PathExpression.parse("friend+[2]/colleague+[1]")
        (query,) = expand_line_queries(expression)
        hops = list(query)
        assert [hop.step_index for hop in hops] == [0, 0, 1]
        assert [hop.closes_step for hop in hops] == [False, True, True]

    def test_directions_carried_to_hops(self):
        expression = PathExpression.parse("friend-[2]")
        (query,) = expand_line_queries(expression)
        assert all(hop.direction is Direction.INCOMING for hop in query)

    def test_depths_recorded_per_query(self):
        expression = PathExpression.parse("friend+[1,2]/colleague+[1,2]")
        depth_tuples = {query.depths for query in expand_line_queries(expression)}
        assert depth_tuples == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_describe(self):
        (query,) = expand_line_queries(PathExpression.parse("friend-[1]/colleague+[1]"))
        assert query.describe() == "friend-/colleague+"

    def test_empty_expression_rejected(self):
        with pytest.raises(QueryError):
            expand_line_queries(PathExpression(()))

    def test_expansion_limit_guard(self):
        expression = PathExpression.parse("friend+[1,10]/colleague+[1,10]/parent+[1,10]")
        with pytest.raises(QueryError):
            expand_line_queries(expression, limit=100)
        assert len(expand_line_queries(expression, limit=None)) == 1000
