"""End-to-end reproduction of every worked example in the paper, on every backend.

Each example runs on every evaluator directly and through the served
facade (:class:`GraphService`) on every route it offers: auto-planning,
each backend pin, and the sharded router.
"""

from __future__ import annotations

import pytest

from repro.datasets.paper_graph import (
    ALICE,
    BILL,
    COLIN,
    DAVID,
    DAVID_EXTENDED_AUDIENCE,
    DAVID_EXTENDED_AUDIENCE_EXPRESSION,
    DAVID_INCOMING_FRIENDS,
    DAVID_INCOMING_FRIENDS_EXPRESSION,
    ELENA,
    FRED,
    FRIEND_PATH_EXPRESSION,
    GEORGE,
    Q1_EXPECTED_AUDIENCE,
    Q1_EXPRESSION,
    WORKED_EXAMPLE_EXPECTED_AUDIENCE,
    WORKED_EXAMPLE_EXPRESSION,
    WORKED_EXAMPLE_WITNESS_NODES,
    paper_graph,
)
from repro.policy import AccessControlEngine, PathExpression, PolicyStore
from repro.reachability import available_backends, create_evaluator
from repro.service import GraphService

BACKENDS = available_backends()

#: Every way the facade can serve a query.  The sharded router decodes no
#: witnesses (its masks cross shards as messages), so witness examples
#: leave it out.
SERVICE_ROUTES = ("auto", *BACKENDS, "sharded")
LANES = (*BACKENDS, *(f"service-{route}" for route in SERVICE_ROUTES))
WITNESS_LANES = tuple(lane for lane in LANES if lane != "service-sharded")


def _service(graph, route, store=None):
    return GraphService(graph, store, shards=2 if route == "sharded" else 0)


class _ServedEvaluator:
    """``find_targets`` / ``evaluate`` answered by a GraphService on one route."""

    def __init__(self, graph, route):
        self.service = _service(graph, route)
        self.route = route

    def _check_route(self, result):
        if self.route != "auto":
            assert result.plan.backend == self.route

    def find_targets(self, owner, expression):
        result = self.service.audience(owner, expression, backend=self.route)
        self._check_route(result)
        return set(result[owner])

    def evaluate(self, source, target, expression):
        result = self.service.reach(source, target, expression, backend=self.route)
        self._check_route(result)
        return result


def _lane(graph, lane):
    if lane.startswith("service-"):
        return _ServedEvaluator(graph, lane[len("service-"):])
    return create_evaluator(lane, graph)


@pytest.fixture(scope="module")
def graph():
    return paper_graph()


@pytest.fixture(scope="module", params=LANES)
def evaluator(request, graph):
    return _lane(graph, request.param)


@pytest.fixture(scope="module", params=WITNESS_LANES)
def witnessing_evaluator(request, graph):
    return _lane(graph, request.param)


class TestFigure2QueryQ1:
    """Q1: Alice/friend+[1,2]/colleague+[1] — 'colleagues of Alice's friends within 2 hops'."""

    def test_q1_audience_is_exactly_fred(self, evaluator):
        expression = PathExpression.parse(Q1_EXPRESSION)
        assert evaluator.find_targets(ALICE, expression) == Q1_EXPECTED_AUDIENCE == {FRED}

    def test_q1_grants_fred(self, evaluator):
        expression = PathExpression.parse(Q1_EXPRESSION)
        assert evaluator.evaluate(ALICE, FRED, expression).reachable

    @pytest.mark.parametrize("denied", [BILL, COLIN, DAVID, ELENA, GEORGE])
    def test_q1_denies_everyone_else(self, evaluator, denied):
        expression = PathExpression.parse(Q1_EXPRESSION)
        assert not evaluator.evaluate(ALICE, denied, expression).reachable

    def test_q1_witness_goes_through_a_friend_then_a_colleague(self, witnessing_evaluator):
        expression = PathExpression.parse(Q1_EXPRESSION)
        result = witnessing_evaluator.evaluate(ALICE, FRED, expression)
        assert result.witness is not None
        labels = result.witness.labels()
        assert labels[-1] == "colleague"
        assert set(labels[:-1]) == {"friend"}
        assert result.witness.start == ALICE
        assert result.witness.end == FRED

    def test_q1_expansion_produces_two_line_queries(self):
        """Section 3.1: 'The transformation results, then, in two line queries.'"""
        from repro.reachability.query import expand_line_queries

        expression = PathExpression.parse(Q1_EXPRESSION)
        queries = expand_line_queries(expression)
        assert len(queries) == 2
        assert sorted(query.label_sequence() for query in queries) == [
            ("friend", "colleague"),
            ("friend", "friend", "colleague"),
        ]


class TestSection34WorkedExample:
    """Alice shares with the friends of her friends' parents; George is granted."""

    def test_audience_is_exactly_george(self, evaluator):
        expression = PathExpression.parse(WORKED_EXAMPLE_EXPRESSION)
        assert (
            evaluator.find_targets(ALICE, expression)
            == WORKED_EXAMPLE_EXPECTED_AUDIENCE
            == {GEORGE}
        )

    def test_witness_is_alice_colin_fred_george(self, witnessing_evaluator):
        expression = PathExpression.parse(WORKED_EXAMPLE_EXPRESSION)
        result = witnessing_evaluator.evaluate(ALICE, GEORGE, expression)
        assert result.reachable
        assert result.witness is not None
        assert result.witness.nodes() == WORKED_EXAMPLE_WITNESS_NODES

    @pytest.mark.parametrize("denied", [BILL, COLIN, DAVID, ELENA, FRED])
    def test_everyone_else_is_denied(self, evaluator, denied):
        expression = PathExpression.parse(WORKED_EXAMPLE_EXPRESSION)
        assert not evaluator.evaluate(ALICE, denied, expression).reachable


class TestSection2DavidExamples:
    """'David is able to share his jokes with those who consider him as a friend...'."""

    def test_incoming_friends_are_elena_and_colin(self, evaluator):
        expression = PathExpression.parse(DAVID_INCOMING_FRIENDS_EXPRESSION)
        assert evaluator.find_targets(DAVID, expression) == DAVID_INCOMING_FRIENDS

    def test_extended_audience_includes_bill_and_george(self, evaluator):
        expression = PathExpression.parse(DAVID_EXTENDED_AUDIENCE_EXPRESSION)
        audience = evaluator.find_targets(DAVID, expression)
        assert audience == DAVID_EXTENDED_AUDIENCE
        assert {BILL, GEORGE} <= audience


class TestDefinition1FriendPath:
    """'From Alice to George, there is a friend-typed path of length 3.'"""

    def test_friend_depth3_reaches_george(self, witnessing_evaluator):
        expression = PathExpression.parse(FRIEND_PATH_EXPRESSION)
        result = witnessing_evaluator.evaluate(ALICE, GEORGE, expression)
        assert result.reachable
        assert result.witness is not None
        assert len(result.witness) == 3
        assert set(result.witness.labels()) == {"friend"}


def _birthday_store():
    store = PolicyStore()
    store.share(COLIN, "colin-birthday", kind="photos")
    store.allow("colin-birthday", "friend+[1]", description="my friends")
    store.allow("colin-birthday", "parent+[1]", description="my children")
    return store


def _notes_store():
    store = PolicyStore()
    store.share(DAVID, "david-notes", kind="notes")
    store.allow("david-notes", ["parent+[1]/friend+[1]"], description="friends of my children")
    store.allow("david-notes", ["parent+[1]"], description="my children")
    return store


def _draft_store():
    store = PolicyStore()
    store.share(ALICE, "alice-draft", kind="document")
    store.allow("alice-draft", ["friend+[1,2]", "colleague+[1,2]"])
    return store


class TestIntroductionScenarios:
    """Access rules from the introduction, expressed and enforced over Figure 1."""

    def test_only_friends_and_children_see_birthday_photos(self, graph):
        engine = AccessControlEngine(graph, _birthday_store())
        # Colin's outgoing friend edge goes to David; his child is Fred.
        assert engine.is_allowed(DAVID, "colin-birthday")
        assert engine.is_allowed(FRED, "colin-birthday")
        assert engine.is_allowed(COLIN, "colin-birthday")  # owner
        for other in (ALICE, BILL, ELENA, GEORGE):
            assert not engine.is_allowed(other, "colin-birthday")

    def test_children_and_their_friends_read_the_notes(self, graph):
        engine = AccessControlEngine(graph, _notes_store())
        # David's child is George; George has no outgoing friend edge, so the
        # audience is exactly {George} (plus David, the owner).
        assert engine.authorized_audience("david-notes") == {DAVID, GEORGE}

    def test_multi_condition_rule_requires_all_conditions(self, graph):
        engine = AccessControlEngine(graph, _draft_store())
        # David is a colleague (direct) and a friend of a friend (via Colin): granted.
        assert engine.is_allowed(DAVID, "alice-draft")
        # Colin is only a friend, not reachable by colleague edges: denied.
        assert not engine.is_allowed(COLIN, "alice-draft")


@pytest.mark.parametrize("route", SERVICE_ROUTES)
class TestIntroductionScenariosThroughTheService:
    """The same rules, checked and materialized by the facade on every route."""

    def test_only_friends_and_children_see_birthday_photos(self, graph, route):
        service = _service(graph, route, _birthday_store())
        granted = {
            user
            for user in graph.users()
            if service.check(user, "colin-birthday", backend=route).granted
        }
        assert granted == {COLIN, DAVID, FRED}
        assert service.bulk_access(["colin-birthday"], backend=route)["colin-birthday"] == granted

    def test_children_and_their_friends_read_the_notes(self, graph, route):
        service = _service(graph, route, _notes_store())
        result = service.bulk_access(["david-notes"], backend=route)
        assert result["david-notes"] == {DAVID, GEORGE}
        assert service.check(GEORGE, "david-notes", backend=route).granted
        assert not service.check(FRED, "david-notes", backend=route).granted

    def test_multi_condition_rule_requires_all_conditions(self, graph, route):
        service = _service(graph, route, _draft_store())
        assert service.check(DAVID, "alice-draft", backend=route).granted
        assert not service.check(COLIN, "alice-draft", backend=route).granted


class TestBackendAgreementOnPaperGraph:
    """All backends must return the same decision for every (user, expression) pair."""

    EXPRESSIONS = [
        Q1_EXPRESSION,
        WORKED_EXAMPLE_EXPRESSION,
        DAVID_INCOMING_FRIENDS_EXPRESSION,
        DAVID_EXTENDED_AUDIENCE_EXPRESSION,
        "friend+[1]",
        "friend+[1,3]",
        "colleague+[1]/friend+[1]",
        "parent+[1]/friend+[1]{age >= 18}",
        "friend*[1,2]",
        "friend*[1,2]{gender = female}",
    ]

    @pytest.mark.parametrize("expression_text", EXPRESSIONS)
    def test_same_audience_for_every_backend(self, graph, expression_text):
        expression = PathExpression.parse(expression_text)
        audiences = {}
        for backend in BACKENDS:
            evaluator = create_evaluator(backend, graph)
            for owner in (ALICE, DAVID, ELENA):
                audiences.setdefault(owner, set())
                audience = frozenset(evaluator.find_targets(owner, expression))
                audiences[owner].add(audience)
        for owner, variants in audiences.items():
            assert len(variants) == 1, f"backends disagree for owner {owner}: {variants}"
