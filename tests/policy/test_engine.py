"""Unit tests for the AccessControlEngine over the Figure-1 graph."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.datasets.paper_graph import ALICE, BILL, COLIN, DAVID, ELENA, FRED, GEORGE
from repro.exceptions import ResourceNotFoundError
from repro.policy.audit import AuditLog
from repro.policy.decisions import Effect
from repro.policy.engine import AccessControlEngine
from repro.policy.store import PolicyStore
from repro.reachability import available_backends


@pytest.fixture
def store():
    store = PolicyStore()
    store.share(ALICE, "photos", kind="album")
    store.share(ALICE, "unprotected", kind="note")
    store.share(DAVID, "jokes", kind="note")
    store.allow("photos", "friend+[1,2]/colleague+[1]", description="Q1")
    store.allow("jokes", "friend-[1]", description="whoever calls me a friend")
    return store


@pytest.fixture
def engine(figure1, store):
    return AccessControlEngine(figure1, store)


class TestBasicDecisions:
    def test_granted_request(self, engine):
        decision = engine.check_access(FRED, "photos")
        assert decision.granted and decision.effect is Effect.GRANT
        assert decision.owner == ALICE and decision.requester == FRED

    def test_denied_request(self, engine):
        decision = engine.check_access(GEORGE, "photos")
        assert not decision.granted

    def test_owner_always_allowed(self, engine):
        decision = engine.check_access(ALICE, "photos")
        assert decision.granted
        assert "owner" in decision.reason

    def test_unprotected_resource_denied_by_default(self, engine):
        assert not engine.check_access(BILL, "unprotected").granted

    def test_default_effect_can_be_grant(self, figure1, store):
        permissive = AccessControlEngine(figure1, store, default_effect=Effect.GRANT)
        assert permissive.check_access(BILL, "unprotected").granted

    def test_unknown_resource_raises(self, engine):
        with pytest.raises(ResourceNotFoundError):
            engine.check_access(BILL, "does-not-exist")

    def test_incoming_direction_rule(self, engine):
        assert engine.is_allowed(ELENA, "jokes")
        assert engine.is_allowed(COLIN, "jokes")
        assert not engine.is_allowed(BILL, "jokes")

    def test_is_allowed_matches_check_access(self, engine):
        for requester in (ALICE, BILL, COLIN, DAVID, ELENA, FRED, GEORGE):
            assert engine.is_allowed(requester, "photos") == engine.check_access(
                requester, "photos"
            ).granted


class TestExplanations:
    def test_granted_explanation_has_witness(self, engine):
        decision = engine.check_access(FRED, "photos", explain=True)
        witnesses = decision.witnesses()
        assert witnesses and witnesses[0].start == ALICE and witnesses[0].end == FRED

    def test_explain_text(self, engine):
        text = engine.explain(FRED, "photos")
        assert "GRANTED" in text and "Q1" not in text  # description lives on the rule, not the text header
        assert "Alice/friend+[1,2]/colleague+[1]" in text

    def test_a_fast_decision_carries_no_outcomes(self, engine):
        for requester in (FRED, GEORGE):
            assert engine.check_access(requester, "photos", explain=False).rule_outcomes == ()

    def test_denied_explanation_lists_unsatisfied_rules(self, engine):
        decision = engine.check_access(GEORGE, "photos", explain=True)
        assert decision.rule_outcomes
        assert all(not outcome.satisfied for outcome in decision.rule_outcomes)


class TestRuleFold:
    def test_a_check_stops_at_the_first_settled_value(self, figure1):
        # Colin is Alice's friend, not her colleague: the ANY rule is settled
        # by its first condition and ends the check; the ALL rule is settled
        # by its first, failing, condition.
        store = PolicyStore()
        store.share(ALICE, "any-first")
        store.allow("any-first", ["friend+[1]", "colleague+[1]"], combination="any")
        store.allow("any-first", "parent+[1]")
        store.share(ALICE, "all-first")
        store.allow("all-first", ["colleague+[1]", "friend+[1]"])
        engine = AccessControlEngine(figure1, store)
        for resource, granted in (("any-first", True), ("all-first", False)):
            with mock.patch.object(
                engine.reachability, "evaluate", wraps=engine.reachability.evaluate
            ) as evaluate:
                assert engine.is_allowed(COLIN, resource) is granted
            assert evaluate.call_count == 1, resource


class TestAudienceComputation:
    def test_filter_audience(self, engine, figure1):
        audience = engine.filter_audience("photos", figure1.users())
        assert audience == {ALICE, FRED}

    def test_authorized_audience(self, engine):
        assert engine.authorized_audience("photos") == {ALICE, FRED}
        assert engine.authorized_audience("jokes") == {DAVID, ELENA, COLIN}

    def test_authorized_audience_of_unprotected_resource_is_owner_only(self, engine):
        assert engine.authorized_audience("unprotected") == {ALICE}

    def test_default_grant_audience_is_every_user(self, figure1, store):
        # check grants every requester a rule-less resource under GRANT, so
        # its audience is the whole graph, not {owner}.
        permissive = AccessControlEngine(figure1, store, default_effect=Effect.GRANT)
        everyone = set(figure1.users())
        assert {user for user in everyone if permissive.is_allowed(user, "unprotected")} == everyone
        assert permissive.authorized_audience("unprotected") == everyone
        assert permissive.authorized_audience("photos") == {ALICE, FRED}

    def test_multi_condition_rule_audience_is_intersection(self, figure1):
        store = PolicyStore()
        store.share(ALICE, "draft")
        store.allow("draft", ["friend+[1,2]", "colleague+[1,2]"])
        engine = AccessControlEngine(figure1, store)
        assert engine.authorized_audience("draft") == {ALICE, DAVID}

    def test_any_combination_rule_audience_is_union(self, figure1):
        store = PolicyStore()
        store.share(ALICE, "draft")
        store.allow("draft", ["friend+[1]", "colleague+[1]"], combination="any")
        engine = AccessControlEngine(figure1, store)
        assert engine.authorized_audience("draft") == {ALICE, COLIN, BILL, DAVID}


class TestBackends:
    @pytest.mark.parametrize("backend", available_backends())
    def test_every_backend_produces_identical_decisions(self, figure1, store, backend):
        reference = AccessControlEngine(figure1, store, backend="bfs")
        candidate = AccessControlEngine(figure1, store, backend=backend)
        for requester in (ALICE, BILL, COLIN, DAVID, ELENA, FRED, GEORGE):
            for resource in ("photos", "jokes", "unprotected"):
                assert candidate.is_allowed(requester, resource) == reference.is_allowed(
                    requester, resource
                ), (backend, requester, resource)

    def test_statistics_include_policy_counts(self, engine):
        stats = engine.statistics()
        assert stats["resources"] == 3.0
        assert stats["rules"] == 2.0

    def test_repeated_checks_ride_the_decision_memo(self, figure1, engine):
        for _ in range(3):
            assert engine.check_access(FRED, "photos").granted
        info = engine.reachability.cache_info()
        assert info["hits"] >= 2

    def test_decision_memo_invalidated_by_graph_mutation(self, figure1, engine):
        assert not engine.is_allowed(GEORGE, "jokes")
        figure1.add_relationship(GEORGE, DAVID, "friend")
        assert engine.is_allowed(GEORGE, "jokes")
        figure1.remove_relationship(GEORGE, DAVID, "friend")
        assert not engine.is_allowed(GEORGE, "jokes")


class TestAuditIntegration:
    def test_decisions_are_recorded(self, figure1, store):
        log = AuditLog()
        engine = AccessControlEngine(figure1, store, audit_log=log)
        engine.is_allowed(FRED, "photos")
        engine.is_allowed(GEORGE, "photos")
        assert len(log) == 2
        assert len(log.grants()) == 1
        assert len(log.denials()) == 1
