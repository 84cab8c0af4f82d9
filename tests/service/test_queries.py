"""The typed query layer: normalization, validation, immutability."""

from __future__ import annotations

import dataclasses

import pytest

from repro.service.queries import (
    AccessQuery,
    AudienceQuery,
    BulkAccessQuery,
    ReachQuery,
)


class TestReachQuery:
    def test_defaults_and_kind(self):
        query = ReachQuery("a", "b", "friend+[1]")
        assert query.collect_witness is True
        assert query.backend is None
        assert query.kind == "reach"

    def test_is_frozen(self):
        query = ReachQuery("a", "b", "friend+[1]")
        with pytest.raises(dataclasses.FrozenInstanceError):
            query.source = "c"


class TestAudienceQuery:
    def test_single_owner_becomes_a_tuple(self):
        assert AudienceQuery("alice", "friend+[1]").owners == ("alice",)

    def test_iterables_normalize_to_tuples(self):
        assert AudienceQuery(["a", "b"], "friend+[1]").owners == ("a", "b")
        assert AudienceQuery(("a", "b"), "friend+[1]").owners == ("a", "b")

    def test_sets_get_a_deterministic_order(self):
        assert AudienceQuery({"b", "a"}, "friend+[1]").owners == ("a", "b")

    def test_kind(self):
        assert AudienceQuery("a", "friend+[1]").kind == "audience"


class TestAccessQuery:
    def test_defaults(self):
        query = AccessQuery("bob", "photos")
        assert query.explain is True and query.backend is None
        assert query.kind == "access"


class TestBulkAccessQuery:
    def test_resource_ids_normalize(self):
        assert BulkAccessQuery("photos").resource_ids == ("photos",)
        assert BulkAccessQuery(["a", "b"]).resource_ids == ("a", "b")

