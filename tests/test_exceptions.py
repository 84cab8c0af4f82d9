"""Unit tests for the exception hierarchy and the top-level package surface."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


class TestHierarchy:
    def test_every_library_error_derives_from_repro_error(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not exceptions.ReproError:
                if obj.__module__ == "repro.exceptions":
                    assert issubclass(obj, exceptions.ReproError), name

    def test_subsystem_bases(self):
        assert issubclass(exceptions.NodeNotFoundError, exceptions.GraphError)
        assert issubclass(exceptions.PathExpressionSyntaxError, exceptions.PolicyError)
        assert issubclass(exceptions.UnknownBackendError, exceptions.ReachabilityError)

    def test_lookup_errors_are_also_key_errors(self):
        assert issubclass(exceptions.NodeNotFoundError, KeyError)
        assert issubclass(exceptions.ResourceNotFoundError, KeyError)

    def test_messages_are_readable(self):
        assert "alice" in str(exceptions.NodeNotFoundError("alice"))
        assert "friend" in str(exceptions.EdgeNotFoundError("a", "b", "friend"))
        assert "album" in str(exceptions.ResourceNotFoundError("album"))
        assert "r1" in str(exceptions.RuleNotFoundError("r1"))

    def test_unknown_backend_lists_alternatives(self):
        error = exceptions.UnknownBackendError("oracle", available=["bfs", "dfs"])
        assert "oracle" in str(error) and "bfs" in str(error)

    def test_path_expression_error_carries_location(self):
        error = exceptions.PathExpressionSyntaxError("friend[", 7, "missing ]")
        assert error.position == 7
        assert error.expression == "friend["
        assert "missing ]" in str(error)


class TestPackageSurface:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example_works(self):
        """The doctest embedded in the package docstring must stay true."""
        graph = repro.SocialGraph()
        for user in ("alice", "bob", "carol"):
            graph.add_user(user)
        graph.add_relationship("alice", "bob", "friend")
        graph.add_relationship("bob", "carol", "friend")
        store = repro.PolicyStore()
        store.share("alice", "holiday-album", kind="photos")
        store.allow("holiday-album", "friend+[1,2]")
        engine = repro.AccessControlEngine(graph, store)
        assert engine.is_allowed("carol", "holiday-album")

    def test_subpackage_all_exports_resolve(self):
        import repro.graph
        import repro.policy
        import repro.reachability
        import repro.workloads

        for module in (repro.graph, repro.policy, repro.reachability, repro.workloads):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)
