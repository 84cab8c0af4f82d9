"""Batched audience materialization: ``find_targets_many`` across the stack.

The batched sweep must be a pure optimization: for every backend and every
owner it returns exactly what a per-owner ``find_targets`` loop returns, it
composes with the engine's epoch-stamped target-set memo, and the policy
engine's bulk ``authorized_audiences`` matches the per-resource API.
"""

from __future__ import annotations

import pytest

from repro.policy.path_expression import PathExpression
from repro.policy.rules import AccessRule
from repro.policy.store import PolicyStore
from repro.policy.engine import AccessControlEngine
from repro.reachability.engine import ReachabilityEngine, available_backends, create_evaluator


EXPRESSIONS = ["friend+[1]", "friend+[1,2]", "friend*[1,2]", "friend+[1,2]/colleague+[1]"]


class TestBackendsMatchThePerOwnerLoop:
    @pytest.mark.parametrize("backend", ["bfs", "dfs", "transitive-closure", "cluster-index"])
    def test_batched_equals_looped(self, backend, figure1):
        evaluator = create_evaluator(backend, figure1)
        owners = sorted(figure1.users())
        for text in EXPRESSIONS:
            expression = PathExpression.parse(text)
            batched = evaluator.find_targets_many(owners, expression)
            assert set(batched) == set(owners)
            for owner in owners:
                assert batched[owner] == evaluator.find_targets(owner, expression), (
                    backend, text, owner,
                )


class TestEngineFacade:
    def test_engine_batched_matches_singles(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        owners = sorted(figure1.users())
        audiences = engine.find_targets_many(owners, "friend+[1,2]")
        for owner in owners:
            assert audiences[owner] == engine.find_targets(owner, "friend+[1,2]")

    def test_warm_cache_serves_hits_and_computes_only_the_misses(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        engine.find_targets("Alice", "friend+[1]")
        assert engine.cache_info()["misses"] == 1
        audiences = engine.find_targets_many(["Alice", "Bill"], "friend+[1]")
        info = engine.cache_info()
        assert info["hits"] == 1  # Alice came from the memo
        assert info["misses"] == 2  # the original miss + Bill
        assert audiences["Alice"] == engine.find_targets("Alice", "friend+[1]")

    def test_duplicate_owners_are_deduplicated(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs", cache_size=0)
        audiences = engine.find_targets_many(["Alice", "Alice", "Bill"], "friend+[1]")
        assert set(audiences) == {"Alice", "Bill"}

    def test_results_are_private_copies(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        first = engine.find_targets_many(["Alice"], "friend+[1]")["Alice"]
        first.add("intruder")
        assert "intruder" not in engine.find_targets("Alice", "friend+[1]")

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_every_backend_is_dispatchable_through_the_facade(self, backend, figure1):
        engine = ReachabilityEngine(figure1, backend)
        reference = ReachabilityEngine(figure1, "bfs", cache_size=0)
        owners = ["Alice", "David", "George"]
        audiences = engine.find_targets_many(owners, "friend*[1,2]")
        for owner in owners:
            assert audiences[owner] == reference.find_targets(owner, "friend*[1,2]"), (
                backend, owner,
            )


class TestPolicyBulkAudiences:
    def _store(self) -> PolicyStore:
        store = PolicyStore()
        store.share("Alice", "photos")
        store.add_rule(AccessRule.build("photos", "Alice", "friend+[1,2]/colleague+[1]"))
        store.share("David", "jokes")
        store.add_rule(AccessRule.build("jokes", "David", "friend*[1]"))
        store.share("Alice", "unprotected")
        return store

    def test_bulk_matches_per_resource(self, figure1):
        engine = AccessControlEngine(figure1, self._store(), backend="bfs")
        bulk = engine.authorized_audiences(["photos", "jokes", "unprotected"])
        for resource_id in ("photos", "jokes", "unprotected"):
            assert bulk[resource_id] == engine.authorized_audience(resource_id), resource_id

    def test_bulk_shares_sweeps_across_resources(self, figure1):
        store = self._store()
        # A second resource reusing Alice's expression must not re-sweep.
        store.share("Alice", "more-photos")
        store.add_rule(AccessRule.build("more-photos", "Alice", "friend+[1,2]/colleague+[1]"))
        engine = AccessControlEngine(figure1, store, backend="bfs")
        bulk = engine.authorized_audiences(["photos", "more-photos"])
        assert bulk["photos"] == bulk["more-photos"]
        # Exactly one target-set computation happened for the shared sweep.
        assert engine.reachability.cache_info()["misses"] == 1


class TestDirectionPlanning:
    def test_every_direction_agrees_through_the_facade(self, figure1):
        owners = sorted(figure1.users())
        reference = None
        for direction in ("auto", "forward", "reverse"):
            engine = ReachabilityEngine(figure1, "bfs", cache_size=0)
            audiences = engine.find_targets_many(
                owners, "friend+[1,2]", direction=direction
            )
            if reference is None:
                reference = audiences
            assert audiences == reference, direction

    def test_unknown_direction_raises(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs", cache_size=0)
        with pytest.raises(ValueError):
            engine.find_targets_many(["Alice"], "friend+[1]", direction="sideways")

    def test_unknown_direction_raises_even_on_a_warm_cache(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        engine.find_targets_many(["Alice"], "friend+[1]")  # warm the memo
        with pytest.raises(ValueError):
            engine.find_targets_many(["Alice"], "friend+[1]", direction="sideways")

    def test_plan_is_returned_and_none_when_served_from_cache(self, figure1):
        engine = ReachabilityEngine(figure1, "bfs")
        _audiences, plan = engine.sweep_targets_many(["Alice", "Bill"], "friend+[1]")
        assert plan is not None and plan.owners == 2 and not plan.forced
        # Fully warm: nothing is swept, so there is no plan to report —
        # even under a pinned direction.
        for direction in ("auto", "reverse"):
            _audiences, plan = engine.sweep_targets_many(
                ["Alice", "Bill"], "friend+[1]", direction=direction
            )
            assert plan is None
        _audiences, plan = engine.sweep_targets_many(
            ["Alice", "Colin"], "friend+[1]", direction="reverse"
        )
        assert plan is not None and plan.owners == 1
        assert plan.forced and plan.direction == "reverse"

    def test_policy_engine_records_plans_per_expression(self, figure1):
        store = PolicyStore()
        store.share("Alice", "photos")
        store.add_rule(AccessRule.build("photos", "Alice", "friend+[1,2]"))
        store.share("David", "jokes")
        store.add_rule(AccessRule.build("jokes", "David", "friend*[1]"))
        engine = AccessControlEngine(figure1, store, backend="bfs", cache_size=0)
        bulk, plans = engine.audiences_with_plans(
            ["photos", "jokes"], direction="forward"
        )
        assert set(plans) == {"friend+[1,2]", "friend*[1]"}
        for plan in plans.values():
            assert plan.direction == "forward" and plan.forced
        assert bulk == engine.authorized_audiences(["photos", "jokes"])


class TestReversedExpression:
    def test_steps_reverse_directions_flip_conditions_shift(self):
        from repro.reachability.compiled_search import reversed_expression

        expression = PathExpression.parse(
            "friend+[1,2]{age >= 18}/colleague-[1]/parent*[2,3]"
        )
        reversed_ = reversed_expression(expression)
        # Step order reversed, + <-> - flipped, * kept; conditions move one
        # step towards the owner and the last step's conditions disappear
        # (reverse sweeps apply them to their seeds instead).
        assert reversed_.to_text() == "parent*[2,3]/colleague+[1]{age >= 18}/friend-[1,2]"

    def test_reversal_is_an_involution_without_trailing_conditions(self):
        from repro.reachability.compiled_search import reversed_expression

        expression = PathExpression.parse("friend+[1,2]{age >= 18}/colleague-[1]")
        twice = reversed_expression(reversed_expression(expression))
        assert twice.to_text() == expression.to_text()

    def test_reversed_automaton_is_cached_on_the_snapshot(self, figure1):
        from repro.graph.compiled import compile_graph
        from repro.reachability.compiled_search import reversed_automaton

        snapshot = compile_graph(figure1)
        expression = PathExpression.parse("friend+[1,2]")
        first = reversed_automaton(snapshot, expression)
        assert reversed_automaton(snapshot, expression) is first
        figure1.add_relationship("Bill", "Alice", "colleague")
        rebuilt = compile_graph(figure1)
        assert reversed_automaton(rebuilt, expression) is not first


class TestClusterSweepSeesLiveAttributes:
    """Regression: the cluster backend's batched sweep answers from its
    frozen build-time snapshot, but that snapshot shares *live* attribute
    dicts with the graph — so condition outcomes must track attribute
    mutations exactly like the per-owner matcher (which re-reads them every
    call), not freeze at first evaluation."""

    def test_attribute_mutation_between_sweeps(self):
        from repro.graph.social_graph import SocialGraph

        graph = SocialGraph()
        graph.add_user("o", age=50)
        graph.add_user("a", age=70)
        graph.add_user("b", age=10)
        graph.add_relationship("o", "a", "friend")
        graph.add_relationship("o", "b", "friend")
        evaluator = create_evaluator("cluster-index", graph)
        expression = PathExpression.parse("friend+[1]{age >= 60}")

        for direction in ("forward", "reverse"):
            assert evaluator.find_targets_many(
                ["o"], expression, direction=direction
            ) == {"o": {"a"}}
        graph.update_user("b", age=99)
        for direction in ("forward", "reverse"):
            assert evaluator.find_targets_many(
                ["o"], expression, direction=direction
            ) == {"o": evaluator.find_targets("o", expression)}, direction
            assert evaluator.find_targets_many(["o"], expression)["o"] == {"a", "b"}


class TestClusterSweepEnforcesTheExpansionLimit:
    def test_batched_raises_exactly_like_the_per_owner_call(self):
        from repro.exceptions import QueryError
        from repro.graph.social_graph import SocialGraph

        graph = SocialGraph()
        graph.add_user("a")
        graph.add_user("b")
        graph.add_relationship("a", "b", "friend")
        evaluator = create_evaluator("cluster-index", graph, expansion_limit=2)
        wide = PathExpression.parse("friend+[1,3]/friend+[1,3]")  # 9 expansions
        with pytest.raises(QueryError):
            evaluator.find_targets("a", wide)
        # Same guard on the sweep: otherwise the engine's shared (owner,
        # expression) memo would make the per-owner call's outcome depend on
        # whether a batched call happened to run first.
        with pytest.raises(QueryError):
            evaluator.find_targets_many(["a"], wide)
