"""Unit tests for the synthetic social-network generators."""

from __future__ import annotations

import pytest

from repro.graph.generators import (
    AttributeModel,
    LabelDistribution,
    forest_fire_graph,
    layered_organization_graph,
    preferential_attachment_graph,
    random_graph,
    small_world_graph,
)

GENERATORS = [
    lambda n, seed: random_graph(n, edge_probability=0.08, seed=seed),
    lambda n, seed: preferential_attachment_graph(n, edges_per_node=2, seed=seed),
    lambda n, seed: small_world_graph(n, nearest_neighbors=4, seed=seed),
    lambda n, seed: forest_fire_graph(n, seed=seed),
]


@pytest.mark.parametrize("generator", GENERATORS)
class TestCommonGeneratorContract:
    def test_requested_number_of_users(self, generator):
        graph = generator(40, 1)
        assert graph.number_of_users() == 40

    def test_deterministic_for_a_seed(self, generator):
        assert generator(30, 5) == generator(30, 5)

    def test_different_seeds_differ(self, generator):
        first, second = generator(30, 5), generator(30, 6)
        assert first != second

    def test_no_self_loops(self, generator):
        graph = generator(40, 2)
        assert all(rel.source != rel.target for rel in graph.relationships())

    def test_users_have_attribute_tuples(self, generator):
        graph = generator(20, 3)
        for user in graph.users():
            attrs = graph.attributes(user)
            assert {"age", "gender", "city", "job"} <= set(attrs)
            assert 13 <= attrs["age"] <= 80

    def test_edges_carry_labels_and_trust(self, generator):
        graph = generator(40, 4)
        assert graph.number_of_relationships() > 0
        for rel in graph.relationships():
            assert rel.label in {"friend", "colleague", "parent"}
            assert 0.0 < rel.attributes["trust"] <= 1.0

    def test_single_user_graph(self, generator):
        graph = generator(1, 0)
        assert graph.number_of_users() == 1
        assert graph.number_of_relationships() == 0


class TestCrossProcessDeterminism:
    """Generated graphs must not depend on the per-process string-hash seed."""

    SCRIPT = (
        "import sys, hashlib; sys.path.insert(0, 'src');"
        "from repro.graph.generators import preferential_attachment_graph;"
        "g = preferential_attachment_graph(80, edges_per_node=3, seed=5);"
        "edges = sorted(f'{r.source} {r.target} {r.label}' for r in g.relationships());"
        "print(hashlib.sha256('\\n'.join(edges).encode()).hexdigest())"
    )

    def test_same_graph_under_different_hash_seeds(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            completed = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                cwd=repo_root,
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(completed.stdout.strip())
        assert len(digests) == 1


class TestLabelDistribution:
    def test_default_alphabet(self):
        assert LabelDistribution().labels() == ("colleague", "friend", "parent")

    def test_custom_weights_respected(self, rng):
        dist = LabelDistribution({"follows": 1.0})
        assert all(dist.sample(rng) == "follows" for _ in range(20))

    def test_sampling_covers_all_labels(self, rng):
        dist = LabelDistribution({"a": 1.0, "b": 1.0})
        drawn = {dist.sample(rng) for _ in range(200)}
        assert drawn == {"a", "b"}


class TestAttributeModel:
    def test_ranges(self, rng):
        model = AttributeModel(min_age=20, max_age=25, genders=("x",))
        for _ in range(50):
            attrs = model.sample(rng)
            assert 20 <= attrs["age"] <= 25
            assert attrs["gender"] == "x"


class TestSpecificShapes:
    def test_preferential_attachment_has_hubs(self):
        graph = preferential_attachment_graph(200, edges_per_node=3, seed=11)
        degrees = sorted((graph.degree(user) for user in graph.users()), reverse=True)
        # Scale-free-ish: the top node has several times the median degree.
        assert degrees[0] >= 4 * max(1, degrees[len(degrees) // 2])

    def test_custom_label_distribution_flows_through(self):
        graph = random_graph(
            30,
            edge_probability=0.2,
            labels=LabelDistribution({"follows": 1.0}),
            seed=3,
        )
        assert graph.labels() == ("follows",)

    def test_layered_organization_structure(self):
        graph = layered_organization_graph(departments=3, members_per_department=4, seed=1)
        managers = [user for user in graph.users() if graph.attribute(user, "role") == "manager"]
        members = [user for user in graph.users() if graph.attribute(user, "role") == "member"]
        assert len(managers) == 3
        assert len(members) == 12
        for manager in managers:
            assert graph.out_degree(manager, "manages") == 4
        assert "friend" in graph.labels()

    def test_layered_organization_colleagues_are_mutual(self):
        graph = layered_organization_graph(departments=1, members_per_department=3, seed=2)
        members = [user for user in graph.users() if graph.attribute(user, "role") == "member"]
        for first in members:
            for second in members:
                if first != second:
                    assert graph.has_relationship(first, second, "colleague")
