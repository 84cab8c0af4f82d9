"""The two oracles against each other.

:mod:`repro.testing.oracle` (the reference every differential harness in
``tests/`` trusts) and ``benchmarks/e2e/oracle.py`` (the end-to-end
benchmark's answer checker, which deliberately imports nothing from
``repro`` — not even the parser) were written independently and never
compared.  This runs both over the seeded graph families of the harnesses
and the nine rule expressions of the benchmark's inputs, so a semantic drift
between "what the tests accept" and "what the benchmark accepts" fails here.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.policy.path_expression import PathExpression
from repro.testing.graphs import adversarial_graph
from repro.testing.oracle import reference_reachable, reference_targets
from tests.property.test_shard_equivalence import seeded_graph

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _load(name):
    """Import a benchmark module by path (``benchmarks/e2e`` is not a package)."""
    spec = importlib.util.spec_from_file_location(f"_e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


Oracle = _load("oracle").Oracle
RULE_EXPRESSIONS = _load("inputs").RULE_EXPRESSIONS


def _families():
    for seed in range(25):
        yield f"adversarial-{seed}", adversarial_graph(random.Random(seed))
    for seed in range(0, 105, 5):
        yield f"seeded-{seed}", seeded_graph(seed, random.Random(9000 + seed))


def test_the_rule_pool_has_nine_expressions():
    assert len(RULE_EXPRESSIONS) == 9


@pytest.mark.parametrize("text", RULE_EXPRESSIONS)
def test_both_oracles_give_the_same_answers(text):
    expression = PathExpression.parse(text)
    for name, graph in _families():
        independent = Oracle.from_graph(graph)
        users = sorted(graph.users(), key=str)
        for owner in users:
            assert independent.audience(owner, text) == reference_targets(
                graph, owner, expression
            ), (name, owner, text)
        rng = random.Random(len(users))
        for _ in range(8):
            source, target = rng.choice(users), rng.choice(users)
            assert independent.reach(source, target, text) == reference_reachable(
                graph, source, target, expression
            ), (name, source, target, text)
