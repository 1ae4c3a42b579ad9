"""Library entry point: `solve_tree` in the caller's labels, the
seeded instances of `random_problem`, and the package's public names."""

import dataclasses
import importlib
import random

import pytest

import treeiso
from conftest import hexed, record_bits
from treeiso.api import build_problem, random_problem, solve_tree
from treeiso.errors import CertificateError, ContractViolationError
from treeiso.loss import WeightedQuadratic
from treeiso.solver import Solver
from treeiso.tree import DirectedTree, map_back


def rooted_instance(seed: int):
    """A random tree with flipped edges, its losses and a random root."""
    rng = random.Random(40 + seed)
    n = rng.randint(2, 30)
    tree, losses = random_problem("random", n, seed, "mixed")
    return tree, losses, rng.randint(1, n)


class TestSolveTree:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_solver_mapped_back_bit_for_bit(self, seed):
        tree, losses, root = rooted_instance(seed)
        n = tree.node_count
        problem = build_problem(tree, losses, root)
        x_ref, z_ref, stats_ref = Solver(problem).solve()
        x_ref, z_ref = map_back(problem.arb, x_ref, z_ref)

        x, z, stats = solve_tree(tree, losses, root)

        assert hexed(x) == hexed(x_ref)
        assert hexed(z) == hexed(z_ref)
        assert set(z) == {(i, j) for i, j, _, _ in tree.edges}
        assert stats.final_residual.hex() == stats_ref.final_residual.hex()
        label = problem.arb.original_label
        assert len(stats.steps) == len(stats_ref.steps) == n - 1
        for rec, ref in zip(stats.steps, stats_ref.steps):
            assert rec.node == label[ref.node]
            renamed = dataclasses.replace(rec, node=ref.node)
            assert record_bits(renamed) == record_bits(ref)
        assert sorted(rec.node for rec in stats.steps) == [
            v for v in range(1, n + 1) if v != root]

    def test_instances_exercise_relabelling(self):
        # The test above means something only if some of its trees have
        # flipped edges and a root whose solver label differs from its own.
        flipped = relabelled = 0
        for seed in range(12):
            arb = build_problem(*rooted_instance(seed)).arb
            flipped += bool(arb.flipped)
            relabelled += any(arb.original_label[k] != k for k in arb.original_label)
        assert flipped >= 6 and relabelled >= 6

    def test_tolerance_is_the_gate(self):
        tree, losses = random_problem("random", 20, 3, "mixed")
        residual = solve_tree(tree, losses)[2].final_residual
        assert residual > 0.0
        with pytest.raises(CertificateError):
            solve_tree(tree, losses, tol=residual / 2)

    def test_single_node(self):
        x, z, stats = solve_tree(DirectedTree(1, []), {1: WeightedQuadratic(2.0, 5.0)})
        assert x == {1: 5.0}
        assert z == {}
        assert stats.steps == []
        assert stats.final_residual == 0.0


class TestRandomProblem:
    @pytest.mark.parametrize("shape, loss_kind", [
        ("star", "quadratic"), ("random", "quadratic"), ("chain", "mixed"),
        ("star", "mixed"),
    ])
    def test_isotonic_takes_only_a_quadratic_chain(self, shape, loss_kind):
        with pytest.raises(ContractViolationError, match="isotonic"):
            random_problem(shape, 50, 1, loss_kind, isotonic=True)

    def test_isotonic_chain(self):
        tree, losses = random_problem("chain", 50, 1, isotonic=True)
        assert [e[:2] for e in tree.edges] == [(i, i + 1) for i in range(1, 50)]
        targets = [losses[v].y for v in range(1, 51)]
        assert targets == sorted(targets)


class TestPublicSurface:
    PUBLIC = {
        "CertificateError", "ContractViolationError", "InternalInvariantError",
        "MalformedInstanceError", "TreeIsoError", "DirectedTree", "Loss",
        "QuarticQuadratic", "WeightedQuadratic", "kkt_residual",
        "objective_value", "pava", "solve_tree", "__version__",
    }

    def test_exports_exactly_the_public_names(self):
        assert len(treeiso.__all__) == len(self.PUBLIC) == 14
        assert set(treeiso.__all__) == self.PUBLIC
        for name in treeiso.__all__:
            assert getattr(treeiso, name) is not None

    @pytest.mark.parametrize("module, name", [
        ("solver", "Problem"), ("solver", "Solver"), ("solver", "SolveStats"),
        ("tree", "normalize"), ("tree", "map_back"), ("oracle", "enumerate_optimum"),
    ])
    def test_solver_level_names_stay_in_their_modules(self, module, name):
        assert name not in treeiso.__all__
        assert callable(getattr(importlib.import_module("treeiso." + module), name))
