"""Library entry point: `solve_tree` in the caller's labels, the
seeded instances of `random_problem`, and the package's public names."""

import dataclasses
import importlib
import random
import sys

import pytest

import treeiso
from conftest import hexed, record_bits
from treeiso.api import build_problem, random_problem, solve_tree
from treeiso.errors import CertificateError, ContractViolationError
from treeiso.loss import WeightedQuadratic
from treeiso.solver import Solver, kkt_residual
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
            relabelled += any(arb.original_label[k] != k
                              for k in range(1, arb.node_count + 1))
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


def rounding_bound(tree, losses, x, z, residual):
    """How far two residuals of one pair can differ by summation order alone.

    A node's balance sums the duals of its incident edges; in another order
    the sum can round differently, by at most its degree times the unit
    roundoff times the sum of the magnitudes (plus its loss derivative's).
    The edge term is the same float ops in either labelling.
    """
    degree = dict.fromkeys(x, 0)
    magnitude = {v: abs(losses[v].derivative(x[v])) for v in x}
    for i, j, _, _ in tree.edges:
        for v in (i, j):
            degree[v] += 1
            magnitude[v] += abs(z[(i, j)])
    return 2 * sys.float_info.epsilon * (
        max(degree[v] * magnitude[v] for v in x) + residual)


class TestMapBackKeepsTheCertificate:
    """The residual of `solve_tree`'s answer in the caller's labels is the
    gate's, up to the order in which each node's balance is summed; the
    reports print the gate's."""

    @staticmethod
    def check(tree, losses, root=None):
        x, z, stats = solve_tree(tree, losses, root)
        residual = kkt_residual(tree.edges, losses.__getitem__, x, z)
        assert abs(residual - stats.final_residual) <= rounding_bound(
            tree, losses, x, z, residual)
        return residual == stats.final_residual

    @pytest.mark.parametrize("seed", range(12))
    def test_rooted_instances(self, seed):
        self.check(*rooted_instance(seed))

    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    @pytest.mark.parametrize("loss_kind", ["quadratic", "mixed"])
    def test_generated_instances(self, shape, loss_kind):
        for seed in (1, 2):
            assert self.check(*random_problem(shape, 40, seed, loss_kind))

    def test_shuffled_edges_and_roots(self):
        # Edge order and root reorder each node's balance sum, so some of
        # these residuals differ from the gate's in the last bits.
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.choice([5, 20, 60, 200])
            tree, losses = random_problem("star" if seed % 2 else "random", n, seed)
            edges = list(tree.edges)
            rng.shuffle(edges)
            self.check(DirectedTree(n, edges), losses, rng.randint(1, n))


class TestLibraryInput:
    """Bad losses are named by node before the solver sees them."""

    TREE = DirectedTree(3, [(1, 2, 1.0, 1.0), (3, 2, 0.5, 2.0)])

    def losses(self, **changes):
        losses = {v: WeightedQuadratic(1.0, float(v)) for v in (1, 2, 3)}
        losses.update({int(k[1:]): v for k, v in changes.items()})
        return losses

    @pytest.mark.parametrize("solve", [build_problem, solve_tree])
    def test_missing_loss(self, solve):
        losses = self.losses()
        del losses[2]
        with pytest.raises(ContractViolationError, match="no loss for node 2"):
            solve(self.TREE, losses)

    @pytest.mark.parametrize("solve", [build_problem, solve_tree])
    @pytest.mark.parametrize("bad", [2.5, None, "quadratic", WeightedQuadratic])
    def test_loss_that_is_not_a_loss(self, solve, bad):
        with pytest.raises(ContractViolationError, match="node 3 is not a Loss"):
            solve(self.TREE, self.losses(n3=bad))

    @pytest.mark.parametrize("solve", [build_problem, solve_tree])
    @pytest.mark.parametrize("extra", [4, 0, "2"])
    def test_loss_for_a_node_the_tree_lacks(self, solve, extra):
        losses = self.losses()
        losses[extra] = WeightedQuadratic(1.0, 0.0)
        with pytest.raises(ContractViolationError, match="%r, which is no node" % (extra,)):
            solve(self.TREE, losses)

    @pytest.mark.parametrize("solve", [build_problem, solve_tree])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_losses_that_are_not_a_mapping(self, solve, extra):
        # A list of n losses, or of n + 1 with a dummy at index 0, is not
        # keyed by node: the error names the type that was passed.
        losses = list(self.losses().values()) + [WeightedQuadratic(1.0, 0.0)] * extra
        with pytest.raises(ContractViolationError, match="got list"):
            solve(self.TREE, losses)
        with pytest.raises(ContractViolationError, match="got tuple"):
            solve(self.TREE, tuple(losses))

    @pytest.mark.parametrize("solve", [build_problem, solve_tree])
    @pytest.mark.parametrize("tree, name", [
        (None, "NoneType"), (list(TREE.edges), "list"), ("tree", "str"), (3, "int"),
    ])
    def test_tree_that_is_not_a_directed_tree(self, solve, tree, name):
        # Checked before the losses, which are valid here.
        with pytest.raises(ContractViolationError,
                           match="tree must be a DirectedTree, got %s" % name):
            solve(tree, self.losses())

    @pytest.mark.parametrize("n", [2.5, 0, -3, True, "5"])
    def test_random_problem_size_must_be_a_positive_integer(self, n):
        with pytest.raises(ContractViolationError, match="positive integer"):
            random_problem("chain", n, 1)


class TestSolveReturnLayout:
    """The solver keeps x, z and the signs as lists indexed by node while
    it works; what it hands back stays dicts."""

    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    def test_solve_returns_dicts_in_node_and_child_order(self, shape):
        problem = build_problem(*random_problem(shape, 50, 3, "mixed"))
        parent = problem.arb.parent
        x, z, _ = Solver(problem).solve()
        assert type(x) is dict and type(z) is dict
        assert list(x) == list(range(1, 51))
        assert all(type(value) is float for value in x.values())
        assert list(z) == [(parent[c], c) for c in range(2, 51)]
        assert all(type(value) is float for value in z.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_tree_returns_caller_labels(self, seed):
        tree, losses, root = rooted_instance(seed)
        x, z, _ = solve_tree(tree, losses, root)
        assert type(x) is dict and type(z) is dict
        assert sorted(x) == list(range(1, tree.node_count + 1))
        assert set(z) == {(i, j) for i, j, _, _ in tree.edges}
        assert kkt_residual(tree.edges, losses.__getitem__, x, z) <= 1e-8


class TestRandomProblem:
    @pytest.mark.parametrize("shape, loss_kind", [
        ("star", "quadratic"), ("random", "quadratic"), ("chain", "mixed"),
        ("star", "mixed"),
    ])
    def test_isotonic_takes_only_a_quadratic_chain(self, shape, loss_kind):
        with pytest.raises(ContractViolationError, match="isotonic"):
            random_problem(shape, 50, 1, loss_kind, isotonic=True)

    @pytest.mark.parametrize("n", [1, 2, 30])
    @pytest.mark.parametrize("shape, loss_kind, match", [
        ("bogus", "quadratic", "unknown shape 'bogus'"),
        ("Chain", "mixed", "unknown shape 'Chain'"),
        ("chain", "bogus", "unknown loss kind 'bogus'"),
        ("random", "quartic", "unknown loss kind 'quartic'"),
    ])
    def test_unknown_shape_or_loss_kind_at_any_size(self, n, shape, loss_kind, match):
        # A one-node tree draws no edge, so the shape is checked up front.
        with pytest.raises(ContractViolationError, match=match):
            random_problem(shape, n, 0, loss_kind)

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
