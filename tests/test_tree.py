"""Tree layer: construction, normalization and decomposition, plus the
subtree helpers the oracle builds on (component_of, tree_linear_solve)."""

import random

import pytest

from treeiso.errors import ContractViolationError, MalformedInstanceError
from treeiso.oracle import component_of, tree_linear_solve
from treeiso.solver import kkt_residual_edges, Solver
from treeiso.cli import build_problem, random_problem
from treeiso.tree import (
    Attachment,
    DirectedTree,
    INF,
    Subtree,
    decompose,
    map_back,
    normalize,
)


class TestDirectedTree:
    def test_valid_construction(self):
        tree = DirectedTree(3, [(1, 2, 0.5, INF), (3, 1, 0.0, 2.0)])
        assert tree.node_count == 3
        assert tree.edges == ((1, 2, 0.5, INF), (3, 1, 0.0, 2.0))

    def test_single_node(self):
        assert DirectedTree(1, []).edges == ()

    def test_wrong_edge_count(self):
        with pytest.raises(MalformedInstanceError):
            DirectedTree(3, [(1, 2, 1.0, 1.0)])

    def test_self_loop(self):
        with pytest.raises(MalformedInstanceError):
            DirectedTree(2, [(1, 1, 1.0, 1.0)])

    def test_parallel_edges_either_orientation(self):
        with pytest.raises(MalformedInstanceError):
            DirectedTree(3, [(1, 2, 1.0, 1.0), (2, 1, 1.0, 1.0)])

    def test_node_id_out_of_range(self):
        with pytest.raises(MalformedInstanceError):
            DirectedTree(2, [(1, 3, 1.0, 1.0)])

    def test_negative_weight(self):
        with pytest.raises(MalformedInstanceError):
            DirectedTree(2, [(1, 2, -0.5, 1.0)])

    def test_nan_weight(self):
        with pytest.raises(MalformedInstanceError):
            DirectedTree(2, [(1, 2, float("nan"), 1.0)])


class TestNormalize:
    def test_reorientation_with_weight_swap(self):
        # Two root-bound edges flipped; children of node 3 keep orientation.
        tree = DirectedTree(5, [
            (2, 1, 1.0, 2.0),
            (3, 1, 0.5, INF),
            (3, 5, 3.0, 4.0),
            (3, 4, 5.0, 6.0),
        ])
        arb = normalize(tree, root=1)
        assert arb.parent[2] == (1, 2.0, 1.0)
        assert arb.parent[3] == (1, INF, 0.5)
        # BFS reaches original node 5 before 4 (edge list order), so the
        # internal labels of 4 and 5 swap.
        assert arb.original_label == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
        assert arb.parent[4] == (3, 3.0, 4.0)
        assert arb.parent[5] == (3, 5.0, 6.0)
        assert arb.flipped == frozenset({(1, 2), (1, 3)})

    def test_chain_already_normal(self):
        tree = DirectedTree(3, [(1, 2, 1.0, 2.0), (2, 3, 3.0, 4.0)])
        arb = normalize(tree, root=1)
        assert arb.flipped == frozenset()
        assert arb.parent == {2: (1, 1.0, 2.0), 3: (2, 3.0, 4.0)}
        assert arb.original_label == {1: 1, 2: 2, 3: 3}

    def test_inward_star_flips_every_edge(self):
        center = 1
        tree = DirectedTree(4, [(2, 1, 1.0, 9.0), (3, 1, 2.0, 8.0), (4, 1, 3.0, 7.0)])
        arb = normalize(tree, root=center)
        assert len(arb.flipped) == 3
        for child in (2, 3, 4):
            parent, lam, mu = arb.parent[child]
            assert parent == 1
            orig = arb.original_label[child]
            lam_in, mu_in = {2: (1.0, 9.0), 3: (2.0, 8.0), 4: (3.0, 7.0)}[orig]
            assert (lam, mu) == (mu_in, lam_in)

    def test_default_root_is_zero_indegree_node(self):
        tree = DirectedTree(3, [(2, 1, 1.0, 2.0), (2, 3, 3.0, 4.0)])
        arb = normalize(tree)
        assert arb.original_label[1] == 2

    def test_leaf_order_holds_on_random_trees(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(2, 30)
            edges = []
            for child in range(2, n + 1):
                parent = rng.randint(1, child - 1)
                if rng.random() < 0.5:
                    edges.append((child, parent, 1.0, 2.0))
                else:
                    edges.append((parent, child, 1.0, 2.0))
            arb = normalize(DirectedTree(n, edges), root=rng.randint(1, n))
            for child, (parent, _, _) in arb.parent.items():
                assert parent < child

    def test_mapped_back_solutions_certify_on_original(self):
        # Normalization must be transparent: solve normalized, map back,
        # re-check the optimality system on the input orientation.
        for seed in range(50):
            n = random.Random(300 + seed).randint(2, 12)
            tree, losses = random_problem("random", n, seed + 700, "mixed")
            problem = build_problem(tree, losses)
            x, z, _ = Solver(problem).solve()
            x_orig, z_orig = map_back(problem.arb, x, z)
            residual = kkt_residual_edges(
                tree.edges, lambda v: losses[v], x_orig, z_orig
            )
            assert residual <= 1e-8

    def test_disconnected_rejected(self):
        # Edge count and pair checks pass (cycle on {1,2,3}, node 4 apart);
        # only the normalization traversal can see the disconnection.
        tree = DirectedTree(4, [(1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0),
                                (3, 1, 1.0, 1.0)])
        with pytest.raises(MalformedInstanceError):
            normalize(tree, root=1)


class TestDecompose:
    def test_demo_ordering(self):
        tree = DirectedTree(5, [
            (1, 2, INF, 0.0), (1, 3, 0.0, INF), (3, 4, 0.0, 4.0), (3, 5, 3.0, 3.0),
        ])
        records = decompose(normalize(tree, root=1))
        assert [(r.child, r.parent) for r in records] == \
            [(2, 1), (3, 1), (4, 3), (5, 3)]
        assert records[0] == Attachment(2, 1, INF, 0.0)
        assert records[3] == Attachment(5, 3, 3.0, 3.0)

    def test_single_node_empty(self):
        assert decompose(normalize(DirectedTree(1, []))) == []

    def test_chain(self):
        tree = DirectedTree(4, [(1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1)])
        records = decompose(normalize(tree, root=1))
        assert [(r.child, r.parent) for r in records] == [(2, 1), (3, 2), (4, 3)]

    def test_every_parent_precedes_child(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 40)
            edges = [(rng.randint(1, c - 1), c, 1.0, 1.0) for c in range(2, n + 1)]
            records = decompose(normalize(DirectedTree(n, edges), root=1))
            assert len(records) == n - 1
            assert [r.child for r in records] == list(range(2, n + 1))
            assert all(r.parent < r.child for r in records)


class TestComponentOf:
    def test_demo_component(self):
        comp = component_of([(1, 2), (1, 3)], seed=3)
        assert comp.node_set == {1, 2, 3}
        assert set(comp.edges) == {(1, 2), (1, 3)}

    def test_no_edges_singleton(self):
        comp = component_of([], seed=7)
        assert comp.nodes == (7,)
        assert comp.edges == ()

    def test_full_prefix(self):
        edges = [(1, 2), (2, 3), (3, 4)]
        comp = component_of(edges, seed=4)
        assert comp.node_set == {1, 2, 3, 4}

    def test_ignores_other_components(self):
        comp = component_of([(1, 2), (3, 4)], seed=1)
        assert comp.node_set == {1, 2}


class TestTreeLinearSolve:
    def test_demo_duals(self):
        comp = Subtree([1, 2, 3], [(1, 2), (1, 3)])
        z = tree_linear_solve(comp, ancestor=3, b={1: -1.0, 2: 1.0})
        assert z[(1, 2)] == pytest.approx(-1.0, abs=1e-15)
        assert z[(1, 3)] == pytest.approx(0.0, abs=1e-15)

    def test_zero_rhs(self):
        comp = Subtree([1, 2, 3], [(1, 2), (2, 3)])
        z = tree_linear_solve(comp, ancestor=1, b={2: 0.0, 3: 0.0})
        assert all(v == 0.0 for v in z.values())

    def test_single_edge_both_roles(self):
        comp = Subtree([4, 9], [(4, 9)])
        assert tree_linear_solve(comp, ancestor=4, b={9: 2.5}) == {(4, 9): -2.5}
        assert tree_linear_solve(comp, ancestor=9, b={4: 2.5}) == {(4, 9): 2.5}

    def test_ancestor_must_belong(self):
        comp = Subtree([1, 2], [(1, 2)])
        with pytest.raises(ContractViolationError):
            tree_linear_solve(comp, ancestor=3, b={2: 1.0})

    def test_balance_on_random_trees(self):
        rng = random.Random(1234)
        for _ in range(100):
            n = rng.randint(2, 12)
            edges = []
            for child in range(2, n + 1):
                parent = rng.randint(1, child - 1)
                if rng.random() < 0.5:
                    edges.append((child, parent))
                else:
                    edges.append((parent, child))
            comp = Subtree(range(1, n + 1), edges)
            ancestor = rng.randint(1, n)
            b = {v: rng.uniform(-10, 10) for v in range(1, n + 1) if v != ancestor}
            z = tree_linear_solve(comp, ancestor, b)
            for v in range(1, n + 1):
                if v == ancestor:
                    continue
                net = 0.0
                for i, j in edges:
                    if i == v:
                        net += z[(i, j)]
                    elif j == v:
                        net -= z[(i, j)]
                assert abs(net - b[v]) <= 1e-12


class TestMapBack:
    def test_flipped_edge_sign(self):
        tree = DirectedTree(2, [(2, 1, 1.5, 2.5)])
        arb = normalize(tree, root=1)
        assert arb.flipped == frozenset({(1, 2)})
        x, z = map_back(arb, {1: 10.0, 2: 20.0}, {(1, 2): 0.75})
        assert x == {1: 10.0, 2: 20.0}
        assert z == {(2, 1): -0.75}

    def test_identity_when_nothing_flipped(self):
        tree = DirectedTree(3, [(1, 2, 1, 1), (2, 3, 1, 1)])
        arb = normalize(tree, root=1)
        x, z = map_back(arb, {1: 1.0, 2: 2.0, 3: 3.0}, {(1, 2): -1.0, (2, 3): 4.0})
        assert x == {1: 1.0, 2: 2.0, 3: 3.0}
        assert z == {(1, 2): -1.0, (2, 3): 4.0}
