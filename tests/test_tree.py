"""Tree layer: construction, normalization, decomposition and map-back."""

import random
from fractions import Fraction

import pytest

from treeiso.errors import MalformedInstanceError
from treeiso.api import build_problem, random_problem
from treeiso.solver import kkt_residual, Solver
from treeiso.tree import (
    DirectedTree,
    INF,
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

    @pytest.mark.parametrize("node_count", [True, 2.0, "2"])
    def test_node_count_must_be_an_integer(self, node_count):
        with pytest.raises(MalformedInstanceError, match="node_count"):
            DirectedTree(node_count, [])

    @pytest.mark.parametrize("edge", [(True, 2, 1.0, 1.0), (1, True, 1.0, 1.0),
                                      (2, True, 1.0, 1.0)])
    def test_boolean_endpoint_rejected(self, edge):
        # True == 1, so it must not pass for the node id 1, nor make the
        # edge (1, True) a self-loop.
        with pytest.raises(MalformedInstanceError, match="node id True"):
            DirectedTree(2, [edge])

    @pytest.mark.parametrize("weight", ["2.5", "Infinity", None, True, [1.0]])
    def test_weight_must_be_a_real_number(self, weight):
        with pytest.raises(MalformedInstanceError, match="lambda"):
            DirectedTree(2, [(1, 2, weight, 1.0)])
        with pytest.raises(MalformedInstanceError, match="mu"):
            DirectedTree(2, [(1, 2, 1.0, weight)])

    @pytest.mark.parametrize("exponent", [400, 5000], ids=["e400", "e5000"])
    def test_weight_beyond_float_range_rejected(self, exponent):
        # 10**5000 also has more digits than an int's repr may print.
        with pytest.raises(MalformedInstanceError, match="lambda is beyond the float range"):
            DirectedTree(2, [(1, 2, 10 ** exponent, 0.0)])
        with pytest.raises(MalformedInstanceError, match="mu is beyond the float range"):
            DirectedTree(2, [(1, 2, 0.0, Fraction(10 ** exponent, 3))])

    def test_integer_and_infinite_weights_accepted(self):
        tree = DirectedTree(2, [(1, 2, 2, INF)])
        assert tree.edges == ((1, 2, 2.0, INF),)
        assert isinstance(tree.edges[0][2], float)


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
            residual = kkt_residual(
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

    @pytest.mark.parametrize("root", [True, 1.0, "1"])
    def test_root_must_be_an_integer(self, root):
        tree = DirectedTree(2, [(1, 2, 1.0, 1.0)])
        with pytest.raises(MalformedInstanceError, match="root"):
            normalize(tree, root=root)


class TestDecompose:
    def test_demo_ordering(self):
        tree = DirectedTree(5, [
            (1, 2, INF, 0.0), (1, 3, 0.0, INF), (3, 4, 0.0, 4.0), (3, 5, 3.0, 3.0),
        ])
        parent, lam, mu = decompose(normalize(tree, root=1))
        assert parent == [0, 0, 1, 1, 3, 3]
        assert (parent[2], lam[2], mu[2]) == (1, INF, 0.0)
        assert (parent[5], lam[5], mu[5]) == (3, 3.0, 3.0)

    def test_single_node_empty(self):
        assert decompose(normalize(DirectedTree(1, []))) == ([0, 0], [0.0, 0.0], [0.0, 0.0])

    def test_chain(self):
        tree = DirectedTree(4, [(1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1)])
        parent, _, _ = decompose(normalize(tree, root=1))
        assert parent[2:] == [1, 2, 3]

    def test_every_parent_precedes_child(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 40)
            edges = [(rng.randint(1, c - 1), c, 1.0, 1.0) for c in range(2, n + 1)]
            arb = normalize(DirectedTree(n, edges), root=1)
            lists = decompose(arb)
            assert [len(values) for values in lists] == [n + 1] * 3
            parent, lam, mu = lists
            assert all(parent[c] < c for c in range(2, n + 1))
            assert all((parent[c], lam[c], mu[c]) == arb.parent[c]
                       for c in range(2, n + 1))


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
