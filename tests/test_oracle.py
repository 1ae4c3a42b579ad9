"""Brute-force reference: sign-pattern enumeration, the per-pattern solve it
builds on (components named by their top, duals back-substituted by
descending label) and the isotonic baseline."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import DEMO_X, DEMO_Z, make_demo_problem
from treeiso.api import build_problem, random_problem
from treeiso.errors import ContractViolationError
from treeiso.loss import WeightedQuadratic
from treeiso.oracle import (
    MAX_ORACLE_EDGES,
    enumerate_optimum,
    feasible_signs,
    pava,
    solve_reduced,
)
from treeiso.solver import EQ, GT, LT, Problem, Solver, objective_value
from treeiso.tree import DirectedTree, INF, normalize

GOLDEN_PATTERN = {(1, 2): EQ, (1, 3): EQ, (3, 4): LT, (3, 5): GT}

# Each bad certificate tolerance with the message `Solver` rejects it with.
BAD_TOLERANCES = pytest.mark.parametrize("tol, message", [
    (-1.0, "tolerance must be a nonnegative number, got -1.0"),
    (math.nan, "tolerance must be a nonnegative number, got nan"),
    ("1e-8", "tolerance must be a nonnegative number, got '1e-8'"),
    (True, "tolerance must be a nonnegative number, got True"),
    (10 ** 400, "tolerance must be within the float range"),
    (math.inf, "tolerance must be finite, got inf"),
], ids=["negative", "nan", "string", "bool", "beyond_float", "inf"])


class TestFeasibleSigns:
    def test_both_finite(self):
        assert feasible_signs(1.0, 2.0) == (EQ, GT, LT)

    def test_infinite_lambda_blocks_gt(self):
        assert feasible_signs(INF, 2.0) == (EQ, LT)

    def test_infinite_mu_blocks_lt(self):
        assert feasible_signs(1.0, INF) == (EQ, GT)

    def test_both_infinite(self):
        assert feasible_signs(INF, INF) == (EQ,)

    def test_zero_weights_allow_all(self):
        assert feasible_signs(0.0, 0.0) == (EQ, GT, LT)


class TestSolveReduced:
    def test_golden_pattern_certifies(self):
        result = solve_reduced(make_demo_problem(), GOLDEN_PATTERN, {})
        assert result is not None
        x, z = result
        for node, want in DEMO_X.items():
            assert x[node] == pytest.approx(want, abs=1e-10)
        for edge, want in DEMO_Z.items():
            assert z[edge] == pytest.approx(want, abs=1e-10)

    @BAD_TOLERANCES
    def test_bad_tolerance_rejected_as_the_solver_does(self, tol, message):
        # Before the pattern is read: a bad tol never looks like "no pair".
        problem = make_demo_problem()
        with pytest.raises(ContractViolationError) as oracle_error:
            solve_reduced(problem, GOLDEN_PATTERN, {}, tol)
        with pytest.raises(ContractViolationError) as solver_error:
            Solver(problem, tol)
        assert str(oracle_error.value) == str(solver_error.value) == message

    def test_all_equal_pattern_fails_kkt(self):
        pattern = {e: EQ for e in GOLDEN_PATTERN}
        assert solve_reduced(make_demo_problem(), pattern, {}) is None

    def test_wrong_direction_pattern_screened(self):
        # Claiming x_3 > x_4 puts the minimizers in the wrong order.
        pattern = dict(GOLDEN_PATTERN)
        pattern[(3, 4)] = GT
        assert solve_reduced(make_demo_problem(), pattern, {}) is None

    def test_two_components_joined_by_a_strict_edge(self):
        # Chain 1-2-3-4 with 1=2 > 3=4.  The strict edge's dual sits at
        # -lambda = -1, adding slope +1 at node 2 and -1 at node 3, so
        # {1, 2} sits where (x - 6) + (x - 4) = -1, x = 4.5, and {3, 4}
        # where (x - 1) + (x - 1) = +1, x = 1.5.  Below each top the
        # equality edge carries minus the imbalance of its side:
        # z(1, 2) = -(f2'(4.5) + 1) = -1.5 and z(3, 4) = -f4'(1.5) = -0.5.
        tree = DirectedTree(4, [(1, 2, 2.0, 2.0), (2, 3, 1.0, 1.0), (3, 4, 2.0, 2.0)])
        problem = Problem(normalize(tree), [WeightedQuadratic(1.0, y)
                                            for y in (6.0, 4.0, 1.0, 1.0)])
        pattern = {(1, 2): EQ, (2, 3): GT, (3, 4): EQ}
        x, z = solve_reduced(problem, pattern, {})
        assert x == pytest.approx({1: 4.5, 2: 4.5, 3: 1.5, 4: 1.5}, abs=1e-12)
        assert z == pytest.approx({(1, 2): -1.5, (2, 3): -1.0, (3, 4): -0.5},
                                  abs=1e-12)

    @pytest.mark.parametrize("kind", ["quadratic", "mixed"])
    def test_certified_duals_balance_every_node(self, kind):
        certified = flipped = 0
        for seed in range(40):
            n = random.Random(seed).randint(2, 9)
            problem = build_problem(*random_problem("random", n, seed, kind))
            flipped += bool(problem.arb.flipped)
            edges = problem.weighted_edges()
            keys = [(i, j) for i, j, _, _ in edges]
            memo = {}
            for combo in itertools.product(*[feasible_signs(lam, mu)
                                             for _, _, lam, mu in edges]):
                pattern = dict(zip(keys, combo))
                result = solve_reduced(problem, pattern, memo)
                if result is None:
                    continue
                certified += 1
                x, z = result
                net = {v: 0.0 for v in x}
                for (i, j), value in z.items():
                    net[i] += value
                    net[j] -= value
                for v, xv in x.items():
                    slope = problem.loss_of(v).derivative(xv)
                    assert abs(net[v] - slope) <= 1e-12 * (1.0 + abs(slope))
                for edge, sign in pattern.items():
                    if sign == EQ:
                        assert x[edge[0]] == x[edge[1]]
        assert certified >= 25 and flipped > 0

    def test_memo_is_reused_across_patterns(self):
        problem = make_demo_problem()
        memo = {}
        solve_reduced(problem, {e: EQ for e in GOLDEN_PATTERN}, memo=memo)
        filled = len(memo)
        assert filled > 0
        solve_reduced(problem, GOLDEN_PATTERN, memo=memo)
        assert len(memo) >= filled


class TestEnumerateOptimum:
    def test_demo_golden(self):
        x, z, pattern = enumerate_optimum(make_demo_problem())
        assert pattern == GOLDEN_PATTERN
        for node, want in DEMO_X.items():
            assert x[node] == pytest.approx(want, abs=1e-10)
        for edge, want in DEMO_Z.items():
            assert z[edge] == pytest.approx(want, abs=1e-10)

    def test_single_node(self):
        problem = Problem(normalize(DirectedTree(1, [])), [WeightedQuadratic(1.0, 7.0)])
        x, z, pattern = enumerate_optimum(problem)
        assert x == {1: 7.0}
        assert z == {} and pattern == {}

    def test_edge_cap_enforced(self):
        n = MAX_ORACLE_EDGES + 2
        problem = Problem(
            normalize(DirectedTree(n, [(i, i + 1, 1.0, 1.0) for i in range(1, n)])),
            [WeightedQuadratic(1.0, float(i)) for i in range(n)],
        )
        with pytest.raises(ContractViolationError):
            enumerate_optimum(problem)

    @BAD_TOLERANCES
    def test_bad_tolerance_rejected_as_the_solver_does(self, tol, message):
        problem = make_demo_problem()
        with pytest.raises(ContractViolationError) as oracle_error:
            enumerate_optimum(problem, tol)
        with pytest.raises(ContractViolationError) as solver_error:
            Solver(problem, tol)
        assert str(oracle_error.value) == str(solver_error.value) == message

    def test_objective_no_better_on_grid(self):
        problem = make_demo_problem()
        x, _, _ = enumerate_optimum(problem)
        edges, loss_of = problem.weighted_edges(), problem.loss_of
        best = objective_value(edges, loss_of, x)
        grid = [1.0, 2.0, 3.0, 4.0, 5.0]
        for combo in itertools.product(grid, repeat=4):
            cand = {1: combo[0], 2: combo[0], 3: combo[1], 4: combo[2], 5: combo[3]}
            if cand[3] < cand[1]:
                continue  # (1, 3) carries an infinite decrease penalty
            assert objective_value(edges, loss_of, cand) >= best - 1e-9


class TestSolverAgainstOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_instances_agree(self, seed):
        n = random.Random(900 + seed).randint(2, 7)
        tree, losses = random_problem("random", n, seed, "mixed")
        problem = build_problem(tree, losses)
        x_fast, z_fast, _ = Solver(problem).solve()
        x_ref, z_ref, _ = enumerate_optimum(problem)
        for node in x_ref:
            assert x_fast[node] == pytest.approx(x_ref[node], abs=1e-6)
        for edge in z_ref:
            assert z_fast[edge] == pytest.approx(z_ref[edge], abs=1e-6)


class TestPava:
    def test_two_point_pool(self):
        assert pava([2.0, 1.0]) == [1.5, 1.5]

    def test_sorted_input_identity(self):
        values = [1.0, 2.0, 3.5, 7.0]
        assert pava(values) == values

    def test_weighted_pool(self):
        # Pooled mean (3*4 + 1*0) / 4 = 3.
        assert pava([4.0, 0.0], weights=[3.0, 1.0]) == [3.0, 3.0]

    def test_cascading_merge(self):
        out = pava([3.0, 2.0, 1.0])
        assert out == [2.0, 2.0, 2.0]

    def test_output_is_nondecreasing(self):
        rng = random.Random(4)
        for _ in range(50):
            values = [rng.uniform(-5.0, 5.0) for _ in range(20)]
            out = pava(values)
            assert all(a <= b + 1e-12 for a, b in zip(out, out[1:]))

    def test_matches_weighted_quadratic_chain(self):
        rng = random.Random(17)
        values = [rng.uniform(0.0, 10.0) for _ in range(9)]
        weights = [rng.uniform(0.5, 3.0) for _ in range(9)]
        problem = Problem(
            normalize(DirectedTree(9, [(i, i + 1, INF, 0.0) for i in range(1, 9)])),
            [WeightedQuadratic(w, y) for w, y in zip(weights, values)],
        )
        x, _, _ = Solver(problem).solve()
        fitted = pava(values, weights=weights)
        for i, want in enumerate(fitted, start=1):
            assert x[i] == pytest.approx(want, abs=1e-8)

    def test_empty_input_gives_empty_fit(self):
        assert pava([]) == []

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ContractViolationError):
            pava([1.0, 2.0], weights=[1.0, 0.0])

    @pytest.mark.parametrize("weights", [[1.0, INF], [1.0, float("nan")],
                                         [1.0, -2.0]])
    def test_bad_weight_rejected_by_index(self, weights):
        with pytest.raises(ContractViolationError, match="weight 1 "):
            pava([1.0, 2.0], weights=weights)

    @pytest.mark.parametrize("bad", [float("nan"), INF, -INF])
    def test_non_finite_value_rejected_by_index(self, bad):
        with pytest.raises(ContractViolationError, match="value 1 "):
            pava([3.0, bad, 1.0])

    @pytest.mark.parametrize("values, weights, match", [
        (["a"], None, "value 0 must be a real number, got 'a'"),
        ([True, 2.0], None, "value 0 must be a real number, got True"),
        ([1.0, 2.0], [1.0, False], "weight 1 must be a real number, got False"),
        ([1.0, None], None, "value 1 must be a real number, got None"),
        ([10 ** 400, 1.0], None, "value 0 is beyond the float range"),
        ([1.0, 2.0], [1.0, 10 ** 400], "weight 1 is beyond the float range"),
    ], ids=["str", "bool-value", "bool-weight", "none", "big-value", "big-weight"])
    def test_non_real_or_overflowing_input_rejected_by_index(self, values, weights, match):
        with pytest.raises(ContractViolationError, match=match):
            pava(values, weights)

    def test_exact_numbers_fit_as_floats(self):
        # Ints and fractions within range are taken at their float values.
        assert pava([3, Fraction(1, 2)], [1, 3]) == [1.125, 1.125]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            pava([1.0, 2.0], weights=[1.0])

    @pytest.mark.parametrize("values, weights", [
        ([1.7e308, 1.6e308], None),
        ([1e308, -1e308], [10.0, 10.0]),
        ([3.0, 1.0], [1e308, 1e308]),
        ([1e-10, 0.0], [1e308, 1e308]),
    ], ids=["sum", "product", "weights", "weight-sum"])
    def test_overflowing_sums_give_the_pooled_mean(self, values, weights):
        # Every input and the fit are in range, but a product w*y or a
        # block's sum is not: the fit is the exact weighted mean, rounded.
        ws = weights or [1.0] * len(values)
        mean = float(sum(Fraction(w) * Fraction(y) for w, y in zip(ws, values))
                     / sum(map(Fraction, ws)))
        assert pava(values, weights) == [mean, mean]

    def test_overflowing_sums_named_when_no_scale_holds_them(self):
        # Scaling the largest weight into range takes the smallest to zero.
        with pytest.raises(ContractViolationError, match="overflow"):
            pava([3.0, 1.0, 2.0], [1e308, 1e308, 5e-324])

    def test_in_range_fit_bit_for_bit_as_pooled_directly(self):
        # Without overflow the fit is the plain pooling's, bit for bit:
        # `treeiso solve`'s checks compare the solver with it.
        def pooled(values, weights):
            blocks = []
            for y, w in zip(values, weights):
                cw, cy, cn = w, w * y, 1
                while blocks and blocks[-1][1] / blocks[-1][0] > cy / cw:
                    pw, py, pn = blocks.pop()
                    cw, cy, cn = cw + pw, cy + py, cn + pn
                blocks.append((cw, cy, cn))
            return [(cy / cw).hex() for cw, cy, cn in blocks for _ in range(cn)]

        rng = random.Random(33)
        for _ in range(200):
            n = rng.randint(1, 30)
            scale = 10.0 ** rng.randint(-150, 150)
            values = [rng.uniform(-1.0, 1.0) * scale for _ in range(n)]
            weights = [10.0 ** rng.uniform(-100.0, 100.0) for _ in range(n)]
            assert [v.hex() for v in pava(values, weights)] == pooled(values, weights)
