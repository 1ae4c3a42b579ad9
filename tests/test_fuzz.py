"""Differential fuzz: the solver against the enumeration oracle on small trees.

Trees of 2 to 8 nodes: each node's parent uniform among the earlier
nodes, each edge flipped with probability one half, ids shuffled and the
root uniform.  Edge weights come from W; 70% of the losses are
`WeightedQuadratic(w, y)` with w from V and y an integer in 0..4, the rest
`QuarticQuadratic(a, b, c)` with a in {0.5, 1, 2}, b in {0, 0.1, 1} and c
an integer in -4..4.  Both the validated and the unvalidated solve must
agree with `enumerate_optimum` at 1e-6 relative.

The examples are derandomized and their number is fixed, so tier 1 runs
the same trees every time.  One generator serves both tests: hypothesis
draws its choices in the first, a seeded `random.Random` in the second.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treeiso.api import build_problem
from treeiso.errors import InternalInvariantError
from treeiso.loss import QuarticQuadratic, WeightedQuadratic
from treeiso.oracle import enumerate_optimum
from treeiso.solver import Solver
from treeiso.tree import INF, DirectedTree

EDGE_WEIGHTS = (0.0, 0.5, 1.0, 2.0, 3.0, INF)
LOSS_WEIGHTS = (0.5, 1.0, 2.0, 3.0)

FIXED = settings(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def small_problem(rng, loss_weights, edge_weights=EDGE_WEIGHTS):
    """(tree, losses, root) from the generator described above, drawn by
    `rng`: a `random.Random`, or `Draws` for hypothesis."""
    n = rng.randint(2, 8)
    ids = rng.sample(range(1, n + 1), n)
    edges = []
    for c in range(2, n + 1):
        p = rng.randint(1, c - 1)
        lam = rng.choice(edge_weights)
        mu = rng.choice(edge_weights)
        tail, head = (c, p) if rng.getrandbits(1) else (p, c)
        edges.append((ids[tail - 1], ids[head - 1], lam, mu))
    losses = {}
    for v in range(1, n + 1):
        if rng.randint(0, 9) < 7:
            losses[v] = WeightedQuadratic(rng.choice(loss_weights), rng.randint(0, 4))
        else:
            losses[v] = QuarticQuadratic(rng.choice((0.5, 1.0, 2.0)),
                                         rng.choice((0.0, 0.1, 1.0)),
                                         rng.randint(-4, 4))
    return DirectedTree(n, edges), losses, rng.randint(1, n)


class Draws:
    """The `random.Random` calls `small_problem` makes, drawn by hypothesis."""

    def __init__(self, draw):
        self.draw = draw

    def randint(self, a, b):
        return self.draw(st.integers(a, b))

    def choice(self, seq):
        return self.draw(st.sampled_from(seq))

    def sample(self, population, k):  # k is the population's size
        return self.draw(st.permutations(population))

    def getrandbits(self, k):  # k is 1
        return int(self.draw(st.booleans()))


@st.composite
def small_problems(draw, loss_weights):
    return small_problem(Draws(draw), loss_weights)


def check_against_oracle(case):
    problem = build_problem(*case)
    want, _, _ = enumerate_optimum(problem)
    for validate in (False, True):
        x, _, stats = Solver(problem).solve(validate=validate)
        assert stats.final_residual <= 1e-8
        for v, value in want.items():
            assert abs(x[v] - value) <= 1e-6 * (1.0 + abs(value)), (validate, v)


@settings(FIXED, max_examples=400)
@given(small_problems(LOSS_WEIGHTS))
def test_solver_agrees_with_oracle(case):
    check_against_oracle(case)


# Loss weights of 1e-9 make the solver raise "equilibrium step left a value
# gap", and under validation give false alarms (ROADMAP item 15; the
# smallest case is pinned in test_solver.py's TestTinyWeights).  The
# generator stays as it is so that the defect stays visible.  Its trees
# come from a plain loop over seeds, not from hypothesis: an expected
# failure that hypothesis saw would make it write a patch of the
# falsifying example on every run.
@pytest.mark.xfail(strict=True, reason="tiny loss weights (ROADMAP item 15)")
def test_solver_agrees_with_oracle_at_tiny_loss_weights():
    for seed in range(60):
        check_against_oracle(small_problem(random.Random(seed), LOSS_WEIGHTS + (1e-9,)))


# Edge weights of 1e-9 give validated false alarms: `_check_anchor` finds a
# component value that EQ_RTOL pooled but ANCHOR_RTOL tells apart from the
# stored one (ROADMAP items 4 and 15; seed 69 fails first).  As above, the
# generator is not narrowed and the trees come from a loop over seeds.
@pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                   reason="tiny edge weights (ROADMAP items 4 and 15)")
def test_solver_agrees_with_oracle_at_tiny_edge_weights():
    for seed in range(200):
        check_against_oracle(small_problem(random.Random(seed), LOSS_WEIGHTS,
                                           EDGE_WEIGHTS + (1e-9,)))
