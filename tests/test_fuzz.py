"""Differential fuzz: the solver against the enumeration oracle on small trees.

Trees of 2 to 8 nodes: each node's parent uniform among the earlier
nodes, each edge flipped with probability one half, ids shuffled and the
root uniform.  Edge weights come from W; 70% of the losses are
`WeightedQuadratic(w, y)` with w from V and y an integer in 0..4, the rest
`QuarticQuadratic(a, b, c)` with a in {0.5, 1, 2}, b in {0, 0.1, 1} and c
an integer in -4..4.  Both the validated and the unvalidated solve must
agree with `enumerate_optimum` at 1e-6 relative.

The examples are derandomized and their number is fixed, so tier 1 runs
the same trees every time.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from treeiso.api import build_problem
from treeiso.loss import QuarticQuadratic, WeightedQuadratic
from treeiso.oracle import enumerate_optimum
from treeiso.solver import Solver
from treeiso.tree import INF, DirectedTree

EDGE_WEIGHTS = (0.0, 0.5, 1.0, 2.0, 3.0, INF)
LOSS_WEIGHTS = (0.5, 1.0, 2.0, 3.0)

FIXED = settings(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_problems(draw, loss_weights):
    """(tree, losses, root) from the generator described above."""
    n = draw(st.integers(2, 8))
    ids = draw(st.permutations(range(1, n + 1)))
    edges = []
    for c in range(2, n + 1):
        p = draw(st.integers(1, c - 1))
        lam = draw(st.sampled_from(EDGE_WEIGHTS))
        mu = draw(st.sampled_from(EDGE_WEIGHTS))
        tail, head = (c, p) if draw(st.booleans()) else (p, c)
        edges.append((ids[tail - 1], ids[head - 1], lam, mu))
    losses = {}
    for v in range(1, n + 1):
        if draw(st.integers(0, 9)) < 7:
            losses[v] = WeightedQuadratic(draw(st.sampled_from(loss_weights)),
                                          draw(st.integers(0, 4)))
        else:
            losses[v] = QuarticQuadratic(draw(st.sampled_from((0.5, 1.0, 2.0))),
                                         draw(st.sampled_from((0.0, 0.1, 1.0))),
                                         draw(st.integers(-4, 4)))
    return DirectedTree(n, edges), losses, draw(st.integers(1, n))


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
# generator stays as it is so that the defect stays visible; shrinking is
# skipped to keep the run short.
@pytest.mark.xfail(strict=True, reason="tiny loss weights (ROADMAP item 15)")
@settings(FIXED, max_examples=60, phases=[Phase.explicit, Phase.generate],
          report_multiple_bugs=False)
@given(small_problems(LOSS_WEIGHTS + (1e-9,)))
def test_solver_agrees_with_oracle_at_tiny_loss_weights(case):
    check_against_oracle(case)
