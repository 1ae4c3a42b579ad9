"""Golden digests: solver and CLI outputs pinned bit for bit.

A refactor must leave every digest here unchanged.  A change that means to
alter outputs updates the digests and says why in CHANGES.md.

Each solve digest covers x, z, every StepRecord field and final_residual,
with floats written as float.hex().  The instances use only quadratic and
quartic losses: their arithmetic never goes through float sum(), whose
rounding changed in Python 3.12.

The oracle is pinned by its sign patterns, which are discrete, and by the
demo's `treeiso oracle` output.  Its x on other instances may move within
the root solve's tolerance, so it is not pinned.
"""

import dataclasses
import hashlib

import pytest

from conftest import DEMO_PATH
from treeiso.cli import build_problem, main, random_problem
from treeiso.oracle import enumerate_optimum
from treeiso.solver import solve

N = 40

SOLVE_DIGESTS = {
    ("random", "quadratic", 1): "e078d9d7c82f6781",
    ("random", "quadratic", 2): "35d15f4eb43cf94c",
    ("random", "mixed", 1): "b7ebe0cda262b921",
    ("random", "mixed", 2): "d6ebd013735f91b2",
    ("star", "quadratic", 1): "33514899ee960a6b",
    ("star", "quadratic", 2): "c23874a68911b941",
    ("star", "mixed", 1): "6725b57a93166995",
    ("star", "mixed", 2): "7083980f994df046",
    ("chain", "quadratic", 1): "a9d6f75ef47d7b1d",
    ("chain", "quadratic", 2): "2e2fc34dcbc5f2f1",
    ("chain", "mixed", 1): "7900d7313fdc8ef1",
    ("chain", "mixed", 2): "45f5657451c179c8",
}

# The step structure of the same solves, apart from the float bits: per
# StepRecord (node, branch, iterations, iteration_cap, equilibrium_calls).
# A change of summation order may move the digests above, never these.
STEP_SHAPE_DIGESTS = {
    ("random", "quadratic", 1): "4f74a82609c3080f",
    ("random", "quadratic", 2): "09146c45c1956d81",
    ("random", "mixed", 1): "4b5429616697a848",
    ("random", "mixed", 2): "edc0dc384ddf823f",
    ("star", "quadratic", 1): "fae6c633be6c2b64",
    ("star", "quadratic", 2): "8f1036d711b2b85a",
    ("star", "mixed", 1): "99d0990ad3b927c4",
    ("star", "mixed", 2): "59e132637fa58b42",
    ("chain", "quadratic", 1): "765ddda99730c170",
    ("chain", "quadratic", 2): "20b183b5dde336d8",
    ("chain", "mixed", 1): "01ee037972c9fa57",
    ("chain", "mixed", 2): "fc7aef9c4a09a936",
}

DEMO_SOLVE_JSON_DIGEST = "d2aac72c9f3ab8a6"

# enumerate_optimum's sign patterns on the SOLVE_DIGESTS instances at n = 8.
ORACLE_N = 8
ORACLE_PATTERNS_DIGEST = "defdb619946a307d"
DEMO_ORACLE_STDOUT_DIGEST = "7f24ee5d5c56d082"


def encode(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(%s)" % ",".join(encode(v) for v in value)
    return repr(value)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def solve_digest(shape: str, loss_kind: str, seed: int) -> str:
    tree, losses = random_problem(shape, N, seed, loss_kind)
    x, z, stats = solve(build_problem(tree, losses))
    lines = ["x %d %s" % (v, encode(x[v])) for v in sorted(x)]
    lines += ["z %d %d %s" % (i, j, encode(z[(i, j)])) for i, j in sorted(z)]
    for rec in stats.steps:
        lines.append(" ".join(encode(getattr(rec, f.name))
                              for f in dataclasses.fields(rec)))
    lines.append("residual %s" % encode(stats.final_residual))
    return digest(lines)


@pytest.mark.parametrize("shape, loss_kind, seed", sorted(SOLVE_DIGESTS))
def test_solve_digest(shape, loss_kind, seed):
    assert solve_digest(shape, loss_kind, seed) == SOLVE_DIGESTS[(shape, loss_kind, seed)]


def step_shape_digest(shape: str, loss_kind: str, seed: int) -> str:
    tree, losses = random_problem(shape, N, seed, loss_kind)
    _, _, stats = solve(build_problem(tree, losses))
    return digest(["%d %s %d %d %d" % (rec.node, rec.branch, rec.iterations,
                                       rec.iteration_cap, rec.equilibrium_calls)
                   for rec in stats.steps])


@pytest.mark.parametrize("shape, loss_kind, seed", sorted(STEP_SHAPE_DIGESTS))
def test_step_shape_digest(shape, loss_kind, seed):
    assert (step_shape_digest(shape, loss_kind, seed)
            == STEP_SHAPE_DIGESTS[(shape, loss_kind, seed)])


def test_demo_solve_json_digest(capsys):
    assert main(["solve", str(DEMO_PATH)]) == 0
    assert digest([capsys.readouterr().out]) == DEMO_SOLVE_JSON_DIGEST


def test_oracle_patterns_digest():
    lines = []
    for shape, loss_kind, seed in sorted(SOLVE_DIGESTS):
        tree, losses = random_problem(shape, ORACLE_N, seed, loss_kind)
        _, _, pattern = enumerate_optimum(build_problem(tree, losses))
        lines += ["%s %s %d %d %d %d" % (shape, loss_kind, seed, i, j, pattern[(i, j)])
                  for i, j in sorted(pattern)]
    assert digest(lines) == ORACLE_PATTERNS_DIGEST


def test_demo_oracle_stdout_digest(capsys):
    assert main(["oracle", str(DEMO_PATH)]) == 0
    assert digest([capsys.readouterr().out]) == DEMO_ORACLE_STDOUT_DIGEST
