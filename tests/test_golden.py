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
    ("random", "quadratic", 1): "3f04d83a2e8038c8",
    ("random", "quadratic", 2): "585e889b1f9c2ec5",
    ("random", "mixed", 1): "bde7e1b184cd72b5",
    ("random", "mixed", 2): "b3d3b1b6b3204fec",
    ("star", "quadratic", 1): "e29aa126efe0b868",
    ("star", "quadratic", 2): "9656cd7c8454c665",
    ("star", "mixed", 1): "1d4c044c7f564028",
    ("star", "mixed", 2): "799961bab30afb08",
    ("chain", "quadratic", 1): "ff440a09ec608704",
    ("chain", "quadratic", 2): "fea1f200849e7ef6",
    ("chain", "mixed", 1): "23111c1bddf4a6f0",
    ("chain", "mixed", 2): "d4052f2e6fd8ca13",
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
