"""Shared fixtures: the demo instance, random corpora and timing records."""

import dataclasses
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from treeiso.api import build_problem, random_problem
from treeiso.loss import QuarticQuadratic, WeightedQuadratic
from treeiso.solver import Problem, Solver
from treeiso.tree import Arborescence, DirectedTree, INF, normalize

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_PATH = REPO_ROOT / "instances" / "demo_tree.json"

DEMO_X = {1: 3.0, 2: 3.0, 3: 3.0, 4: 4.0, 5: 1.0}
DEMO_Z = {(1, 2): -1.0, (1, 3): 0.0, (3, 4): 4.0, (3, 5): -3.0}
DEMO_OBJECTIVE = 20.75

CORPUS_SEEDS = 200
CHAIN_COUNT = 50
CHAIN_LENGTH = 1000


def demo_losses():
    return [
        WeightedQuadratic(1.0, 4.0),
        WeightedQuadratic(1.0, 2.0),
        WeightedQuadratic(1.0, 2.0),
        WeightedQuadratic(1.0, 8.0),
        QuarticQuadratic(1.0, 0.25, 0.0),
    ]


def demo_tree():
    return DirectedTree(5, [
        (1, 2, INF, 0.0),
        (1, 3, 0.0, INF),
        (3, 4, 0.0, 4.0),
        (3, 5, 3.0, 3.0),
    ])


def make_demo_problem() -> Problem:
    return Problem(normalize(demo_tree()), demo_losses())


@pytest.fixture
def demo_problem() -> Problem:
    return make_demo_problem()


def prefix_problem(problem: Problem, m: int) -> Problem:
    """The normal form's prefix on nodes 1..m as a problem of its own.

    Each extension leaves the prefix solved, so the pair after node m is
    added is this problem's solution.
    """
    arb = problem.arb
    prefix = Arborescence(
        arb.parent[:m + 1],
        arb.lam[:m + 1],
        arb.mu[:m + 1],
        arb.original_label[:m + 1],
        {c for c in arb.flipped if c <= m},
    )
    return Problem(prefix, problem.losses[1:m + 1])


class FloatSubclass(float):
    """A float that is not exactly a float, as a caller's numeric type may be."""


# (id, value) pairs for the checks on loss parameters and edge weights:
# zeros of both signs, the smallest and largest floats, the non-finite
# floats, a bool, ints in and beyond the float range, a fraction and a
# float subclass.
CHECKED_VALUES = [
    ("1.0", 1.0), ("0.0", 0.0), ("-0.0", -0.0), ("-1.0", -1.0),
    ("5e-324", 5e-324), ("max", 1.7976931348623157e308),
    ("inf", INF), ("-inf", -INF), ("nan", math.nan), ("True", True), ("1", 1),
    ("10**400", 10 ** 400), ("1/3", Fraction(1, 3)), ("subclass", FloatSubclass(2.5)),
]


def hexed(values: dict) -> dict:
    """Floats by their bits, so that -0.0 and 0.0 differ."""
    return {k: v.hex() for k, v in values.items()}


def record_bits(rec) -> tuple:
    """A StepRecord's fields, floats and float tuples by their bits."""
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value
    return tuple(bits(getattr(rec, f.name)) for f in dataclasses.fields(rec))


class CorpusEntry:
    def __init__(self, seed, n, tree, losses, problem, x, z, stats, elapsed):
        self.seed = seed
        self.n = n
        self.tree = tree
        self.losses = losses
        self.problem = problem
        self.x = x
        self.z = z
        self.stats = stats
        self.elapsed = elapsed


@pytest.fixture(scope="session")
def corpus():
    """200 seeded random small instances, solved once with validation on."""
    entries = []
    for seed in range(CORPUS_SEEDS):
        n = random.Random(10000 + seed).randint(2, 8)
        tree, losses = random_problem("random", n, seed, "mixed")
        problem = build_problem(tree, losses)
        started = time.perf_counter()
        x, z, stats = Solver(problem).solve(validate=True)
        elapsed = time.perf_counter() - started
        entries.append(CorpusEntry(seed, n, tree, losses, problem, x, z, stats, elapsed))
    return entries


class ChainEntry:
    def __init__(self, seed, targets, weights, problem, x, stats, elapsed):
        self.seed = seed
        self.targets = targets
        self.weights = weights
        self.problem = problem
        self.x = x
        self.stats = stats
        self.elapsed = elapsed


@pytest.fixture(scope="session")
def chain_corpus():
    """50 random hard-isotonic chains (n = 1000), solved once and timed."""
    entries = []
    for seed in range(CHAIN_COUNT):
        rng = random.Random(5000 + seed)
        targets = [rng.uniform(0.0, 10.0) for _ in range(CHAIN_LENGTH)]
        weights = [rng.uniform(0.5, 3.0) for _ in range(CHAIN_LENGTH)]
        tree = DirectedTree(
            CHAIN_LENGTH,
            [(i, i + 1, INF, 0.0) for i in range(1, CHAIN_LENGTH)],
        )
        losses = {
            v: WeightedQuadratic(weights[v - 1], targets[v - 1])
            for v in range(1, CHAIN_LENGTH + 1)
        }
        problem = build_problem(tree, losses)
        started = time.perf_counter()
        x, z, stats = Solver(problem).solve()
        elapsed = time.perf_counter() - started
        entries.append(ChainEntry(seed, targets, weights, problem, x, stats, elapsed))
    return entries


ACCEPTANCE_RESULTS = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_RESULTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        line = "[%d] %-52s %s" % (number, name, status)
        if detail:
            line += "  (%s)" % detail
        terminalreporter.write_line(line)
