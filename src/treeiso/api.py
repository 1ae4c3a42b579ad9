"""Library entry point: `solve_tree` takes a caller's directed tree through
the solver's leaf-ordered normal form and back, so that no caller handles
solver labels.  `random_problem` draws the seeded instances that the bench
command and the tests solve.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional

from .errors import ContractViolationError
from .loss import Loss, QuarticQuadratic, WeightedQuadratic
from .solver import DEFAULT_TOL, Problem, Solver
from .tree import INF, DirectedTree, map_back, normalize

_WEIGHT_CHOICES = (0.0, 0.5, 2.0, INF)


def build_problem(tree: DirectedTree, losses: Mapping[int, Loss],
                  root: Optional[int] = None) -> Problem:
    """Normalize a tree and order the losses to match its labels.

    Raises ContractViolationError naming a node without a loss, a node
    whose loss is not a `Loss`, or a key that is no node of the tree.
    """
    arb = normalize(tree, root)
    n, label = tree.node_count, arb.original_label
    try:
        ordered = [losses[label[k]] for k in range(1, n + 1)]
    except KeyError as exc:
        raise ContractViolationError("no loss for node %s" % exc) from None
    if len(losses) > n:
        nodes = set(range(1, n + 1))
        extra = next(key for key in losses if key not in nodes)
        raise ContractViolationError("a loss for %r, which is no node of the tree" % (extra,))
    for k, loss in enumerate(ordered, 1):
        if not isinstance(loss, Loss):
            raise ContractViolationError(
                "the loss of node %r is not a Loss, got %r" % (label[k], loss))
    return Problem(arb, ordered)


def solve_tree(tree: DirectedTree, losses: Mapping[int, Loss],
               root: Optional[int] = None, tol: float = DEFAULT_TOL):
    """Solve on `tree`; returns (x, z, stats) in the caller's labels.

    x maps each node to its value and z each edge's (tail, head), as the
    tree declares it, to its dual.  Each `StepRecord.node` is the caller's
    label of the node that extension attached.  `root` pins the node the
    solver grows from (see `normalize`), and the pair has passed the
    certificate gate `tol`.
    """
    problem = build_problem(tree, losses, root)
    x, z, stats = Solver(problem, tol).solve()
    label = problem.arb.original_label
    for rec in stats.steps:
        rec.node = label[rec.node]
    x, z = map_back(problem.arb, x, z)
    return x, z, stats


def random_problem(shape: str, n: int, seed: int, loss_kind: str = "quadratic",
                   isotonic: bool = False):
    """Deterministic random instance: (DirectedTree, losses by node id).

    Shapes: chain (1 - 2 - ... - n), star (all nodes hang off node 1) and
    random (uniform parent, orientation flipped with probability one half).
    Weights are drawn from {0, 0.5, 2, inf} uniformly; targets from
    U[0, 10].  With `isotonic` the targets are sorted ascending and every
    edge gets (lambda, mu) = (inf, 0): a hard nondecreasing chain, so it
    takes only shape "chain" and loss kind "quadratic".
    """
    if type(n) is not int or n < 1:
        raise ContractViolationError("n must be a positive integer, got %r" % (n,))
    if isotonic and (shape, loss_kind) != ("chain", "quadratic"):
        raise ContractViolationError(
            "an isotonic instance is a quadratic chain, got shape %r and loss %r"
            % (shape, loss_kind))
    rng = random.Random(seed)
    edges = []
    for child in range(2, n + 1):
        if shape == "chain":
            parent = child - 1
        elif shape == "star":
            parent = 1
        elif shape == "random":
            parent = rng.randint(1, child - 1)
        else:
            raise ContractViolationError("unknown shape %r" % (shape,))
        lam = rng.choice(_WEIGHT_CHOICES)
        mu = rng.choice(_WEIGHT_CHOICES)
        if shape == "random" and rng.random() < 0.5:
            edges.append((child, parent, lam, mu))
        else:
            edges.append((parent, child, lam, mu))
    losses: Dict[int, Loss] = {}
    for v in range(1, n + 1):
        if loss_kind == "mixed" and rng.random() < 0.3:
            losses[v] = QuarticQuadratic(
                rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), rng.uniform(-5.0, 5.0)
            )
        elif loss_kind in ("mixed", "quadratic"):
            losses[v] = WeightedQuadratic(rng.uniform(0.5, 3.0), rng.uniform(0.0, 10.0))
        else:
            raise ContractViolationError("unknown loss kind %r" % (loss_kind,))
    if isotonic:
        # Drawn after the discarded tree and losses: each seed keeps its chain.
        targets = sorted(rng.uniform(0.0, 10.0) for _ in range(n))
        losses = {v: WeightedQuadratic(1.0, targets[v - 1]) for v in range(1, n + 1)}
        edges = [(i, i + 1, INF, 0.0) for i in range(1, n)]
    return DirectedTree(n, edges), losses
