"""Seeded instance generator for the benchmark workloads.

The generator is the benchmark's own, so that a change to the program's
`random_problem` cannot silently change a workload.  It draws from the
same distributions: edge weights uniformly from {0, 0.5, 2, inf}, quadratic
losses with w ~ U[0.5, 3] and y ~ U[0, 10], and (for the mixed loss kind)
a 30% share of quartic losses with a ~ U[0.5, 2], b ~ U[0, 1], c ~ U[-5, 5].

An instance is plain data: `n`, `edges` as (tail, head, lambda, mu) in the
orientation the program receives, and `losses` as one parameter tuple per
node 1..n, either ("quadratic", w, y) or ("quartic", a, b, c).  The
checker evaluates derivatives from these tuples, never through the
program's loss classes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import List, Tuple

INF = math.inf
WEIGHT_CHOICES = (0.0, 0.5, 2.0, INF)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str          # "random", "star" or "isotonic"
    n: int
    loss: str           # "quadratic" or "mixed"
    via: str            # "library" or "cli"
    pool: int           # distinct instances per run, solved round-robin
    traced: int         # instances in one pass of the traced run
    predicted: str


# Why each workload is here is recorded in BENCHMARK.json; `predicted` names
# the spans (joined by "+") or the layer expected to dominate its solve time,
# which the traced run checks.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-quadratic", "random", 1000, "quadratic", "library",
                 112, 4, "solver.active_set"),
        Workload("star-quadratic", "star", 400, "quadratic", "library",
                 144, 6, "solver.component_view+solver.thresholds"),
        Workload("star-mixed", "star", 250, "mixed", "library",
                 112, 4, "loss"),
        Workload("isotonic-cli", "isotonic", 16000, "quadratic", "cli",
                 4, 2, "cli"),
    )
}


@dataclass
class Instance:
    n: int
    edges: List[Tuple[int, int, float, float]]
    losses: List[tuple]     # losses[v - 1] is the parameter tuple of node v


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random("treeiso-bench/%s/%d/%d" % (workload, seed, index))


def _loss(rng: random.Random, kind: str) -> tuple:
    if kind == "mixed" and rng.random() < 0.3:
        return ("quartic", rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                rng.uniform(-5.0, 5.0))
    return ("quadratic", rng.uniform(0.5, 3.0), rng.uniform(0.0, 10.0))


def generate(w: Workload, seed: int, index: int) -> Instance:
    """Instance `index` of workload `w` for `seed`; deterministic."""
    rng = _rng(w.name, seed, index)
    n = w.n
    if w.shape == "isotonic":
        targets = sorted(rng.uniform(0.0, 10.0) for _ in range(n))
        return Instance(
            n,
            [(i, i + 1, INF, 0.0) for i in range(1, n)],
            [("quadratic", 1.0, y) for y in targets],
        )
    edges = []
    for child in range(2, n + 1):
        parent = 1 if w.shape == "star" else rng.randint(1, child - 1)
        lam = rng.choice(WEIGHT_CHOICES)
        mu = rng.choice(WEIGHT_CHOICES)
        if w.shape == "random" and rng.random() < 0.5:
            edges.append((child, parent, lam, mu))
        else:
            edges.append((parent, child, lam, mu))
    return Instance(n, edges, [_loss(rng, w.loss) for _ in range(n)])


def _weight(value: float):
    return "inf" if value == INF else value


def instance_json(inst: Instance) -> str:
    """The instance in the program's documented file format."""
    nodes = []
    for v, params in enumerate(inst.losses, start=1):
        if params[0] == "quadratic":
            loss = {"type": "quadratic", "y": params[2], "w": params[1]}
        else:
            loss = {"type": "quartic", "a": params[1], "b": params[2], "c": params[3]}
        nodes.append({"id": v, "loss": loss})
    edges = [
        {"from": i, "to": j, "lambda": _weight(lam), "mu": _weight(mu)}
        for i, j, lam, mu in inst.edges
    ]
    return json.dumps({"nodes": nodes, "edges": edges})
