"""Independent check of a returned primal-dual pair.

The flow-system residual is computed on the original edge orientation
from the generator's own loss parameters, without calling the program:

* node term: |net outflow of z - f'(x)|, maximized over nodes;
* edge term: distance of z from the box [-lambda, mu], plus, when the
  endpoint values are strictly ordered, the distance from the box end the
  ordering forces (-lambda when x_i > x_j, mu when x_i < x_j).

The residual is the node term plus the edge term; an answer passes when it
is at most GATE.  Two values count as strictly ordered when they differ by
more than 1e-9 * (1 + max(|x_i|, |x_j|)), the equality tolerance the
program documents.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Tuple

from gen import Instance

GATE = 1e-8
EQ_RTOL = 1e-9
PAVA_TOL = 1e-8


def derivative(params: tuple, x: float) -> float:
    if params[0] == "quadratic":
        _, w, y = params
        return w * (x - y)
    _, a, b, c = params
    return 2.0 * a * x + 4.0 * b * x * x * x + c


def residual(inst: Instance, x: Dict[int, float],
             z: Dict[Tuple[int, int], float]) -> float:
    """Flow-system residual of (x, z); raises KeyError on a missing entry."""
    if len(x) != inst.n or len(z) != len(inst.edges):
        raise KeyError("answer has %d values and %d duals for %d nodes"
                       % (len(x), len(z), inst.n))
    balance = [0.0] * (inst.n + 1)
    edge_term = 0.0
    for i, j, lam, mu in inst.edges:
        value = z[(i, j)]
        balance[i] += value
        balance[j] -= value
        dist = max(value - mu, 0.0) + max(-lam - value, 0.0)
        xi, xj = x[i], x[j]
        if abs(xi - xj) > EQ_RTOL * (1.0 + max(abs(xi), abs(xj))):
            forced = -lam if xi > xj else mu
            dist += abs(value - forced)
        if not dist <= edge_term:
            edge_term = dist
    node_term = 0.0
    for v in range(1, inst.n + 1):
        gap = abs(balance[v] - derivative(inst.losses[v - 1], x[v]))
        if not gap <= node_term:
            node_term = gap
    return node_term + edge_term


def certify(inst: Instance, x, z) -> str:
    """Empty string when the pair passes the gate, else the reason."""
    try:
        r = residual(inst, x, z)
    except (KeyError, TypeError) as exc:
        return "malformed answer: %s" % (exc,)
    if not r <= GATE:
        return "residual %.3e above the %.0e gate" % (r, GATE)
    return ""


def agrees_with(reference, x) -> str:
    """Empty string when x matches the reference fit node by node."""
    worst = max(abs(x[v] - ref) for v, ref in enumerate(reference, start=1))
    if not worst <= PAVA_TOL:
        return "max |x - pava| = %.3e above %.0e" % (worst, PAVA_TOL)
    return ""


def parse_report(text: str):
    """x and z from a `treeiso solve` JSON report on file ids 1..n."""

    def number(raw):
        return math.inf if raw == "inf" else -math.inf if raw == "-inf" else raw

    report = json.loads(text)
    x = {int(k): number(v) for k, v in report["x"].items()}
    z = {(row["from"], row["to"]): number(row["value"]) for row in report["z"]}
    return x, z
