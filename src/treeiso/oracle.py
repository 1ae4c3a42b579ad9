"""Brute-force reference solvers for small instances.

Independent of the recursive solver on purpose: `enumerate_optimum` tries
every feasible assignment of a relation sign per edge and keeps the first
one whose reconstructed primal-dual pair certifies, and `pava` is the
classic pool-adjacent-violators fit for nondecreasing chains.  Both exist
to cross-check the main solver, so they share only the residual definition
and the basic tree plumbing with it.

`tree_linear_solve` solves the flow-balance system on a subtree in a single
post-order traversal: given a right-hand side b on every non-ancestor node,
it returns the unique edge values z such that at each such node the sum of z
over out-edges minus the sum over in-edges equals b.  No matrix is formed.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import CertificateError, ContractViolationError
from .loss import LossGroup
from .solver import EQ, GT, LT, Problem, kkt_residual_edges, values_equal
from .tree import Edge, INF, Subtree

MAX_ORACLE_EDGES = 12

SignPattern = Dict[Edge, int]


def feasible_signs(lam: float, mu: float) -> Tuple[int, ...]:
    """Signs an edge with the given weights can take at an optimum.

    Equality is always possible; a strict ordering is ruled out when the
    weight penalizing it is infinite (the dual would have to sit at an
    infinite box end).
    """
    signs = [EQ]
    if lam != INF:
        signs.append(GT)
    if mu != INF:
        signs.append(LT)
    return tuple(signs)


def component_of(equality_edges: Iterable[Edge], seed: int) -> Subtree:
    """Connected component of `seed` under the given undirected edge set.

    Returns the component as a Subtree; edges outside the component are
    ignored.  With no incident edges the result is the singleton {seed}.
    """
    adjacency: Dict[int, list] = {}
    for i, j in equality_edges:
        adjacency.setdefault(i, []).append((j, (i, j)))
        adjacency.setdefault(j, []).append((i, (i, j)))
    nodes = [seed]
    member = {seed}
    edges = []
    queue = deque([seed])
    while queue:
        v = queue.popleft()
        for nbr, edge in adjacency.get(v, ()):
            if nbr in member:
                continue
            member.add(nbr)
            nodes.append(nbr)
            edges.append(edge)
            queue.append(nbr)
    return Subtree(nodes, edges)


def tree_linear_solve(
    subtree: Subtree, ancestor: int, b: Mapping[int, float]
) -> Dict[Edge, float]:
    """Solve the flow-balance system on a subtree in one traversal.

    Finds edge values z such that for every node v != ancestor in the
    subtree, (sum of z over out-edges of v) - (sum over in-edges) = b[v].
    The value on an edge equals the accumulated b-sum of the half of the
    subtree hanging away from `ancestor`, signed by the edge orientation.
    """
    if ancestor not in subtree.node_set:
        raise ContractViolationError("ancestor %r not in subtree" % (ancestor,))
    adjacency: Dict[int, list] = {v: [] for v in subtree.nodes}
    for i, j in subtree.edges:
        adjacency[i].append((j, (i, j)))
        adjacency[j].append((i, (i, j)))

    order = [ancestor]
    up_edge: Dict[int, Edge] = {}
    seen = {ancestor}
    k = 0
    while k < len(order):
        v = order[k]
        k += 1
        for nbr, edge in adjacency[v]:
            if nbr in seen:
                continue
            seen.add(nbr)
            up_edge[nbr] = edge
            order.append(nbr)

    acc = {v: float(b.get(v, 0.0)) for v in subtree.nodes}
    z: Dict[Edge, float] = {}
    for v in reversed(order):
        if v == ancestor:
            continue
        i, j = up_edge[v]
        other = j if v == i else i
        z[(i, j)] = acc[v] if v == i else -acc[v]
        acc[other] += acc[v]
    return z


def solve_reduced(problem: Problem, pattern: SignPattern, tol: float = 1e-8,
                  memo: Optional[dict] = None):
    """Solve the problem restricted to one sign pattern.

    Strict edges contribute their pinned dual as a linear tilt on both
    endpoint losses; equality edges pool their endpoints into components
    that minimize the tilted group loss.  Returns (x, z) when the
    reconstructed pair certifies at `tol`, else None.
    """
    edges = problem.weighted_edges()
    slopes = {v: 0.0 for v in range(1, problem.arb.node_count + 1)}
    eq_edges: List[Edge] = []
    for i, j, lam, mu in edges:
        try:
            sign = pattern[(i, j)]
        except KeyError:
            raise ContractViolationError(
                "pattern assigns no sign to edge %s" % ((i, j),)
            ) from None
        if sign == EQ:
            eq_edges.append((i, j))
        elif sign == GT:
            if lam == INF:
                return None
            slopes[i] += lam
            slopes[j] -= lam
        elif sign == LT:
            if mu == INF:
                return None
            slopes[i] -= mu
            slopes[j] += mu
        else:
            raise ContractViolationError("unknown sign %r" % (sign,))

    x: Dict[int, float] = {}
    components = []
    for v in range(1, problem.arb.node_count + 1):
        if v in x:
            continue
        comp = component_of(eq_edges, v)
        key = None
        value = None
        if memo is not None:
            key = (frozenset(comp.nodes),
                   tuple(slopes[u] for u in sorted(comp.nodes)))
            value = memo.get(key)
        if value is None:
            group = LossGroup(
                [problem.loss_of(u).shifted(slopes[u]) for u in comp.nodes]
            )
            value = group.inverse_derivative(0.0)
            if memo is not None:
                memo[key] = value
        for u in comp.nodes:
            x[u] = value
        components.append(comp)

    # Cheap screen: a strict edge whose endpoints came out ordered the
    # wrong way can only certify when both weights vanish.
    for i, j, lam, mu in edges:
        sign = pattern[(i, j)]
        if sign == GT and x[j] > x[i] and not values_equal(x[i], x[j]) \
                and lam + mu > tol:
            return None
        if sign == LT and x[i] > x[j] and not values_equal(x[i], x[j]) \
                and lam + mu > tol:
            return None

    z: Dict[Edge, float] = {}
    for i, j, lam, mu in edges:
        sign = pattern[(i, j)]
        if sign == GT:
            z[(i, j)] = -lam
        elif sign == LT:
            z[(i, j)] = mu
    for comp in components:
        if len(comp) == 1:
            continue
        b = {u: problem.loss_of(u).derivative(x[u]) + slopes[u]
             for u in comp.nodes}
        z.update(tree_linear_solve(comp, comp.nodes[0], b))

    residual = kkt_residual_edges(edges, problem.loss_of, x, z)
    if residual <= tol:
        return x, z
    return None


def enumerate_optimum(problem: Problem, tol: float = 1e-8):
    """Find the optimum by trying sign patterns in lexicographic order.

    Returns (x, z, pattern) for the first pattern that certifies.  Cost
    grows as 3^edges, hence the hard cap.
    """
    edges = problem.weighted_edges()
    if len(edges) > MAX_ORACLE_EDGES:
        raise ContractViolationError(
            "%d edges exceeds the enumeration cap of %d"
            % (len(edges), MAX_ORACLE_EDGES)
        )
    keys = [(i, j) for i, j, _, _ in edges]
    options = [feasible_signs(lam, mu) for _, _, lam, mu in edges]
    memo: dict = {}
    for combo in itertools.product(*options):
        pattern = dict(zip(keys, combo))
        result = solve_reduced(problem, pattern, tol, memo)
        if result is not None:
            return result[0], result[1], pattern
    raise CertificateError("no sign pattern produced a certified pair")


def pava(values: Sequence[float], weights: Optional[Sequence[float]] = None
         ) -> List[float]:
    """Weighted least-squares fit of a nondecreasing sequence.

    Pool-adjacent-violators: scan left to right keeping a stack of blocks,
    merging while the running block's mean drops below its predecessor's.
    """
    if weights is None:
        weights = [1.0] * len(values)
    if len(weights) != len(values):
        raise ContractViolationError(
            "got %d weights for %d values" % (len(weights), len(values))
        )
    blocks: List[Tuple[float, float, int]] = []  # (weight sum, weighted sum, count)
    for y, w in zip(values, weights):
        if not w > 0.0:
            raise ContractViolationError("weights must be positive")
        cw, cy, cn = w, w * y, 1
        while blocks and blocks[-1][1] / blocks[-1][0] > cy / cw:
            pw, py, pn = blocks.pop()
            cw += pw
            cy += py
            cn += pn
        blocks.append((cw, cy, cn))
    out: List[float] = []
    for wsum, ysum, count in blocks:
        out.extend([ysum / wsum] * count)
    return out
