"""Brute-force reference solvers for small instances.

Independent of the recursive solver on purpose: `enumerate_optimum` tries
every feasible assignment of a relation sign per edge and keeps the first
one whose reconstructed primal-dual pair certifies, and `pava` is the
classic pool-adjacent-violators fit for nondecreasing chains.  Both exist
to cross-check the main solver, so they share only the residual, the tie
rule, the `tol` check and the normal form's lists with it.  Under one
pattern each strict edge's dual sits at a box end, adding a constant slope
to both endpoint losses, and each equal-valued component sits where its
members' derivatives sum to minus its slopes: `loss.pooled_inverse` with
that target.

Since parent[c] < c in the normal form, one ascending pass names each
component by its top, and one descending pass solves the flow balance
inside it: the dual on an equality edge into c is minus the imbalance
summed over c's side, accumulated child by child in descending label order.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CertificateError, ContractViolationError
from .loss import pooled_inverse
from .solver import DEFAULT_TOL, EQ, GT, LT, Problem, check_tol, kkt_residual, values_equal
from .tree import Edge, INF

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


def solve_reduced(problem: Problem, pattern: SignPattern, memo: dict,
                  tol: float = DEFAULT_TOL):
    """Solve the problem restricted to one sign pattern.

    Strict edges pin their dual at a box end, which adds a constant slope
    to both endpoint losses; equality edges pool their endpoints into
    components, each of which sits where its members' derivatives sum to
    minus its slopes' sum.  `memo` caches those values by component and
    slopes across patterns.  Returns (x, z) when the reconstructed pair
    certifies at `tol`, else None.  A bad `tol` raises as in `Solver`.
    """
    tol = check_tol(tol)
    arb, loss_of = problem.arb, problem.loss_of
    n, parent, lams, mus = arb.node_count, arb.parent, arb.lam, arb.mu
    slopes = [0.0] * (n + 1)
    top = list(range(n + 1))  # a node's component is named by its top
    signs = [EQ] * (n + 1)
    dual = [0.0] * (n + 1)
    for c in range(2, n + 1):
        p = parent[c]
        try:
            sign = signs[c] = pattern[(p, c)]
        except KeyError:
            raise ContractViolationError(
                "pattern assigns no sign to edge %s" % ((p, c),)
            ) from None
        if sign == EQ:
            top[c] = top[p]
            continue
        if sign == GT:
            d = -lams[c]
        elif sign == LT:
            d = mus[c]
        else:
            raise ContractViolationError("unknown sign %r" % (sign,))
        if abs(d) == INF:  # a strict side with an infinite weight
            return None
        slopes[p] -= d
        slopes[c] += d
        dual[c] = d

    # parent[c] < c, so a top precedes its members: ascending label order.
    components: Dict[int, List[int]] = {}
    for v in range(1, n + 1):
        components.setdefault(top[v], []).append(v)
    x: Dict[int, float] = {}
    for members in components.values():
        key = (frozenset(members), tuple(slopes[u] for u in members))
        value = memo.get(key)
        if value is None:
            value = memo[key] = pooled_inverse([loss_of(u) for u in members],
                                               -sum(key[1]))
        for u in members:
            x[u] = value

    # Cheap screen: a strict edge whose endpoints came out ordered the
    # wrong way can only certify when both weights vanish.
    for c in range(2, n + 1):
        sign, xp, xc = signs[c], x[parent[c]], x[c]
        if (sign == GT and xc > xp or sign == LT and xp > xc) \
                and not values_equal(xp, xc) and lams[c] + mus[c] > tol:
            return None

    # Each equality edge carries the net imbalance of the members below it,
    # summed child by child in descending label order.
    acc = [0.0] * (n + 1)
    for members in components.values():
        if len(members) > 1:
            for u in members:
                acc[u] = loss_of(u).derivative(x[u]) + slopes[u]
    for c in range(n, 1, -1):
        if top[c] != c:
            dual[c] = -acc[c]
            acc[parent[c]] += acc[c]
    z = {(parent[c], c): dual[c] for c in range(2, n + 1)}

    residual = kkt_residual(problem.weighted_edges(), loss_of, x, z)
    if residual <= tol:
        return x, z
    return None


def enumerate_optimum(problem: Problem, tol: float = DEFAULT_TOL):
    """Find the optimum by trying sign patterns in lexicographic order.

    Returns (x, z, pattern) for the first pattern that certifies.  Cost
    grows as 3^edges, hence the hard cap.  A bad `tol` raises as in `Solver`.
    """
    tol = check_tol(tol)
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
        result = solve_reduced(problem, pattern, memo, tol)
        if result is not None:
            return result[0], result[1], pattern
    raise CertificateError("no sign pattern produced a certified pair")


def _real(value, what: str, k: int) -> float:
    # As `loss._finite` checks: float() would also take True or "2".
    try:
        if type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool)):
            return float(value)
    except OverflowError:  # an integer or fraction beyond the float range
        raise ContractViolationError("%s %d is beyond the float range" % (what, k)) from None
    raise ContractViolationError("%s %d must be a real number, got %r" % (what, k, value))


def pava(values: Sequence[float], weights: Optional[Sequence[float]] = None
         ) -> List[float]:
    """Weighted least-squares fit of a nondecreasing sequence.

    Pool-adjacent-violators: scan left to right keeping a stack of blocks,
    merging while the running block's mean drops below its predecessor's.
    When a block's weighted sum overflows, the fit is pooled again with
    the weights and the values scaled by powers of two, which leave every
    mean as it would be without overflow; ContractViolationError when even
    that cannot hold the fit.
    """
    if weights is None:
        weights = [1.0] * len(values)
    if len(weights) != len(values):
        raise ContractViolationError(
            "got %d weights for %d values" % (len(weights), len(values))
        )
    ys, ws = [], []
    for k, (y, w) in enumerate(zip(values, weights)):
        y, w = _real(y, "value", k), _real(w, "weight", k)
        if not -INF < y < INF:
            raise ContractViolationError("value %d is not finite: %r" % (k, y))
        if not 0.0 < w < INF:
            raise ContractViolationError(
                "weight %d must be finite and positive, got %r" % (k, w))
        ys.append(y)
        ws.append(w)
    blocks = _pool(ys, ws)
    shift = 0
    # A sum of positive weights that overflowed stays inf, and an inf
    # weighted sum stays inf or turns NaN, so the last blocks show it.
    if not all(wsum < INF and -INF < ysum < INF for wsum, ysum, _ in blocks):
        # Each scaled weight and value is below 2**(511 - bits(n)), so no
        # product or sum of n of them overflows.
        room = 511 - len(ys).bit_length()
        wshift = max(0, math.frexp(max(ws))[1] - room)
        shift = max(0, math.frexp(max(map(abs, ys)))[1] - room)
        ws = [math.ldexp(w, -wshift) for w in ws]
        if not all(ws):
            raise ContractViolationError(
                "the weighted sums overflow, and the weights span too wide a "
                "range to scale them into the float range")
        blocks = _pool([math.ldexp(y, -shift) for y in ys], ws)
    out: List[float] = []
    for wsum, ysum, count in blocks:
        try:
            mean = math.ldexp(ysum / wsum, shift)
        except OverflowError:  # a scaled mean rounded up past the largest float
            raise ContractViolationError("a fitted value overflows the float range") from None
        out.extend([mean] * count)
    return out


def _pool(ys: List[float], ws: List[float]) -> List[Tuple[float, float, int]]:
    """PAVA's blocks as (weight sum, weighted sum, count), left to right."""
    blocks: List[Tuple[float, float, int]] = []
    for y, w in zip(ys, ws):
        cw, cy, cn = w, w * y, 1
        while blocks and blocks[-1][1] / blocks[-1][0] > cy / cw:
            pw, py, pn = blocks.pop()
            cw += pw
            cy += py
            cn += pn
        blocks.append((cw, cy, cn))
    return blocks
