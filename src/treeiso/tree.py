"""Directed-tree data model and its leaf-ordered normal form.

A problem instance lives on a directed tree: each edge (i, j) carries a pair
of nonnegative weights (lambda, mu), either of which may be infinite.  The
solver itself only operates on a normal form, an *arborescence*: a rooted
tree whose edges all point away from the root and whose node labels satisfy
i < j along every edge, so that deleting the highest-numbered node always
removes a leaf.  `normalize` rewrites an arbitrary directed tree into that
form by re-orienting edges (swapping the weight pair on every flipped edge)
and relabelling nodes breadth-first from the root; `map_back` undoes the
relabelling and flips dual signs so certificates transfer to the original
orientation.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

from .errors import ContractViolationError, MalformedInstanceError

INF = math.inf

Edge = Tuple[int, int]


def check_weight(value, what, edge):
    # float() would also take True or "Infinity"; the float test skips the ABC check.
    real = type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))
    try:
        if not real or math.isnan(value) or value < 0:
            raise MalformedInstanceError(
                "edge %s: %s must be a nonnegative number or infinity, got %r"
                % (edge, what, value)
            )
        return float(value)
    except OverflowError:  # an integer or fraction beyond the float range
        raise MalformedInstanceError(
            "edge %s: %s is beyond the float range" % (edge, what)) from None


class DirectedTree:
    """A connected acyclic directed graph on nodes 1..node_count.

    Edges are (tail, head, lambda, mu) tuples.  Having exactly
    node_count - 1 edges with no self-loops and no parallel pair (in
    either orientation) makes connectedness equivalent to acyclicity;
    the remaining check happens during `normalize` traversal.
    """

    __slots__ = ("node_count", "edges")

    def __init__(self, node_count: int, edges: Iterable[Tuple]):
        # type(), not isinstance(): True is an int and would pass for node 1.
        if type(node_count) is not int or node_count < 1:
            raise MalformedInstanceError(
                "node_count must be a positive integer, got %r" % (node_count,)
            )
        cooked = []
        seen = set()
        for k, edge in enumerate(edges):
            try:
                tail, head, lam, mu = edge
            except (TypeError, ValueError):
                raise MalformedInstanceError(
                    "edge %d: expected (tail, head, lambda, mu), got %r" % (k, edge)
                ) from None
            for node in (tail, head):
                if type(node) is not int or not 1 <= node <= node_count:
                    raise MalformedInstanceError(
                        "edge %d: node id %r outside 1..%d" % (k, node, node_count)
                    )
            if tail == head:
                raise MalformedInstanceError("edge %d: self-loop at node %r" % (k, tail))
            pair = (tail, head) if tail < head else (head, tail)
            if pair in seen:
                raise MalformedInstanceError(
                    "edge %d: duplicate edge between %d and %d" % (k, pair[0], pair[1])
                )
            seen.add(pair)
            cooked.append(
                (tail, head, check_weight(lam, "lambda", (tail, head)),
                 check_weight(mu, "mu", (tail, head)))
            )
        if len(cooked) != node_count - 1:
            raise MalformedInstanceError(
                "a tree on %d nodes needs %d edges, got %d"
                % (node_count, node_count - 1, len(cooked))
            )
        self.node_count = node_count
        self.edges = tuple(cooked)

    def __repr__(self):
        return "DirectedTree(node_count=%d, edges=%r)" % (self.node_count, self.edges)


class Attachment(NamedTuple):
    """One step of the leaf decomposition: node `child` joins via `parent`."""

    child: int
    parent: int
    lam: float
    mu: float


class Arborescence:
    """Leaf-ordered rooted tree in normal form.

    parent maps every child node c in 2..node_count to (p, lambda, mu)
    with p < c; node 1 is the root.  original_label maps internal ids to
    the node ids of the DirectedTree that was normalized, and `flipped`
    lists the internal edges whose orientation was reversed relative to
    the input (their stored weight pair is the input pair swapped).
    """

    __slots__ = ("node_count", "parent", "original_label", "flipped")

    def __init__(self, node_count, parent, original_label, flipped):
        self.node_count = node_count
        self.parent = dict(parent)
        self.original_label = dict(original_label)
        self.flipped = frozenset(flipped)
        for child, (par, lam, mu) in self.parent.items():
            if not par < child:
                raise ContractViolationError(
                    "edge (%d, %d) breaks the leaf ordering" % (par, child)
                )


def normalize(tree: DirectedTree, root: Optional[int] = None) -> Arborescence:
    """Rewrite a directed tree as a leaf-ordered arborescence.

    Every edge is re-oriented to point away from `root`; a flipped edge
    stores its weight pair swapped, which preserves the objective.  Nodes
    are relabelled breadth-first from the root, which guarantees i < j on
    every edge.  When `root` is omitted, the unique node with no incoming
    edge is used if there is exactly one, otherwise node 1.

    Raises MalformedInstanceError when the graph is disconnected (which,
    given the edge-count invariant, also means it contains a cycle); its
    `unreachable` attribute lists the nodes the root does not reach.
    """
    n = tree.node_count
    if root is None:
        heads = {head for _, head, _, _ in tree.edges}
        candidates = [v for v in range(1, n + 1) if v not in heads]
        root = candidates[0] if len(candidates) == 1 else 1
    elif type(root) is not int or not 1 <= root <= n:
        raise MalformedInstanceError("root %r outside 1..%d" % (root, n))

    adjacency: Dict[int, list] = {v: [] for v in range(1, n + 1)}
    for tail, head, lam, mu in tree.edges:
        adjacency[tail].append((head, lam, mu, False))
        adjacency[head].append((tail, lam, mu, True))

    label = {root: 1}
    parent = {}
    original_label = {1: root}
    flipped = set()
    queue = deque([root])
    next_id = 2
    while queue:
        node = queue.popleft()
        node_int = label[node]
        for nbr, lam, mu, reversed_ in adjacency[node]:
            if nbr in label:
                continue
            label[nbr] = next_id
            original_label[next_id] = nbr
            if reversed_:
                parent[next_id] = (node_int, mu, lam)
                flipped.add((node_int, next_id))
            else:
                parent[next_id] = (node_int, lam, mu)
            queue.append(nbr)
            next_id += 1
    if len(label) != n:
        missing = sorted(set(range(1, n + 1)) - set(label))
        error = MalformedInstanceError(
            "graph is disconnected (cycle elsewhere); unreachable nodes %s" % missing)
        error.unreachable = missing
        raise error
    return Arborescence(n, parent, original_label, flipped)


def decompose(arb: Arborescence):
    """Leaf decomposition: the attachment record for each node 2..n.

    Prefix m contains nodes 1..m, and the leaf ordering guarantees each
    record attaches node `child` = m+1 to the prefix through the single
    edge (parent, child) with parent <= m.
    """
    return [
        Attachment(c, arb.parent[c][0], arb.parent[c][1], arb.parent[c][2])
        for c in range(2, arb.node_count + 1)
    ]


def map_back(
    arb: Arborescence, x: Mapping[int, float], z: Mapping[Edge, float]
) -> Tuple[Dict[int, float], Dict[Edge, float]]:
    """Transfer a primal-dual pair back to the pre-normalization instance.

    Primal values map through the node relabelling unchanged; dual values
    on flipped edges change sign, and their key is the original (tail,
    head) orientation.
    """
    orig = arb.original_label
    x_out = {orig[v]: x[v] for v in range(1, arb.node_count + 1)}
    z_out: Dict[Edge, float] = {}
    for c in range(2, arb.node_count + 1):
        p = arb.parent[c][0]
        value = z[(p, c)]
        if (p, c) in arb.flipped:
            z_out[(orig[c], orig[p])] = -value
        else:
            z_out[(orig[p], orig[c])] = value
    return x_out, z_out
