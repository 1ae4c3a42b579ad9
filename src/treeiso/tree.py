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
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

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

    Edges are (tail, head, lambda, mu) tuples of two ints and two floats.
    An edge given as exactly such a tuple is kept, not copied; any other
    edge (a list, a tuple subclass, a weight not exactly a float) is
    copied into one, its weights converted to float.  Having exactly
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
            # A float that is no NaN and not negative passes one test;
            # anything else is checked and worded by `check_weight`.
            if not (type(lam) is float and lam >= 0.0):
                lam = check_weight(lam, "lambda", (tail, head))
            if not (type(mu) is float and mu >= 0.0):
                mu = check_weight(mu, "mu", (tail, head))
            # An exact tuple whose weights passed unchanged is kept as given
            # (a tuple cannot change), so each input edge is held once.
            if type(edge) is tuple and lam is edge[2] and mu is edge[3]:
                cooked.append(edge)
            else:
                cooked.append((tail, head, lam, mu))
        if len(cooked) != node_count - 1:
            raise MalformedInstanceError(
                "a tree on %d nodes needs %d edges, got %d"
                % (node_count, node_count - 1, len(cooked))
            )
        self.node_count = node_count
        self.edges = tuple(cooked)

    def __repr__(self):
        return "DirectedTree(node_count=%d, edges=%r)" % (self.node_count, self.edges)


class Arborescence:
    """Leaf-ordered rooted tree in normal form, as flat lists indexed by node.

    Node 1 is the root.  For every child c in 2..node_count, parent[c] < c
    is its parent and (lam[c], mu[c]) the weights of the edge (parent[c],
    c); entries 0 and 1 hold (0, 0.0, 0.0).  original_label[k] is the node
    id in the DirectedTree that was normalized (entry 0 holds 0), and
    `flipped` is the set of children whose edge was reversed relative to
    the input (their stored weight pair is the input pair swapped).  The
    lists are kept as given, not copied.
    """

    __slots__ = ("node_count", "parent", "lam", "mu", "original_label", "flipped")

    def __init__(self, parent, lam, mu, original_label, flipped):
        self.node_count = len(parent) - 1
        self.parent = parent
        self.lam = lam
        self.mu = mu
        self.original_label = original_label
        self.flipped = flipped
        for child in range(1, len(parent)):
            if not parent[child] < child:
                raise ContractViolationError(
                    "edge (%d, %d) breaks the leaf ordering" % (parent[child], child)
                )


def normalize(tree: DirectedTree, root: Optional[int] = None) -> Arborescence:
    """Rewrite a directed tree as a leaf-ordered arborescence.

    Every edge is re-oriented to point away from `root`; a flipped edge
    stores its weight pair swapped, which preserves the objective.  Nodes
    are relabelled breadth-first from the root, which guarantees i < j on
    every edge: the walk appends each node it reaches to the list it walks,
    and that list is the result's `original_label`.  When `root` is
    omitted, the unique node with no incoming edge is used if there is
    exactly one, otherwise node 1.

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

    # Each neighbour with the weight pair as seen from this end.
    adjacency: List[list] = [[] for _ in range(n + 1)]
    for tail, head, lam, mu in tree.edges:
        adjacency[tail].append((head, lam, mu, False))
        adjacency[head].append((tail, mu, lam, True))

    label = [0] * (n + 1)  # a node's new id, 0 until it is reached
    label[root] = 1
    original_label = [0, root]
    parent, lam, mu = [0, 0], [0.0, 0.0], [0.0, 0.0]
    flipped = set()
    for node_int, node in enumerate(original_label):  # grows as it is walked
        for nbr, w_lam, w_mu, reversed_ in adjacency[node]:
            if label[nbr]:
                continue
            label[nbr] = len(original_label)
            if reversed_:
                flipped.add(label[nbr])
            original_label.append(nbr)
            parent.append(node_int)
            lam.append(w_lam)
            mu.append(w_mu)
    if len(original_label) != n + 1:
        missing = [v for v in range(1, n + 1) if not label[v]]
        error = MalformedInstanceError(
            "graph is disconnected (cycle elsewhere); unreachable nodes %s" % missing)
        error.unreachable = missing
        raise error
    return Arborescence(parent, lam, mu, original_label, flipped)


def decompose(arb: Arborescence) -> Tuple[List[int], List[float], List[float]]:
    """Leaf decomposition: the arborescence's own lists (parent, lam, mu).

    Prefix m contains nodes 1..m, and the leaf ordering guarantees node
    m+1 attaches to the prefix through the single edge (parent[m+1], m+1)
    with weights lam[m+1] and mu[m+1] and parent[m+1] <= m.
    """
    return arb.parent, arb.lam, arb.mu


def map_back(
    arb: Arborescence, x: Mapping[int, float], z: Mapping[Edge, float]
) -> Tuple[Dict[int, float], Dict[Edge, float]]:
    """Transfer a primal-dual pair back to the pre-normalization instance.

    Primal values map through `original_label` unchanged; the dual of an
    edge into a child in `flipped` changes sign, and its key is the
    original (tail, head) orientation.  A node value or dual missing, in
    solver labels, raises ContractViolationError.
    """
    orig, parent, flipped = arb.original_label, arb.parent, arb.flipped
    try:
        x_out = {orig[v]: x[v] for v in range(1, arb.node_count + 1)}
    except KeyError as exc:
        raise ContractViolationError("x has no value for node %r" % exc.args) from None
    z_out: Dict[Edge, float] = {}
    try:
        for c in range(2, arb.node_count + 1):
            p = parent[c]
            value = z[(p, c)]
            if c in flipped:
                z_out[(orig[c], orig[p])] = -value
            else:
                z_out[(orig[p], orig[c])] = value
    except KeyError as exc:
        raise ContractViolationError("z has no dual for edge %r" % exc.args) from None
    return x_out, z_out
