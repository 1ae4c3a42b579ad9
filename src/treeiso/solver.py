"""Recursive active-set solver with exact dual certificates.

The problem: minimize  sum_i f_i(x_i) + sum_{(i,j)} lambda_ij * max(x_i - x_j, 0)
+ mu_ij * max(x_j - x_i, 0)  over a directed tree, where each f_i is strongly
convex and differentiable and infinite weights act as hard constraints.

Optimality is characterized by a flow system on the tree: an edge vector z
such that at every node the net outflow equals the loss derivative, with
each z_ij confined to the box [-lambda_ij, mu_ij] and pinned to the matching
box end whenever the incident values are strictly ordered.  `kkt_residual`
measures the violation of that system and is the sole acceptance gate.

The solver grows the tree one leaf at a time (the normal form guarantees
node m+1 attaches to the prefix 1..m by a single edge).  Each extension
keeps the prefix solution optimal by sliding the new edge's dual value t
away from zero while maintaining an *active set*: a relation sign per edge
(LT, EQ, GT).  Edges with sign EQ pool their nodes into equal-valued
components; the component containing the attachment point moves as a whole,
parametrized through its pooled loss (closed form: a quotient when every
member is quadratic, the root of one cubic otherwise), while everything else
stays frozen.  Threshold computations find the largest |t| step before
some dual value hits its box end or the moving component collides with a
frozen neighbor; if the new node's value meets the
component's before any threshold, an equilibrium solve finishes the
search.  The search direction s is set by the sign of the attached loss's
derivative at the attachment point: positive derivative means t decreases
(s = -1, downward search), negative means t increases (s = +1, upward
search).  The two directions are mirror images (reflect x to -x and swap
lambda with mu), so one threshold routine, one step and one migration
serve both, with s as a parameter: every move is s times a nonnegative
length, and comparisons of moves compare s times their values.

In the normal form every edge is (parent[c], c), so the solver names an
edge by its child c: signs, working duals z, boundary lists and departed
edges are keyed by c.  x, z and the signs are lists indexed by node while
the solve works; `Solver.solve` returns x keyed by node and z by (parent,
child), as dicts.

One active set is the working state of a whole solve: x and z, the
signs, the moving block, the current search's fields and an index of
every node's prefix children: the EQ ones in ascending order, the summed
dual over the strict ones, and two lazy heaps of the strict ones keyed by
value, one for the children above the node and one for those below.
Every sign write goes through the active set, so the index follows the
signs, and a step never scans a node's strict children.  A member's
boundary outflow is its cached child flow minus its parent edge's dual
when that edge is strict.  A moving component meets a frozen child at
the child's value, and `t_of_value` is monotone in the value, so the
binding collision is at a heap top and the children tied with it are a
run from that top.  A node's value changes only while it is a
component member (or as the attached node), and then only its own entry
in its parent's heap goes stale.  When that edge is strict the entry is
renewed at the next reclassification, because the parent's heap is not
read before then: the parent cannot join the component while the node
is in it (their only link is the strict edge), nor after the node left
it (the parent's path to the component crosses the edge that departed,
which may not rejoin in the same search).

The moving component is a persistent block (`ComponentView`), kept in
the active set across search steps and extensions, as in PAVA, where a
pooled block moves as a whole (Best & Chakravarti, Math. Programming
1990).  It is built only when a search's anchor lies outside it; after
that every sign write on an edge at it updates it: a joining component
is walked once, a departing half is split off and writes out its
members' x and internal duals.  It is rooted at the search's anchor,
and each member keeps its neighbour one edge nearer the anchor and the
pooled loss form and boundary flow of its subtree in that rooting, so
that the subtree of an internal edge's end away from the anchor is the
edge's far half.  A change is passed up to the anchor, and when the
anchor moves within the block the edges between the old anchor and the
new one turn round.  An internal edge binds at a value `vbar` that
depends only on its far half, so every internal edge waits in one lazy
heap per direction, keyed by `vbar`, and its tied edges depart as a run
from the heap's top.

A pooled block is one value, so the block owns its members' x: its
`value` is every member's, and a step moves it without writing the
members.  A member's x, like an internal dual, is written when it stops
being a member (its half departs, or the block is written out or
rebuilt: `restart`, `flush` and the end of the solve), and before a
search reads x at the top and at a few members next to moved nodes
(`_reclassify`); the search's other reads of a member's value go
through `ActiveSet.value_of`.  A member that joined since the last step
keeps its own tied x until the next one.  So a step costs O(1) per
member with strict children and O(log n) per heap operation, plus
O(size) for what joins or departs.  A change costs time in its distance
from the anchor, and a move of the anchor time in the members between
the old anchor and the new one and in their EQ children.  So neither the
size of the block nor the degrees of its members enter a step, but a
chain-like block whose anchor lies deep pays that depth per join or
departure.  Mergeable
blocks on trees: Kolmogorov, Pock & Rolinek, "Total Variation on a Tree"
(SIAM J. Imaging Sci. 2016).

Before each search the signs are brought back to the value-based
classification of the prefix (the one `build_initial_active_set` would
produce from scratch).  A written node's parent edge can only have
changed class where it leaves a block or a departed half, whose members
hold one value: at their tops, at the lower ends of departed edges and at
attached nodes (see `ActiveSet`).  An edge whose endpoints kept their
values keeps its class.  A component stops at the first frozen value it
meets, so a strict child of a member can only come level with it on the
side it moves towards (or, by a rounding error, on the other side when
its value moved back), and the nearest one on that side does so first.
So each step checks the nearest strict child on that side of every
member that has strict children (the block's rim), the other side only
when the value moved back, and only for a member where one no longer
classifies as strict are the strict children at its heap tops
reclassified, down to the first that still classifies.
"""

from __future__ import annotations

import heapq
import math
import numbers
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import (
    CertificateError,
    ContractViolationError,
    InternalInvariantError,
)
from .loss import Loss, equilibrium_t, poly_derivative, poly_inverse, pooled_inverse
from .tree import Arborescence, decompose

INF = math.inf

LT, EQ, GT = -1, 0, 1

SIGN_NAME = {LT: "<", EQ: "=", GT: ">"}

EQ_RTOL = 1e-9          # relative tolerance deciding "these two values are equal"
TIE_TOL = 1e-9          # absolute tolerance grouping tied thresholds
SIGN_TOL = 1e-12        # slack on the new-edge dual sign property
MONO_SLACK = 1e-12      # slack on monotonicity of the t sequence
ANCHOR_RTOL = 1e-10     # validation tolerance for state/formula consistency
DEFAULT_TOL = 1e-8      # final certificate gate

def values_equal(a: float, b: float) -> bool:
    """The tie rule: a and b are equal when |a - b| <= EQ_RTOL * (1 + max(|a|, |b|))."""
    # abs and max are written out: `-a if a < 0.0 else a` differs from abs(a)
    # only in the sign of a zero or a NaN, and neither changes the outcome.
    aa = -a if a < 0.0 else a
    ab = -b if b < 0.0 else b
    tie = EQ_RTOL * (1.0 + (ab if ab > aa else aa))
    return -tie <= a - b <= tie


def _keeps_side(sign: int, xv: float, xc: float) -> bool:
    """Whether a parent at xv and a child at xc classify as `sign` (LT or GT)."""
    return sign * (xv - xc) > 0.0 and not values_equal(xv, xc)


def check_tol(tol) -> float:
    """A certificate gate as a float; ContractViolationError unless it is a
    finite nonnegative real number (an infinite gate certifies anything)."""
    # float() would also take True or "1e-3"; the float test skips the ABC check.
    if not (type(tol) is float or isinstance(tol, numbers.Real)
            and not isinstance(tol, bool)) or not tol >= 0.0:
        raise ContractViolationError("tolerance must be a nonnegative number, got %r" % (tol,))
    try:
        tol = float(tol)
    except OverflowError:
        raise ContractViolationError("tolerance must be within the float range") from None
    if tol == INF:
        raise ContractViolationError("tolerance must be finite, got inf")
    return tol


class Problem:
    """An arborescence plus the losses of nodes 1..node_count in label
    order, stored indexed by node: `losses[v]` is node v's, entry 0 None."""

    __slots__ = ("arb", "losses")

    def __init__(self, arb: Arborescence, losses):
        losses = [None, *losses]
        if len(losses) != arb.node_count + 1:
            raise ContractViolationError(
                "expected %d losses, got %d" % (arb.node_count, len(losses) - 1)
            )
        self.arb = arb
        self.losses = losses

    def loss_of(self, node: int) -> Loss:
        """Node `node`'s loss; ContractViolationError naming a node outside
        1..node_count."""
        losses = self.losses
        if 0 < node < len(losses):
            return losses[node]
        raise ContractViolationError("no loss for node %r: the problem's nodes are 1..%d"
                                     % (node, len(losses) - 1))

    def weighted_edges(self):
        """Edges as (tail, head, lambda, mu) tuples."""
        arb = self.arb
        return list(zip(arb.parent[2:], range(2, arb.node_count + 1),
                        arb.lam[2:], arb.mu[2:]))


class ActiveSet:
    """The working state of one solve: x, z, a relation sign per edge, LT
    (-1), EQ (0) or GT (+1), their child index, the moving block and the
    current search's fields.

    x, z and `signs` are lists indexed by node, shared with the caller and
    updated in place: x[v] is v's value, and z[c] and signs[c] belong to
    the edge (parent[c], c).  An entry not written yet is None (entry 0
    always, and the root's sign and dual): a None sign marks an edge not
    signed yet, and since EQ is 0, `signs[c]` is truthy exactly for a
    strict edge.
    The kept block holds its members' value and its internal duals: a
    member's x and an internal edge's z are current only once the block
    has been written out (`ComponentView.flush`), and the search reads a
    member's value through `value_of`.  Under validation `full` holds
    each node's value as of the last step it took as a member, which is
    what its x would hold if every member were written on every step
    (a node's value changes only while it is a member, or as the attached
    node, whose x is written directly), and every read through `value_of`
    is checked against it; otherwise `full` is None.
    `moved` holds the nodes whose parent edge may have changed class since
    the signs were last classified: each attached node and, of each
    search, the final block's top, the lower end of every departed edge
    and the old top of every departed half.  Every other node whose value
    was written lies inside a block or a departed half below its top, so
    its parent edge joins two nodes of one value and stays EQ.  Only the
    edges next to written nodes can be out of date, and of those only the
    moved nodes' parent edges, except at the nodes in `level`, where a
    write left the nearest strict child on some side no longer strictly
    apart from the node.

    `block` is the moving equality block (`ComponentView`) kept from
    search to search; every sign write on an edge with an end in it is
    passed on to it.  `start_search` resets the search's fields: its
    parameter `t`; `departed`, the children of the edges that left EQ, and
    `equilibrium_calls`, which back the churn and single-equilibrium
    checks; and `validate`, under which each step checks its moves and
    ties against full scans, and its key heap against `reference`, the
    block built afresh.

    Given the parent list, the constructor indexes the signed edges from
    `signs`, x and z (None for signs leaves every edge unsigned); without
    it the set holds only its signs, as given, and no other field.  Per
    node v the index holds: `eq_kids[v]`, the EQ children in ascending order;
    `child_flow[v]`, the summed dual over the strict child edges; and
    `strict[LT][v]` and `strict[GT][v]`, lazy heaps of the strict children
    above and below v, keyed by value so that the top is the nearest one.
    A heap entry is fresh while its edge keeps that sign and its child
    keeps the keyed value; `nearest` drops stale entries from the top.
    Every sign write goes through `set_sign`, and a strict child whose
    value was written is entered again with `push` before its parent's
    heap is next read, so the index cannot drift from `signs`.
    """

    __slots__ = ("signs", "x", "z", "moved", "level", "parent", "eq_kids",
                 "child_flow", "strict", "block", "t", "departed",
                 "equilibrium_calls", "validate", "reference", "full")

    def __init__(self, signs=None, parent=None, x=None, z=None):
        self.signs = signs
        if parent is None:
            return
        size = len(parent)
        self.x, self.z, self.parent = x, z, parent
        self.moved, self.level, self.block, self.full = set(), set(), None, None
        self.start_search()
        # Per-node lists start as one shared empty tuple and are made on
        # first entry, so that building the index allocates next to nothing.
        self.eq_kids = [()] * size
        self.child_flow = [0.0] * size
        self.strict = {LT: [()] * size, GT: [()] * size}
        if signs is None:
            self.signs = [None] * size
            return
        # Ascending children: sorted EQ lists, and flows summed in child order.
        for c, sign in enumerate(signs):
            if sign is not None:
                self._enter(c, sign)

    def start_search(self, validate: bool = False):
        """Reset the search's fields: t at 0, nothing departed, no equilibrium."""
        self.t, self.equilibrium_calls, self.departed = 0.0, 0, set()
        self.validate, self.reference = validate, None

    def _enter(self, c: int, sign: int):
        """Add the edge into c to the index under the given sign."""
        p = self.parent[c]
        if sign == EQ:
            kids = self.eq_kids[p]
            if kids:
                insort(kids, c)
            else:
                self.eq_kids[p] = [c]
        else:
            self.child_flow[p] += self.z[c]
            self.push(c)

    def push(self, c: int):
        """Enter the child c of a strict edge in its parent's heap, at its value."""
        sign = self.signs[c]
        heaps, p = self.strict[sign], self.parent[c]
        entry = (self.x[c] if sign == LT else -self.x[c], c)
        if heaps[p]:
            heapq.heappush(heaps[p], entry)
        else:
            heaps[p] = [entry]

    def set_sign(self, c: int, sign: int):
        """Write the sign of the edge into c, keeping the index in step.

        A strict edge's dual must already hold its final value: it stays
        in the parent's cached flow until the edge leaves its class.  A
        write on an edge with an end in the kept block goes on to the
        block, so that the block follows the signs too.
        """
        signs, z = self.signs, self.z
        old = signs[c]
        if old == sign:
            return
        signs[c] = sign
        p = self.parent[c]
        d = 0.0  # the change in the edge's dual as counted in its parent's flow
        if old == EQ:
            self.eq_kids[p].remove(c)
        elif old is not None:
            self.child_flow[p] -= z[c]
            d = -z[c]
        self._enter(c, sign)
        if sign != EQ:
            d += z[c]
        block = self.block
        if block is not None and (p in block.nodes or c in block.nodes):
            block.on_sign(c, old, sign, d)

    def nearest(self, v: int, sign: int) -> Optional[int]:
        """The strict child of v with the given sign nearest to v, or None."""
        heap = self.strict[sign][v]
        signs, x = self.signs, self.x
        while heap:
            key, c = heap[0]
            if signs[c] == sign and x[c] == (key if sign == LT else -key):
                return c
            heapq.heappop(heap)
        return None

    def value_of(self, v: int) -> float:
        """v's value: the block's for a member, unless it joined since the
        last step, and x[v] otherwise.  Under validation it must equal the
        value `full` holds for it."""
        block, full = self.block, self.full
        if block is None or v not in block.nodes or v in block.joined:
            value = self.x[v]
        else:
            value = block.value
        if full is not None and value != full.get(v, value):
            raise InternalInvariantError(
                "x[%d] reads %.17g, the fully written copy holds %.17g"
                % (v, value, full[v])
            )
        return value

    def fresh_entries(self, v: int, sign: int) -> set:
        """The fresh entries of one of v's heaps."""
        return {(key, c) for key, c in self.strict[sign][v]
                if self.signs[c] == sign and self.x[c] == (key if sign == LT else -key)}


def build_initial_active_set(x, edges) -> ActiveSet:
    """`classify`'s signs, a dict keyed by head, in a set that holds only
    them; perfbench/spans.py times this call and counts its signs."""
    return ActiveSet(classify(x, edges))


def classify(x, edges) -> Dict[int, int]:
    """Classify each edge by comparing its endpoint values, keyed by its head.

    Values that `values_equal` ties count as equal.  A strict ordering that
    an infinite weight forbids cannot occur at a certified optimum, so it
    raises CertificateError instead of being repaired silently.
    """
    signs: Dict[int, int] = {}
    for i, j, lam, mu in edges:
        xi, xj = x[i], x[j]
        if values_equal(xi, xj):
            sign = EQ
        elif xi > xj:
            if lam == INF:
                raise CertificateError(
                    "x[%d] > x[%d] but the edge forbids it (infinite lambda)" % (i, j)
                )
            sign = GT
        else:
            if mu == INF:
                raise CertificateError(
                    "x[%d] < x[%d] but the edge forbids it (infinite mu)" % (i, j)
                )
            sign = LT
        signs[j] = sign
    return signs


class ComponentView:
    """The moving equality block: the equal-valued component of the anchor.

    The block persists across search steps and extensions (it is kept in
    `ActiveSet.block`, and reads x and z from that active set) and is
    updated, not rebuilt, when a component joins it or a half departs; it
    is built afresh only when a search's anchor lies outside it.  It holds
    its members `nodes`, its `top` (the member whose parent edge is not
    EQ; every other member's parent is a member), the `rim` of members
    that may have strict children, the shared `value` of the members and
    `joined`, the members that joined since the last step.  A joined
    member's own x is its value until the next step; another member's x
    is current only where it was written (see the module docstring).

    The block is rooted at its `anchor`: every other member u keeps
    `toward[u]`, its neighbour one edge nearer the anchor, and every
    member u the sums over its subtree in that rooting, `sub[u]` = [c0,
    c1, c3, flow, formless, cubic]: the pooled derivative form, the net
    boundary outflow (a member's strict child duals, less its parent
    edge's dual when that edge is strict), and the numbers of members
    without a polynomial form and with a cubic term (so that c3 is
    exactly 0.0 when no cubic member is left).  `sub[anchor]` is the
    whole block.  A change at u is passed from u up to the anchor, and
    `set_anchor` turns round the edges between the old anchor and the
    new one, retaking those members' sums from their children.

    Each member u but the anchor has one edge, to toward[u], whose far
    half (the side away from the anchor) is u's subtree; `edge_of` names
    it by its child.  Its dual is the half's flow less its summed loss
    derivatives at the value when toward[u] is u's parent, and the
    negative of that when it is u's child.  The dual reaches the box end
    the search pushes it towards at a value `vbar` that depends only on
    the far half, so each edge has one key per direction, `keys[s][u]`,
    kept in a lazy heap, `heaps[s]`, ordered so that the top binds first
    (largest vbar going down, smallest going up).  An entry is fresh
    while its key is still `keys[s][u]`.  A change marks the members
    whose sums moved in `dirty[s]`, and reading a heap renews their keys
    first.

    Per step, `refresh(s)` lists by child the strict edges the block may
    meet in direction s: `boundary_out` each rim member's nearest strict
    child on that side (a heap top in the active set's index; the others
    on that side are farther, and those tied with it are a run from the
    same top), `boundary_in` [top] when the top's parent edge is strict
    and [] otherwise.  It also takes a snapshot of the pooled form and
    the net boundary flow (`form`, `boundary_flow`), which `value_at`,
    `t_of_value` and `move_to` use all step, while joins and departures
    already change the sums.

    Internal duals are not stored while the block moves: `flush` writes
    them into z, by child, and the members' value into x; a departing half
    writes its own.
    """

    __slots__ = (
        "anchor", "top", "nodes", "toward", "rim", "sub", "keys", "heaps", "dirty",
        "value", "joined", "boundary_out", "boundary_in", "form", "boundary_flow",
        "_members", "_active", "_parent", "_lam", "_mu", "_loss", "_parts",
    )

    def __init__(self, solver, active: ActiveSet, anchor: int):
        self._active, self._loss = active, solver._loss
        self._parent, self._lam, self._mu = solver._parent, solver._lam, solver._mu
        self.nodes: set = set()
        self.toward: Dict[int, int] = {}
        self.rim: set = set()
        self.sub: Dict[int, list] = {}
        self.keys: Dict[int, Dict[int, float]] = {-1: {}, 1: {}}
        self.heaps: Dict[int, list] = {-1: [], 1: []}
        self.dirty: Dict[int, set] = {-1: set(), 1: set()}
        self.joined: set = set()
        self.boundary_out, self.boundary_in = [], []
        self._parts = (self.nodes, self.joined, self.toward, self.rim, self.sub,
                       *self.keys.values(), *self.heaps.values(),
                       *self.dirty.values())
        self.restart(anchor)
        self._snapshot()

    def restart(self, anchor: Optional[int]):
        """Write the block out and build the block of anchor afresh;
        without an anchor the block is left empty."""
        if self.nodes:
            self.flush()
            for part in self._parts:
                part.clear()
        if anchor is None:
            return
        self.anchor = anchor
        active = self._active
        # Only validation's reference is built at a member of the kept block.
        kept = active.block
        self.value = (active.x[anchor] if kept is None or kept is self
                      else active.value_of(anchor))
        self._grow(anchor, None)

    def set_anchor(self, anchor: int):
        """Root the block at another member: turn round the edges on the
        way from it to the old anchor and retake those members' sums."""
        if anchor == self.anchor:
            return
        toward = self.toward
        way = [anchor]
        while way[-1] != self.anchor:
            way.append(toward[way[-1]])
        del toward[anchor]
        for near, far in zip(way, way[1:]):
            toward[far] = near
        self.anchor = anchor
        for u in reversed(way):
            self._retake(u)
        # The members on the way have new edges, the anchor none.
        for s in (-1, 1):
            pop = self.keys[s].pop
            for u in way:
                pop(u, None)
            self.dirty[s].update(way[1:])
            self.dirty[s].discard(anchor)

    # -- sums over subtrees ---------------------------------------------

    def _own(self, u: int) -> list:
        """u's own entry: its loss form and its net boundary outflow."""
        active = self._active
        g = active.child_flow[u]
        if active.signs[u]:  # strict; the root's sign is None
            g -= active.z[u]
        form = self._loss[u].poly_form()
        if form is None:
            return [0.0, 0.0, 0.0, g, 1, 0]
        return [form[0], form[1], form[2], g, 0, 1 if form[2] else 0]

    def _retake(self, u: int):
        """Sum u's subtree afresh from u's own entry and its children's sums."""
        toward, sub = self.toward, self.sub
        h = self._own(u)
        kids = [k for k in self._active.eq_kids[u] if toward.get(k) == u]
        p = self._parent[u]
        if p and toward.get(p) == u:
            kids.append(p)
        for k in kids:
            kh = sub[k]
            h[0] += kh[0]
            h[1] += kh[1]
            h[2] += kh[2]
            h[3] += kh[3]
            h[4] += kh[4]
            h[5] += kh[5]
        if not h[5]:
            h[2] = 0.0
        sub[u] = h

    def _grow(self, root: int, via: Optional[int]):
        """Add root, hung from member via (none for the anchor), and the
        non-members joined to it by EQ edges; sums are taken bottom up."""
        active = self._active
        eq_kids, signs, parent = active.eq_kids, active.signs, self._parent
        above, below = active.strict[LT], active.strict[GT]
        toward = self.toward
        if via is not None:
            toward[root] = via
        order = [root]
        for u in order:
            w = toward.get(u)
            for k in eq_kids[u]:
                if k != w:
                    toward[k] = u
                    order.append(k)
            p = parent[u]
            if p == w:
                continue
            if signs[u] == EQ:  # the root's sign is None
                toward[p] = u
                order.append(p)
            else:
                self.top = u
        for u in reversed(order):
            self._retake(u)
            if above[u] or below[u]:
                self.rim.add(u)
        self.nodes.update(order)
        self.joined.update(order)
        for dirty in self.dirty.values():
            dirty.update(order)
            dirty.discard(self.anchor)

    def _add(self, u: int, delta):
        """Add delta to the sums of u and every member between it and the anchor."""
        sub, toward, anchor = self.sub, self.toward, self.anchor
        down, up = self.dirty[-1], self.dirty[1]
        d0, d1, d3, df, dnf, dnc = delta
        while True:
            h = sub[u]
            h[0] += d0
            h[1] += d1
            h[2] += d3
            h[3] += df
            h[4] += dnf
            h[5] += dnc
            if not h[5]:
                h[2] = 0.0
            if u == anchor:
                return
            down.add(u)
            up.add(u)
            u = toward[u]

    def _clean(self, s: int):
        """Key afresh for direction s the members whose sums changed."""
        dirty = self.dirty[s]
        keys, heap, sub = self.keys[s], self.heaps[s], self.sub
        for u in dirty:
            bound = self._bound(u, s)
            if bound == INF:
                continue
            h = sub[u]
            keys[u] = vbar = self._inverse(h, h[3] + s * bound, u)
            heapq.heappush(heap, (s * vbar, u))
        dirty.clear()
        if len(heap) > 2 * len(keys) + 64:
            heap[:] = [(s * v, c) for c, v in keys.items()]
            heapq.heapify(heap)

    # -- far halves -------------------------------------------------------

    def edge_of(self, u: int) -> Tuple[int, bool]:
        """Member u's edge towards the anchor by its child, and whether u
        is that child (its far half, u's subtree, then lies below it)."""
        w = self.toward[u]
        return (u, True) if self._parent[u] == w else (w, False)

    def far_end(self, c: int) -> int:
        """The end away from the anchor of the internal edge into c."""
        p = self._parent[c]
        return c if self.toward.get(c) == p else p

    def _bound(self, u: int, s: int) -> float:
        """The weight of the box end u's edge dual moves towards in
        direction s: mu when the dual rises (its far half lies below it
        and the search goes down, or above it and the search goes up),
        lambda when it falls."""
        c, below = self.edge_of(u)
        return (self._mu if (s < 0) == below else self._lam)[c]

    def _far(self, u: int) -> List[int]:
        """u's subtree, the far half of its edge, from u down."""
        eq_kids, parent, toward = self._active.eq_kids, self._parent, self.toward
        order = [u]
        for w in order:
            if eq_kids[w]:
                order.extend(k for k in eq_kids[w] if toward.get(k) == w)
            p = parent[w]
            if p and toward.get(p) == w:
                order.append(p)
        return order

    def _inverse(self, h, target: float, u: int) -> float:
        if h[4]:
            return pooled_inverse([self._loss[w] for w in self._far(u)], target)
        return poly_inverse((h[0], h[1], h[2]), target)

    def _derivative(self, h, v: float, u: int) -> float:
        if h[4]:
            return sum(self._loss[w].derivative(v) for w in self._far(u))
        return poly_derivative((h[0], h[1], h[2]), v)

    # -- the block as one variable ----------------------------------------

    def _snapshot(self):
        h = self.sub[self.anchor]
        self.boundary_flow = h[3]
        if h[4]:
            self.form, self._members = None, self.losses
        else:
            self.form = (h[0], h[1], h[2])

    def poly_form(self):
        return self.form

    @property
    def losses(self) -> tuple:
        return tuple(self._loss[v] for v in self.nodes)

    def value_at(self, t: float) -> float:
        """Common value of the block at parameter t."""
        if self.form is not None:
            return poly_inverse(self.form, t + self.boundary_flow)
        return pooled_inverse(self._members, t + self.boundary_flow)

    def t_of_value(self, v: float) -> float:
        """Inverse of value_at."""
        if self.form is not None:
            return poly_derivative(self.form, v) - self.boundary_flow
        return sum(loss.derivative(v) for loss in self._members) - self.boundary_flow

    def move_to(self, v: float, t: float, s: int) -> float:
        """The move from t that brings the block to value v, or 0.0
        when v lies against the search direction s."""
        d = self.t_of_value(v) - t
        return d if s * d > 0.0 else 0.0

    def refresh(self, s: int):
        """The boundary lists for direction s, and the step's snapshot."""
        active = self._active
        out = []
        for v in list(self.rim) if self.rim else ():
            c = active.nearest(v, -s)
            if c is not None:
                out.append(c)
            elif active.nearest(v, s) is None:
                self.rim.discard(v)
        self.boundary_out = out
        top = self.top  # a strict sign is truthy; the root's is None
        self.boundary_in = [top] if active.signs[top] else []
        self._snapshot()

    def binding(self, s: int, tied=None) -> List[int]:
        """Members whose edge binds first in direction s.

        Without `tied`, the heap top alone, left in place; with it, the
        run of entries from the top whose key satisfies tied(key), popped.
        """
        if self.dirty[s]:
            self._clean(s)
        heap, keys = self.heaps[s], self.keys[s]
        run = []
        while heap:
            k, u = heap[0]
            if keys.get(u) != s * k or u in run:
                heapq.heappop(heap)
            elif tied is None:
                run.append(u)
                break
            elif tied(s * k):
                run.append(heapq.heappop(heap)[1])
            else:
                break
        return run

    # -- duals ------------------------------------------------------------

    def _duals(self, members, value: float) -> Dict[int, float]:
        """The duals of the given members' edges at the given value, by child."""
        sub = self.sub
        out = {}
        for u in members:
            c, below = self.edge_of(u)
            h = sub[u]
            f = self._derivative(h, value, u)
            out[c] = h[3] - f if below else f - h[3]
        return out

    def duals_at(self, t: float) -> Dict[int, float]:
        """Dual values on the internal edges at parameter t, by child."""
        return self._duals(self.toward, self.value_at(t))

    def write(self, members):
        """Write the block's value into the given members' x, but not into
        those that joined since the last step: their own x is current."""
        x, value, joined = self._active.x, self.value, self.joined
        if joined:
            members = [u for u in members if u not in joined]
        for u in members:
            x[u] = value

    def write_duals(self, members):
        """Write the duals of the given members' edges at the block's value into z."""
        z = self._active.z
        for c, dual in self._duals(members, self.value).items():
            z[c] = dual

    def flush(self):
        """Write the block's value into its members' x and the internal
        duals at that value into z."""
        if self.nodes:
            self.write(self.nodes)
            self.write_duals(self.toward)

    # -- following sign writes --------------------------------------------

    def on_sign(self, c: int, old: Optional[int], sign: int, d: float):
        """Follow a sign write on the edge into c, which has an end in the block.

        d is the change in the edge's strict dual as counted in its
        parent's child flow (c's own flow moves by -d).  An internal edge
        leaving EQ splits off its far half; an edge entering EQ brings
        the other end's component in, hung from the member end; any other
        write only moves flow.
        """
        p = self._parent[c]
        nodes = self.nodes
        if old == EQ:
            self._depart(c, d)
        elif sign == EQ:
            inner, outer, df = (p, c, d) if p in nodes else (c, p, -d)
            self._grow(outer, inner)
            h = self.sub[outer]
            self._add(inner, (h[0], h[1], h[2], h[3] + df, h[4], h[5]))
        elif p in nodes:  # a strict edge has at most one end in the block
            self._add(p, (0.0, 0.0, 0.0, d, 0, 0))
        else:
            self._add(c, (0.0, 0.0, 0.0, -d, 0, 0))
        if sign != EQ and p in nodes:
            self.rim.add(p)

    def _depart(self, c: int, d: float):
        """Split off the far half of the internal edge into c, which has
        just left EQ, writing the half's x and the duals of its internal
        edges."""
        far = self.far_end(c)
        near, df = (self._parent[c], d) if far == c else (c, -d)
        half = self._far(far)
        self.write(half)
        if len(half) > 1:
            self.write_duals(half[1:])
        h = self.sub[far]
        self._add(near, (-h[0], -h[1], -h[2], df - h[3], -h[4], -h[5]))
        if far != c:
            # The half above the edge holds the top.
            self._active.moved.add(self.top)
            self.top = c
        for s in (-1, 1):
            self.dirty[s].difference_update(half)
            pop = self.keys[s].pop
            for u in half:
                pop(u, None)
        self.nodes.difference_update(half)
        if self.joined:
            self.joined.difference_update(half)
        self.rim.difference_update(half)
        for u in half:
            del self.sub[u], self.toward[u]


@dataclass(slots=True)
class StepRecord:
    """What one extension did.  Slotted: its fields can be read and set,
    but no other attribute can be added."""

    node: int                 # the node that was attached
    branch: str               # "flat", "down" or "up"
    iterations: int           # search steps taken
    iteration_cap: int        # hard bound 2m-1 for this extension
    equilibrium_calls: int
    t_star: float             # final dual value of the new edge
    attach_derivative: float  # loss derivative at the attachment point
    t_path: Tuple[float, ...] = ()  # parameter value after each search step


# The t_path every extension without a search shares.
_NO_SEARCH = (0.0,)


@dataclass
class SolveStats:
    """Per-extension records plus the final certificate residual."""

    steps: List[StepRecord] = field(default_factory=list)
    final_residual: Optional[float] = None

    @property
    def inner_iters_total(self) -> int:
        return sum(rec.iterations for rec in self.steps)

    @property
    def equilibrium_total(self) -> int:
        return sum(rec.equilibrium_calls for rec in self.steps)


class Solver:
    """Grows an optimal primal-dual pair one leaf at a time."""

    def __init__(self, problem: Problem, tol: float = DEFAULT_TOL):
        self.problem = problem
        self.tol = check_tol(tol)
        self._parent, self._lam, self._mu = decompose(problem.arb)
        self._loss: List[Optional[Loss]] = problem.losses

    # -- plumbing ---------------------------------------------------------

    def _edges(self, children):
        """Weighted edges (parent, child, lambda, mu) into the given children."""
        parent, lam, mu = self._parent, self._lam, self._mu
        return ((parent[c], c, lam[c], mu[c]) for c in children)

    def _reclassify(self, active: ActiveSet, m: int):
        """Bring the signs of prefix 1..m up to date with x and clear `moved`.

        For each moved node, reclassifies its parent edge, and enters the
        node afresh in its parent's heap when the edge stays strict.  For
        each node in `level`, also reclassifies the strict child edges at
        its heap tops, down to the first that still classifies as strict
        on its side.  The block's value is first written into the x of
        the members this reads: the top (the only moved node that can be
        a member), whose entry in its parent's heap is renewed here, the
        members in `level` and the moved nodes' parents.  Under
        validation, the result must equal a classification of every
        prefix edge from scratch, and the index the one built from that
        classification, the values as if every member were written on
        every step, and z.
        """
        signs, x = active.signs, active.x
        stale = set(active.moved)
        stale.discard(1)  # the root has no parent edge
        block = active.block
        if block is not None and block.nodes:
            # Every join is followed by a step, so no member here holds
            # a tied x of its own.
            nodes, value, parent = block.nodes, block.value, self._parent
            x[block.top] = value
            for c in stale:
                if parent[c] in nodes:
                    x[parent[c]] = value
            for v in active.level:
                if v in nodes:
                    x[v] = value
        for v in active.level:
            for sign, heaps in active.strict.items():
                c = active.nearest(v, sign)
                while c is not None and not _keeps_side(sign, x[v], x[c]):
                    heapq.heappop(heaps[v])
                    stale.add(c)
                    c = active.nearest(v, sign)
        active.level.clear()
        active.moved.clear()
        for c, sign in build_initial_active_set(x, self._edges(stale)).signs.items():
            if signs[c] != sign:
                active.set_sign(c, sign)
            elif sign != EQ:
                active.push(c)  # the child moved: enter it at its new value
        if active.validate:
            self._check_index(active, m)

    def _check_index(self, active: ActiveSet, m: int):
        """Validation: every node's value read as the search reads it must
        equal the fully written copy of x, and prefix 1..m's signs and
        index a fresh build from that copy."""
        for v in range(1, m + 1):
            active.value_of(v)  # raises when it differs from active.full
        full = list(active.x)
        for v, value in active.full.items():
            full[v] = value
        signs = classify(full, self._edges(range(2, m + 1)))
        rebuilt = ActiveSet([signs.get(c) for c in range(len(full))],
                            self._parent, full, active.z)
        for c, sign in signs.items():
            kept = active.signs[c]
            if kept != sign:
                raise InternalInvariantError(
                    "kept sign of edge (%d, %d) is %s, its values give %s"
                    % (self._parent[c], c, SIGN_NAME.get(kept, "none"), SIGN_NAME[sign])
                )
        for v in range(1, len(self._parent)):
            if list(active.eq_kids[v]) != list(rebuilt.eq_kids[v]):
                raise InternalInvariantError(
                    "EQ children of node %d are %s, the signs give %s"
                    % (v, active.eq_kids[v], rebuilt.eq_kids[v])
                )
            got, want = active.child_flow[v], rebuilt.child_flow[v]
            if abs(got - want) > ANCHOR_RTOL * (1.0 + abs(want)):
                raise InternalInvariantError(
                    "cached child flow of node %d is %.17g, the duals give %.17g"
                    % (v, got, want)
                )
            for sign in (LT, GT):
                heap = active.strict[sign][v]
                ordered = all(heap[(k - 1) // 2] <= heap[k]
                              for k in range(1, len(heap)))
                if not ordered or active.fresh_entries(v, sign) \
                        != set(rebuilt.strict[sign][v]):
                    raise InternalInvariantError(
                        "heap of the strict children %s node %d disagrees with "
                        "the signs" % ("above" if sign == LT else "below", v)
                    )

    # -- component geometry -----------------------------------------------

    def build_component_view(self, active: ActiveSet, anchor: int,
                             s: int) -> ComponentView:
        """The block of `anchor`, ready for one search step in direction s.

        The kept block is used when it holds the anchor; otherwise its
        internal duals are written out and the anchor's equality component
        is built afresh: the walk up EQ parent edges to its top, then one
        pass down EQ child edges listing the members, whose subtree sums
        are taken bottom up.
        """
        view = active.block
        fresh = view is None or anchor not in view.nodes
        if view is None:
            view = active.block = ComponentView(self, active, anchor)
        elif fresh:
            view.restart(anchor)
        else:
            view.set_anchor(anchor)
        view.refresh(s)
        if fresh and active.validate:
            self._check_anchor(active)
        return view

    def _check_anchor(self, active: ActiveSet, stored_duals: bool = True):
        """Validation: the block must reproduce the stored value and, when
        built afresh (before it moves), the stored internal duals."""
        view = active.block
        want = active.value_of(view.anchor)
        got = view.value_at(active.t)
        if abs(got - want) > ANCHOR_RTOL * (1.0 + abs(want)):
            raise InternalInvariantError(
                "component value %.17g disagrees with stored %.17g" % (got, want)
            )
        if not stored_duals:
            return
        for c, value in view.duals_at(active.t).items():
            stored = active.z[c]
            if abs(value - stored) > ANCHOR_RTOL * (1.0 + abs(stored)):
                raise InternalInvariantError(
                    "dual on (%d, %d): formula %.17g vs stored %.17g"
                    % (self._parent[c], c, value, stored)
                )

    def _check_view(self, active: ActiveSet):
        """Validation: the kept block must equal a fresh build, `active.reference`.

        Members, top and each member's neighbour towards the anchor
        exactly; every member's subtree sums and keys within ANCHOR_RTOL
        (incremental sums round differently); the rim must cover every
        member with strict children; and the block's value must reproduce
        the stored one.  Internal duals are not stored while a block
        moves, so they are not compared.
        """
        view = active.block
        fresh = active.reference = ComponentView(self, active, view.anchor)
        for s in (-1, 1):
            fresh._clean(s)
        if fresh.nodes != view.nodes or fresh.top != view.top:
            raise InternalInvariantError(
                "kept block %s (top %d) differs from the component %s (top %d)"
                % (sorted(view.nodes), view.top, sorted(fresh.nodes), fresh.top)
            )
        if fresh.toward != view.toward:
            bad = sorted(u for u in fresh.nodes
                         if view.toward.get(u) != fresh.toward.get(u))
            raise InternalInvariantError(
                "kept block roots members %s at the wrong neighbour towards "
                "anchor %d" % (bad, view.anchor)
            )
        for u, want in fresh.sub.items():
            pairs = list(zip(view.sub[u], want))
            for s in (-1, 1):  # a key awaiting renewal is not read
                if u not in view.dirty[s]:
                    pairs.append((view.keys[s].get(u), fresh.keys[s].get(u)))
            for got, expect in pairs:
                if expect is None or got is None:
                    bad = got is not expect
                else:
                    bad = abs(got - expect) > ANCHOR_RTOL * (1.0 + abs(expect))
                if bad:
                    raise InternalInvariantError(
                        "kept sums or keys of member %d are %s, a fresh build "
                        "gives %s" % (u, [g for g, _ in pairs], [w for _, w in pairs])
                    )
        if not fresh.rim <= view.rim:
            raise InternalInvariantError(
                "rim %s misses members %s" % (sorted(view.rim), sorted(fresh.rim - view.rim))
            )
        self._check_anchor(active, stored_duals=False)

    # -- thresholds ---------------------------------------------------------

    def thresholds(self, active: ActiveSet, s: int) -> float:
        """The binding move in direction s from the state: the shortest
        admissible parameter move, or s*inf when nothing binds.

        Each move is s times a nonnegative length.  Component edges bind
        when their dual reaches the box end the search pushes it towards
        (-lambda or +mu, by the edge's orientation relative to the anchor
        and by s); the first is read off the view's key heap top.
        Boundary edges bind when the block's value reaches a frozen
        neighbor it is ordered against: a listed strict child (`refresh`
        lists only children of sign -s) or the top's parent across an
        edge of sign s.  `_migrate` finds the edges tied with the move.
        """
        view, t_q, x = active.block, active.t, active.x
        internal = s * INF
        for u in view.binding(s):
            internal = view.move_to(view.keys[s][u], t_q, s)
        moves = [view.move_to(x[c], t_q, s) for c in view.boundary_out]
        for c in view.boundary_in:
            if active.signs[c] == s:
                moves.append(view.move_to(x[self._parent[c]], t_q, s))
        boundary = (min if s > 0 else max)(moves, default=s * INF)
        if active.validate:
            self._check_moves(active, s, internal, boundary)
        return boundary if s * boundary < s * internal else internal

    def _check_moves(self, active: ActiveSet, s: int, internal: float,
                     boundary: float):
        """Validation: the binding component edge and boundary moves must
        equal full scans, of the keys of the block built afresh and of
        every signed edge at its members."""
        ref = active.reference  # an edge without a key never binds
        t_q, x, signs, parent = active.t, active.x, active.signs, self._parent
        moves = [ref.move_to(v, t_q, s) for v in ref.keys[s].values()]
        out = [ref.move_to(x[c], t_q, s) for c, sign in enumerate(signs)
               if sign == -s and parent[c] in ref.nodes]
        if signs[ref.top] == s:  # the root's sign is None
            out.append(ref.move_to(x[parent[ref.top]], t_q, s))
        pick = min if s > 0 else max
        for kind, got, scan in (("component", internal, moves),
                                ("boundary", boundary, out)):
            scanned = pick(scan, default=s * INF)
            if scanned != got and not abs(scanned - got) <= TIE_TOL:
                raise InternalInvariantError(
                    "binding %s edge move %.17g differs from a full scan's %.17g"
                    % (kind, got, scanned)
                )

    # The benchmark's span table (perfbench/spans.py) wraps these four names
    # for its solver.thresholds and solver.step spans, and the search calls
    # them so that those spans keep counting every call.
    def thresholds_minus(self, active):
        return self.thresholds(active, -1)

    def thresholds_plus(self, active):
        return self.thresholds(active, 1)

    def step_minus(self, active, child):
        return self.step(active, child, -1)

    def step_plus(self, active, child):
        return self.step(active, child, 1)

    # -- search steps -------------------------------------------------------

    def _apply(self, active: ActiveSet, child: int, attach_loss: Loss,
               t_next: float, s: int):
        view, x = active.block, active.x
        value = view.value_at(t_next)
        attach_value = attach_loss.inverse_derivative(-t_next)
        back = s * (value - view.value) < 0.0
        view.value = value  # every member's value from here on
        if view.joined:
            view.joined.clear()
        if active.full is not None:
            active.full.update(dict.fromkeys(view.nodes, value))
        # A member whose nearest strict child on the side moved towards no
        # longer classifies as strict gets its heap tops reclassified; the
        # other side only needs a look when the value moved back.
        level, parent = active.level, self._parent
        for c in view.boundary_out:
            if not _keeps_side(-s, value, x[c]):
                level.add(parent[c])
        if back:
            nearest = active.nearest
            for v in view.rim:
                c = nearest(v, s)
                if c is not None and not _keeps_side(s, value, x[c]):
                    level.add(v)
        x[child] = attach_value
        active.t = t_next
        return value, attach_value

    def _migrate(self, active: ActiveSet, t: float, best: float, s: int):
        """Move the edges tied with the binding move `best` from t between
        the equality set and the strict sets.

        Component edges tied at the binding move are read first, before a
        join changes any key, as a run from the view's key heap top (the
        move is monotone in the key), each with its edge's child and side.  A
        boundary edge joins from the sign its move was taken under in
        `thresholds` (-s outgoing, s incoming); each move is taken afresh
        from the step's snapshot.  The view lists only each rim member's
        nearest strict child on the side moved towards, but the children
        tied with a listed one are a run from the same heap top: each
        joins in turn until the next nearest is not tied.  The joins come
        before the departures, so that no run reaches an edge that departs
        in this step, and a departing half takes along what joined it.  A
        departing component edge takes sign s when its far half lies below
        it and -s when above, with its dual at the matching box end.
        """
        view, signs, x, z = active.block, active.signs, active.x, active.z
        parent = self._parent

        def tied(v: float) -> bool:
            return abs(view.move_to(v, t, s) - best) <= TIE_TOL

        def edges(children) -> list:
            return sorted((parent[c], c) for c in children)

        want_out = want_in = None
        if active.validate:  # the ties by a scan of every signed edge and key
            want_out = {c for c, sign in enumerate(signs)
                        if sign == -s and parent[c] in view.nodes and tied(x[c])}
            ref = active.reference
            want_in = {ref.edge_of(u)[0] for u, v in ref.keys[s].items()
                       if abs(ref.move_to(v, t, s) - best) <= TIE_TOL}
        departing = [view.edge_of(u) for u in view.binding(s, tied)]
        if want_in is not None and {c for c, _ in departing} != want_in:
            raise InternalInvariantError(
                "component edges tied in the heap %s differ from a full scan %s"
                % (edges(c for c, _ in departing), edges(want_in))
            )
        joined_in, joined_out = [], []
        for c in view.boundary_in:
            if signs[c] == s and tied(x[parent[c]]):
                self._join(active, c)
                joined_in.append(c)
        for c in view.boundary_out:
            v = parent[c]
            while c is not None and tied(x[c]):
                self._join(active, c)
                joined_out.append(c)
                c = active.nearest(v, -s)
        if want_out is not None and set(joined_out) != want_out:
            raise InternalInvariantError(
                "boundary ties from the heaps %s differ from a full scan %s"
                % (edges(joined_out), edges(want_out))
            )
        for c, below in departing:
            sign = s if below else -s
            z[c] = -self._lam[c] if sign == GT else self._mu[c]
            if c in view.nodes and c not in view.joined:
                x[c] = view.value  # its parent's heap takes it at its x
            active.set_sign(c, sign)
            active.moved.add(c)
            active.departed.add(c)
        if not (departing or joined_in or joined_out):
            raise InternalInvariantError("threshold step produced no sign change")

    def _join(self, active: ActiveSet, c: int):
        if c in active.departed:
            raise InternalInvariantError(
                "edge (%d, %d) re-entered the equality set" % (self._parent[c], c)
            )
        active.set_sign(c, EQ)

    def step(self, active: ActiveSet, child: int, s: int) -> Optional[float]:
        """One search step in direction s for the attached node `child`;
        returns the final t when terminal.

        Moves t by the binding move `thresholds` returns when the ordering
        gap at the point reached still has sign -s (or is zero), otherwise
        to the equilibrium; both are clipped at the box end of `child`'s
        edge in direction s (-lambda going down, +mu going up).  Terminal
        when t reaches that end or the gap closes; otherwise the edges tied
        with the move migrate between the sign classes and the search
        continues.
        """
        view, t_q = active.block, active.t
        attach_loss = self._loss[child]
        limit = self._mu[child] if s > 0 else -self._lam[child]
        best = (self.thresholds_plus if s > 0 else self.thresholds_minus)(active)
        use_equilibrium = best == s * INF
        if not use_equilibrium:
            cand = t_q + best
            gap = view.value_at(cand) - attach_loss.inverse_derivative(-cand)
            use_equilibrium = s * gap > 0.0
        if use_equilibrium:
            active.equilibrium_calls += 1
            if active.equilibrium_calls > 1:
                raise InternalInvariantError(
                    "second equilibrium solve in one extension"
                )
            cand = equilibrium_t(view, view.boundary_flow, attach_loss)
        t_next = limit if s * limit < s * cand else cand
        if s * t_next < s * t_q - MONO_SLACK * (1.0 + abs(t_q)):
            raise InternalInvariantError(
                "t %s in %s search: %.17g -> %.17g"
                % ("increased" if s < 0 else "decreased",
                   "downward" if s < 0 else "upward", t_q, t_next)
            )
        value, attach_value = self._apply(active, child, attach_loss, t_next, s)
        if t_next == limit or values_equal(value, attach_value):
            return t_next
        if use_equilibrium:
            raise InternalInvariantError("equilibrium step left a value gap")
        self._migrate(active, t_q, best, s)
        return None

    # -- extension and outer loop -------------------------------------------

    def extend(self, child: int, active: ActiveSet, validate: bool = False):
        """Extend an optimal pair on prefix 1..m to one on 1..m+1, where
        `child` = m+1 attaches through its edge from `self._parent[child]`.

        Mutates the x and z of `active`, the working state kept from the
        previous extension of the same solve, in place (the new dual is
        z[child]) and returns (x, z, record), x and z the active set's
        lists indexed by node.  The kept block's members' x and internal
        duals are current only after `active.block.flush()` (`solve`
        flushes at its end); before, read a node's value with
        `active.value_of`.  The branch is picked by the attached loss's
        derivative at the attachment point: zero copies the value across
        with a zero dual, positive searches downward (s = -1), negative
        upward (s = +1).  A zero attachment bound pins t at 0
        immediately (the admissible interval is {0}).  A search resets the
        search's fields and reclassifies only the edges next to its moved
        nodes that can have changed class (see `_reclassify`); the attached
        node is recorded as moved on every branch (see `ActiveSet.moved`).
        """
        x, z = active.x, active.z
        i_m = self._parent[child]
        m = child - 1
        attach_loss = self._loss[child]
        block = active.block
        x_m = x[i_m] if block is None or i_m not in block.nodes else active.value_of(i_m)
        d = attach_loss.derivative(x_m)
        iterations = eq_calls = 0
        cap = 2 * m - 1
        t_path = _NO_SEARCH
        if d == 0.0:
            x[child] = x_m
            t_star = 0.0
            branch = "flat"
        else:
            s = -1 if d > 0.0 else 1
            branch = "down" if s < 0 else "up"
            bound = self._lam[child] if s < 0 else self._mu[child]
            if bound == 0.0:
                t_star = 0.0
                x[child] = attach_loss.inverse_derivative(0.0)
            else:
                if block is not None and not (i_m in block.nodes
                                              or self._parent[i_m] in block.nodes):
                    # The anchor can reach the block only through an edge
                    # next to it; otherwise write the block out now rather
                    # than grow it during reclassification.
                    block.restart(None)
                active.start_search(validate)
                if not validate:
                    active.full = None
                elif active.full is None:
                    active.full = {}
                self._reclassify(active, m)
                x[child] = attach_loss.inverse_derivative(0.0)
                step = self.step_minus if s < 0 else self.step_plus
                path = [0.0]
                while True:
                    iterations += 1
                    if iterations > cap:
                        raise InternalInvariantError(
                            "extension of node %d exceeded %d search steps"
                            % (child, cap)
                        )
                    view = self.build_component_view(active, i_m, s)
                    if validate:
                        self._check_view(active)
                    result = step(active, child)
                    path.append(active.t)
                    if result is not None:
                        t_star = result
                        break
                active.moved.add(view.top)
                t_path = tuple(path)
                eq_calls = active.equilibrium_calls
        active.moved.add(child)
        z[child] = t_star
        if t_star * d > SIGN_TOL:
            raise InternalInvariantError(
                "new-edge dual %.17g has the same sign as the derivative %.17g"
                % (t_star, d)
            )
        record = StepRecord(child, branch, iterations, cap, eq_calls, t_star, d, t_path)
        return x, z, record

    def solve(self, validate: bool = False):
        """Solve the full problem; returns (x, z, stats).

        Attaches nodes 2..n in label order, keeping one active set through
        every extension.  Its lists are converted once, here: x to a dict
        keyed by node 1..n ascending, z to one keyed by (parent, child) in
        ascending child order.  The block and the validation reference
        point back at the active set, so both are dropped before returning:
        the solve's working state is then freed by reference counting,
        without the cyclic collector.  The pair is certified: its
        flow-system residual, `stats.final_residual`, is at most the solver
        tolerance, otherwise CertificateError is raised.  `map_back` keeps
        the residual up to the order in which each node's incident duals
        are summed, so it certifies the pair in the caller's labels too.
        """
        parent = self._parent
        n = len(parent) - 1
        x: List[Optional[float]] = [None] * (n + 1)
        z: List[Optional[float]] = [None] * (n + 1)
        x[1] = self._loss[1].inverse_derivative(0.0)
        active = ActiveSet(None, parent, x, z)
        stats = SolveStats()
        for child in range(2, n + 1):
            stats.steps.append(self.extend(child, active, validate)[2])
        if active.block is not None:
            active.block.flush()
        active.block = active.reference = active.full = None
        nodes = range(1, n + 1)
        x = dict(zip(nodes, x[1:]))
        z = dict(zip(zip(parent[2:], nodes[1:]), z[2:]))
        residual = kkt_residual(
            zip(parent[2:], range(2, n + 1), self._lam[2:], self._mu[2:]),
            self._loss.__getitem__, x, z)
        if not residual <= self.tol:
            raise CertificateError(
                "final residual %.3e exceeds the %.1e gate" % (residual, self.tol)
            )
        stats.final_residual = residual
        return x, z, stats


def kkt_residual(edges, loss_of: Callable[[int], Loss], x, z) -> float:
    """Violation of the optimality flow system on (tail, head, lambda, mu)
    edges, in solver labels (`Problem.weighted_edges`) or a caller's.

    Node term: |net outflow - loss derivative|, maximized over nodes.
    Edge term: distance of the dual from the box [-lambda, mu], plus the
    distance from the forced box end when the endpoint values are strictly
    ordered (not `values_equal`).  The total is the sum of the two maxima.
    A NaN term makes the total NaN, so that no gate of the form
    `residual <= tol` passes it.  A dual or node value missing raises
    ContractViolationError, and so does `Problem.loss_of` for a node of x
    outside the problem; a caller's own `loss_of` raises what it raises.
    """
    # abs is written out, as in `values_equal`: the sign of a zero or a NaN
    # it may leave changes no comparison below and no sum from +0.0.
    balance = dict.fromkeys(x, 0.0)
    edge_term = 0.0
    for i, j, lam, mu in edges:
        try:
            value = z[(i, j)]
            xi, xj = x[i], x[j]
        except KeyError:
            raise ContractViolationError(_missing(i, j, x, z)) from None
        balance[i] += value
        balance[j] -= value
        dist = 0.0
        if value > mu:
            dist += value - mu
        if value < -lam:
            dist += -lam - value
        if not values_equal(xi, xj):
            miss = value - (-lam if xi > xj else mu)
            dist += -miss if miss < 0.0 else miss
        if dist > edge_term:
            edge_term = dist
        elif dist != dist:
            return math.nan
    node_term = 0.0
    for v, xv in x.items():
        term = balance[v] - loss_of(v).derivative(xv)
        if term < 0.0:
            term = -term
        if term > node_term:
            node_term = term
        elif term != term:
            return math.nan
    return node_term + edge_term


def objective_value(edges, loss_of: Callable[[int], Loss], x) -> float:
    """Objective of the penalized problem at x over an edge list, as above.

    An infinite weight contributes nothing when the edge's end values are
    `values_equal`, and makes the objective infinite otherwise.  A node
    value missing raises ContractViolationError, and `loss_of` for a node
    of x as in `kkt_residual`.
    """
    total = 0.0
    for v, xv in x.items():
        total += loss_of(v).value(xv)
    for i, j, lam, mu in edges:
        try:
            xi, xj = x[i], x[j]
        except KeyError:
            raise ContractViolationError(_missing(i, j, x)) from None
        gap = xi - xj
        if gap > 0.0:
            if lam == INF:
                if not values_equal(xi, xj):
                    return INF
            else:
                total += lam * gap
        elif gap < 0.0:
            if mu == INF:
                if not values_equal(xi, xj):
                    return INF
            else:
                total += mu * -gap
    return total


def _missing(i, j, x, z=None) -> str:
    """What is missing for edge (i, j): its dual in z, or an end's value in x."""
    if z is not None and (i, j) not in z:
        return "z has no dual for edge %r" % ((i, j),)
    return "x has no value for node %r" % (i if i not in x else j,)
