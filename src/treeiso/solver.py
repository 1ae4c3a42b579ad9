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
parametrized through its pooled loss (closed form when every member is
quadratic, a Newton solve on one cubic otherwise), while everything else
stays frozen.  Each search step collects that component afresh, in one
depth-first walk over EQ edges from the attachment point plus one reverse
pass over the members it listed.  Threshold computations find the largest
|t| step before some dual value hits its box end or the moving component
collides with a frozen neighbor; if the new node's value meets the
component's before any threshold, an equilibrium solve finishes the
search.  The search direction s is set by the sign of the attached loss's
derivative at the attachment point: positive derivative means t decreases
(s = -1, downward search), negative means t increases (s = +1, upward
search).  The two directions are mirror images (reflect x to -x and swap
lambda with mu), so one threshold routine, one step and one migration
serve both, with s as a parameter: every move is s times a nonnegative
length, and comparisons of moves compare s times their values.

One active set lives for a whole solve, with an index of every node's
prefix children: the EQ ones in ascending order, the summed dual over the
strict ones, and two lazy heaps of the strict ones keyed by value, one for
the children above the node and one for those below.  Every sign write
goes through the active set, so the index follows the signs, and a step
never scans a node's strict children.  The component walk follows EQ
edges only; a member's boundary outflow is its cached child flow minus
its parent edge's dual when that edge is strict.  A moving component
meets a frozen child at the child's value, and `t_of_value` is monotone
in the value, so the binding collision is at a heap top and the children
tied with it are a run from that top.  A node's value is written only
while it is a component member (or as the attached node), and then only
its own entry in its parent's heap goes stale.  When that edge is strict
the entry is renewed at the next reclassification, because the parent's
heap is not read before then: the parent cannot join the component while
the node is in it (their only link is the strict edge), nor after the
node left it (the parent's path to the component crosses the edge that
departed, which may not rejoin in the same search).  A step therefore
costs time in the size of the component, plus a heap operation per
strict edge it touches, but not in the degrees of its members.

Before each search the signs are brought back to the value-based
classification of the prefix (the one `build_initial_active_set` would
produce from scratch).  For each node whose value was written since the
last classification (every member of a component view during a search,
and the attached node of every extension) that means its parent edge; its
EQ children moved with it.  A search's final component ends on one
value, so the edges inside it are left out, and an edge whose endpoints
kept their values keeps its class.  A component stops at the first
frozen value it meets, so a strict child of a member can only come level
with it (or pass it by a rounding error), and the nearest one on that
side does so first.  So each step checks the nearest strict child on
either side of every member, and only for a member where one no longer
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
from .loss import Loss, LossGroup, equilibrium_t, pooled_inverse
from .tree import Arborescence, Attachment, Edge, decompose

INF = math.inf

LT, EQ, GT = -1, 0, 1

SIGN_NAME = {LT: "<", EQ: "=", GT: ">"}

EQ_RTOL = 1e-9          # relative tolerance deciding "these two values are equal"
TIE_TOL = 1e-9          # absolute tolerance grouping tied thresholds
SIGN_TOL = 1e-12        # slack on the new-edge dual sign property
MONO_SLACK = 1e-12      # slack on monotonicity of the t sequence
ANCHOR_RTOL = 1e-10     # validation tolerance for state/formula consistency
DEFAULT_TOL = 1e-8      # final certificate gate


def _eq_tol(a: float, b: float) -> float:
    return EQ_RTOL * (1.0 + max(abs(a), abs(b)))


def values_equal(a: float, b: float) -> bool:
    return abs(a - b) <= _eq_tol(a, b)


def _keeps_side(sign: int, xv: float, xc: float) -> bool:
    """Whether a parent at xv and a child at xc classify as `sign` (LT or GT)."""
    d = sign * (xv - xc)
    return d > 0.0 and d > EQ_RTOL * (1.0 + max(abs(xv), abs(xc)))


class Problem:
    """An arborescence plus one loss per node (index 1..node_count)."""

    __slots__ = ("arb", "losses")

    def __init__(self, arb: Arborescence, losses):
        losses = tuple(losses)
        if len(losses) != arb.node_count:
            raise ContractViolationError(
                "expected %d losses, got %d" % (arb.node_count, len(losses))
            )
        self.arb = arb
        self.losses = losses

    def loss_of(self, node: int) -> Loss:
        return self.losses[node - 1]

    def weighted_edges(self):
        """Edges as (tail, head, lambda, mu) tuples."""
        arb = self.arb
        return [
            (arb.parent[c][0], c, arb.parent[c][1], arb.parent[c][2])
            for c in range(2, arb.node_count + 1)
        ]


class ActiveSet:
    """Relation sign per edge: LT (-1), EQ (0) or GT (+1), plus a child index.

    `moved` holds the nodes whose values were written since the signs were
    last classified, less those whose parent edge joins two members of a
    search's final component (both ends hold one value, so it stays EQ).
    Only the edges next to written nodes can be out of date, and of those
    only the moved nodes' parent edges, except at the nodes in `level`,
    where a write left the nearest strict child on some side no longer
    strictly apart from the node.  An EQ child of a written node was
    written with it, so its edge is its own parent edge.

    The index covers the signed edges (parent, child) and is built from
    `signs`, x and z on first use (`build_index`).  Per node v it holds:
    `eq_kids[v]`, the EQ children in ascending order; `child_flow[v]`, the
    summed dual over the strict child edges; and `strict[LT][v]` and
    `strict[GT][v]`, lazy heaps of the strict children above and below v,
    keyed by value so that the top is the nearest one.  A heap entry is
    fresh while its edge keeps that sign and its child keeps the keyed
    value; `nearest` drops stale entries from the top.  Once the index
    exists every sign write goes through `set_sign`, and a strict child
    whose value was written is entered again with `push` before its
    parent's heap is next read, so the index cannot drift from `signs`.
    """

    __slots__ = ("signs", "moved", "level", "eq_kids", "child_flow", "strict")

    def __init__(self, signs: Optional[Dict[Edge, int]] = None):
        self.signs = dict(signs) if signs else {}
        self.moved: set = set()
        self.level: set = set()
        self.eq_kids: Optional[List[List[int]]] = None
        self.child_flow: List[float] = []
        self.strict: Dict[int, List[list]] = {}

    def build_index(self, n: int, x, z):
        """Index the signed edges of nodes 1..n, unless already indexed."""
        if self.eq_kids is not None:
            return
        # Per-node lists start as one shared empty tuple and are made on
        # first entry, so that building the index allocates next to nothing.
        self.eq_kids = [()] * (n + 1)
        self.child_flow = [0.0] * (n + 1)
        self.strict = {LT: [()] * (n + 1), GT: [()] * (n + 1)}
        # Ascending edges: sorted EQ lists, and flows summed in child order.
        for e, sign in sorted(self.signs.items()):
            self._enter(e, sign, x, z)

    def _enter(self, e: Edge, sign: int, x, z):
        """Add edge e to the index under the given sign."""
        p, c = e
        if sign == EQ:
            kids = self.eq_kids[p]
            if kids:
                insort(kids, c)
            else:
                self.eq_kids[p] = [c]
        else:
            self.child_flow[p] += z[e]
            heaps = self.strict[sign]
            entry = (x[c] if sign == LT else -x[c], c)
            if heaps[p]:
                heapq.heappush(heaps[p], entry)
            else:
                heaps[p] = [entry]

    def push(self, e: Edge, x):
        """Enter strict edge e's child afresh at its current value."""
        p, c = e
        sign = self.signs[e]
        heapq.heappush(self.strict[sign][p], (x[c] if sign == LT else -x[c], c))

    def set_sign(self, e: Edge, sign: int, x, z):
        """Write the sign of edge e, keeping the index in step.

        A strict edge's dual must already hold its final value: it stays
        in the parent's cached flow until the edge leaves its class.
        """
        signs = self.signs
        old = signs.get(e)
        if old == sign:
            return
        signs[e] = sign
        if old == EQ:
            self.eq_kids[e[0]].remove(e[1])
        elif old is not None:
            self.child_flow[e[0]] -= z[e]
        self._enter(e, sign, x, z)

    def nearest(self, v: int, sign: int, x) -> Optional[int]:
        """The strict child of v with the given sign nearest to v, or None."""
        heap = self.strict[sign][v]
        signs = self.signs
        while heap:
            key, c = heap[0]
            if signs.get((v, c)) == sign and x[c] == (key if sign == LT else -key):
                return c
            heapq.heappop(heap)
        return None

    def fresh_entries(self, v: int, sign: int, x) -> set:
        """The fresh entries of one of v's heaps."""
        return {(key, c) for key, c in self.strict[sign][v]
                if self.signs.get((v, c)) == sign
                and x[c] == (key if sign == LT else -key)}

    def __repr__(self):
        inner = ", ".join(
            "%s: %s" % (e, SIGN_NAME[s]) for e, s in sorted(self.signs.items())
        )
        return "ActiveSet({%s})" % inner


def build_initial_active_set(x, edges) -> ActiveSet:
    """Classify each edge by comparing its endpoint values.

    Values within EQ_RTOL * (1 + max(|x_i|, |x_j|)) of each other count as
    equal.  A strict ordering that an infinite weight forbids cannot occur
    at a certified optimum, so it raises CertificateError instead of being
    repaired silently.
    """
    signs: Dict[Edge, int] = {}
    for i, j, lam, mu in edges:
        xi, xj = x[i], x[j]
        if abs(xi - xj) <= EQ_RTOL * (1.0 + max(abs(xi), abs(xj))):
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
        signs[(i, j)] = sign
    return ActiveSet(signs)


class PrimalDualState:
    """Mutable working state of one t-search.

    x and z are the live solution maps (shared with the caller and updated
    in place); `departed` and `equilibrium_calls` carry the per-search
    bookkeeping backing the churn and single-equilibrium checks.  With
    `validate`, each step checks its boundary ties against a full scan.
    """

    __slots__ = ("t", "x", "z", "active", "departed", "equilibrium_calls",
                 "validate")

    def __init__(self, t: float, x: Dict[int, float], z: Dict[Edge, float],
                 active: ActiveSet, validate: bool = False):
        self.t = t
        self.x = x
        self.z = z
        self.active = active
        self.departed: set = set()
        self.equilibrium_calls = 0
        self.validate = validate


class ComponentView:
    """Frozen geometry of the moving component for one search step.

    Holds the equal-valued component containing the attachment point:
    its members `nodes` in depth-first preorder from the anchor, its
    `edges` in the order that walk crossed them, its pooled loss group,
    the net dual flow crossing the component boundary, and per-edge data
    for the semi-closed dual formulas: for each component edge, the far
    half of the component (the side away from the anchor) occupies the
    contiguous slice `span[e]` of `nodes`, and the edge's dual equals +/-
    (sum of loss derivatives over that slice at the pooled value, minus
    the slice's own boundary flow `edge_flow`).

    The strict edges leaving the component are listed as (edge, outside
    node) pairs: `boundary_in` holds every member's parent edge that is
    strict, and `boundary_out` only each member's nearest strict child
    above it and nearest below it, the tops of its heaps in the active
    set's index.  A moving component meets the nearest frozen child
    first, so the other strict children need no listing: those tied with
    the nearest one are a run from the same heap top.

    On an all-quadratic component `_prefix[k]` is the summed (c0, c1)
    derivative form of the first k nodes, and a far half's inverse
    derivative is closed form on the difference of two entries.  Otherwise
    `_prefix` is None and the half's members go to `pooled_inverse`, which
    sums their forms afresh: a difference of running sums would lose a
    half's small terms next to large ones elsewhere.
    """

    __slots__ = (
        "anchor", "nodes", "edges", "group",
        "boundary_flow", "edge_flow", "edge_sign", "span",
        "boundary_out", "boundary_in", "_losses", "_prefix",
    )

    def __init__(self, anchor, nodes, edges, group, boundary_flow, edge_flow,
                 edge_sign, span, boundary_out, boundary_in, losses, prefix):
        self.anchor = anchor
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.group = group
        self.boundary_flow = boundary_flow
        self.edge_flow = edge_flow
        self.edge_sign = edge_sign
        self.span = span
        self.boundary_out = boundary_out
        self.boundary_in = boundary_in
        self._losses = losses
        self._prefix = prefix

    def value_at(self, t: float) -> float:
        """Common value of the component at parameter t."""
        return self.group.inverse_derivative(t + self.boundary_flow)

    def t_of_value(self, v: float) -> float:
        """Inverse of value_at."""
        return self.group.derivative(v) - self.boundary_flow

    def move_to(self, v: float, t: float, s: int) -> float:
        """The move from t that brings the component to value v, or 0.0
        when v lies against the search direction s."""
        d = self.t_of_value(v) - t
        return d if s * d > 0.0 else 0.0

    def duals_at(self, t: float) -> Dict[Edge, float]:
        """Dual values on the component edges at parameter t."""
        value = self.value_at(t)
        prefix = [0.0] * (len(self.nodes) + 1)
        for k, v in enumerate(self.nodes):
            prefix[k + 1] = prefix[k] + self._losses[v].derivative(value)
        out: Dict[Edge, float] = {}
        for e in self.edges:
            lo, hi = self.span[e]
            subtotal = prefix[hi] - prefix[lo]
            out[e] = self.edge_sign[e] * (subtotal - self.edge_flow[e])
        return out

    def subgroup_inverse(self, e: Edge, target: float) -> float:
        """Value v at which the far half of edge e has pooled derivative target."""
        lo, hi = self.span[e]
        if self._prefix is not None:
            a0, a1 = self._prefix[lo]
            b0, b1 = self._prefix[hi]
            return (target - (b0 - a0)) / (b1 - a1)
        return pooled_inverse([self._losses[u] for u in self.nodes[lo:hi]], target)


@dataclass
class Thresholds:
    """Per-edge admissible parameter moves in one search direction s.

    Every move is s times a nonnegative length, so within a class the
    binding move is the one with the smallest |move|, and an empty class
    holds the sentinel s*inf.  `per_edge` covers the component edges and
    the eligible boundary edges the view lists.
    """

    per_edge: Dict[Edge, float]
    internal: float       # over component edges (dual hits a box end)
    boundary_out: float   # over eligible outgoing boundary edges (value collision)
    boundary_in: float    # over eligible incoming boundary edges
    best: float           # the binding move among all three
    t: float              # the parameter the moves start from


@dataclass
class StepRecord:
    """What one extension did."""

    node: int                 # the node that was attached
    branch: str               # "flat", "down" or "up"
    iterations: int           # search steps taken
    iteration_cap: int        # hard bound 2m-1 for this extension
    equilibrium_calls: int
    t_star: float             # final dual value of the new edge
    attach_derivative: float  # loss derivative at the attachment point
    t_path: Tuple[float, ...] = ()  # parameter value after each search step
    pair: Optional[tuple] = None    # (x, z) snapshot when recording is on


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
        # float() would also take True or "1e-3"; the float test skips the ABC check.
        real = type(tol) is float or (isinstance(tol, numbers.Real)
                                      and not isinstance(tol, bool))
        if not real or not tol >= 0.0:
            raise ContractViolationError(
                "tolerance must be a nonnegative number, got %r" % (tol,)
            )
        tol = float(tol)
        self.problem = problem
        self.tol = tol
        arb = problem.arb
        n = arb.node_count
        self._parent = [0] * (n + 1)
        self._lam = [0.0] * (n + 1)
        self._mu = [0.0] * (n + 1)
        self._children: List[List[int]] = [[] for _ in range(n + 1)]
        for c in range(2, n + 1):
            p, lam, mu = arb.parent[c]
            self._parent[c] = p
            self._lam[c] = lam
            self._mu[c] = mu
            self._children[p].append(c)
        self._loss: List[Optional[Loss]] = [None] + list(problem.losses)
        self._attachments = decompose(arb)

    # -- plumbing ---------------------------------------------------------

    def _weights(self, edge: Edge) -> Tuple[float, float]:
        child = edge[1]
        return self._lam[child], self._mu[child]

    def _edges(self, children):
        """Weighted edges (parent, child, lambda, mu) into the given children."""
        parent, lam, mu = self._parent, self._lam, self._mu
        return ((parent[c], c, lam[c], mu[c]) for c in children)

    def _reclassify(self, active: ActiveSet, x, z, m: int, validate: bool):
        """Bring the signs of prefix 1..m up to date with x and clear `moved`.

        For each moved node, reclassifies its parent edge, and enters the
        node afresh in its parent's heap when the edge stays strict.  For
        each node in `level`, also reclassifies the strict child edges at
        its heap tops, down to the first that still classifies as strict
        on its side.  Under validation, the result must equal a
        classification of every prefix edge from scratch, and the index
        one rebuilt from the signs, x and z.
        """
        active.build_index(len(self._parent) - 1, x, z)
        signs = active.signs
        stale = set(active.moved)
        stale.discard(1)  # the root has no parent edge
        for v in active.level:
            for sign, heaps in active.strict.items():
                c = active.nearest(v, sign, x)
                while c is not None and not _keeps_side(sign, x[v], x[c]):
                    heapq.heappop(heaps[v])
                    stale.add(c)
                    c = active.nearest(v, sign, x)
        active.level.clear()
        active.moved.clear()
        for e, sign in build_initial_active_set(x, self._edges(stale)).signs.items():
            if signs.get(e) != sign:
                active.set_sign(e, sign, x, z)
            elif sign != EQ:
                active.push(e, x)  # the child moved: enter it at its new value
        if validate:
            fresh = build_initial_active_set(x, self._edges(range(2, m + 1)))
            for e, sign in fresh.signs.items():
                carried = active.signs.get(e)
                if carried != sign:
                    raise InternalInvariantError(
                        "carried sign of edge %s is %s, its values give %s"
                        % (e, SIGN_NAME.get(carried, "none"), SIGN_NAME[sign])
                    )
            self._check_index(active, x, z)

    def _check_index(self, active: ActiveSet, x, z):
        """Validation: the index must equal one rebuilt from signs, x and z."""
        rebuilt = ActiveSet(active.signs)
        rebuilt.build_index(len(self._parent) - 1, x, z)
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
                if not ordered or active.fresh_entries(v, sign, x) \
                        != set(rebuilt.strict[sign][v]):
                    raise InternalInvariantError(
                        "heap of the strict children %s node %d disagrees with "
                        "the signs" % ("above" if sign == LT else "below", v)
                    )

    # -- component geometry -----------------------------------------------

    def build_component_view(self, state: PrimalDualState,
                             anchor: int) -> ComponentView:
        """Collect the equality component of `anchor` among the signed edges.

        One depth-first walk over EQ edges lists the members in preorder,
        so every far half is a contiguous slice, and notes each member's
        net boundary outflow (its cached child flow, minus its parent
        edge's dual when that edge is strict), the position of the member
        it was reached from and the edge it was reached along.  One reverse
        pass then adds each member's slice size and outflow into that near
        member, which gives every component edge its slice, flow and
        orientation.
        """
        active = state.active
        x, z = state.x, state.z
        if active.eq_kids is None:
            active.build_index(len(self._parent) - 1, x, z)
        parent, signs = self._parent, active.signs
        eq_kids, child_flow = active.eq_kids, active.child_flow
        above, below = active.strict[LT], active.strict[GT]
        nearest = active.nearest
        nodes: List[int] = []
        near: List[int] = []    # position of the member each was reached from
        edges: List[Edge] = []  # the edge each non-anchor member was reached along
        flow: List[float] = []  # net boundary outflow, then summed over the slice
        boundary_out: List[Tuple[Edge, int]] = []
        boundary_in: List[Tuple[Edge, int]] = []
        stack: List[Tuple[int, int, Optional[Edge]]] = [(anchor, -1, None)]
        while stack:
            v, k, reached_by = stack.pop()
            here = len(nodes)
            nodes.append(v)
            near.append(k)
            if reached_by is not None:
                edges.append(reached_by)
            gv = child_flow[v]
            p = parent[v]
            if p:
                e = (p, v)
                if signs[e] != EQ:
                    gv -= z[e]
                    boundary_in.append((e, p))
                elif e != reached_by:
                    stack.append((p, here, e))
            for c in eq_kids[v]:  # ascending
                e = (v, c)
                if e != reached_by:
                    stack.append((c, here, e))
            if above[v]:
                c = nearest(v, LT, x)
                if c is not None:
                    boundary_out.append(((v, c), c))
            if below[v]:
                c = nearest(v, GT, x)
                if c is not None:
                    boundary_out.append(((v, c), c))
            flow.append(gv)

        size = [1] * len(nodes)
        span: Dict[Edge, Tuple[int, int]] = {}
        edge_flow: Dict[Edge, float] = {}
        edge_sign: Dict[Edge, int] = {}
        for i in range(len(nodes) - 1, 0, -1):
            k, e = near[i], edges[i - 1]
            size[k] += size[i]
            flow[k] += flow[i]
            span[e] = (i, i + size[i])
            edge_flow[e] = flow[i]
            edge_sign[e] = 1 if nodes[i] == e[0] else -1

        losses = self._loss
        group = LossGroup([losses[v] for v in nodes])
        form = group.poly_form()
        prefix = None
        if form is not None and form[2] == 0.0:
            c0 = c1 = 0.0
            prefix = [(c0, c1)]
            for v in nodes:
                m0, m1, _ = losses[v].poly_form()
                c0 += m0
                c1 += m1
                prefix.append((c0, c1))

        return ComponentView(
            anchor, nodes, edges, group, flow[0], edge_flow, edge_sign,
            span, boundary_out, boundary_in, losses, prefix,
        )

    def _check_anchor(self, view: ComponentView, state: PrimalDualState):
        """Validation: the closed-form state must reproduce the stored one."""
        want = state.x[view.anchor]
        got = view.value_at(state.t)
        if abs(got - want) > ANCHOR_RTOL * (1.0 + abs(want)):
            raise InternalInvariantError(
                "component value %.17g disagrees with stored %.17g" % (got, want)
            )
        for e, value in view.duals_at(state.t).items():
            stored = state.z[e]
            if abs(value - stored) > ANCHOR_RTOL * (1.0 + abs(stored)):
                raise InternalInvariantError(
                    "dual on %s: formula %.17g vs stored %.17g" % (e, value, stored)
                )

    # -- thresholds ---------------------------------------------------------

    def thresholds(self, view: ComponentView, state: PrimalDualState,
                   s: int) -> Thresholds:
        """Largest admissible parameter moves in direction s from the state.

        Each move is s times a nonnegative length.  Component edges bind
        when their dual reaches the box end the search pushes it towards
        (-lambda or +mu, by the edge's orientation relative to the anchor
        and by s); boundary edges bind when the moving component value
        reaches a frozen neighbor it is ordered against.  Infinite bounds
        and empty classes yield s*inf sentinels.
        """
        t_q = state.t
        per_edge: Dict[Edge, float] = {}
        internal = s * INF
        for e in view.edges:
            lam, mu = self._weights(e)
            bound = lam if (view.edge_sign[e] > 0) == (s < 0) else mu
            if bound == INF:
                dt = s * INF
            else:
                vbar = view.subgroup_inverse(e, view.edge_flow[e] + s * bound)
                d = view.t_of_value(vbar) - t_q
                dt = d if s * d > 0.0 else 0.0
            per_edge[e] = dt
            if s * dt < s * internal:
                internal = dt
        signs = state.active.signs
        x = state.x
        best_of_side = []
        # Eligible are the neighbors the component moves towards: across
        # an outgoing edge of sign -s or an incoming edge of sign s.
        for boundary, eligible in ((view.boundary_out, -s), (view.boundary_in, s)):
            side_best = s * INF
            for e, outside in boundary:
                if signs[e] == eligible:
                    dt = view.move_to(x[outside], t_q, s)
                    per_edge[e] = dt
                    if s * dt < s * side_best:
                        side_best = dt
            best_of_side.append(side_best)
        out_best, in_best = best_of_side
        best = internal
        for dt in best_of_side:
            if s * dt < s * best:
                best = dt
        return Thresholds(per_edge, internal, out_best, in_best, best, t_q)

    # The benchmark's span table (perfbench/spans.py) wraps these four names
    # for its solver.thresholds and solver.step spans, and the search calls
    # them so that those spans keep counting every call.
    def thresholds_minus(self, view, state):
        return self.thresholds(view, state, -1)

    def thresholds_plus(self, view, state):
        return self.thresholds(view, state, 1)

    def step_minus(self, state, view, attachment):
        return self.step(state, view, attachment, -1)

    def step_plus(self, state, view, attachment):
        return self.step(state, view, attachment, 1)

    # -- search steps -------------------------------------------------------

    def _apply(self, state: PrimalDualState, view: ComponentView,
               attachment: Attachment, attach_loss: Loss, t_next: float):
        value = view.value_at(t_next)
        attach_value = attach_loss.inverse_derivative(-t_next)
        x = state.x
        for v in view.nodes:
            x[v] = value
        # A member whose nearest strict child on some side no longer
        # classifies as strict gets its heap tops reclassified.
        signs = state.active.signs
        for e, c in view.boundary_out:
            if not _keeps_side(signs[e], value, x[c]):
                state.active.level.add(e[0])
        x[attachment.child] = attach_value
        state.z.update(view.duals_at(t_next))
        state.t = t_next
        return value, attach_value

    def _migrate(self, state: PrimalDualState, view: ComponentView,
                 th: Thresholds, s: int):
        """Move tied edges between the equality set and the strict sets.

        A boundary edge joins from the sign its thresholds accepted (-s
        outgoing, s incoming).  The view lists only each member's nearest
        strict child on either side, but `t_of_value` is monotone in the
        value, so the children tied with a listed one are a run from the
        same heap top: each joins in turn until the next nearest is not
        tied.  The joins come first, so that no run reaches an edge that
        departs in this step.  A departing component edge takes sign -s
        when it points away from the anchor's side and s otherwise, with
        its dual at the matching box end.
        """
        active = state.active
        signs, x, z = active.signs, state.x, state.z
        per_edge, best = th.per_edge, th.best
        want = self._tied_children(view, state, th, s) if state.validate else None
        changed = False
        for e, _ in view.boundary_in:
            if signs[e] == s and abs(per_edge[e] - best) <= TIE_TOL:
                self._join(state, e)
                changed = True
        joined_out = []
        for e, _ in view.boundary_out:
            if signs[e] != -s or abs(per_edge[e] - best) > TIE_TOL:
                continue
            v = e[0]
            while True:
                self._join(state, e)
                joined_out.append(e)
                changed = True
                c = active.nearest(v, -s, x)
                if c is None or abs(view.move_to(x[c], th.t, s) - best) > TIE_TOL:
                    break
                e = (v, c)
        if want is not None and set(joined_out) != want:
            raise InternalInvariantError(
                "boundary ties from the heaps %s differ from a full scan %s"
                % (sorted(joined_out), sorted(want))
            )
        for e in view.edges:
            if abs(per_edge[e] - best) <= TIE_TOL:
                lam, mu = self._weights(e)
                sign = -s if view.edge_sign[e] > 0 else s
                z[e] = -lam if sign == GT else mu
                active.set_sign(e, sign, x, z)
                state.departed.add(e)
                changed = True
        if not changed:
            raise InternalInvariantError("threshold step produced no sign change")

    @staticmethod
    def _join(state: PrimalDualState, e: Edge):
        if e in state.departed:
            raise InternalInvariantError(
                "edge %s re-entered the equality set" % (e,)
            )
        state.active.set_sign(e, EQ, state.x, state.z)

    def _tied_children(self, view: ComponentView, state: PrimalDualState,
                       th: Thresholds, s: int) -> set:
        """Validation: the outgoing boundary edges tied at the binding move,
        found by scanning every child of every member."""
        signs, x = state.active.signs, state.x
        return {
            (v, c) for v in view.nodes for c in self._children[v]
            if signs.get((v, c)) == -s
            and abs(view.move_to(x[c], th.t, s) - th.best) <= TIE_TOL
        }

    def step(self, state: PrimalDualState, view: ComponentView,
             attachment: Attachment, s: int) -> Optional[float]:
        """One search step in direction s; returns the final t when terminal.

        Moves t to the binding threshold when the ordering gap at that
        point still has sign -s (or is zero), otherwise to the equilibrium;
        both are clipped at the new edge's box end in direction s (-lambda
        going down, +mu going up).  Terminal when t reaches that end or the
        gap closes; otherwise tied edges migrate between the sign classes
        and the search continues.
        """
        t_q = state.t
        attach_loss = self.problem.loss_of(attachment.child)
        limit = attachment.mu if s > 0 else -attachment.lam
        thresholds = self.thresholds_plus if s > 0 else self.thresholds_minus
        th = thresholds(view, state)
        use_equilibrium = th.best == s * INF
        if not use_equilibrium:
            cand = t_q + th.best
            gap = view.value_at(cand) - attach_loss.inverse_derivative(-cand)
            use_equilibrium = s * gap > 0.0
        if use_equilibrium:
            state.equilibrium_calls += 1
            if state.equilibrium_calls > 1:
                raise InternalInvariantError(
                    "second equilibrium solve in one extension"
                )
            cand = equilibrium_t(view.group, view.boundary_flow, attach_loss)
        t_next = limit if s * limit < s * cand else cand
        if s * t_next < s * t_q - MONO_SLACK * (1.0 + abs(t_q)):
            raise InternalInvariantError(
                "t %s in %s search: %.17g -> %.17g"
                % ("increased" if s < 0 else "decreased",
                   "downward" if s < 0 else "upward", t_q, t_next)
            )
        value, attach_value = self._apply(state, view, attachment, attach_loss, t_next)
        if t_next == limit:
            return t_next
        if values_equal(value, attach_value):
            return t_next
        if use_equilibrium:
            raise InternalInvariantError("equilibrium step left a value gap")
        self._migrate(state, view, th, s)
        return None

    # -- extension and outer loop -------------------------------------------

    def extend(self, x: Dict[int, float], z: Dict[Edge, float],
               attachment: Attachment, record_pair: bool = False,
               validate: bool = False, active: Optional[ActiveSet] = None):
        """Extend an optimal pair on prefix 1..m to one on 1..m+1.

        Mutates x and z in place and returns (x, z, record).  The branch
        is picked by the attached loss's derivative at the attachment
        point: zero copies the value across with a zero dual, positive
        searches downward (s = -1), negative upward (s = +1).  A zero
        attachment bound
        pins t at 0 immediately (the admissible interval is {0}).

        `active` is the active set carried from the previous extension of
        the same solve.  A search starts by reclassifying only the edges
        next to its moved nodes that can have changed class (see
        `_reclassify`); the search's component members and the
        attached node are then recorded as moved, on every branch, except
        the members of the final component whose parent edge lies inside
        it.
        Without `active` (x and z owned by the caller), every prefix node
        counts as moved, so the first search classifies all prefix edges.
        """
        child, i_m = attachment.child, attachment.parent
        m = child - 1
        if active is None:
            active = ActiveSet()
            active.moved.update(range(1, m + 1))
        attach_loss = self.problem.loss_of(child)
        d = attach_loss.derivative(x[i_m])
        iterations = 0
        eq_calls = 0
        cap = 2 * m - 1
        t_path = [0.0]
        if d == 0.0:
            x[child] = x[i_m]
            t_star = 0.0
            branch = "flat"
        else:
            s = -1 if d > 0.0 else 1
            branch = "down" if s < 0 else "up"
            bound = attachment.lam if s < 0 else attachment.mu
            if bound == 0.0:
                t_star = 0.0
                x[child] = attach_loss.inverse_derivative(0.0)
            else:
                self._reclassify(active, x, z, m, validate)
                state = PrimalDualState(0.0, x, z, active, validate)
                x[child] = attach_loss.inverse_derivative(0.0)
                step = self.step_minus if s < 0 else self.step_plus
                while True:
                    iterations += 1
                    if iterations > cap:
                        raise InternalInvariantError(
                            "extension of node %d exceeded %d search steps"
                            % (child, cap)
                        )
                    view = self.build_component_view(state, i_m)
                    active.moved.update(view.nodes)
                    if validate:
                        self._check_anchor(view, state)
                    result = step(state, view, attachment)
                    t_path.append(state.t)
                    if result is not None:
                        t_star = result
                        break
                # The final component's edges join members that now hold
                # one value, so they stay EQ.
                active.moved.difference_update([c for _, c in view.edges])
                eq_calls = state.equilibrium_calls
        active.moved.add(child)
        z[(i_m, child)] = t_star
        if t_star * d > SIGN_TOL:
            raise InternalInvariantError(
                "new-edge dual %.17g has the same sign as the derivative %.17g"
                % (t_star, d)
            )
        record = StepRecord(child, branch, iterations, cap, eq_calls, t_star, d,
                            tuple(t_path))
        if record_pair:
            record.pair = (dict(x), dict(z))
        return x, z, record

    def solve(self, record_pairs: bool = False, validate: bool = False):
        """Solve the full problem; returns (x, z, stats).

        One active set is carried through every extension.  The returned
        pair is certified: its flow-system residual is at most the solver
        tolerance, otherwise CertificateError is raised.
        """
        x = {1: self.problem.loss_of(1).inverse_derivative(0.0)}
        z: Dict[Edge, float] = {}
        active = ActiveSet()
        stats = SolveStats()
        for attachment in self._attachments:
            _, _, record = self.extend(
                x, z, attachment, record_pair=record_pairs, validate=validate,
                active=active,
            )
            stats.steps.append(record)
        residual = kkt_residual(self.problem, x, z)
        if residual > self.tol:
            raise CertificateError(
                "final residual %.3e exceeds the %.1e gate" % (residual, self.tol)
            )
        stats.final_residual = residual
        return x, z, stats


def solve(problem: Problem, tol: float = DEFAULT_TOL,
          record_pairs: bool = False, validate: bool = False):
    """One-shot interface to Solver."""
    return Solver(problem, tol).solve(record_pairs=record_pairs, validate=validate)


def kkt_residual_edges(edges, loss_of: Callable[[int], Loss], x, z) -> float:
    """Violation of the optimality flow system on an arbitrary edge list.

    Node term: |net outflow - loss derivative|, maximized over nodes.
    Edge term: distance of the dual from the box [-lambda, mu], plus the
    distance from the forced box end when the endpoint values are strictly
    ordered.  The total is the sum of the two maxima.
    """
    balance = {v: 0.0 for v in x}
    edge_term = 0.0
    for i, j, lam, mu in edges:
        value = z[(i, j)]
        balance[i] += value
        balance[j] -= value
        dist = 0.0
        if value > mu:
            dist += value - mu
        if value < -lam:
            dist += -lam - value
        xi, xj = x[i], x[j]
        if not values_equal(xi, xj):
            forced = -lam if xi > xj else mu
            dist += abs(value - forced)
        if dist > edge_term:
            edge_term = dist
    node_term = max(abs(balance[v] - loss_of(v).derivative(x[v])) for v in x)
    return node_term + edge_term


def kkt_residual(problem: Problem, x, z) -> float:
    """Certificate residual of (x, z) for the given problem."""
    return kkt_residual_edges(problem.weighted_edges(), problem.loss_of, x, z)


def objective_value_edges(edges, loss_of: Callable[[int], Loss], x) -> float:
    """Objective of the penalized problem at x over an arbitrary edge list.

    An infinite weight contributes nothing when the penalized difference
    is zero up to the equality tolerance, and makes the objective infinite
    otherwise.
    """
    total = 0.0
    for v in x:
        total += loss_of(v).value(x[v])
    for i, j, lam, mu in edges:
        gap = x[i] - x[j]
        if gap > 0.0:
            if lam == INF:
                if gap > _eq_tol(x[i], x[j]):
                    return INF
            else:
                total += lam * gap
        elif gap < 0.0:
            if mu == INF:
                if -gap > _eq_tol(x[i], x[j]):
                    return INF
            else:
                total += mu * -gap
    return total


def objective_value(problem: Problem, x) -> float:
    return objective_value_edges(problem.weighted_edges(), problem.loss_of, x)
