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
depth-first walk from the attachment point plus one reverse pass over the
members it listed.  Threshold computations find the largest |t| step before some
dual value hits its box end or the moving component collides with a frozen
neighbor; if the new node's value meets the component's before any
threshold, an equilibrium solve finishes the search.  The search direction
s is set by the sign of the attached loss's derivative at the attachment
point: positive derivative means t decreases (s = -1, downward search),
negative means t increases (s = +1, upward search).  The two directions are
mirror images (reflect x to -x and swap lambda with mu), so one threshold
routine, one step and one migration serve both, with s as a parameter:
every move is s times a nonnegative length, and comparisons of moves
compare s times their values.

One active set lives for a whole solve.  Before each search it is brought
back to the value-based classification of the prefix (the one
`build_initial_active_set` would produce from scratch) by reclassifying
only the edges next to a node whose value was written since the last
classification: every member of a component view during a search, and
the attached node of every extension.  An edge whose endpoints kept their
values keeps its class, and the edges a search migrates all touch a
component member, so nothing else can be stale.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    """Relation sign per edge: LT (-1), EQ (0) or GT (+1).

    `moved` holds the nodes whose values were written since the signs were
    last classified; only the edges next to them can be out of date.
    """

    __slots__ = ("signs", "moved")

    def __init__(self, signs: Optional[Dict[Edge, int]] = None):
        self.signs = dict(signs) if signs else {}
        self.moved: set = set()

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
    bookkeeping backing the churn and single-equilibrium checks.
    """

    __slots__ = ("t", "x", "z", "active", "departed", "equilibrium_calls")

    def __init__(self, t: float, x: Dict[int, float], z: Dict[Edge, float],
                 active: ActiveSet):
        self.t = t
        self.x = x
        self.z = z
        self.active = active
        self.departed: set = set()
        self.equilibrium_calls = 0


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
    holds the sentinel s*inf.
    """

    per_edge: Dict[Edge, float]
    internal: float       # over component edges (dual hits a box end)
    boundary_out: float   # over eligible outgoing boundary edges (value collision)
    boundary_in: float    # over eligible incoming boundary edges
    best: float           # the binding move among all three


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
        tol = float(tol)
        if not tol >= 0.0:
            raise ContractViolationError(
                "tolerance must be a nonnegative number, got %r" % tol
            )
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

    def _reclassify(self, active: ActiveSet, x, m: int, validate: bool):
        """Bring the signs of prefix 1..m up to date with x and clear `moved`.

        Reclassifies each moved node's parent edge and its prefix child
        edges.  Under validation, the result must equal a classification
        of every prefix edge from scratch.
        """
        children = self._children  # each list ascending, as built in __init__
        stale = set(active.moved)
        stale.discard(1)  # the root has no parent edge
        for v in active.moved:
            kids = children[v]
            if kids:
                stale.update(kids[:bisect_right(kids, m)])
        active.moved.clear()
        active.signs.update(
            build_initial_active_set(x, self._edges(stale)).signs
        )
        if validate:
            fresh = build_initial_active_set(x, self._edges(range(2, m + 1)))
            for e, sign in fresh.signs.items():
                carried = active.signs.get(e)
                if carried != sign:
                    raise InternalInvariantError(
                        "carried sign of edge %s is %s, its values give %s"
                        % (e, SIGN_NAME.get(carried, "none"), SIGN_NAME[sign])
                    )

    # -- component geometry -----------------------------------------------

    def build_component_view(self, state: PrimalDualState, anchor: int,
                             m: int) -> ComponentView:
        """Collect the equality component of `anchor` within prefix 1..m.

        One depth-first walk lists the members in preorder, so every far
        half is a contiguous slice, and notes each member's net boundary
        outflow, the position of the member it was reached from and the
        edge it was reached along.  One reverse pass then adds each
        member's slice size and outflow into that near member, which gives
        every component edge its slice, flow and orientation.
        """
        signs = state.active.signs
        z = state.z
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
            gv = 0.0
            p = self._parent[v]
            if p:
                e = (p, v)
                if signs[e] != EQ:
                    gv -= z[e]
                    boundary_in.append((e, p))
                elif e != reached_by:
                    stack.append((p, here, e))
            for c in self._children[v]:  # ascending, as built in __init__
                if c > m:
                    break
                e = (v, c)
                if signs[e] != EQ:
                    gv += z[e]
                    boundary_out.append((e, c))
                elif e != reached_by:
                    stack.append((c, here, e))
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
                    d = view.t_of_value(x[outside]) - t_q
                    dt = d if s * d > 0.0 else 0.0
                    per_edge[e] = dt
                    if s * dt < s * side_best:
                        side_best = dt
            best_of_side.append(side_best)
        out_best, in_best = best_of_side
        best = internal
        for dt in best_of_side:
            if s * dt < s * best:
                best = dt
        return Thresholds(per_edge, internal, out_best, in_best, best)

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
        for v in view.nodes:
            state.x[v] = value
        state.x[attachment.child] = attach_value
        state.z.update(view.duals_at(t_next))
        state.t = t_next
        return value, attach_value

    def _migrate(self, state: PrimalDualState, view: ComponentView,
                 th: Thresholds, s: int):
        """Move tied edges between the equality set and the strict sets.

        A departing component edge takes sign -s when it points away from
        the anchor's side and s otherwise, with its dual at the matching
        box end; a boundary edge joins from the sign its thresholds
        accepted (-s outgoing, s incoming).
        """
        signs = state.active.signs
        changed = False
        for e in view.edges:
            if abs(th.per_edge[e] - th.best) <= TIE_TOL:
                lam, mu = self._weights(e)
                sign = -s if view.edge_sign[e] > 0 else s
                signs[e] = sign
                state.z[e] = -lam if sign == GT else mu
                state.departed.add(e)
                changed = True
        for boundary, join_sign in ((view.boundary_out, -s), (view.boundary_in, s)):
            for e, _ in boundary:
                if signs[e] == join_sign and e in th.per_edge \
                        and abs(th.per_edge[e] - th.best) <= TIE_TOL:
                    if e in state.departed:
                        raise InternalInvariantError(
                            "edge %s re-entered the equality set" % (e,)
                        )
                    signs[e] = EQ
                    changed = True
        if not changed:
            raise InternalInvariantError("threshold step produced no sign change")

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
        next to its moved nodes; the search's component members and the
        attached node are then recorded as moved, on every branch.
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
                self._reclassify(active, x, m, validate)
                state = PrimalDualState(0.0, x, z, active)
                x[child] = attach_loss.inverse_derivative(0.0)
                step = self.step_minus if s < 0 else self.step_plus
                while True:
                    iterations += 1
                    if iterations > cap:
                        raise InternalInvariantError(
                            "extension of node %d exceeded %d search steps"
                            % (child, cap)
                        )
                    view = self.build_component_view(state, i_m, m)
                    active.moved.update(view.nodes)
                    if validate:
                        self._check_anchor(view, state)
                    result = step(state, view, attachment)
                    t_path.append(state.t)
                    if result is not None:
                        t_star = result
                        break
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
