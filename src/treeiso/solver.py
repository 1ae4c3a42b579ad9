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
stays frozen.  Threshold computations find the largest |t| step before some
dual value hits its box end or the moving component collides with a frozen
neighbor; if the new node's value meets the component's before any
threshold, an equilibrium solve finishes the search.  The search direction
is set by the sign of the attached loss's derivative at the attachment
point: positive derivative means t decreases (downward search), negative
means t increases (upward search).

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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import (
    CertificateError,
    ContractViolationError,
    InternalInvariantError,
)
from .loss import (
    Loss, LossGroup, equilibrium_t, poly_inverse, pooled_form, solve_increasing,
)
from .tree import Arborescence, Attachment, Edge, Subtree, decompose

INF = math.inf

LT, EQ, GT = -1, 0, 1

_SIGN_NAME = {LT: "<", EQ: "=", GT: ">"}

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

    def edges_with(self, sign: int) -> List[Edge]:
        return [e for e, s in self.signs.items() if s == sign]

    def __repr__(self):
        inner = ", ".join(
            "%s: %s" % (e, _SIGN_NAME[s]) for e, s in sorted(self.signs.items())
        )
        return "ActiveSet({%s})" % inner


def build_initial_active_set(x, edges, eq_rtol: float = EQ_RTOL) -> ActiveSet:
    """Classify each edge by comparing its endpoint values.

    Values within eq_rtol * (1 + max(|x_i|, |x_j|)) of each other count as
    equal.  A strict ordering that an infinite weight forbids cannot occur
    at a certified optimum, so it raises CertificateError instead of being
    repaired silently.
    """
    signs: Dict[Edge, int] = {}
    for i, j, lam, mu in edges:
        xi, xj = x[i], x[j]
        if abs(xi - xj) <= eq_rtol * (1.0 + max(abs(xi), abs(xj))):
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

    Holds the equal-valued component containing the attachment point
    (re-rooted there), its pooled loss group, the net dual flow crossing
    the component boundary, and per-edge data for the semi-closed dual
    formulas: for each component edge, the far half of the component (the
    side away from the anchor) occupies a contiguous slice of `nodes`, and
    the edge's dual equals +/- (sum of loss derivatives over that slice at
    the pooled value, minus the slice's own boundary flow `edge_flow`).

    On an all-quadratic component `_prefix[k]` is the summed (c0, c1)
    derivative form of the first k nodes, and a far half's inverse
    derivative is closed form on the difference of two entries.  Otherwise
    `_prefix` is None and the half's forms are summed afresh: a difference
    of running sums would lose a half's small terms next to large ones
    elsewhere.  The half's inverse is then closed form when it holds only
    quadratic members (its c3 is exactly 0) and a Newton solve on one cubic
    otherwise; only a loss without a polynomial form is evaluated member by
    member inside the solve.
    """

    __slots__ = (
        "anchor", "component", "nodes", "edges", "group",
        "boundary_flow", "edge_flow", "edge_sign", "span",
        "boundary_out", "boundary_in", "_losses", "_prefix",
    )

    def __init__(self, anchor, component, group, boundary_flow, edge_flow,
                 edge_sign, span, boundary_out, boundary_in,
                 losses, prefix):
        self.anchor = anchor
        self.component = component
        self.nodes = component.nodes
        self.edges = component.edges
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
        members = self.nodes[lo:hi]
        losses = self._losses
        form = pooled_form([losses[u] for u in members])
        if form is not None:
            return poly_inverse(form, target)

        def fun(v):
            return sum(losses[u].derivative(v) for u in members)

        def dfun(v):
            return sum(losses[u].second_derivative(v) for u in members)

        gain = sum(losses[u].second_derivative(0.0) for u in members)
        offset = -sum(losses[u].derivative(0.0) for u in members)
        return solve_increasing(fun, dfun, target, (target + offset) / gain)


@dataclass
class Thresholds:
    """Per-edge admissible parameter moves and their class aggregates."""

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
                        % (e, _SIGN_NAME.get(carried, "none"), _SIGN_NAME[sign])
                    )

    # -- component geometry -----------------------------------------------

    def build_component_view(self, state: PrimalDualState, anchor: int,
                             m: int) -> ComponentView:
        """Collect the equality component of `anchor` within prefix 1..m.

        One traversal gathers members, boundary edges and the per-node net
        outflow g; a second pass lays the component out in depth-first
        order so every far half is a contiguous slice.
        """
        signs = state.active.signs
        z = state.z
        member = {anchor}
        bfs = [anchor]
        comp_children: Dict[int, List[int]] = {anchor: []}
        discovery: Dict[int, Edge] = {}
        g: Dict[int, float] = {}
        comp_edges: List[Edge] = []
        boundary_out: List[Tuple[Edge, int]] = []
        boundary_in: List[Tuple[Edge, int]] = []
        k = 0
        while k < len(bfs):
            v = bfs[k]
            k += 1
            gv = 0.0
            p = self._parent[v]
            if p:
                e = (p, v)
                if signs[e] == EQ:
                    if p not in member:
                        member.add(p)
                        comp_children[p] = []
                        comp_children[v].append(p)
                        discovery[p] = e
                        comp_edges.append(e)
                        bfs.append(p)
                else:
                    gv -= z[e]
                    boundary_in.append((e, p))
            for c in self._children[v]:
                if c > m:
                    continue
                e = (v, c)
                if signs[e] == EQ:
                    if c not in member:
                        member.add(c)
                        comp_children[c] = []
                        comp_children[v].append(c)
                        discovery[c] = e
                        comp_edges.append(e)
                        bfs.append(c)
                else:
                    gv += z[e]
                    boundary_out.append((e, c))
            g[v] = gv

        order: List[int] = []
        stack = [anchor]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(comp_children[v])
        pos = {v: i for i, v in enumerate(order)}
        size = {v: 1 for v in order}
        parent_in_comp: Dict[int, int] = {}
        for v, kids in comp_children.items():
            for c in kids:
                parent_in_comp[c] = v
        gacc = {v: g[v] for v in order}
        for v in reversed(order):
            p = parent_in_comp.get(v)
            if p is not None:
                size[p] += size[v]
                gacc[p] += gacc[v]

        edge_sign: Dict[Edge, int] = {}
        span: Dict[Edge, Tuple[int, int]] = {}
        edge_flow: Dict[Edge, float] = {}
        for far, e in discovery.items():
            edge_sign[e] = 1 if far == e[0] else -1
            span[e] = (pos[far], pos[far] + size[far])
            edge_flow[e] = gacc[far]

        losses = self._loss
        group = LossGroup([losses[v] for v in order])
        form = group.poly_form()
        prefix = None
        if form is not None and form[2] == 0.0:
            c0 = c1 = 0.0
            prefix = [(c0, c1)]
            for v in order:
                m0, m1, _ = losses[v].poly_form()
                c0 += m0
                c1 += m1
                prefix.append((c0, c1))

        component = Subtree(order, comp_edges)
        return ComponentView(
            anchor, component, group, gacc[anchor], edge_flow, edge_sign,
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

    def thresholds_minus(self, view: ComponentView,
                         state: PrimalDualState) -> Thresholds:
        """Largest nonpositive parameter moves admissible at the current state.

        Component edges bind when their dual reaches the matching box end
        (-lambda on edges oriented away from the anchor's side, +mu on the
        others); boundary edges bind when the falling component value
        reaches a frozen neighbor it is ordered against.  Infinite bounds
        and empty classes yield -inf sentinels.
        """
        t_q = state.t
        per_edge: Dict[Edge, float] = {}
        internal = -INF
        for e in view.edges:
            lam, mu = self._weights(e)
            bound = lam if view.edge_sign[e] > 0 else mu
            if bound == INF:
                dt = -INF
            else:
                vbar = view.subgroup_inverse(e, view.edge_flow[e] - bound)
                dt = min(0.0, view.t_of_value(vbar) - t_q)
            per_edge[e] = dt
            if dt > internal:
                internal = dt
        signs = state.active.signs
        out_best = -INF
        for e, outside in view.boundary_out:
            if signs[e] == GT:
                dt = min(0.0, view.t_of_value(state.x[outside]) - t_q)
                per_edge[e] = dt
                if dt > out_best:
                    out_best = dt
        in_best = -INF
        for e, outside in view.boundary_in:
            if signs[e] == LT:
                dt = min(0.0, view.t_of_value(state.x[outside]) - t_q)
                per_edge[e] = dt
                if dt > in_best:
                    in_best = dt
        return Thresholds(per_edge, internal, out_best, in_best,
                          max(internal, out_best, in_best))

    def thresholds_plus(self, view: ComponentView,
                        state: PrimalDualState) -> Thresholds:
        """Mirror of thresholds_minus for the upward search (+inf sentinels)."""
        t_q = state.t
        per_edge: Dict[Edge, float] = {}
        internal = INF
        for e in view.edges:
            lam, mu = self._weights(e)
            bound = mu if view.edge_sign[e] > 0 else lam
            if bound == INF:
                dt = INF
            else:
                vbar = view.subgroup_inverse(e, view.edge_flow[e] + bound)
                dt = max(0.0, view.t_of_value(vbar) - t_q)
            per_edge[e] = dt
            if dt < internal:
                internal = dt
        signs = state.active.signs
        out_best = INF
        for e, outside in view.boundary_out:
            if signs[e] == LT:
                dt = max(0.0, view.t_of_value(state.x[outside]) - t_q)
                per_edge[e] = dt
                if dt < out_best:
                    out_best = dt
        in_best = INF
        for e, outside in view.boundary_in:
            if signs[e] == GT:
                dt = max(0.0, view.t_of_value(state.x[outside]) - t_q)
                per_edge[e] = dt
                if dt < in_best:
                    in_best = dt
        return Thresholds(per_edge, internal, out_best, in_best,
                          min(internal, out_best, in_best))

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
                 th: Thresholds, departing_sign_pos: int, departing_sign_neg: int,
                 join_out_sign: int, join_in_sign: int):
        """Move tied edges between the equality set and the strict sets."""
        signs = state.active.signs
        changed = False
        for e in view.edges:
            if abs(th.per_edge[e] - th.best) <= TIE_TOL:
                lam, mu = self._weights(e)
                if view.edge_sign[e] > 0:
                    signs[e] = departing_sign_pos
                    state.z[e] = -lam if departing_sign_pos == GT else mu
                else:
                    signs[e] = departing_sign_neg
                    state.z[e] = -lam if departing_sign_neg == GT else mu
                state.departed.add(e)
                changed = True
        for e, _ in view.boundary_out:
            if signs[e] == join_out_sign and e in th.per_edge \
                    and abs(th.per_edge[e] - th.best) <= TIE_TOL:
                if e in state.departed:
                    raise InternalInvariantError(
                        "edge %s re-entered the equality set" % (e,)
                    )
                signs[e] = EQ
                changed = True
        for e, _ in view.boundary_in:
            if signs[e] == join_in_sign and e in th.per_edge \
                    and abs(th.per_edge[e] - th.best) <= TIE_TOL:
                if e in state.departed:
                    raise InternalInvariantError(
                        "edge %s re-entered the equality set" % (e,)
                    )
                signs[e] = EQ
                changed = True
        if not changed:
            raise InternalInvariantError("threshold step produced no sign change")

    def step_minus(self, state: PrimalDualState, view: ComponentView,
                   attachment: Attachment) -> Optional[float]:
        """One downward search step.  Returns the final t when it terminates.

        Moves t to the binding threshold when the ordering gap at that
        point is still nonnegative, otherwise to the equilibrium; both are
        floored at -lambda of the new edge.  Terminal when t reaches that
        floor or the gap closes; otherwise tied edges migrate between the
        sign classes and the search continues.
        """
        t_q = state.t
        attach_loss = self.problem.loss_of(attachment.child)
        floor = -attachment.lam
        th = self.thresholds_minus(view, state)
        use_equilibrium = th.best == -INF
        cand = None
        if not use_equilibrium:
            cand = t_q + th.best
            gap = view.value_at(cand) - attach_loss.inverse_derivative(-cand)
            use_equilibrium = gap < 0.0
        if use_equilibrium:
            state.equilibrium_calls += 1
            if state.equilibrium_calls > 1:
                raise InternalInvariantError(
                    "second equilibrium solve in one extension"
                )
            t_next = max(
                equilibrium_t(view.group, view.boundary_flow, attach_loss), floor
            )
        else:
            t_next = max(cand, floor)
        if t_next > t_q + MONO_SLACK * (1.0 + abs(t_q)):
            raise InternalInvariantError(
                "t increased in downward search: %.17g -> %.17g" % (t_q, t_next)
            )
        value, attach_value = self._apply(state, view, attachment, attach_loss, t_next)
        if t_next == floor:
            return t_next
        if values_equal(value, attach_value):
            return t_next
        if use_equilibrium:
            raise InternalInvariantError("equilibrium step left a value gap")
        self._migrate(state, view, th,
                      departing_sign_pos=GT, departing_sign_neg=LT,
                      join_out_sign=GT, join_in_sign=LT)
        return None

    def step_plus(self, state: PrimalDualState, view: ComponentView,
                  attachment: Attachment) -> Optional[float]:
        """One upward search step; exact mirror of step_minus."""
        t_q = state.t
        attach_loss = self.problem.loss_of(attachment.child)
        ceiling = attachment.mu
        th = self.thresholds_plus(view, state)
        use_equilibrium = th.best == INF
        cand = None
        if not use_equilibrium:
            cand = t_q + th.best
            gap = view.value_at(cand) - attach_loss.inverse_derivative(-cand)
            use_equilibrium = gap > 0.0
        if use_equilibrium:
            state.equilibrium_calls += 1
            if state.equilibrium_calls > 1:
                raise InternalInvariantError(
                    "second equilibrium solve in one extension"
                )
            t_next = min(
                equilibrium_t(view.group, view.boundary_flow, attach_loss), ceiling
            )
        else:
            t_next = min(cand, ceiling)
        if t_next < t_q - MONO_SLACK * (1.0 + abs(t_q)):
            raise InternalInvariantError(
                "t decreased in upward search: %.17g -> %.17g" % (t_q, t_next)
            )
        value, attach_value = self._apply(state, view, attachment, attach_loss, t_next)
        if t_next == ceiling:
            return t_next
        if values_equal(value, attach_value):
            return t_next
        if use_equilibrium:
            raise InternalInvariantError("equilibrium step left a value gap")
        self._migrate(state, view, th,
                      departing_sign_pos=LT, departing_sign_neg=GT,
                      join_out_sign=LT, join_in_sign=GT)
        return None

    # -- extension and outer loop -------------------------------------------

    def extend(self, x: Dict[int, float], z: Dict[Edge, float],
               attachment: Attachment, record_pair: bool = False,
               validate: bool = False, active: Optional[ActiveSet] = None):
        """Extend an optimal pair on prefix 1..m to one on 1..m+1.

        Mutates x and z in place and returns (x, z, record).  The branch
        is picked by the attached loss's derivative at the attachment
        point: zero copies the value across with a zero dual, positive
        searches downward, negative upward.  A zero attachment bound
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
            down = d > 0.0
            branch = "down" if down else "up"
            bound = attachment.lam if down else attachment.mu
            if bound == 0.0:
                t_star = 0.0
                x[child] = attach_loss.inverse_derivative(0.0)
            else:
                self._reclassify(active, x, m, validate)
                state = PrimalDualState(0.0, x, z, active)
                x[child] = attach_loss.inverse_derivative(0.0)
                step = self.step_minus if down else self.step_plus
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


def primal_at(view: ComponentView, frozen_x, attach_loss: Loss, t: float,
              attach_node: int) -> Dict[int, float]:
    """Full primal map at parameter t.

    Component nodes share the pooled value, the attached node follows its
    own inverse derivative at -t, everything else keeps its frozen value.
    """
    out = dict(frozen_x)
    value = view.value_at(t)
    for v in view.nodes:
        out[v] = value
    out[attach_node] = attach_loss.inverse_derivative(-t)
    return out


def dual_at(view: ComponentView, t: float) -> Dict[Edge, float]:
    """Dual values on the component's edges at parameter t."""
    return view.duals_at(t)


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
