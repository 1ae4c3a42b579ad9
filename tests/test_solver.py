"""Solver core: active sets, component views, thresholds, search steps."""

import gc
import heapq
import math
import random
import struct

import pytest

import treeiso.solver
from conftest import (
    DEMO_OBJECTIVE,
    DEMO_X,
    DEMO_Z,
    hexed,
    make_demo_problem,
    prefix_problem,
    record_bits,
)
from treeiso.api import build_problem, random_problem
from treeiso.errors import CertificateError, ContractViolationError, InternalInvariantError
from treeiso.loss import QuarticQuadratic, WeightedQuadratic
from treeiso.oracle import enumerate_optimum, pava
from treeiso.solver import (
    EQ,
    EQ_RTOL,
    GT,
    LT,
    ActiveSet,
    ComponentView,
    Problem,
    Solver,
    _keeps_side,
    build_initial_active_set,
    classify,
    kkt_residual,
    objective_value,
    values_equal,
)
from treeiso.tree import DirectedTree, INF, normalize

INF_EDGES = [(1, 2, INF, 0.0), (1, 3, 0.0, INF)]

# The demo's normal form: nodes 2 and 3 hang from 1, nodes 4 and 5 from 3.
DEMO_PARENT = [0, 0, 1, 1, 3, 3]


def listed(values, parent):
    """A per-node list of the working state from a dict keyed by node, or
    by each edge's child; None where the dict has no entry."""
    out = [None] * len(parent)
    for v, value in values.items():
        out[v] = value
    return out


def written(values) -> dict:
    """A per-node list's written entries as a dict keyed by node, ascending."""
    return {v: value for v, value in enumerate(values) if value is not None}


def make_state(t, x, z, signs, parent=DEMO_PARENT):
    """A search state from x by node and duals z and signs by each edge's child."""
    state = ActiveSet(listed(signs, parent), parent, listed(x, parent), listed(z, parent))
    state.t = t
    return state


def start_state(solver, x=None):
    """The working state `Solver.solve` starts from, with x as a list
    (x[1] the root's unconstrained value unless x is given)."""
    parent = solver._parent
    if x is None:
        x = listed({1: solver._loss[1].inverse_derivative(0.0)}, parent)
    return ActiveSet(None, parent, x, [None] * len(parent))


def extend_fresh(solver, x, z, child):
    """Attach `child` to a pair built by hand, x by node and z by each
    edge's child: every prefix node counts as moved, so the search
    classifies all prefix edges, and the block's internal duals are
    written out before returning x and z as dicts of their written
    entries, with the record."""
    parent = solver._parent
    active = ActiveSet(None, parent, listed(x, parent), listed(z, parent))
    active.moved.update(range(1, child))
    x, z, record = solver.extend(child, active)
    if active.block is not None:
        active.block.flush()
    return written(x), written(z), record


def late_search_state():
    """The demo instance right before its final extension finishes.

    Prefix 1..4 equalized at 4, the fourth edge pinned strict after the
    first downward step, the new node parked at its unconstrained value.
    """
    x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0, 5: 0.0}
    z = {2: -2.0, 3: 2.0, 4: 4.0}
    signs = {2: EQ, 3: EQ, 4: LT}
    return make_state(0.0, x, z, signs)


def reference_moves(solver, state, s):
    """Every internal edge's move from state.t in direction s, by the
    edge's child, read from the keys of the block that validation builds
    afresh."""
    solver._check_view(state)
    ref = state.reference
    return {ref.edge_of(u)[0]: ref.move_to(v, state.t, s)
            for u, v in ref.keys[s].items()}


class TestBuildInitialActiveSet:
    def test_mixed_signs(self):
        x = {1: 3.0, 2: 3.0, 3: 2.0}
        active = build_initial_active_set(x, INF_EDGES)
        assert active.signs == {2: EQ, 3: GT}
        # A dict keyed by head, also where the solver's own signs are a
        # list: the benchmark's span hook counts them with len().
        assert type(active.signs) is dict

    def test_all_equal(self):
        x = {1: 5.0, 2: 5.0, 3: 5.0}
        active = build_initial_active_set(x, [(1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)])
        assert active.signs == {2: EQ, 3: EQ}

    def test_decreasing_chain(self):
        x = {1: 3.0, 2: 2.0, 3: 1.0}
        active = build_initial_active_set(x, [(1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)])
        assert active.signs == {2: GT, 3: GT}

    def test_near_equal_within_tolerance(self):
        x = {1: 1.0, 2: 1.0 + 1e-10}
        active = build_initial_active_set(x, [(1, 2, 1.0, 1.0)])
        assert active.signs == {2: EQ}

    def test_infeasible_gt_raises(self):
        x = {1: 3.0, 2: 2.0}
        with pytest.raises(CertificateError):
            build_initial_active_set(x, [(1, 2, INF, 0.0)])

    def test_infeasible_lt_raises(self):
        x = {1: 2.0, 2: 3.0}
        with pytest.raises(CertificateError):
            build_initial_active_set(x, [(1, 2, 0.0, INF)])

class TestComponentView:
    def test_late_view_aggregates(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        view = solver.build_component_view(state, anchor=3, s=1)
        assert set(view.nodes) == {1, 2, 3}
        assert set(view.duals_at(state.t)) == {2, 3}
        assert view.boundary_flow == 4.0
        assert {c: view.sub[view.far_end(c)][3] for c in view.duals_at(state.t)} == {
            2: 0.0, 3: 0.0}
        assert view.boundary_out == [4]
        assert view.boundary_in == []
        # The child above the block is listed only when the search moves up.
        view = solver.build_component_view(late_search_state(), anchor=3, s=-1)
        assert view.boundary_out == []

    def test_late_view_primal_curve(self):
        solver = Solver(make_demo_problem())
        view = solver.build_component_view(late_search_state(), anchor=3, s=-1)
        # x_B(t) = (12 + t) / 3
        assert view.value_at(0.0) == 4.0
        assert view.value_at(-3.0) == 3.0
        assert view.t_of_value(4.0) == 0.0
        assert view.t_of_value(3.0) == -3.0

    def test_late_view_dual_curves(self):
        solver = Solver(make_demo_problem())
        view = solver.build_component_view(late_search_state(), anchor=3, s=-1)
        # z_12(t) = -(t + 6)/3 and z_13(t) = (2t + 6)/3.
        at_zero = view.duals_at(0.0)
        assert at_zero[2] == pytest.approx(-2.0, abs=1e-12)
        assert at_zero[3] == pytest.approx(2.0, abs=1e-12)
        at_clip = view.duals_at(-3.0)
        assert at_clip[2] == pytest.approx(-1.0, abs=1e-12)
        assert at_clip[3] == pytest.approx(0.0, abs=1e-12)

    def test_consistency_at_current_parameter(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        view = solver.build_component_view(state, anchor=3, s=-1)
        assert view.value_at(state.t) == state.x[3]
        for c, value in view.duals_at(state.t).items():
            assert value == pytest.approx(state.z[c], abs=1e-12)

    def test_singleton_component(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0, 4: 8.0}
        z = {2: -1.0, 3: 0.0}
        state = make_state(0.0, x, z, {2: EQ, 3: GT})
        view = solver.build_component_view(state, anchor=3, s=-1)
        assert set(view.nodes) == {3}
        assert set(view.duals_at(state.t)) == set()
        assert view.boundary_flow == 0.0
        assert view.boundary_in == [3]
        assert view.duals_at(0.0) == {}

    def test_whole_prefix_component(self):
        solver = Solver(make_demo_problem())
        x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        z = {2: -2.0, 3: 2.0, 4: 4.0}
        state = make_state(0.0, x, z, {2: EQ, 3: EQ, 4: EQ})
        view = solver.build_component_view(state, anchor=3, s=-1)
        assert set(view.nodes) == {1, 2, 3, 4}
        assert view.boundary_flow == 0.0
        # x_B(t) = (16 + t)/4 and z_34(t) = 4 - t/4.
        assert view.value_at(0.0) == 4.0
        assert view.duals_at(0.0)[4] == pytest.approx(4.0, abs=1e-12)
        assert view.duals_at(-4.0)[4] == pytest.approx(5.0, abs=1e-12)

    def test_validation_catches_corrupted_duals(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        state.z[3] = 5.0
        view = solver.build_component_view(state, anchor=3, s=-1)
        with pytest.raises(InternalInvariantError):
            solver._check_anchor(state)

    def test_validation_catches_corrupted_primal(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        state.x[3] = 3.5
        view = solver.build_component_view(state, anchor=3, s=-1)
        with pytest.raises(InternalInvariantError):
            solver._check_anchor(state)


class TestThresholds:
    def test_downward_whole_prefix(self):
        solver = Solver(make_demo_problem())
        x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        z = {2: -2.0, 3: 2.0, 4: 4.0}
        state = make_state(0.0, x, z, {2: EQ, 3: EQ, 4: EQ})
        view = solver.build_component_view(state, anchor=3, s=-1)
        best = solver.thresholds_minus(state)
        # (3, 4) binds at the heap top; (1, 3) and (1, 2) wait below it.
        assert [view.edge_of(u)[0] for u in view.binding(-1)] == [4]
        moves = reference_moves(solver, state, -1)
        assert moves[4] == pytest.approx(0.0, abs=1e-12)
        assert moves[3] == pytest.approx(-4.0, abs=1e-12)
        assert moves[2] == pytest.approx(-8.0, abs=1e-12)
        assert view.boundary_out == [] and view.boundary_in == []
        assert best == pytest.approx(0.0, abs=1e-12)

    def test_downward_after_first_migration(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        view = solver.build_component_view(state, anchor=3, s=-1)
        best = solver.thresholds_minus(state)
        (u,) = view.binding(-1)
        assert view.edge_of(u)[0] == 3
        assert view.move_to(view.keys[-1][u], state.t, -1) == pytest.approx(-3.0, abs=1e-12)
        # (1, 2) waits below the heap top.
        moves = reference_moves(solver, state, -1)
        assert moves[2] == pytest.approx(-6.0, abs=1e-12)
        assert moves[3] == pytest.approx(-3.0, abs=1e-12)
        # The strict boundary edge (3,4) is in the wrong class for the
        # downward search, so the view lists no boundary edge.
        assert view.boundary_out == [] and view.boundary_in == []
        assert best == pytest.approx(-3.0, abs=1e-12)

    def test_infinite_bounds_give_sentinels(self):
        problem = Problem(
            normalize(DirectedTree(2, [(1, 2, INF, INF)])),
            [WeightedQuadratic(1.0, 4.0), WeightedQuadratic(1.0, 0.0)],
        )
        solver = Solver(problem)
        state = make_state(0.0, {1: 4.0, 2: 4.0}, {2: 1.0}, {2: EQ}, solver._parent)
        view = solver.build_component_view(state, anchor=1, s=-1)
        assert solver.thresholds_minus(state) == -INF
        view = solver.build_component_view(state, anchor=1, s=1)
        assert solver.thresholds_plus(state) == INF

    def test_upward_boundary_join(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0, 4: 8.0}
        z = {2: -1.0, 3: 0.0}
        state = make_state(0.0, x, z, {2: EQ, 3: GT})
        view = solver.build_component_view(state, anchor=3, s=1)
        best = solver.thresholds_plus(state)
        assert view.boundary_in == [3]
        assert view.move_to(state.x[1], state.t, 1) == pytest.approx(1.0, abs=1e-12)
        assert view.binding(1) == []  # no component edge binds
        assert best == pytest.approx(1.0, abs=1e-12)


class TestStepFunctions:
    def test_downward_threshold_step_migrates(self):
        solver = Solver(make_demo_problem())
        x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0, 5: 0.0}
        z = {2: -2.0, 3: 2.0, 4: 4.0}
        state = make_state(0.0, x, z, {2: EQ, 3: EQ, 4: EQ})
        view = solver.build_component_view(state, anchor=3, s=-1)
        result = solver.step_minus(state, 5)
        assert result is None
        assert state.t == 0.0
        assert state.signs[4] == LT
        assert state.z[4] == 4.0
        assert state.departed == {4}

    def test_downward_terminal_clip(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        state.departed.add(4)
        view = solver.build_component_view(state, anchor=3, s=-1)
        result = solver.step_minus(state, 5)
        assert result == -3.0
        # The block's value and internal duals are written out on demand.
        assert written(state.x) == {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0, 5: 1.0}
        assert view.value == 3.0
        view.flush()
        assert written(state.x) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 4.0, 5: 1.0}
        assert state.z[2] == pytest.approx(-1.0, abs=1e-12)
        assert state.z[3] == pytest.approx(0.0, abs=1e-12)
        assert state.z[4] == 4.0

    def test_upward_join_step(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0, 4: 8.0}
        z = {2: -1.0, 3: 0.0}
        state = make_state(0.0, x, z, {2: EQ, 3: GT})
        view = solver.build_component_view(state, anchor=3, s=1)
        result = solver.step_plus(state, 4)
        assert result is None
        assert state.t == 1.0
        assert state.signs[3] == EQ
        view.flush()  # members' x is written out on demand
        assert state.x[3] == pytest.approx(3.0, abs=1e-12)
        assert state.x[4] == pytest.approx(7.0, abs=1e-12)

    def test_upward_equilibrium_terminal(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 3.0, 4: 7.0}
        z = {2: -1.0, 3: 1.0}
        state = make_state(1.0, x, z, {2: EQ, 3: EQ})
        view = solver.build_component_view(state, anchor=3, s=1)
        result = solver.step_plus(state, 4)
        assert result == 4.0
        assert state.equilibrium_calls == 1
        view.flush()  # members' x is written out on demand
        assert written(state.x) == {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        assert state.z[2] == pytest.approx(-2.0, abs=1e-12)
        assert state.z[3] == pytest.approx(2.0, abs=1e-12)

    def test_churn_guard_blocks_rejoin(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0, 4: 8.0}
        z = {2: -1.0, 3: 0.0}
        state = make_state(0.0, x, z, {2: EQ, 3: GT})
        state.departed.add(3)
        view = solver.build_component_view(state, anchor=3, s=1)
        with pytest.raises(InternalInvariantError):
            solver.step_plus(state, 4)

    def test_second_equilibrium_guard(self):
        solver = Solver(make_demo_problem())
        state = make_state(0.0, {1: 4.0, 2: 0.0}, {}, {})
        state.equilibrium_calls = 1
        view = solver.build_component_view(state, anchor=1, s=-1)
        with pytest.raises(InternalInvariantError):
            solver.step_minus(state, 2)


class TestExtendTraces:
    """`extend` keeps z by each edge's child."""

    def test_two_node_equilibrium(self):
        solver = Solver(make_demo_problem())
        x, z = {1: 4.0}, {}
        x, z, rec = extend_fresh(solver, x, z, 2)
        assert x == {1: 3.0, 2: 3.0}
        assert z == {2: -1.0}
        assert (rec.branch, rec.iterations, rec.equilibrium_calls) == ("down", 1, 1)
        assert rec.t_star == -1.0
        assert rec.t_path == (0.0, -1.0)

    def test_zero_bound_fast_path(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0}
        z = {2: -1.0}
        x, z, rec = extend_fresh(solver, x, z, 3)
        assert x == {1: 3.0, 2: 3.0, 3: 2.0}
        assert z == {2: -1.0, 3: 0.0}
        assert (rec.branch, rec.iterations, rec.equilibrium_calls) == ("down", 0, 0)
        assert rec.t_star == 0.0

    def test_upward_two_phase(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0}
        z = {2: -1.0, 3: 0.0}
        x, z, rec = extend_fresh(solver, x, z, 4)
        assert x == {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        assert z == {2: -2.0, 3: 2.0, 4: 4.0}
        assert (rec.branch, rec.iterations, rec.equilibrium_calls) == ("up", 2, 1)
        assert rec.t_star == 4.0
        assert rec.t_path == (0.0, 1.0, 4.0)

    def test_downward_two_phase_with_clip(self):
        solver = Solver(make_demo_problem())
        x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        z = {2: -2.0, 3: 2.0, 4: 4.0}
        x, z, rec = extend_fresh(solver, x, z, 5)
        assert x == {1: 3.0, 2: 3.0, 3: 3.0, 4: 4.0, 5: 1.0}
        assert z[2] == pytest.approx(-1.0, abs=1e-12)
        assert z[3] == pytest.approx(0.0, abs=1e-12)
        assert z[4] == 4.0
        assert z[5] == -3.0
        assert (rec.branch, rec.iterations, rec.equilibrium_calls) == ("down", 2, 0)
        assert rec.t_path == (0.0, 0.0, -3.0)

    def test_flat_branch(self):
        problem = Problem(
            normalize(DirectedTree(2, [(1, 2, 1.0, 1.0)])),
            [WeightedQuadratic(1.0, 5.0), WeightedQuadratic(3.0, 5.0)],
        )
        x, z = {1: 5.0}, {}
        x, z, rec = extend_fresh(Solver(problem), x, z, 2)
        assert rec.branch == "flat"
        assert rec.iterations == 0
        assert x == {1: 5.0, 2: 5.0}
        assert z == {2: 0.0}

    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    def test_t_path_starts_at_zero_and_has_a_value_per_step(self, shape):
        _, _, stats = Solver(build_problem(*random_problem(shape, 120, 5, "mixed"))).solve()
        searched = 0
        for rec in stats.steps:
            assert type(rec.t_path) is tuple
            if rec.iterations == 0:
                assert rec.t_path == (0.0,)
            else:
                searched += 1
                assert len(rec.t_path) == rec.iterations + 1
                assert rec.t_path[0] == 0.0
                assert rec.t_path[-1] == rec.t_star
        assert 0 < searched < len(stats.steps)

    def test_step_records_take_no_new_attributes(self):
        _, _, stats = Solver(make_demo_problem()).solve()
        rec = stats.steps[0]
        rec.t_star = 2.0
        assert rec.t_star == 2.0
        with pytest.raises(AttributeError):
            rec.note = "extra"

    def test_carried_signs_checked_under_validation(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0}
        z = {2: -1.0, 3: 0.0}
        # x[1] > x[3], but the carried set still says EQ and marks no node moved.
        stale = make_state(0.0, x, z, {2: EQ, 3: EQ}, solver._parent)
        with pytest.raises(InternalInvariantError, match=r"\(1, 3\)"):
            solver.extend(4, stale, validate=True)

    def test_iteration_cap_guard(self, monkeypatch):
        solver = Solver(make_demo_problem())
        monkeypatch.setattr(Solver, "step_minus", lambda self, active, child: None)
        x, z = {1: 4.0}, {}
        with pytest.raises(InternalInvariantError, match="search steps"):
            extend_fresh(solver, x, z, 2)


class TestSolve:
    def test_demo_golden(self, demo_problem):
        x, z, stats = Solver(demo_problem).solve()
        for node, want in DEMO_X.items():
            assert x[node] == pytest.approx(want, abs=1e-8)
        for edge, want in DEMO_Z.items():
            assert z[edge] == pytest.approx(want, abs=1e-8)
        assert stats.final_residual <= 1e-8
        assert [r.branch for r in stats.steps] == ["down", "down", "up", "down"]
        assert [r.iterations for r in stats.steps] == [1, 0, 2, 2]
        assert [r.equilibrium_calls for r in stats.steps] == [1, 0, 1, 0]
        assert [r.t_star for r in stats.steps] == [-1.0, 0.0, 4.0, -3.0]

    def test_demo_intermediate_pairs(self, demo_problem):
        # The pair after node m is added solves the prefix problem on 1..m.
        x2, z2, _ = Solver(prefix_problem(demo_problem, 2)).solve()
        assert (x2, z2) == ({1: 3.0, 2: 3.0}, {(1, 2): -1.0})
        x3, z3, _ = Solver(prefix_problem(demo_problem, 3)).solve()
        assert (x3, z3) == ({1: 3.0, 2: 3.0, 3: 2.0}, {(1, 2): -1.0, (1, 3): 0.0})
        x4, z4, _ = Solver(prefix_problem(demo_problem, 4)).solve()
        assert x4 == {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        assert z4 == {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0}

    @pytest.mark.parametrize("loss_kind", ["quadratic", "mixed"])
    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    def test_each_extension_solves_its_prefix(self, shape, loss_kind, monkeypatch):
        # After node m is added, the pair (with the block's value and
        # internal duals read without writing them into x and z) is bit
        # for bit the solution of the prefix problem on 1..m, and so is
        # the extension's record.
        # Both keep z by child; the prefix solve returns it by edge.
        pairs = []
        real = Solver.extend

        def spy(self, child, active, validate=False):
            result = real(self, child, active, validate)
            x, z, block = written(active.x), written(active.z), active.block
            if block:  # members' values, read without writing them into x
                x = {**x, **dict.fromkeys(block.nodes, block.value)}
            duals = block._duals(block.toward, block.value) if block else {}
            by_edge = {(self._parent[c], c): v for c, v in {**z, **duals}.items()}
            pairs.append((hexed(x), hexed(by_edge), record_bits(result[2])))
            return result

        for seed in (1, 2, 3):
            problem = build_problem(*random_problem(shape, 40, seed, loss_kind))
            monkeypatch.setattr(Solver, "extend", spy)
            Solver(problem).solve()
            monkeypatch.undo()
            assert len(pairs) == 39
            for m, (x, z, rec) in enumerate(pairs, start=2):
                px, pz, stats = Solver(prefix_problem(problem, m)).solve()
                assert (x, z) == (hexed(px), hexed(pz)), m
                assert rec == record_bits(stats.steps[-1]), m
            pairs.clear()

    def test_demo_validated(self, demo_problem):
        x, _, _ = Solver(demo_problem).solve(validate=True)
        assert x[5] == pytest.approx(1.0, abs=1e-10)

    def test_search_ending_on_a_collision_reclassifies_the_frozen_edge(self):
        # Attaching node 3 lowers x[1] from 4 to exactly x[2] = 2, where the
        # search ends.  Edge (1, 2) was GT and is now EQ; it touches a moved
        # node only through node 1, and the next search must see the change.
        problem = Problem(
            normalize(DirectedTree(4, [(1, 2, 0.0, 0.0), (1, 3, 5.0, 5.0),
                                       (1, 4, 1.0, 1.0)])),
            [WeightedQuadratic(1.0, y) for y in (4.0, 2.0, 0.0, 10.0)],
        )
        x, z, stats = Solver(problem).solve(validate=True)
        assert x == {1: 2.5, 2: 2.0, 3: 2.5, 4: 9.0}
        assert [r.t_path for r in stats.steps] == [
            (0.0,), (0.0, -2.0), (0.0, 0.0, 1.0),
        ]

    @pytest.mark.parametrize("shape,n,loss_kind", [
        ("random", 1000, "quadratic"),
        ("star", 400, "quadratic"),
        ("chain", 600, "quadratic"),
        ("star", 300, "mixed"),
    ])
    def test_carried_active_set_validated_with_ties(self, shape, n, loss_kind):
        # Weights from {0, 0.5, 2, inf} tie many values, so whole groups
        # pool, split and pin; validation compares the carried signs with
        # a fresh classification before every search.
        tree, losses = random_problem(shape, n, 5, loss_kind)
        x, _, stats = Solver(build_problem(tree, losses)).solve(validate=True)
        assert stats.final_residual <= 1e-8
        assert stats.inner_iters_total > 0
        assert len(set(x.values())) < n

    @pytest.mark.parametrize("tol", [math.nan, -1.0, True, "1e-3", b"1"])
    def test_bad_tolerance_rejected(self, demo_problem, tol):
        with pytest.raises(ContractViolationError, match="tolerance"):
            Solver(demo_problem, tol)

    def test_tolerance_beyond_float_range_rejected(self, demo_problem):
        with pytest.raises(ContractViolationError, match="tolerance"):
            Solver(demo_problem, 10 ** 400)

    def test_single_node(self):
        problem = Problem(normalize(DirectedTree(1, [])), [WeightedQuadratic(2.0, 5.0)])
        x, z, stats = Solver(problem).solve()
        assert x == {1: 5.0}
        assert z == {}
        assert stats.final_residual == 0.0
        assert stats.steps == []

    def test_sorted_chain_is_untouched(self):
        targets = [1.0, 2.0, 3.0, 4.0, 5.0]
        problem = Problem(
            normalize(DirectedTree(5, [(i, i + 1, INF, 0.0) for i in range(1, 5)])),
            [WeightedQuadratic(1.0, y) for y in targets],
        )
        x, z, stats = Solver(problem).solve()
        assert [x[v] for v in range(1, 6)] == targets
        assert all(value == 0.0 for value in z.values())
        assert stats.inner_iters_total == 0

    def test_stats_totals(self, demo_problem):
        _, _, stats = Solver(demo_problem).solve()
        assert stats.inner_iters_total == 5
        assert stats.equilibrium_total == 2

    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    def test_duals_returned_by_edge_in_child_order(self, shape):
        # The solver keeps z by child and converts it once, at its return.
        problem = build_problem(*random_problem(shape, 60, 4, "mixed"))
        parent = problem.arb.parent
        x, z, _ = Solver(problem).solve()
        assert list(z) == [(parent[c], c) for c in range(2, 61)]
        # One sign per edge passed, whatever their labels (the benchmark
        # reads this length).
        edges = problem.weighted_edges()
        assert len(build_initial_active_set(x, edges).signs) == len(edges) == 59


def hub_problem(n, hubs, seed, loss_kind, dyadic):
    """A tree whose nodes past the first `hubs` hang off random hubs.

    The hubs form a chain, so hubs = 1 is a star and hubs > 1 a
    caterpillar; hubs = None gives every node a uniform random parent.
    Edges point either way.  Dyadic weights come from
    {0, 0.5, 2, inf}; the others are U[0, 3] or inf, so that sums of
    strict duals round.
    """
    rng = random.Random(seed)

    def weight():
        if dyadic:
            return rng.choice((0.0, 0.5, 2.0, INF))
        return INF if rng.random() < 0.2 else rng.uniform(0.0, 3.0)

    edges = []
    for child in range(2, n + 1):
        if hubs is None:
            parent = rng.randint(1, child - 1)
        else:
            parent = child - 1 if child <= hubs else rng.randint(1, hubs)
        lam, mu = weight(), weight()
        edges.append((child, parent, lam, mu) if rng.random() < 0.5
                     else (parent, child, lam, mu))
    losses = {}
    for v in range(1, n + 1):
        if loss_kind == "mixed" and rng.random() < 0.3:
            losses[v] = QuarticQuadratic(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                                         rng.uniform(-5.0, 5.0))
        else:
            losses[v] = WeightedQuadratic(rng.uniform(0.5, 3.0), rng.uniform(0.0, 10.0))
    return build_problem(DirectedTree(n, edges), losses)


class TestStrictChildIndex:
    """The per-node index of EQ children, strict-child flows and heaps.

    Under validation every search starts by comparing the index with the
    one built from a classification from scratch, x and z, and every step
    compares the boundary ties it took from the heaps with a scan of all
    members' children.
    """

    @pytest.mark.parametrize("hubs,n,loss_kind,dyadic", [
        (1, 300, "quadratic", True),
        (1, 300, "mixed", True),
        (1, 300, "quadratic", False),
        (1, 300, "mixed", False),
        (6, 300, "quadratic", True),
        (6, 300, "mixed", False),
    ])
    def test_high_degree_solves_validated(self, hubs, n, loss_kind, dyadic):
        problem = hub_problem(n, hubs, 17, loss_kind, dyadic)
        x, _, stats = Solver(problem).solve(validate=True)
        assert stats.final_residual <= 1e-8
        assert stats.inner_iters_total > n // 2

    @pytest.mark.parametrize("loss_kind", ["quadratic", "mixed"])
    def test_random_tree_non_dyadic_weights_validated(self, loss_kind):
        problem = hub_problem(300, None, 23, loss_kind, dyadic=False)
        _, _, stats = Solver(problem).solve(validate=True)
        assert stats.final_residual <= 1e-8

    @staticmethod
    def tied_leaves_problem(k):
        """A hub with k identical leaves, then a heavy leaf held level with it."""
        edges = [(1, c, 1.0, 1.0) for c in range(2, k + 2)] + [(1, k + 2, INF, INF)]
        losses = ([WeightedQuadratic(1.0, 10.0)] + [WeightedQuadratic(1.0, 0.0)] * k
                  + [WeightedQuadratic(10.0, -20.0)])
        return Problem(normalize(DirectedTree(k + 2, edges)), losses)

    def test_tied_children_join_in_one_step(self):
        # Four identical leaves end their extensions pinned at 1.0 below
        # the hub.  A heavy fifth leaf then pulls the hub down onto all four
        # at t = -5, and that one step joins the whole run from the heap
        # top; joining one leaf per step would add three zero-length steps.
        k = 4
        x, _, stats = Solver(self.tied_leaves_problem(k)).solve(validate=True)
        assert [x[v] for v in range(2, k + 2)] == [-1.0] * k
        assert stats.steps[-1].t_path[:3] == (0.0, -5.0, -15.0)
        assert stats.steps[-1].iterations == 3

    def test_corrupted_heap_entry_detected(self):
        problem = hub_problem(60, 1, 3, "quadratic", dyadic=True)
        solver = Solver(problem)
        active = start_state(solver)
        children = iter(range(2, problem.arb.node_count + 1))
        for child in children:
            solver.extend(child, active, validate=True)
            if any(active.strict[GT][1]):
                break
        heap = active.strict[GT][1]
        key, c = heap[0]
        heap[0] = (key - 1.0, c)  # the child now looks 1.0 higher than it is
        with pytest.raises(InternalInvariantError, match="heap"):
            for child in children:
                solver.extend(child, active, validate=True)

    def test_lost_tied_child_detected(self, monkeypatch):
        # The index is checked when a search starts, so the hub's heap of
        # the four tied leaves loses all but its top after that, in the
        # search that joins them: the run from the top then stops after
        # one leaf, and the scan of every child finds all four.
        k = 4
        real = Solver.build_component_view

        def corrupt(self, state, anchor, s):
            view = real(self, state, anchor, s)
            heap = state.strict[GT][1]
            if len(heap) == k:
                del heap[1:]
            return view

        monkeypatch.setattr(Solver, "build_component_view", corrupt)
        with pytest.raises(InternalInvariantError, match="boundary ties from the heaps"):
            Solver(self.tied_leaves_problem(k)).solve(validate=True)

    def test_lost_nearest_child_detected(self, monkeypatch):
        # Two leaves end their extensions strict below the hub at -1 and
        # -5, and a heavy third leaf then pulls the hub down onto both.
        # Once the search's index check has passed, the hub's heap loses
        # its top, leaf -1: the view lists leaf -5 instead, and the scan
        # of every child finds the boundary move to -1 nearer.
        edges = [(1, 2, 1.0, 1.0), (1, 3, 1.0, 1.0), (1, 4, INF, INF)]
        losses = [WeightedQuadratic(1.0, 10.0), WeightedQuadratic(1.0, 0.0),
                  WeightedQuadratic(1.0, -4.0), WeightedQuadratic(10.0, -20.0)]
        problem = Problem(normalize(DirectedTree(4, edges)), losses)
        real = Solver.build_component_view

        def corrupt(self, state, anchor, s):
            heap = state.strict[GT][1]
            if len(heap) == 2:
                heapq.heappop(heap)
            return real(self, state, anchor, s)

        monkeypatch.setattr(Solver, "build_component_view", corrupt)
        with pytest.raises(InternalInvariantError, match="binding boundary edge move"):
            Solver(problem).solve(validate=True)


def falling_chain(n, lam, seed):
    """A chain 1 -> 2 -> ... -> n whose targets fall, with noise.

    Each node attaches below the last, so the block's anchor sits at the
    bottom and the path from the top down to it covers the whole block.
    """
    rng = random.Random(seed)
    targets = [10.0 - 10.0 * k / n + rng.gauss(0.0, 0.5) for k in range(n)]
    weights = [rng.uniform(0.5, 3.0) for _ in range(n)]
    tree = DirectedTree(n, [(i, i + 1, lam, 0.0) for i in range(1, n)])
    losses = {v: WeightedQuadratic(weights[v - 1], targets[v - 1])
              for v in range(1, n + 1)}
    return build_problem(tree, losses), targets, weights


class TestPersistentBlock:
    """The moving block carried across steps and extensions.

    Under validation every step compares the carried block with one built
    afresh (members, subtree sums, keys, rim), and its binding component
    edge and their tie run with a scan of that block's keys.
    """

    def test_falling_hard_isotonic_chain_matches_pava(self):
        problem, targets, weights = falling_chain(300, INF, 41)
        x, _, stats = Solver(problem).solve(validate=True)
        assert stats.final_residual <= 1e-8
        fitted = pava(targets, weights=weights)
        label = problem.arb.original_label
        for v, value in x.items():
            want = fitted[label[v] - 1]
            assert abs(value - want) <= 1e-9 * (1.0 + abs(want))
        # Most of the chain pools: the search ends in one block of many nodes.
        assert len(set(x.values())) < 60

    def test_rim_members_keep_a_strict_child(self, monkeypatch):
        # A member stays in the rim while one of its heaps holds a fresh
        # entry; one whose entries have all gone stale is dropped.
        bare = []
        real = Solver.extend

        def spy(self, child, active, validate=False):
            result = real(self, child, active, validate)
            if active.block is not None:
                bare.extend(v for v in active.block.rim
                            if not (active.fresh_entries(v, LT)
                                    or active.fresh_entries(v, GT)))
            return result

        monkeypatch.setattr(Solver, "extend", spy)
        problem, _, _ = falling_chain(300, INF, 41)
        Solver(problem).solve()
        assert bare == []

    def test_deep_anchor_at_scale_matches_pava(self):
        # Far beyond the enumeration oracle's cap: every step anchors at
        # the bottom of one block about 2,000 members deep.
        problem, targets, weights = falling_chain(2000, INF, 47)
        x, _, stats = Solver(problem).solve()
        assert stats.final_residual <= 1e-8
        fitted = pava(targets, weights=weights)
        label = problem.arb.original_label
        for v, value in x.items():
            want = fitted[label[v] - 1]
            assert abs(value - want) <= 1e-9 * (1.0 + abs(want))

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_falling_soft_chain_splits_above_the_anchor(self, lam, monkeypatch):
        # With a finite lambda the upper part of a block can split off: the
        # departing edge's far half lies above it, on its parent's side.
        departed = []
        real = ComponentView._depart

        def spy(view, c, d):
            departed.append(view.far_end(c) == view._parent[c])
            return real(view, c, d)

        monkeypatch.setattr(ComponentView, "_depart", spy)
        problem, _, _ = falling_chain(300, lam, 43)
        _, _, stats = Solver(problem).solve(validate=True)
        assert stats.final_residual <= 1e-8
        assert any(departed)

    def test_caterpillar_anchor_moves_inside_one_block(self, monkeypatch):
        # A hard-equality spine stays one block; leaves hang off every spine
        # node, so successive searches anchor at different spine nodes of
        # the same carried block.
        rng = random.Random(7)
        spine = 8
        n = 200
        edges = [(i, i + 1, INF, INF) for i in range(1, spine)]
        for child in range(spine + 1, n + 1):
            edges.append((rng.randint(1, spine), child,
                          rng.choice((0.5, 2.0, rng.uniform(0.0, 3.0))),
                          rng.choice((0.5, 2.0, rng.uniform(0.0, 3.0)))))
        losses = {v: WeightedQuadratic(rng.uniform(0.5, 3.0), rng.uniform(0.0, 10.0))
                  for v in range(1, n + 1)}
        problem = build_problem(DirectedTree(n, edges), losses)
        moved_inside = []
        real = Solver.build_component_view

        def spy(self, state, anchor, s):
            block = state.block
            if block is not None and anchor in block.nodes:
                moved_inside.append(block.anchor != anchor)
            return real(self, state, anchor, s)

        monkeypatch.setattr(Solver, "build_component_view", spy)
        x, _, stats = Solver(problem).solve(validate=True)
        assert stats.final_residual <= 1e-8
        assert sum(moved_inside) >= spine - 2
        label = problem.arb.original_label
        assert len({x[v] for v in x if label[v] <= spine}) == 1

    def test_mixed_star_validated(self):
        problem = hub_problem(400, 1, 29, "mixed", dyadic=True)
        x, _, stats = Solver(problem).solve(validate=True)
        assert stats.final_residual <= 1e-8
        assert stats.inner_iters_total > 200
        hub_value = x[1]
        assert sum(value == hub_value for value in x.values()) > 10

    @staticmethod
    def solve_after_corrupting(corrupt):
        """Solve a star, validated, corrupting its block once it has more
        than two members."""
        problem = hub_problem(60, 1, 3, "quadratic", dyadic=True)
        solver = Solver(problem)
        active = start_state(solver)
        children = iter(range(2, problem.arb.node_count + 1))
        for child in children:
            solver.extend(child, active, validate=True)
            block = active.block
            if block is not None and len(block.nodes) > 2:
                break
        corrupt(block)
        for child in children:
            solver.extend(child, active, validate=True)

    def test_stale_subtree_sum_detected(self):
        def corrupt(block):
            leaf = next(u for u in block.nodes if u != block.top)
            block.sub[leaf][1] *= 2.0  # the leaf's subtree now weighs double

        with pytest.raises(InternalInvariantError, match="sums or keys of member"):
            self.solve_after_corrupting(corrupt)

    def test_wrong_neighbour_towards_anchor_detected(self):
        def corrupt(block):
            leaf, other = sorted(u for u in block.nodes if u != block.anchor)[:2]
            block.toward[leaf] = other  # the leaf now hangs from another leaf

        with pytest.raises(InternalInvariantError, match="wrong neighbour"):
            self.solve_after_corrupting(corrupt)

    def test_emptied_key_heaps_detected(self):
        def corrupt(block):
            for heap in block.heaps.values():
                heap.clear()  # the keys stay; their heap entries are gone

        with pytest.raises(InternalInvariantError, match="binding component edge move"):
            self.solve_after_corrupting(corrupt)

    def test_lost_tied_edge_detected(self):
        # Two identical leaves pool with the hub in upward searches, so
        # their edges carry equal keys, and a fourth node then lifts the
        # block until both edges bind at once.  Emptied before that search,
        # the upward heap is refilled only with the leaf that joins then:
        # its top is right, but its run of ties holds one edge of the two.
        edges = [(1, 2, 3.0, INF), (1, 3, 3.0, INF), (1, 4, 0.0, INF)]
        losses = [WeightedQuadratic(1.0, 10.0), WeightedQuadratic(1.0, 14.0),
                  WeightedQuadratic(1.0, 14.0), WeightedQuadratic(1.0, 40.0)]
        problem = Problem(normalize(DirectedTree(4, edges)), losses)
        solver = Solver(problem)
        active = start_state(solver)
        for child in (2, 3):
            solver.extend(child, active, validate=True)
        assert active.block.keys[1] == {2: 17.0}
        active.block.heaps[1].clear()
        with pytest.raises(InternalInvariantError, match="component edges tied in the heap"):
            solver.extend(4, active, validate=True)


class CountingList(list):
    """A list that counts the values written into it by index."""

    def __init__(self, *args):
        super().__init__(*args)
        self.writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


class TestMemberWrites:
    """The block owns its members' value: a step moves it without
    writing the members' x, which is written when a member leaves the
    block, when the block is written out and where the search reads it."""

    def test_member_writes_grow_linearly_on_a_star(self):
        # Each extension writes its node's x once and again per step
        # (about 2.1 per node here), and members are written about 2.6
        # times per node, mostly the hub when a search starts.  Writing
        # every member on every step would write about 340 values per
        # node: the hub's block holds hundreds.
        n = 2000
        problem = build_problem(*random_problem("star", n, 7))
        solver = Solver(problem)
        x = CountingList(listed({1: problem.loss_of(1).inverse_derivative(0.0)},
                                solver._parent))
        active = start_state(solver, x)
        for child in range(2, n + 1):
            solver.extend(child, active)
        active.block.flush()
        assert x.writes <= 6 * n
        plain, _, _ = Solver(problem).solve()
        assert hexed(written(x)) == hexed(plain)

    def test_members_read_their_value_through_the_block(self):
        # After a step, a member's x still holds what it held before;
        # `value_of` and a written copy under validation read the block's.
        problem = build_problem(*random_problem("star", 300, 7))
        solver = Solver(problem)
        active = start_state(solver)
        x = active.x
        stale = []
        for child in range(2, 301):
            solver.extend(child, active, validate=True)
            block = active.block
            if block is not None:
                assert all(active.value_of(u) == active.full[u] == block.value
                           for u in block.nodes)
                stale.extend(u for u in block.nodes if x[u] != block.value)
        assert stale

    def test_corrupted_block_value_detected(self):
        def corrupt(block):
            block.value += 1.0  # every member now reads 1.0 higher

        with pytest.raises(InternalInvariantError, match="fully written copy"):
            TestPersistentBlock.solve_after_corrupting(corrupt)

    def test_stale_member_read_detected(self):
        def corrupt(block):
            # A member that has not just joined reads its own x, as if it had.
            member = next(u for u in block.nodes if u != block.anchor)
            block._active.x[member] += 1.0
            block.joined.add(member)

        with pytest.raises(InternalInvariantError, match="fully written copy"):
            TestPersistentBlock.solve_after_corrupting(corrupt)

    def test_member_left_unwritten_detected(self, monkeypatch):
        # A half that departs but keeps its members' old x leaves stale
        # values outside the block, which the next search's check reads.
        real = ComponentView._depart

        def unwritten(view, c, d):
            half = view._far(view.far_end(c))
            before = {u: view._active.x[u] for u in half}
            real(view, c, d)
            for u, value in before.items():
                view._active.x[u] = value

        monkeypatch.setattr(ComponentView, "_depart", unwritten)
        with pytest.raises(InternalInvariantError, match="fully written copy"):
            Solver(falling_chain(300, 0.5, 43)[0]).solve(validate=True)


class TestValidationReference:
    """Under validation each search classifies the prefix from scratch
    once, and each step builds one fresh block, `state.reference`."""

    def test_one_fresh_build_per_step(self, monkeypatch):
        built = {ComponentView: 0, ActiveSet: 0}
        for cls in built:
            def counted(self, *args, _cls=cls, _init=cls.__init__):
                built[_cls] += 1
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        problem = hub_problem(60, 1, 3, "quadratic", dyadic=True)
        _, _, stats = Solver(problem).solve(validate=True)
        searches = sum(rec.iterations > 0 for rec in stats.steps)
        assert searches > 20
        # One block carried through the solve, plus one reference per step.
        assert built[ComponentView] == 1 + stats.inner_iters_total
        # The solve's active set, plus per search the reclassified edges'
        # signs and the classification from scratch.
        assert built[ActiveSet] == 1 + 2 * searches


def answer_bits(x, z, stats) -> tuple:
    """x and z as (key, bits) pairs in their order, every step record and
    the final residual, floats by their bits."""
    return (list(hexed(x).items()), list(hexed(z).items()),
            [record_bits(rec) for rec in stats.steps], stats.final_residual.hex())


class TestValidationObservesOnly:
    """Validation and the search's fields share the solve's working state:
    a validated solve, a solve and a second solve on the same `Solver`
    give the same answer, bit for bit and in the same key order."""

    @staticmethod
    def check(problem):
        validated = answer_bits(*Solver(problem).solve(validate=True))
        solver = Solver(problem)
        assert answer_bits(*solver.solve()) == validated
        assert answer_bits(*solver.solve()) == validated

    @pytest.mark.parametrize("loss_kind", ["quadratic", "mixed"])
    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    def test_generated_instances(self, shape, loss_kind):
        self.check(build_problem(*random_problem(shape, 300, 11, loss_kind)))

    def test_falling_chain(self):
        self.check(falling_chain(2000, INF, 47)[0])


class TestNoCyclicGarbage:
    """A returning solve frees its working state by reference counting:
    the block and the validation reference, which point back at the active
    set, are dropped before `solve` returns, so nothing is left for the
    cyclic collector."""

    @staticmethod
    def check(problem, validate):
        gc.collect()
        gc.disable()
        try:
            Solver(problem).solve(validate=validate)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("validate", [False, True])
    @pytest.mark.parametrize("loss_kind", ["quadratic", "mixed"])
    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    def test_generated_instances(self, shape, loss_kind, validate):
        self.check(build_problem(*random_problem(shape, 300, 11, loss_kind)), validate)

    @pytest.mark.parametrize("validate", [False, True])
    def test_falling_chain(self, validate):
        self.check(falling_chain(500, INF, 47)[0], validate)


class TestMirrorSymmetry:
    """Reflecting x to -x and swapping (lambda, mu) mirrors every search."""

    @staticmethod
    def reflect(tree, losses):
        edges = [(i, j, mu, lam) for i, j, lam, mu in tree.edges]
        mirrored = {}
        for v, loss in losses.items():
            if isinstance(loss, WeightedQuadratic):
                mirrored[v] = WeightedQuadratic(loss.w, -loss.y)
            else:
                mirrored[v] = QuarticQuadratic(loss.a, loss.b, -loss.c)
        return DirectedTree(tree.node_count, edges), mirrored

    @pytest.mark.parametrize("loss_kind", ["quadratic", "mixed"])
    @pytest.mark.parametrize("shape", ["chain", "star", "random"])
    def test_reflected_solve_is_exact_mirror(self, shape, loss_kind):
        swap = {"down": "up", "up": "down", "flat": "flat"}
        for seed in range(10):
            tree, losses = random_problem(shape, 150, seed, loss_kind)
            x, z, stats = Solver(build_problem(tree, losses)).solve()
            xr, zr, stats_r = Solver(build_problem(*self.reflect(tree, losses))).solve()
            assert xr == {v: -value for v, value in x.items()}
            assert zr == {e: -value for e, value in z.items()}
            assert len(stats_r.steps) == len(stats.steps)
            for rec, mirror in zip(stats.steps, stats_r.steps):
                assert mirror.node == rec.node
                assert mirror.branch == swap[rec.branch]
                assert mirror.iterations == rec.iterations
                assert mirror.equilibrium_calls == rec.equilibrium_calls
                assert mirror.t_path == tuple(-t for t in rec.t_path)


class TestTinyWeights:
    """Unit-scale trees with 1e-9 weights, which absolute tolerances fail.

    Both were found by a fuzz of small trees with weights from {0, 1e-9,
    0.5, 1, 2, 3, inf}.  The markers are strict: a fix of the tolerances
    makes these tests pass, and then the markers must go.
    """

    @staticmethod
    def nine_node():
        tree = DirectedTree(9, [
            (1, 2, 1, 3), (1, 3, 3, 1), (4, 3, 1e-9, 0), (1, 5, 3, 1e-9),
            (6, 5, 1e-9, 2), (5, 7, 0, INF), (7, 8, 3, 1), (9, 6, 1e-9, INF),
        ])
        weighted_targets = [(3, 4), (3, 1), (1, 4), (3, 4), (3, 2), (2, 3), (3, 1),
                            (1, 4), (3, 2)]
        losses = {v: WeightedQuadratic(w, y)
                  for v, (w, y) in enumerate(weighted_targets, start=1)}
        return build_problem(tree, losses, 4)

    @staticmethod
    def six_node():
        tree = DirectedTree(6, [
            (1, 2, 2, 0.5), (3, 1, 3, 0), (4, 1, 1e-9, 2), (5, 3, 0, INF),
            (6, 4, INF, 1),
        ])
        losses = {v: WeightedQuadratic(1, y)
                  for v, y in enumerate([3, 0, 4, 1, 1, 4], start=1)}
        return build_problem(tree, losses, 6)

    @pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                       reason="MONO_SLACK is absolute: t decreased in upward search "
                              "by 2.2e-10 (ROADMAP item 4)")
    def test_nine_node_solves(self):
        Solver(self.nine_node()).solve()

    def test_six_node_certifies_unvalidated(self):
        _, _, stats = Solver(self.six_node()).solve()
        assert stats.final_residual == 0.0

    @pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                       reason="EQ_RTOL pools values that ANCHOR_RTOL tells apart: "
                              "component value 2.5 disagrees with stored "
                              "2.5000000015000001 (ROADMAP item 4)")
    def test_six_node_solves_validated(self):
        Solver(self.six_node()).solve(validate=True)

    @staticmethod
    def three_node():
        """The smallest tree the differential fuzz found with a tiny loss
        weight (ROADMAP item 15)."""
        tree = DirectedTree(3, [(1, 2, 2, 2), (1, 3, 0, 2)])
        losses = {1: WeightedQuadratic(1e-9, 1), 2: WeightedQuadratic(1, 2),
                  3: WeightedQuadratic(1e-9, 2)}
        return build_problem(tree, losses)

    @pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                       reason="equilibrium step left a value gap at loss "
                              "weight 1e-9 (ROADMAP item 15)")
    def test_three_node_solves(self):
        Solver(self.three_node()).solve()

    def test_three_node_oracle_pools_all(self):
        x, _, _ = enumerate_optimum(self.three_node())
        assert sorted(x) == [1, 2, 3]
        assert all(abs(value - 2.0) <= 1e-6 for value in x.values())


def abs_max_residual(edges, loss_of, x, z):
    """`kkt_residual` as written with abs() and max(), without the
    missing-key checks: the inline form must return the same bits."""
    balance = {v: 0.0 for v in x}
    edge_term = 0.0
    for i, j, lam, mu in edges:
        value = z[(i, j)]
        xi, xj = x[i], x[j]
        balance[i] += value
        balance[j] -= value
        dist = 0.0
        if value > mu:
            dist += value - mu
        if value < -lam:
            dist += -lam - value
        if not abs(xi - xj) <= EQ_RTOL * (1.0 + max(abs(xi), abs(xj))):
            forced = -lam if xi > xj else mu
            dist += abs(value - forced)
        if dist > edge_term:
            edge_term = dist
        elif dist != dist:
            return math.nan
    node_term = 0.0
    for v, xv in x.items():
        term = abs(balance[v] - loss_of(v).derivative(xv))
        if term > node_term:
            node_term = term
        elif term != term:
            return math.nan
    return node_term + edge_term


def boundary_pair(rng):
    """(xi, xj) whose gap is exactly the EQ_RTOL tie tolerance: near zero,
    where the tolerance is a sum that rounds back to itself."""
    while True:
        base = rng.choice([0.0, -0.0, rng.uniform(-4e-9, 4e-9)])
        tie = EQ_RTOL * (1.0 + abs(base))
        for _ in range(3):
            other = base + tie
            tie = EQ_RTOL * (1.0 + max(abs(base), abs(other)))
            if abs(other - base) == tie:
                return (other, base) if rng.random() < 0.5 else (base, other)


def residual_case(rng):
    """A random tree's edges, losses, x and z for `kkt_residual`, and the
    kinds of input it holds: exact ties, pairs at the tie tolerance, signed
    zeros, infinite weights, NaN in x or z."""
    special = (0.0, -0.0, 1.0, -1.0, 1e300, -1e300, INF, -INF)
    weights = (0.0, -0.0, 0.5, 1.0, 2.0, INF)

    def value(nan_rate):
        draw = rng.random()
        if draw < nan_rate:
            return math.nan
        if draw < 0.3:
            return rng.choice(special)
        return rng.uniform(-5.0, 5.0)

    n = rng.randint(2, 9)
    x = {v: value(0.02) for v in rng.sample(range(1, n + 1), n)}
    edges, z = [], {}
    for c in range(2, n + 1):
        p = rng.randint(1, c - 1)
        i, j = (p, c) if rng.random() < 0.5 else (c, p)
        draw = rng.random()
        if draw < 0.2:
            x[j] = x[i]
        elif draw < 0.4:
            x[i], x[j] = boundary_pair(rng)
        edges.append((i, j, rng.choice(weights), rng.choice(weights)))
        z[(i, j)] = value(0.02)
    losses = {v: WeightedQuadratic(rng.uniform(0.5, 3.0), rng.uniform(-5.0, 5.0))
              if rng.random() < 0.7 else QuarticQuadratic(1.0, rng.choice((0.0, 0.5)), 1.0)
              for v in x}
    kinds = set()
    for i, j, lam, mu in edges:
        xi, xj = x[i], x[j]
        if xi == xj:
            kinds.add("tie")
        if abs(xi - xj) == EQ_RTOL * (1.0 + max(abs(xi), abs(xj))):
            kinds.add("boundary")
        if INF in (lam, mu):
            kinds.add("inf_weight")
        if math.isnan(z[(i, j)]):
            kinds.add("nan_z")
    if any(v == 0.0 for v in x.values()):
        kinds.add("zero")
    if any(math.isnan(v) for v in x.values()):
        kinds.add("nan_x")
    return edges, losses.__getitem__, x, z, kinds


class TestCertificates:
    @staticmethod
    def two_node():
        losses = {1: WeightedQuadratic(1.0, 1.0), 2: WeightedQuadratic(1.0, 1.0)}
        return DirectedTree(2, [(1, 2, 1.0, 1.0)]).edges, losses.__getitem__

    def test_missing_dual_or_value_raises_contract_violation(self):
        edges, loss_of = self.two_node()
        with pytest.raises(ContractViolationError, match=r"dual for edge \(1, 2\)"):
            kkt_residual(edges, loss_of, {1: 1.0, 2: 1.0}, {})
        for x, node in (({1: 1.0}, 2), ({2: 1.0}, 1)):
            missing = "no value for node %d" % node
            with pytest.raises(ContractViolationError, match=missing):
                kkt_residual(edges, loss_of, x, {(1, 2): 0.0})
            with pytest.raises(ContractViolationError, match=missing):
                objective_value(edges, loss_of, x)

    @pytest.mark.parametrize("node", [99, 6, 0, -1])
    def test_node_the_problem_lacks_raises_contract_violation(self, demo_problem, node):
        # Problem.loss_of knows nodes 1..5 only; the error names the node.
        edges, loss_of = demo_problem.weighted_edges(), demo_problem.loss_of
        x = {**DEMO_X, node: 1.0}
        match = r"no loss for node %d: the problem's nodes are 1\.\.5" % node
        with pytest.raises(ContractViolationError, match=match):
            kkt_residual(edges, loss_of, x, DEMO_Z)
        with pytest.raises(ContractViolationError, match=match):
            objective_value(edges, loss_of, x)
        with pytest.raises(ContractViolationError, match=match):
            loss_of(node)
        assert kkt_residual(edges, loss_of, DEMO_X, DEMO_Z) <= 1e-12

    def test_key_error_inside_loss_of_is_not_relabelled(self):
        edges, _ = self.two_node()
        x, z = {1: 1.0, 2: 1.0}, {(1, 2): 0.0}
        with pytest.raises(KeyError):
            kkt_residual(edges, {}.__getitem__, x, z)
        with pytest.raises(KeyError):
            objective_value(edges, {}.__getitem__, x)
        assert kkt_residual(edges, self.two_node()[1], x, z) == 0.0

    def test_golden_pair_near_zero_residual(self, demo_problem):
        residual = kkt_residual(demo_problem.weighted_edges(), demo_problem.loss_of,
                                DEMO_X, DEMO_Z)
        assert residual <= 1e-12

    def test_perturbed_primal_detected(self, demo_problem):
        x = dict(DEMO_X)
        x[1] += 0.1
        assert kkt_residual(demo_problem.weighted_edges(), demo_problem.loss_of,
                            x, DEMO_Z) >= 0.1

    def test_perturbed_dual_detected(self, demo_problem):
        z = dict(DEMO_Z)
        z[(3, 4)] = 5.0  # above the box end mu = 4
        residual = kkt_residual(demo_problem.weighted_edges(), demo_problem.loss_of,
                                DEMO_X, z)
        assert residual >= 1.0

    # max() and `dist > best` skip a NaN unless it comes first, so these
    # NaN terms come after a finite one.
    def test_nan_primal_is_not_certified(self):
        losses = {v: WeightedQuadratic(1.0, 0.0) for v in (1, 2, 3)}
        x = {1: 0.0, 2: 0.0, 3: math.nan}
        z = {(1, 2): 0.0, (1, 3): 0.0}
        edges = [(1, 2, 1.0, 1.0), (1, 3, 0.0, 0.0)]
        assert math.isnan(kkt_residual(edges, losses.__getitem__, x, z))

    def test_nan_dual_is_not_certified(self):
        losses = {v: WeightedQuadratic(1.0, 0.0) for v in (1, 2, 3)}
        x = {1: 0.0, 2: 0.0, 3: 0.0}
        z = {(1, 2): 0.0, (2, 3): math.nan}
        edges = [(1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)]
        assert math.isnan(kkt_residual(edges, losses.__getitem__, x, z))

    def test_residual_bit_for_bit_as_written_with_abs_and_max(self):
        rng = random.Random(2024)
        seen = dict.fromkeys(("tie", "boundary", "zero", "inf_weight", "nan_x", "nan_z",
                              "nan_result", "finite_result"), 0)
        for _ in range(200):
            edges, loss_of, x, z, kinds = residual_case(rng)
            for kind in kinds:
                seen[kind] += 1
            got = kkt_residual(iter(edges), loss_of, x, z)
            want = abs_max_residual(edges, loss_of, x, z)
            assert struct.pack("<d", got) == struct.pack("<d", want), (edges, x, z)
            seen["nan_result" if math.isnan(got) else "finite_result"] += 1
        assert all(seen.values()), seen

    def test_every_tie_decision_is_values_equal(self):
        # The rule written out here, apart from `values_equal`, judges every
        # edge of the same 200 cases: classification, the search's side
        # test and the objective's hard edges must all tie exactly where it
        # does, at the tolerance boundary, on signed zeros, infinities and NaN.
        class Flat:
            def value(self, v):
                return 0.0

        rng = random.Random(2024)
        seen = dict.fromkeys(("equal", "apart", "boundary", "nan"), 0)
        for _ in range(200):
            edges, _, x, _, _ = residual_case(rng)
            for i, j, lam, mu in edges:
                xi, xj = x[i], x[j]
                gap = xi - xj
                tie = EQ_RTOL * (1.0 + max(abs(xi), abs(xj)))
                equal = abs(gap) <= tie
                seen["equal" if equal else "apart"] += 1
                seen["boundary"] += abs(gap) == tie
                seen["nan"] += math.isnan(gap)
                assert values_equal(xi, xj) is equal, (xi, xj)
                try:
                    sign = classify(x, [(i, j, lam, mu)])[j]
                except CertificateError:  # a strict order the weights forbid
                    sign = None
                assert (sign == EQ) is equal, (xi, xj, lam, mu)
                for side in (1, -1):
                    assert _keeps_side(side, xi, xj) is (side * gap > 0 and not equal)
                if not math.isnan(gap):  # otherwise no side is violated
                    objective = objective_value([(1, 2, INF, INF)], lambda v: Flat(),
                                                {1: xi, 2: xj})
                    assert (objective == INF) is not equal, (xi, xj)
        assert all(seen.values()), seen

    def test_nan_residual_fails_the_solve_gate(self, demo_problem, monkeypatch):
        monkeypatch.setattr(treeiso.solver, "kkt_residual", lambda *args: math.nan)
        with pytest.raises(CertificateError):
            Solver(demo_problem).solve()

    def test_objective_at_golden(self, demo_problem):
        assert objective_value(demo_problem.weighted_edges(), demo_problem.loss_of,
                               DEMO_X) == pytest.approx(
            DEMO_OBJECTIVE, abs=1e-12)

    def test_objective_hard_violation_is_infinite(self, demo_problem):
        x = dict(DEMO_X)
        x[2] = 2.0  # x_1 > x_2 against lambda = inf on (1, 2)
        assert objective_value(demo_problem.weighted_edges(), demo_problem.loss_of,
                               x) == INF

    def test_solver_objective_not_above_random_feasible_points(self, demo_problem):
        rng = random.Random(11)
        x_opt, _, _ = Solver(demo_problem).solve()
        edges, loss_of = demo_problem.weighted_edges(), demo_problem.loss_of
        best = objective_value(edges, loss_of, x_opt)
        for _ in range(200):
            base = rng.uniform(-2.0, 9.0)
            cand = {1: base, 2: base + rng.uniform(0.0, 3.0)}
            cand[3] = rng.uniform(-2.0, 9.0)
            cand[4] = rng.uniform(-2.0, 9.0)
            cand[5] = rng.uniform(-2.0, 9.0)
            if rng.random() < 0.5:
                cand[3] = max(cand[3], cand[1])  # keep (1,3) feasible sometimes
            value = objective_value(edges, loss_of, cand)
            assert value >= best - 1e-9
