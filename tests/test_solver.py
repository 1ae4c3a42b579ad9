"""Solver core: active sets, component views, thresholds, search steps."""

import math
import random

import pytest

from conftest import DEMO_OBJECTIVE, DEMO_X, DEMO_Z, make_demo_problem
from treeiso.cli import build_problem, random_problem
from treeiso.errors import CertificateError, ContractViolationError, InternalInvariantError
from treeiso.loss import LossGroup, QuarticQuadratic, WeightedQuadratic
from treeiso.solver import (
    EQ,
    GT,
    LT,
    ActiveSet,
    Problem,
    PrimalDualState,
    Solver,
    build_initial_active_set,
    kkt_residual,
    objective_value,
    solve,
)
from treeiso.tree import Attachment, DirectedTree, INF, normalize

INF_EDGES = [(1, 2, INF, 0.0), (1, 3, 0.0, INF)]


def make_state(t, x, z, signs):
    return PrimalDualState(t, dict(x), dict(z), ActiveSet(signs))


def late_search_state():
    """The demo instance right before its final extension finishes.

    Prefix 1..4 equalized at 4, the fourth edge pinned strict after the
    first downward step, the new node parked at its unconstrained value.
    """
    x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0, 5: 0.0}
    z = {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0}
    signs = {(1, 2): EQ, (1, 3): EQ, (3, 4): LT}
    return make_state(0.0, x, z, signs)


class TestBuildInitialActiveSet:
    def test_mixed_signs(self):
        x = {1: 3.0, 2: 3.0, 3: 2.0}
        active = build_initial_active_set(x, INF_EDGES)
        assert active.signs == {(1, 2): EQ, (1, 3): GT}

    def test_all_equal(self):
        x = {1: 5.0, 2: 5.0, 3: 5.0}
        active = build_initial_active_set(x, [(1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)])
        assert active.signs == {(1, 2): EQ, (2, 3): EQ}

    def test_decreasing_chain(self):
        x = {1: 3.0, 2: 2.0, 3: 1.0}
        active = build_initial_active_set(x, [(1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)])
        assert active.signs == {(1, 2): GT, (2, 3): GT}

    def test_near_equal_within_tolerance(self):
        x = {1: 1.0, 2: 1.0 + 1e-10}
        active = build_initial_active_set(x, [(1, 2, 1.0, 1.0)])
        assert active.signs == {(1, 2): EQ}

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
        view = solver.build_component_view(late_search_state(), anchor=3, m=4)
        assert view.component.node_set == {1, 2, 3}
        assert set(view.edges) == {(1, 2), (1, 3)}
        assert view.boundary_flow == 4.0
        assert view.edge_flow == {(1, 2): 0.0, (1, 3): 0.0}
        assert [e for e, _ in view.boundary_out] == [(3, 4)]
        assert view.boundary_in == []

    def test_late_view_primal_curve(self):
        solver = Solver(make_demo_problem())
        view = solver.build_component_view(late_search_state(), anchor=3, m=4)
        # x_B(t) = (12 + t) / 3
        assert view.value_at(0.0) == 4.0
        assert view.value_at(-3.0) == 3.0
        assert view.t_of_value(4.0) == 0.0
        assert view.t_of_value(3.0) == -3.0

    def test_late_view_dual_curves(self):
        solver = Solver(make_demo_problem())
        view = solver.build_component_view(late_search_state(), anchor=3, m=4)
        # z_12(t) = -(t + 6)/3 and z_13(t) = (2t + 6)/3.
        at_zero = view.duals_at(0.0)
        assert at_zero[(1, 2)] == pytest.approx(-2.0, abs=1e-12)
        assert at_zero[(1, 3)] == pytest.approx(2.0, abs=1e-12)
        at_clip = view.duals_at(-3.0)
        assert at_clip[(1, 2)] == pytest.approx(-1.0, abs=1e-12)
        assert at_clip[(1, 3)] == pytest.approx(0.0, abs=1e-12)

    def test_consistency_at_current_parameter(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        view = solver.build_component_view(state, anchor=3, m=4)
        assert view.value_at(state.t) == state.x[3]
        for e, value in view.duals_at(state.t).items():
            assert value == pytest.approx(state.z[e], abs=1e-12)

    def test_singleton_component(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0, 4: 8.0}
        z = {(1, 2): -1.0, (1, 3): 0.0}
        state = make_state(0.0, x, z, {(1, 2): EQ, (1, 3): GT})
        view = solver.build_component_view(state, anchor=3, m=3)
        assert view.component.node_set == {3}
        assert view.edges == ()
        assert view.boundary_flow == 0.0
        assert [e for e, _ in view.boundary_in] == [(1, 3)]
        assert view.duals_at(0.0) == {}

    def test_whole_prefix_component(self):
        solver = Solver(make_demo_problem())
        x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        z = {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0}
        state = make_state(0.0, x, z, {(1, 2): EQ, (1, 3): EQ, (3, 4): EQ})
        view = solver.build_component_view(state, anchor=3, m=4)
        assert view.component.node_set == {1, 2, 3, 4}
        assert view.boundary_flow == 0.0
        # x_B(t) = (16 + t)/4 and z_34(t) = 4 - t/4.
        assert view.value_at(0.0) == 4.0
        assert view.duals_at(0.0)[(3, 4)] == pytest.approx(4.0, abs=1e-12)
        assert view.duals_at(-4.0)[(3, 4)] == pytest.approx(5.0, abs=1e-12)

    def test_validation_catches_corrupted_duals(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        state.z[(1, 3)] = 5.0
        view = solver.build_component_view(state, anchor=3, m=4)
        with pytest.raises(InternalInvariantError):
            solver._check_anchor(view, state)

    def test_validation_catches_corrupted_primal(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        state.x[3] = 3.5
        view = solver.build_component_view(state, anchor=3, m=4)
        with pytest.raises(InternalInvariantError):
            solver._check_anchor(view, state)


class TestThresholds:
    def test_downward_whole_prefix(self):
        solver = Solver(make_demo_problem())
        x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        z = {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0}
        state = make_state(0.0, x, z, {(1, 2): EQ, (1, 3): EQ, (3, 4): EQ})
        view = solver.build_component_view(state, anchor=3, m=4)
        th = solver.thresholds_minus(view, state)
        assert th.per_edge[(3, 4)] == pytest.approx(0.0, abs=1e-12)
        assert th.per_edge[(1, 3)] == pytest.approx(-4.0, abs=1e-12)
        assert th.per_edge[(1, 2)] == pytest.approx(-8.0, abs=1e-12)
        assert th.boundary_out == -INF and th.boundary_in == -INF
        assert th.best == pytest.approx(0.0, abs=1e-12)

    def test_downward_after_first_migration(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        view = solver.build_component_view(state, anchor=3, m=4)
        th = solver.thresholds_minus(view, state)
        assert th.per_edge[(1, 3)] == pytest.approx(-3.0, abs=1e-12)
        assert th.per_edge[(1, 2)] == pytest.approx(-6.0, abs=1e-12)
        assert th.internal == pytest.approx(-3.0, abs=1e-12)
        # The strict boundary edge (3,4) is in the wrong class for the
        # downward search, so the boundary aggregates stay at the sentinel.
        assert th.boundary_out == -INF and th.boundary_in == -INF
        assert th.best == pytest.approx(-3.0, abs=1e-12)

    def test_infinite_bounds_give_sentinels(self):
        problem = Problem(
            normalize(DirectedTree(2, [(1, 2, INF, INF)])),
            [WeightedQuadratic(1.0, 4.0), WeightedQuadratic(1.0, 0.0)],
        )
        solver = Solver(problem)
        state = make_state(0.0, {1: 4.0, 2: 4.0}, {(1, 2): 1.0}, {(1, 2): EQ})
        view = solver.build_component_view(state, anchor=1, m=2)
        assert solver.thresholds_minus(view, state).best == -INF
        assert solver.thresholds_plus(view, state).best == INF

    def test_upward_boundary_join(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0, 4: 8.0}
        z = {(1, 2): -1.0, (1, 3): 0.0}
        state = make_state(0.0, x, z, {(1, 2): EQ, (1, 3): GT})
        view = solver.build_component_view(state, anchor=3, m=3)
        th = solver.thresholds_plus(view, state)
        assert th.per_edge[(1, 3)] == pytest.approx(1.0, abs=1e-12)
        assert th.boundary_in == pytest.approx(1.0, abs=1e-12)
        assert th.internal == INF
        assert th.best == pytest.approx(1.0, abs=1e-12)


class TestStepFunctions:
    def test_downward_threshold_step_migrates(self):
        solver = Solver(make_demo_problem())
        x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0, 5: 0.0}
        z = {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0}
        state = make_state(0.0, x, z, {(1, 2): EQ, (1, 3): EQ, (3, 4): EQ})
        view = solver.build_component_view(state, anchor=3, m=4)
        result = solver.step_minus(state, view, Attachment(5, 3, 3.0, 3.0))
        assert result is None
        assert state.t == 0.0
        assert state.active.signs[(3, 4)] == LT
        assert state.z[(3, 4)] == 4.0
        assert state.departed == {(3, 4)}

    def test_downward_terminal_clip(self):
        solver = Solver(make_demo_problem())
        state = late_search_state()
        state.departed.add((3, 4))
        view = solver.build_component_view(state, anchor=3, m=4)
        result = solver.step_minus(state, view, Attachment(5, 3, 3.0, 3.0))
        assert result == -3.0
        assert state.x == {1: 3.0, 2: 3.0, 3: 3.0, 4: 4.0, 5: 1.0}
        assert state.z[(1, 2)] == pytest.approx(-1.0, abs=1e-12)
        assert state.z[(1, 3)] == pytest.approx(0.0, abs=1e-12)
        assert state.z[(3, 4)] == 4.0

    def test_upward_join_step(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0, 4: 8.0}
        z = {(1, 2): -1.0, (1, 3): 0.0}
        state = make_state(0.0, x, z, {(1, 2): EQ, (1, 3): GT})
        view = solver.build_component_view(state, anchor=3, m=3)
        result = solver.step_plus(state, view, Attachment(4, 3, 0.0, 4.0))
        assert result is None
        assert state.t == 1.0
        assert state.active.signs[(1, 3)] == EQ
        assert state.x[3] == pytest.approx(3.0, abs=1e-12)
        assert state.x[4] == pytest.approx(7.0, abs=1e-12)

    def test_upward_equilibrium_terminal(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 3.0, 4: 7.0}
        z = {(1, 2): -1.0, (1, 3): 1.0}
        state = make_state(1.0, x, z, {(1, 2): EQ, (1, 3): EQ})
        view = solver.build_component_view(state, anchor=3, m=3)
        result = solver.step_plus(state, view, Attachment(4, 3, 0.0, 4.0))
        assert result == 4.0
        assert state.equilibrium_calls == 1
        assert state.x == {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        assert state.z[(1, 2)] == pytest.approx(-2.0, abs=1e-12)
        assert state.z[(1, 3)] == pytest.approx(2.0, abs=1e-12)

    def test_churn_guard_blocks_rejoin(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0, 4: 8.0}
        z = {(1, 2): -1.0, (1, 3): 0.0}
        state = make_state(0.0, x, z, {(1, 2): EQ, (1, 3): GT})
        state.departed.add((1, 3))
        view = solver.build_component_view(state, anchor=3, m=3)
        with pytest.raises(InternalInvariantError):
            solver.step_plus(state, view, Attachment(4, 3, 0.0, 4.0))

    def test_second_equilibrium_guard(self):
        solver = Solver(make_demo_problem())
        state = make_state(0.0, {1: 4.0, 2: 0.0}, {}, {})
        state.equilibrium_calls = 1
        view = solver.build_component_view(state, anchor=1, m=1)
        with pytest.raises(InternalInvariantError):
            solver.step_minus(state, view, Attachment(2, 1, INF, INF))


class TestExtendTraces:
    def test_two_node_equilibrium(self):
        solver = Solver(make_demo_problem())
        x, z = {1: 4.0}, {}
        _, _, rec = solver.extend(x, z, Attachment(2, 1, INF, 0.0))
        assert x == {1: 3.0, 2: 3.0}
        assert z == {(1, 2): -1.0}
        assert (rec.branch, rec.iterations, rec.equilibrium_calls) == ("down", 1, 1)
        assert rec.t_star == -1.0
        assert rec.t_path == (0.0, -1.0)

    def test_zero_bound_fast_path(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0}
        z = {(1, 2): -1.0}
        _, _, rec = solver.extend(x, z, Attachment(3, 1, 0.0, INF))
        assert x == {1: 3.0, 2: 3.0, 3: 2.0}
        assert z == {(1, 2): -1.0, (1, 3): 0.0}
        assert (rec.branch, rec.iterations, rec.equilibrium_calls) == ("down", 0, 0)
        assert rec.t_star == 0.0

    def test_upward_two_phase(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0}
        z = {(1, 2): -1.0, (1, 3): 0.0}
        _, _, rec = solver.extend(x, z, Attachment(4, 3, 0.0, 4.0))
        assert x == {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        assert z == {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0}
        assert (rec.branch, rec.iterations, rec.equilibrium_calls) == ("up", 2, 1)
        assert rec.t_star == 4.0
        assert rec.t_path == (0.0, 1.0, 4.0)

    def test_downward_two_phase_with_clip(self):
        solver = Solver(make_demo_problem())
        x = {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        z = {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0}
        _, _, rec = solver.extend(x, z, Attachment(5, 3, 3.0, 3.0))
        assert x == {1: 3.0, 2: 3.0, 3: 3.0, 4: 4.0, 5: 1.0}
        assert z[(1, 2)] == pytest.approx(-1.0, abs=1e-12)
        assert z[(1, 3)] == pytest.approx(0.0, abs=1e-12)
        assert z[(3, 4)] == 4.0
        assert z[(3, 5)] == -3.0
        assert (rec.branch, rec.iterations, rec.equilibrium_calls) == ("down", 2, 0)
        assert rec.t_path == (0.0, 0.0, -3.0)

    def test_flat_branch(self):
        problem = Problem(
            normalize(DirectedTree(2, [(1, 2, 1.0, 1.0)])),
            [WeightedQuadratic(1.0, 5.0), WeightedQuadratic(3.0, 5.0)],
        )
        x, z = {1: 5.0}, {}
        _, _, rec = Solver(problem).extend(x, z, Attachment(2, 1, 1.0, 1.0))
        assert rec.branch == "flat"
        assert rec.iterations == 0
        assert x == {1: 5.0, 2: 5.0}
        assert z == {(1, 2): 0.0}

    def test_carried_signs_checked_under_validation(self):
        solver = Solver(make_demo_problem())
        x = {1: 3.0, 2: 3.0, 3: 2.0}
        z = {(1, 2): -1.0, (1, 3): 0.0}
        # x[1] > x[3], but the carried set still says EQ and marks no node moved.
        stale = ActiveSet({(1, 2): EQ, (1, 3): EQ})
        with pytest.raises(InternalInvariantError, match=r"\(1, 3\)"):
            solver.extend(x, z, Attachment(4, 3, 0.0, 4.0), validate=True,
                          active=stale)

    def test_iteration_cap_guard(self, monkeypatch):
        solver = Solver(make_demo_problem())
        monkeypatch.setattr(Solver, "step_minus", lambda self, s, v, a: None)
        x, z = {1: 4.0}, {}
        with pytest.raises(InternalInvariantError, match="search steps"):
            solver.extend(x, z, Attachment(2, 1, INF, 0.0))


class TestSolve:
    def test_demo_golden(self, demo_problem):
        x, z, stats = solve(demo_problem)
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
        _, _, stats = solve(demo_problem, record_pairs=True)
        x2, z2 = stats.steps[0].pair
        assert (x2, z2) == ({1: 3.0, 2: 3.0}, {(1, 2): -1.0})
        x3, z3 = stats.steps[1].pair
        assert (x3, z3) == ({1: 3.0, 2: 3.0, 3: 2.0}, {(1, 2): -1.0, (1, 3): 0.0})
        x4, z4 = stats.steps[2].pair
        assert x4 == {1: 4.0, 2: 4.0, 3: 4.0, 4: 4.0}
        assert z4 == {(1, 2): -2.0, (1, 3): 2.0, (3, 4): 4.0}

    def test_demo_validated(self, demo_problem):
        x, _, _ = solve(demo_problem, validate=True)
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
        x, z, stats = solve(problem, validate=True)
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
        x, _, stats = solve(build_problem(tree, losses), validate=True)
        assert stats.final_residual <= 1e-8
        assert stats.inner_iters_total > 0
        assert len(set(x.values())) < n

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_bad_tolerance_rejected(self, demo_problem, tol):
        with pytest.raises(ContractViolationError, match="tolerance"):
            Solver(demo_problem, tol)

    def test_single_node(self):
        problem = Problem(normalize(DirectedTree(1, [])), [WeightedQuadratic(2.0, 5.0)])
        x, z, stats = solve(problem)
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
        x, z, stats = solve(problem)
        assert [x[v] for v in range(1, 6)] == targets
        assert all(value == 0.0 for value in z.values())
        assert stats.inner_iters_total == 0

    def test_stats_totals(self, demo_problem):
        _, _, stats = solve(demo_problem)
        assert stats.inner_iters_total == 5
        assert stats.equilibrium_total == 2


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
            x, z, stats = solve(build_problem(tree, losses))
            xr, zr, stats_r = solve(build_problem(*self.reflect(tree, losses)))
            assert xr == {v: -value for v, value in x.items()}
            assert zr == {e: -value for e, value in z.items()}
            assert len(stats_r.steps) == len(stats.steps)
            for rec, mirror in zip(stats.steps, stats_r.steps):
                assert mirror.node == rec.node
                assert mirror.branch == swap[rec.branch]
                assert mirror.iterations == rec.iterations
                assert mirror.equilibrium_calls == rec.equilibrium_calls
                assert mirror.t_path == tuple(-t for t in rec.t_path)


class TestCertificates:
    def test_golden_pair_near_zero_residual(self, demo_problem):
        residual = kkt_residual(demo_problem, DEMO_X, DEMO_Z)
        assert residual <= 1e-12

    def test_perturbed_primal_detected(self, demo_problem):
        x = dict(DEMO_X)
        x[1] += 0.1
        assert kkt_residual(demo_problem, x, DEMO_Z) >= 0.1

    def test_perturbed_dual_detected(self, demo_problem):
        z = dict(DEMO_Z)
        z[(3, 4)] = 5.0  # above the box end mu = 4
        residual = kkt_residual(demo_problem, DEMO_X, z)
        assert residual >= 1.0

    def test_objective_at_golden(self, demo_problem):
        assert objective_value(demo_problem, DEMO_X) == pytest.approx(
            DEMO_OBJECTIVE, abs=1e-12)

    def test_objective_hard_violation_is_infinite(self, demo_problem):
        x = dict(DEMO_X)
        x[2] = 2.0  # x_1 > x_2 against lambda = inf on (1, 2)
        assert objective_value(demo_problem, x) == INF

    def test_solver_objective_not_above_random_feasible_points(self, demo_problem):
        rng = random.Random(11)
        x_opt, _, _ = solve(demo_problem)
        best = objective_value(demo_problem, x_opt)
        for _ in range(200):
            base = rng.uniform(-2.0, 9.0)
            cand = {1: base, 2: base + rng.uniform(0.0, 3.0)}
            cand[3] = rng.uniform(-2.0, 9.0)
            cand[4] = rng.uniform(-2.0, 9.0)
            cand[5] = rng.uniform(-2.0, 9.0)
            if rng.random() < 0.5:
                cand[3] = max(cand[3], cand[1])  # keep (1,3) feasible sometimes
            value = objective_value(demo_problem, cand)
            assert value >= best - 1e-9
