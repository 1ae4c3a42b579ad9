"""Loss layer: derivatives, inverses, pooled groups, equilibrium parameter."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import treeiso.loss
from treeiso.errors import ContractViolationError, MalformedInstanceError
from treeiso.loss import (
    LinearShift,
    Loss,
    LossGroup,
    QuarticQuadratic,
    WeightedQuadratic,
    equilibrium_t,
    loss_from_json,
    solve_increasing,
)
from treeiso.oracle import enumerate_optimum
from treeiso.solver import EQ, ActiveSet, PrimalDualState, Problem, Solver, solve
from treeiso.tree import DirectedTree, INF, normalize

WEIGHTS = (0.0, 0.5, 2.0, INF)


class SoftplusQuadratic(Loss):
    """f(x) = x^2/2 + log(1 + e^x): strongly convex, with no polynomial form."""

    def value(self, x):
        return 0.5 * x * x + max(x, 0.0) + math.log1p(math.exp(-abs(x)))

    def derivative(self, x):
        return x + self._sigmoid(x)

    def second_derivative(self, x):
        sig = self._sigmoid(x)
        return 1.0 + sig * (1.0 - sig)

    @staticmethod
    def _sigmoid(x):
        if x >= 0.0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)


def random_member(rng, kinds=3):
    kind = rng.randrange(kinds)
    if kind == 0:
        return WeightedQuadratic(rng.uniform(0.5, 3.0), rng.uniform(0.0, 10.0))
    if kind == 1:
        return QuarticQuadratic(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                                rng.uniform(-5.0, 5.0))
    if kind == 2:
        return random_member(rng, 2).shifted(rng.uniform(-20.0, 20.0))
    return SoftplusQuadratic()


def three_group():
    return LossGroup([
        WeightedQuadratic(1.0, 4.0),
        WeightedQuadratic(1.0, 2.0),
        WeightedQuadratic(1.0, 2.0),
    ])


def four_group():
    return LossGroup([
        WeightedQuadratic(1.0, 4.0),
        WeightedQuadratic(1.0, 2.0),
        WeightedQuadratic(1.0, 2.0),
        WeightedQuadratic(1.0, 8.0),
    ])


class TestDerivatives:
    def test_quadratic(self):
        assert WeightedQuadratic(1.0, 4.0).derivative(3.0) == -1.0
        assert WeightedQuadratic(2.0, 1.0).derivative(3.0) == 4.0

    def test_quartic(self):
        loss = QuarticQuadratic(1.0, 0.25, 0.0)
        assert loss.derivative(4.0) == 72.0
        assert loss.derivative(0.0) == 0.0
        assert loss.second_derivative(1.0) == 5.0

    def test_linear_shift(self):
        assert LinearShift(WeightedQuadratic(1.0, 2.0), 3.0).derivative(2.0) == 3.0

    def test_shift_merging(self):
        loss = WeightedQuadratic(1.0, 2.0).shifted(2.0).shifted(1.0)
        assert isinstance(loss, LinearShift)
        assert loss.slope == 3.0
        assert loss.derivative(2.0) == 3.0

    def test_zero_shift_is_identity(self):
        base = QuarticQuadratic(1.0, 0.5, -2.0)
        assert base.shifted(0.0) is base

    def test_values(self):
        assert WeightedQuadratic(2.0, 1.0).value(3.0) == 4.0
        assert QuarticQuadratic(1.0, 0.25, 0.0).value(1.0) == 1.25
        assert LinearShift(WeightedQuadratic(2.0, 1.0), 1.5).value(3.0) == 8.5


class TestInverseDerivative:
    def test_quadratic_minimizer(self):
        assert WeightedQuadratic(1.0, 4.0).inverse_derivative(0.0) == 4.0

    def test_quartic_at_zero(self):
        assert QuarticQuadratic(1.0, 0.25, 0.0).inverse_derivative(0.0) == 0.0

    def test_quartic_unit_point(self):
        # 2*1 + 1^3 = 3, so the inverse at 3 is 1.
        x = QuarticQuadratic(1.0, 0.25, 0.0).inverse_derivative(3.0)
        assert abs(x - 1.0) <= 1e-12 * 4

    def test_pure_quadratic_quartic_uses_closed_form(self):
        loss = QuarticQuadratic(2.0, 0.0, -4.0)
        assert loss.poly_form() == (-4.0, 4.0, 0.0)
        assert loss.inverse_derivative(0.0) == 1.0

    def test_round_trip_seeded(self):
        rng = random.Random(99)
        for _ in range(1000):
            kind = rng.randrange(3)
            if kind == 0:
                loss = WeightedQuadratic(rng.uniform(0.1, 5.0), rng.uniform(-50, 50))
            elif kind == 1:
                loss = QuarticQuadratic(rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0),
                                        rng.uniform(-10, 10))
            else:
                loss = LinearShift(
                    QuarticQuadratic(rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0),
                                     rng.uniform(-10, 10)),
                    rng.uniform(-20, 20),
                )
            x = rng.uniform(-100.0, 100.0)
            back = loss.inverse_derivative(loss.derivative(x))
            assert abs(back - x) <= 1e-9 * (1.0 + abs(x))

    @given(
        a=st.floats(0.1, 3.0), b=st.floats(0.0, 2.0), c=st.floats(-10, 10),
        x=st.floats(-1e3, 1e3),
    )
    @settings(max_examples=200, derandomize=True)
    def test_round_trip_property(self, a, b, c, x):
        loss = QuarticQuadratic(a, b, c)
        back = loss.inverse_derivative(loss.derivative(x))
        assert abs(back - x) <= 1e-9 * (1.0 + abs(x))

    def test_monotone_derivative_grid(self):
        rng = random.Random(7)
        losses = [
            WeightedQuadratic(0.5, -3.0),
            QuarticQuadratic(1.0, 0.25, 0.0),
            QuarticQuadratic(0.2, 1.5, 4.0),
            LinearShift(WeightedQuadratic(2.0, 1.0), -5.0),
        ]
        grid = sorted(rng.uniform(-50, 50) for _ in range(200))
        for loss in losses:
            values = [loss.derivative(u) for u in grid]
            assert all(p < q for p, q in zip(values, values[1:]))


class TestSolveIncreasing:
    def test_cubic_root(self):
        root = solve_increasing(lambda v: v ** 3, lambda v: 3 * v * v, 8.0, 0.0)
        assert abs(root - 2.0) <= 1e-10

    def test_matches_closed_form_on_lines(self):
        root = solve_increasing(lambda v: 2 * v - 6, lambda v: 2.0, 0.0, 100.0)
        assert abs(root - 3.0) <= 1e-12


class TestLossGroup:
    def test_three_group_closed_form(self):
        group = three_group()
        # x = (s + 8) / 3: the component formula x = (12 + t)/3 at s = t + 4.
        assert group.inverse_derivative(0.0 + 4.0) == 4.0
        assert group.inverse_derivative(-3.0 + 4.0) == 3.0

    def test_four_group_closed_form(self):
        group = four_group()
        # x = (s + 16) / 4; the pooled value is 4 exactly at zero slope.
        assert group.inverse_derivative(0.0) == 4.0
        assert group.inverse_derivative(4.0) == 5.0

    def test_singleton_matches_member(self):
        loss = QuarticQuadratic(1.0, 0.25, 0.0)
        group = LossGroup([loss])
        for s in (-3.0, 0.0, 7.5):
            assert group.inverse_derivative(s) == pytest.approx(
                loss.inverse_derivative(s), abs=1e-12)

    def test_empty_group_rejected(self):
        with pytest.raises(ContractViolationError):
            LossGroup([])

    def test_derivative_is_member_sum(self):
        group = LossGroup([WeightedQuadratic(2.0, 1.0),
                           QuarticQuadratic(1.0, 0.5, -1.0)])
        x = 1.7
        want = 2.0 * (x - 1.0) + (2.0 * x + 2.0 * x ** 3 - 1.0)
        assert group.derivative(x) == pytest.approx(want, rel=1e-15)

    def test_closed_form_matches_newton(self):
        # Same group solved through both code paths must agree to 1e-12.
        members = [WeightedQuadratic(1.5, 2.0), WeightedQuadratic(0.5, -4.0),
                   WeightedQuadratic(2.0, 7.0).shifted(1.25)]
        group = LossGroup(members)
        assert group.poly_form()[2] == 0.0
        for s in (-11.0, 0.0, 3.0, 42.0):
            closed = group.inverse_derivative(s)
            newton = solve_increasing(
                group.derivative, group.second_derivative, s, 0.0)
            assert abs(closed - newton) <= 1e-12 * (1.0 + abs(closed))

    def test_mixed_group_newton(self):
        group = LossGroup([WeightedQuadratic(1.0, 4.0),
                           QuarticQuadratic(1.0, 0.25, 0.0)])
        assert group.poly_form()[2] > 0.0
        v = group.inverse_derivative(2.0)
        assert abs(group.derivative(v) - 2.0) <= 1e-12 * 3


class TestPolyForm:
    def test_each_family(self):
        assert WeightedQuadratic(2.0, 3.0).poly_form() == (-6.0, 2.0, 0.0)
        assert QuarticQuadratic(1.5, 0.25, -2.0).poly_form() == (-2.0, 3.0, 1.0)
        assert LinearShift(WeightedQuadratic(2.0, 3.0), 1.5).poly_form() == (
            -4.5, 2.0, 0.0)
        assert LinearShift(QuarticQuadratic(1.5, 0.25, -2.0), -1.0).poly_form() == (
            -3.0, 3.0, 1.0)

    def test_shift_of_a_shift(self):
        inner = LinearShift(QuarticQuadratic(1.0, 0.5, 4.0), 2.0)
        assert LinearShift(inner, -7.0).poly_form() == (-1.0, 2.0, 2.0)
        assert inner.shifted(-7.0).poly_form() == (-1.0, 2.0, 2.0)

    def test_form_matches_derivative(self):
        rng = random.Random(3)
        for _ in range(300):
            loss = random_member(rng)
            c0, c1, c3 = loss.poly_form()
            for x in (-40.0, -1.5, 0.0, 0.3, 12.0):
                want = loss.derivative(x)
                scale = abs(c0) + abs(c1 * x) + abs(c3 * x ** 3)
                assert abs(c1 * x + c3 * x ** 3 + c0 - want) <= 1e-15 * scale

    def test_pooled_derivative_is_member_sum(self):
        rng = random.Random(2024)
        for _ in range(200):
            members = [random_member(rng) for _ in range(rng.randint(1, 6))]
            group = LossGroup(members)
            assert group.poly_form() is not None
            for x in [rng.uniform(-30.0, 30.0) for _ in range(8)]:
                terms = [loss.derivative(x) for loss in members]
                scale = sum(abs(c0) + abs(c1 * x) + abs(c3 * x ** 3)
                            for c0, c1, c3 in (m.poly_form() for m in members))
                assert abs(group.derivative(x) - sum(terms)) <= 1e-15 * scale

    def test_pooled_form_sums_in_member_order(self):
        members = [WeightedQuadratic(0.1, 0.7), WeightedQuadratic(0.2, 0.3),
                   QuarticQuadratic(0.3, 0.0, 0.1)]
        c0 = c1 = 0.0
        for loss in members:
            c0 += loss.poly_form()[0]
            c1 += loss.poly_form()[1]
        assert LossGroup(members).poly_form() == (c0, c1, 0.0)

    def test_quadratic_group_stays_finite_far_out(self):
        # x^3 overflows at 1e200; with c3 == 0 it must never be formed.
        group = LossGroup([WeightedQuadratic(2.0, 1.0),
                           QuarticQuadratic(1.0, 0.0, 3.0)])
        c0, c1, c3 = group.poly_form()
        assert c3 == 0.0
        assert group.derivative(1e200) == c1 * 1e200 + c0
        assert math.isfinite(group.derivative(-1e200))
        assert group.inverse_derivative(c1 * 1e200 + c0) == pytest.approx(1e200)


class TestLossWithoutForm:
    def test_has_no_form(self):
        loss = SoftplusQuadratic()
        assert loss.poly_form() is None
        assert loss.shifted(2.0).poly_form() is None
        assert LossGroup([WeightedQuadratic(1.0, 2.0), loss]).poly_form() is None

    def test_group_sums_members(self):
        members = [WeightedQuadratic(1.0, 2.0), SoftplusQuadratic(),
                   QuarticQuadratic(1.0, 0.5, -1.0)]
        group = LossGroup(members)
        for x in (-3.0, 0.0, 2.5):
            assert group.derivative(x) == sum(m.derivative(x) for m in members)
            back = group.inverse_derivative(group.derivative(x))
            assert abs(back - x) <= 1e-10 * (1.0 + abs(x))

    def test_equilibrium_meets(self):
        group = LossGroup([WeightedQuadratic(1.0, 4.0), SoftplusQuadratic()])
        attach = QuarticQuadratic(0.5, 0.25, 1.0)
        t_hat = equilibrium_t(group, 1.5, attach)
        left = group.inverse_derivative(t_hat + 1.5)
        right = attach.inverse_derivative(-t_hat)
        assert abs(left - right) <= 1e-10 * (1.0 + abs(t_hat))

    @pytest.mark.parametrize("shape", ["star", "random"])
    def test_solves_match_enumeration(self, shape):
        rng = random.Random("softplus-" + shape)
        searched = 0
        for _ in range(12):
            n = rng.randint(4, 13)
            edges = []
            for child in range(2, n + 1):
                parent = 1 if shape == "star" else rng.randint(1, child - 1)
                lam, mu = rng.choice(WEIGHTS), rng.choice(WEIGHTS)
                if shape == "random" and rng.random() < 0.5:
                    edges.append((child, parent, lam, mu))
                else:
                    edges.append((parent, child, lam, mu))
            losses = [SoftplusQuadratic() if rng.random() < 0.4
                      else random_member(rng, 2) for _ in range(n)]
            problem = Problem(normalize(DirectedTree(n, edges)), losses)
            x, _, stats = solve(problem, validate=True)
            assert stats.final_residual <= 1e-8
            searched += stats.inner_iters_total
            want, _, _ = enumerate_optimum(problem)
            for v, value in want.items():
                assert abs(x[v] - value) <= 1e-9 * (1.0 + abs(value))
        assert searched > 0


def pooled_view(losses, edges, anchor=1):
    """The component view of a prefix whose edges are all tied."""
    n = len(losses)
    problem = Problem(normalize(DirectedTree(n, edges), 1), losses)
    z = {(i, j): 0.0 for i, j, _, _ in problem.weighted_edges()}
    state = PrimalDualState(0.0, {v: 0.0 for v in range(1, n + 1)}, z,
                            ActiveSet({e: EQ for e in z}))
    return Solver(problem).build_component_view(state, anchor, n)


class TestSubgroupInverse:
    @pytest.mark.parametrize("kinds", [3, 4])
    def test_matches_member_by_member(self, kinds):
        rng = random.Random(kinds)
        for _ in range(10):
            n = rng.randint(2, 30)
            edges = [(rng.randint(1, c - 1), c, 1.0, 1.0) for c in range(2, n + 1)]
            losses = [random_member(rng, kinds) for _ in range(n)]
            view = pooled_view(losses, edges, anchor=rng.randint(1, n))
            for e in view.edges:
                lo, hi = view.span[e]
                members = [view._losses[u] for u in view.nodes[lo:hi]]
                for target in (rng.uniform(-60.0, 60.0), 0.0):
                    got = view.subgroup_inverse(e, target)
                    # A root only promises solve_increasing's stopping rule,
                    # met by the half's pooled derivative; summing member by
                    # member instead rounds each member's terms.
                    terms = abs(target)
                    for m in members:
                        form = m.poly_form()
                        if form is None:
                            terms += abs(m.derivative(got))
                        else:
                            c0, c1, c3 = form
                            terms += abs(c0) + c1 * abs(got) + c3 * abs(got) ** 3
                    tol = 1e-12 * (1.0 + abs(target)) + 1e-14 * terms
                    total = sum(m.derivative(got) for m in members)
                    assert abs(total - target) <= tol

    def test_spread_coefficients_match_member_by_member(self):
        # Far halves whose coefficients are tiny next to the rest of the
        # component: a running prefix of 4e6 cannot hold a 4e-10 cubic term,
        # so a difference of prefix entries would drop it.
        rng = random.Random("spread")
        for _ in range(20):
            n = rng.randint(2, 12)
            edges = [(rng.randint(1, c - 1), c, 1.0, 1.0) for c in range(2, n + 1)]
            losses = []
            for _ in range(n):
                loss = QuarticQuadratic(rng.choice((1e-3, 1.0, 1e3)),
                                        rng.choice((0.0, 1e-10, 1e6)),
                                        rng.choice((-1e6, -1.0, 0.0, 1e6)))
                if rng.random() < 0.3:
                    loss = loss.shifted(rng.choice((-1e8, 1e8)))
                losses.append(loss)
            view = pooled_view(losses, edges, anchor=rng.randint(1, n))
            for e in view.edges:
                lo, hi = view.span[e]
                members = [view._losses[u] for u in view.nodes[lo:hi]]
                for target in (rng.choice((-1e7, 1e7)), 1.0, 0.0):
                    want = solve_increasing(
                        lambda v: sum(m.derivative(v) for m in members),
                        lambda v: sum(m.second_derivative(v) for m in members),
                        target, 0.0)
                    got = view.subgroup_inverse(e, target)
                    # Rounding in the half's own terms, not the rest's, may
                    # move the root: their size over the slope bounds it.
                    terms = abs(target) + sum(
                        abs(c0) + c1 * abs(want) + c3 * abs(want) ** 3
                        for c0, c1, c3 in (m.poly_form() for m in members))
                    slope = sum(m.second_derivative(want) for m in members)
                    tol = 1e-12 * (1.0 + abs(want)) + 1e-14 * terms / slope
                    assert abs(got - want) <= tol

    def test_quadratic_far_half_is_closed_form(self, monkeypatch):
        # A chain 1 - 2 - 3 - 4 anchored at 1: the far half of (3, 4) is the
        # quadratic node 4 alone, inside a component with a quartic member.
        losses = [QuarticQuadratic(1.0, 0.5, 0.0), WeightedQuadratic(1.0, 3.0),
                  QuarticQuadratic(2.0, 1.0, 1.0), WeightedQuadratic(2.0, 5.0)]
        view = pooled_view(losses, [(1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0),
                                    (3, 4, 1.0, 1.0)])
        assert view.group.poly_form()[2] > 0.0
        calls = []
        real = treeiso.loss.solve_increasing
        monkeypatch.setattr(treeiso.loss, "solve_increasing",
                            lambda *args: calls.append(args) or real(*args))
        assert view.subgroup_inverse((3, 4), 2.0) == 6.0
        assert calls == []
        view.subgroup_inverse((2, 3), 2.0)
        assert len(calls) == 1


class TestEquilibrium:
    def test_two_node_meeting(self):
        t_hat = equilibrium_t(LossGroup([WeightedQuadratic(1.0, 4.0)]), 0.0,
                              WeightedQuadratic(1.0, 2.0))
        assert t_hat == pytest.approx(-1.0, abs=1e-12)

    def test_three_node_meeting(self):
        t_hat = equilibrium_t(three_group(), 0.0, WeightedQuadratic(1.0, 8.0))
        assert t_hat == pytest.approx(4.0, abs=1e-12)

    def test_quartic_attachment_lies_below_clip(self):
        group = three_group()
        attach = QuarticQuadratic(1.0, 0.25, 0.0)
        t_hat = equilibrium_t(group, 4.0, attach)
        assert t_hat < -3.0
        # At the clip point the component still sits above the new node.
        gap = group.inverse_derivative(-3.0 + 4.0) - attach.inverse_derivative(3.0)
        assert gap == pytest.approx(2.0, abs=1e-10)

    def test_meeting_point_consistency(self):
        group = three_group()
        attach = QuarticQuadratic(1.0, 0.25, 0.0)
        t_hat = equilibrium_t(group, 4.0, attach)
        left = group.inverse_derivative(t_hat + 4.0)
        right = attach.inverse_derivative(-t_hat)
        assert abs(left - right) <= 1e-10 * (1.0 + abs(t_hat))

    def test_gap_is_increasing_in_t(self):
        group = LossGroup([WeightedQuadratic(2.0, 1.0),
                           QuarticQuadratic(1.0, 0.5, 0.0)])
        attach = QuarticQuadratic(0.5, 0.25, 1.0)
        beta = -2.5
        gaps = [group.inverse_derivative(t + beta) - attach.inverse_derivative(-t)
                for t in [-8 + k * 0.5 for k in range(33)]]
        assert all(p < q for p, q in zip(gaps, gaps[1:]))


class TestJson:
    def test_quadratic_round_trip(self):
        loss = loss_from_json({"type": "quadratic", "y": 4.0, "w": 1.0})
        assert isinstance(loss, WeightedQuadratic)
        assert (loss.w, loss.y) == (1.0, 4.0)

    def test_quartic_round_trip(self):
        loss = loss_from_json({"type": "quartic", "a": 1.0, "b": 0.25, "c": 0.0})
        assert isinstance(loss, QuarticQuadratic)
        assert (loss.a, loss.b, loss.c) == (1.0, 0.25, 0.0)

    def test_unknown_type(self):
        with pytest.raises(MalformedInstanceError):
            loss_from_json({"type": "huber", "delta": 1.0})

    def test_missing_field(self):
        with pytest.raises(MalformedInstanceError):
            loss_from_json({"type": "quadratic", "y": 4.0})

    def test_bad_parameters(self):
        with pytest.raises(MalformedInstanceError):
            loss_from_json({"type": "quadratic", "y": 0.0, "w": 0.0})
        with pytest.raises(MalformedInstanceError):
            loss_from_json({"type": "quartic", "a": -1.0, "b": 0.0, "c": 0.0})
        with pytest.raises(MalformedInstanceError):
            loss_from_json({"type": "quartic", "a": 1.0, "b": -0.1, "c": 0.0})
