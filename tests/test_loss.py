"""Loss layer: derivatives, inverses, pooled groups, equilibrium parameter."""

import math
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import treeiso.loss
from conftest import CHECKED_VALUES
from treeiso.errors import ContractViolationError, MalformedInstanceError
from treeiso.loss import (
    Loss,
    LossGroup,
    QuarticQuadratic,
    WeightedQuadratic,
    equilibrium_t,
    loss_from_json,
    poly_derivative,
    poly_inverse,
    solve_increasing,
)
from treeiso.oracle import enumerate_optimum
from treeiso.solver import EQ, ActiveSet, Problem, Solver
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


def tilted(loss, slope):
    """`loss` plus slope*x (less a constant), the slope carried in c."""
    c0, c1, c3 = loss.poly_form()
    return QuarticQuadratic(0.5 * c1, 0.25 * c3, c0 + slope)


def random_member(rng, kinds=3):
    kind = rng.randrange(kinds)
    if kind == 0:
        return WeightedQuadratic(rng.uniform(0.5, 3.0), rng.uniform(0.0, 10.0))
    if kind == 1:
        return QuarticQuadratic(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                                rng.uniform(-5.0, 5.0))
    if kind == 2:
        return tilted(random_member(rng, 2), rng.uniform(-20.0, 20.0))
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


class TwoSlots:
    __slots__ = ("p", "q")


class ThreeSlots:
    __slots__ = ("p", "q", "r")


SHIPPED_LOSSES = [(WeightedQuadratic(1.5, -2.0), TwoSlots),
                  (QuarticQuadratic(1.0, 0.25, -3.0), ThreeSlots)]
SHIPPED_IDS = ["quadratic", "quartic"]


class TestFootprint:
    """A shipped loss holds its parameters alone: no __dict__, no weak reference."""

    @pytest.mark.parametrize("loss, same_size", SHIPPED_LOSSES, ids=SHIPPED_IDS)
    def test_sized_as_a_plain_slotted_object(self, loss, same_size):
        assert sys.getsizeof(loss) == sys.getsizeof(same_size())

    @pytest.mark.parametrize("loss, _", SHIPPED_LOSSES, ids=SHIPPED_IDS)
    def test_no_weak_reference(self, loss, _):
        with pytest.raises(TypeError):
            weakref.ref(loss)

    @pytest.mark.parametrize("loss, _", SHIPPED_LOSSES, ids=SHIPPED_IDS)
    def test_no_attribute_of_a_callers_own(self, loss, _):
        with pytest.raises(AttributeError):
            loss.note = "mine"


class TestDerivatives:
    def test_quadratic(self):
        assert WeightedQuadratic(1.0, 4.0).derivative(3.0) == -1.0
        assert WeightedQuadratic(2.0, 1.0).derivative(3.0) == 4.0

    def test_quartic(self):
        loss = QuarticQuadratic(1.0, 0.25, 0.0)
        assert loss.derivative(4.0) == 72.0
        assert loss.derivative(0.0) == 0.0
        assert loss.second_derivative(1.0) == 5.0

    def test_values(self):
        assert WeightedQuadratic(2.0, 1.0).value(3.0) == 4.0
        assert QuarticQuadratic(1.0, 0.25, 0.0).value(1.0) == 1.25
        # The tilt drops the quadratic's constant w/2*y^2 = 1: 9 - 2*3 + 1.5*3.
        assert tilted(WeightedQuadratic(2.0, 1.0), 1.5).value(3.0) == 7.5


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
                # The slope rides in c, drawn after the base coefficients.
                loss = QuarticQuadratic(rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0),
                                        rng.uniform(-10, 10) + rng.uniform(-20, 20))
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
            tilted(WeightedQuadratic(2.0, 1.0), -5.0),
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


def round_bits(x, bits=128):
    """x rounded to `bits` significant bits, to keep a Newton iterate small."""
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    scale = Fraction(2) ** shift
    return Fraction(round(x * scale)) / scale


def exact_root(form, s):
    """The root of c0 + c1*x + c3*x^3 = s to about 120 bits: Newton in
    rationals on the exact coefficients, started above the root (an odd
    cubic, so the negative case is the positive one mirrored)."""
    c0, c1, c3 = (Fraction(c) for c in form)
    e = Fraction(s) - c0
    if e == 0:
        return Fraction(0)
    a = abs(e)
    # Both a/c1 and twice the float cube root of a/c3 lie above the root, and
    # Newton descends monotonically from above on this convex branch.
    ratio = a / c3
    cube = math.exp((math.log(ratio.numerator) - math.log(ratio.denominator)) / 3.0)
    x = min(a / c1, 2 * Fraction(cube))
    for _ in range(400):
        step = (c1 * x + c3 * x * x * x - a) / (c1 + 3 * c3 * x * x)
        x = round_bits(x - step)
        if abs(step) <= x * Fraction(1, 2 ** 120):
            break
    return x if e > 0 else -x


class TestPolyInverse:
    """The cubic branch of `poly_inverse`: closed form plus one Newton step."""

    def assert_within_ulps(self, form, s, ulps=4):
        got = poly_inverse(form, s)
        want = exact_root(form, s)
        assert abs(Fraction(got) - want) <= ulps * Fraction(math.ulp(float(want))), (
            form, s, got, float(want))

    def test_matches_exact_root_on_grid(self):
        for c1 in (1e-3, 0.7, 1e3):
            for c3 in (5e-324, 1e-310, 1e-200, 1e-20, 1.0, 1e3):
                for c0 in (0.0, -2.5, 7e5):
                    for s in (0.0, 1e-3, -3.7, 1e50, -1e100, 1e200, -1e200,
                              1e250, -1e250, 1e300, -1e300, 1e308, -1e308,
                              1.7e308, -1.7e308):
                        self.assert_within_ulps((c0, c1, c3), s)

    def test_matches_exact_root_on_random_forms(self):
        rng = random.Random("cubic")
        for _ in range(500):
            form = (rng.uniform(-50.0, 50.0), rng.uniform(0.1, 20.0),
                    10.0 ** rng.uniform(-8.0, 3.0))
            self.assert_within_ulps(form, rng.uniform(-100.0, 100.0))

    def test_meets_the_iterations_stopping_rule(self):
        rng = random.Random("stop")
        for _ in range(500):
            form = (rng.uniform(-50.0, 50.0), rng.uniform(0.1, 20.0),
                    rng.uniform(0.01, 5.0))
            s = rng.uniform(-100.0, 100.0)
            x = poly_inverse(form, s)
            assert abs(poly_derivative(form, x) - s) <= 1e-12 * (1.0 + abs(s))

    def test_target_at_c0_gives_positive_zero(self):
        for form in ((0.0, 1.0, 1.0), (-2.5, 0.7, 3.0), (7e5, 1e3, 1e-20)):
            x = poly_inverse(form, form[0])
            assert x == 0.0 and math.copysign(1.0, x) == 1.0

    def test_subnormal_c3_falls_back_to_the_iteration(self, monkeypatch):
        calls = []
        real = treeiso.loss.solve_increasing
        monkeypatch.setattr(treeiso.loss, "solve_increasing",
                            lambda *args: calls.append(args) or real(*args))
        poly_inverse((-2.0, 1.0, 1e-3), 5.0)
        assert calls == []
        # sqrt(c1 / (3*c3)) overflows, so the closed form is not finite.
        x = poly_inverse((-2.0, 1.0, 5e-324), 5.0)
        assert len(calls) == 1
        assert x == 7.0

    def test_quadratic_inverse_rounds_as_its_form(self):
        rng = random.Random("quadratic")
        for _ in range(1000):
            loss = WeightedQuadratic(rng.uniform(0.5, 3.0), rng.uniform(-10.0, 10.0))
            s = rng.choice((0.0, -0.0, rng.uniform(-1e3, 1e3)))
            assert (loss.inverse_derivative(s).hex()
                    == poly_inverse(loss.poly_form(), s).hex())


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
                   tilted(WeightedQuadratic(2.0, 7.0), 1.25)]
        group = LossGroup(members)
        _, c1, c3 = group.poly_form()
        assert c3 == 0.0
        for s in (-11.0, 0.0, 3.0, 42.0):
            closed = group.inverse_derivative(s)
            newton = solve_increasing(group.derivative, lambda x: c1, s, 0.0)
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
        assert tilted(WeightedQuadratic(2.0, 3.0), 1.5).poly_form() == (-4.5, 2.0, 0.0)
        assert tilted(QuarticQuadratic(1.5, 0.25, -2.0), -1.0).poly_form() == (
            -3.0, 3.0, 1.0)

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
            x, _, stats = Solver(problem).solve(validate=True)
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
    z = {c: 0.0 for _, c, _, _ in problem.weighted_edges()}  # duals by child
    active = ActiveSet({c: EQ for c in z}, problem.arb.parent,
                       {v: 0.0 for v in range(1, n + 1)}, z)
    return Solver(problem).build_component_view(active, anchor, -1)


def far_inverse(view, c, target):
    """The value at which the far half of the internal edge into c has
    pooled derivative target."""
    u = view.far_end(c)
    return view._inverse(view.sub[u], target, u)


class TestSubgroupInverse:
    @pytest.mark.parametrize("kinds", [3, 4])
    def test_matches_member_by_member(self, kinds):
        rng = random.Random(kinds)
        for _ in range(10):
            n = rng.randint(2, 30)
            edges = [(rng.randint(1, c - 1), c, 1.0, 1.0) for c in range(2, n + 1)]
            losses = [random_member(rng, kinds) for _ in range(n)]
            view = pooled_view(losses, edges, anchor=rng.randint(1, n))
            for c in view.duals_at(0.0):
                members = [view._loss[u] for u in view._far(view.far_end(c))]
                for target in (rng.uniform(-60.0, 60.0), 0.0):
                    got = far_inverse(view, c, target)
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
        reroot = random.Random("spread, rooted again")
        for _ in range(20):
            n = rng.randint(2, 12)
            edges = [(rng.randint(1, c - 1), c, 1.0, 1.0) for c in range(2, n + 1)]
            losses = []
            for _ in range(n):
                loss = QuarticQuadratic(rng.choice((1e-3, 1.0, 1e3)),
                                        rng.choice((0.0, 1e-10, 1e6)),
                                        rng.choice((-1e6, -1.0, 0.0, 1e6)))
                if rng.random() < 0.3:
                    loss = tilted(loss, rng.choice((-1e8, 1e8)))
                losses.append(loss)
            view = pooled_view(losses, edges, anchor=rng.randint(1, n))
            self.check_every_edge(view, rng)
            # Rooted again at another member, every far half is checked
            # again: the sums on the way between the anchors are retaken.
            view.set_anchor(reroot.choice([u for u in view.nodes if u != view.anchor]))
            self.check_every_edge(view, reroot)

    @staticmethod
    def check_every_edge(view, rng):
        """Each far half's inverse against a root of its members' sum."""
        for c in view.duals_at(0.0):
            half = view._far(view.far_end(c))
            assert view.anchor not in half
            members = [view._loss[u] for u in half]
            for target in (rng.choice((-1e7, 1e7)), 1.0, 0.0):
                want = solve_increasing(
                    lambda v: sum(m.derivative(v) for m in members),
                    lambda v: sum(m.second_derivative(v) for m in members),
                    target, 0.0)
                got = far_inverse(view, c, target)
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
        assert view.poly_form()[2] > 0.0
        calls = []
        real = treeiso.loss.solve_increasing
        monkeypatch.setattr(treeiso.loss, "solve_increasing",
                            lambda *args: calls.append(args) or real(*args))
        assert far_inverse(view, 4, 2.0) == 6.0
        assert calls == []
        # The cubic far half of (2, 3) is in closed form too.
        far_inverse(view, 3, 2.0)
        assert calls == []


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

    @pytest.mark.parametrize("cls, args", [
        (WeightedQuadratic, (True, 4.0)), (WeightedQuadratic, (1.0, "4")),
        (WeightedQuadratic, (1.0, None)), (WeightedQuadratic, ([1], 4.0)),
        (QuarticQuadratic, (1.0, 0.0, " 2 ")), (QuarticQuadratic, (1.0, False, 0.0)),
    ])
    def test_parameters_must_be_real_numbers(self, cls, args):
        with pytest.raises(MalformedInstanceError, match="must be a real number"):
            cls(*args)

    @pytest.mark.parametrize("cls, args", [
        (WeightedQuadratic, (1.0, 10 ** 400)), (WeightedQuadratic, (10 ** 400, 1.0)),
        (QuarticQuadratic, (1.0, 0.0, 10 ** 400)), (QuarticQuadratic, (1.0, -(10 ** 5000), 0.0)),
    ], ids=["quadratic-y", "quadratic-w", "quartic-c", "quartic-b"])
    def test_parameters_beyond_float_range_rejected(self, cls, args):
        with pytest.raises(MalformedInstanceError, match="beyond the float range"):
            cls(*args)

    def test_integer_and_fraction_parameters_accepted(self):
        loss = QuarticQuadratic(1, Fraction(1, 4), -2)
        assert (loss.a, loss.b, loss.c) == (1.0, 0.25, -2.0)
        assert isinstance(loss.b, float)


def finite_rejections(what):
    """`_finite`'s words for the values it rejects in a parameter named `what`."""
    return {
        "inf": "%s must be finite, got inf" % what,
        "-inf": "%s must be finite, got -inf" % what,
        "nan": "%s must be finite, got nan" % what,
        "True": "%s must be a real number, got True" % what,
        "10**400": "%s must be finite, got a number beyond the float range" % what,
    }


def sign_rejections(text, *labels):
    return {label: "%s, got %s" % (text, label) for label in labels}


# Per parameter: a loss with the value in its place, the attribute that
# stores it, and the error message for each value it rejects.
LOSS_PARAMETERS = {
    "w": (lambda v: WeightedQuadratic(v, 1.0), "w", {
        **finite_rejections("quadratic weight w"),
        **sign_rejections("quadratic weight must be positive", "0.0", "-0.0", "-1.0")}),
    "y": (lambda v: WeightedQuadratic(1.0, v), "y", finite_rejections("quadratic target y")),
    "a": (lambda v: QuarticQuadratic(v, 0.5, 1.0), "a", {
        **finite_rejections("quadratic coefficient a"),
        **sign_rejections("quadratic coefficient must be positive", "0.0", "-0.0", "-1.0")}),
    "b": (lambda v: QuarticQuadratic(1.0, v, 1.0), "b", {
        **finite_rejections("quartic coefficient b"),
        **sign_rejections("quartic coefficient must be nonnegative", "-1.0")}),
    "c": (lambda v: QuarticQuadratic(1.0, 0.5, v), "c", finite_rejections("linear coefficient c")),
}


class TestParameterChecks:
    """A float in range passes one inline test; every other value takes the
    full check.  Together they accept and reject what the full check alone
    did, with its words."""

    @pytest.mark.parametrize("label, value", CHECKED_VALUES,
                             ids=[label for label, _ in CHECKED_VALUES])
    @pytest.mark.parametrize("name", sorted(LOSS_PARAMETERS))
    def test_value_stored_as_float_or_rejected_with_its_message(self, name, label, value):
        make, attr, rejected = LOSS_PARAMETERS[name]
        if label in rejected:
            with pytest.raises(MalformedInstanceError) as info:
                make(value)
            assert str(info.value) == rejected[label]
        else:
            stored = getattr(make(value), attr)
            assert type(stored) is float
            assert stored.hex() == float(value).hex()

    @pytest.mark.parametrize("make, message", [
        (lambda: WeightedQuadratic(0.0, math.nan), "quadratic weight must be positive, got 0.0"),
        (lambda: WeightedQuadratic(math.nan, True), "quadratic weight w must be finite, got nan"),
        (lambda: QuarticQuadratic(0.0, math.nan, 1.0), "quartic coefficient b must be finite, got nan"),
        (lambda: QuarticQuadratic(0.0, -1.0, math.nan), "quadratic coefficient must be positive, got 0.0"),
        (lambda: QuarticQuadratic(1.0, -1.0, math.nan), "quartic coefficient must be nonnegative, got -1.0"),
        (lambda: QuarticQuadratic(1.0, 0.5, True), "linear coefficient c must be a real number, got True"),
    ], ids=["w-before-y", "w-finite-first", "a-and-b-finite-before-signs",
            "a-sign-before-b-sign", "b-sign-before-c", "c-last"])
    def test_checks_run_in_their_order(self, make, message):
        with pytest.raises(MalformedInstanceError) as info:
            make()
        assert str(info.value) == message
