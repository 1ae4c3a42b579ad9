"""Strongly convex scalar losses with analytic derivative access.

Every loss exposes its value, first and second derivative, and the inverse
of its derivative (the derivative is a strictly increasing bijection on the
reals, so the inverse is well defined).  Two concrete families are
supported, plus a linear-shift wrapper used to fold penalty slopes into a
node's loss without rebuilding it:

    WeightedQuadratic(w, y)     f(x) = w/2 * (x - y)^2          (w > 0)
    QuarticQuadratic(a, b, c)   f(x) = a*x^2 + b*x^4 + c*x      (a > 0, b >= 0)
    LinearShift(base, slope)    f(x) = base(x) + slope*x

Every derivative above has the form f'(x) = c0 + c1*x + c3*x^3, which
`poly_form` returns as (c0, c1, c3).  `LossGroup` aggregates several losses
that share one variable by summing those coefficients, so evaluating a
pooled derivative costs O(1) whatever the group's size.

One scalar problem recurs: at which point does the summed derivative of
some losses equal a target s?  `pooled_inverse` answers it for any losses:
closed form when c3 == 0 (every member quadratic), otherwise a safeguarded
Newton-bisection iteration (`solve_increasing`) on the cubic.  A loss
without a polynomial form is still supported: then the iteration runs on
the member sum.  A single loss, a `LossGroup`, the far half of a component
and `equilibrium_t` (where a pooled component meets a separately
parametrized attached node) all invert through it, or through the stored
form it would compute.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from .errors import ContractViolationError, MalformedInstanceError

_ROOT_TOL = 1e-12
_MAX_ITER = 200


def solve_increasing(fun, dfun, target, x0=0.0):
    """Solve fun(x) = target for continuous strictly increasing fun.

    A bracket is found by geometric step expansion from x0, then refined
    by Newton steps that fall back to bisection whenever they leave the
    bracket.  Terminates when |fun(x) - target| <= 1e-12 * (1 + |target|),
    with a hard cap of 200 refinement iterations (monotonicity plus
    bisection make the cap unreachable in practice).
    """
    tol = _ROOT_TOL * (1.0 + abs(target))
    f0 = fun(x0) - target
    if abs(f0) <= tol:
        return x0
    # Step away from x0 in direction s (s*step is exact) until fun(x) -
    # target changes sign.
    s = 1.0 if f0 < 0 else -1.0
    step = 1.0 + 0.1 * abs(x0)
    near, far = x0, x0 + s * step
    guard = 0
    while s * (fun(far) - target) < 0:
        near = far
        step *= 2.0
        far += s * step
        guard += 1
        if guard > _MAX_ITER:
            raise ContractViolationError("bracket expansion failed; fun not increasing to target")
    lo, hi = (near, far) if s > 0 else (far, near)

    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        fx = fun(x) - target
        if abs(fx) <= tol:
            return x
        if fx > 0:
            hi = x
        else:
            lo = x
        d = dfun(x)
        if d > 0:
            nxt = x - fx / d
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
        else:
            nxt = 0.5 * (lo + hi)
        if nxt == x:
            break
        x = nxt
    return x


def poly_derivative(form, x):
    """c0 + c1*x + c3*x^3 for form = (c0, c1, c3).

    With c3 == 0 this is exactly c1*x + c0: an all-quadratic pool rounds as
    a linear form does and never evaluates a cubic term, which could
    overflow for |x| near 1e103 and turn a finite slope into NaN.
    """
    c0, c1, c3 = form
    if c3 == 0.0:
        return c1 * x + c0
    return c1 * x + c3 * x * x * x + c0


def poly_inverse(form, s):
    """The x at which c0 + c1*x + c3*x^3 equals s (c1 > 0, c3 >= 0)."""
    c0, c1, c3 = form
    guess = (s - c0) / c1
    if c3 == 0.0:
        return guess
    return solve_increasing(
        lambda x: poly_derivative(form, x),
        lambda x: c1 + 3.0 * c3 * x * x,
        s,
        guess,
    )


def pooled_form(losses):
    """The summed (c0, c1, c3) of `losses` in order, or None if one has no form."""
    c0 = c1 = c3 = 0.0
    for loss in losses:
        form = loss.poly_form()
        if form is None:
            return None
        c0 += form[0]
        c1 += form[1]
        c3 += form[2]
    return c0, c1, c3


def pooled_inverse(losses, target):
    """The x at which the derivatives of `losses` sum to target.

    Inverts the pooled form when every member has one; otherwise runs
    Newton on the member sum, started from the members' linearization at 0.
    """
    form = pooled_form(losses)
    if form is not None:
        return poly_inverse(form, target)
    gain = sum(loss.second_derivative(0.0) for loss in losses)
    offset = -sum(loss.derivative(0.0) for loss in losses)
    return solve_increasing(
        lambda x: sum(loss.derivative(x) for loss in losses),
        lambda x: sum(loss.second_derivative(x) for loss in losses),
        target,
        (target + offset) / gain,
    )


def _finite(value, what):
    v = float(value)
    if not math.isfinite(v):
        raise MalformedInstanceError("%s must be finite, got %r" % (what, value))
    return v


class Loss:
    """Interface for a strongly convex differentiable scalar loss."""

    def value(self, x: float) -> float:
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        raise NotImplementedError

    def second_derivative(self, x: float) -> float:
        raise NotImplementedError

    def poly_form(self) -> Optional[Tuple[float, float, float]]:
        """(c0, c1, c3) when f'(x) = c0 + c1*x + c3*x^3 exactly, else None."""
        return None

    def inverse_derivative(self, s: float) -> float:
        """The point x at which the derivative equals s."""
        form = self.poly_form()
        if form is not None:
            return poly_inverse(form, s)
        return pooled_inverse((self,), s)

    def shifted(self, slope: float) -> "Loss":
        """This loss plus slope*x."""
        if slope == 0.0:
            return self
        return LinearShift(self, slope)


class WeightedQuadratic(Loss):
    """f(x) = w/2 * (x - y)^2 with w > 0."""

    __slots__ = ("w", "y")

    def __init__(self, w: float, y: float):
        w = _finite(w, "quadratic weight")
        if w <= 0:
            raise MalformedInstanceError("quadratic weight must be positive, got %r" % w)
        self.w = w
        self.y = _finite(y, "quadratic target")

    def value(self, x):
        d = x - self.y
        return 0.5 * self.w * d * d

    def derivative(self, x):
        return self.w * (x - self.y)

    def second_derivative(self, x):
        return self.w

    def poly_form(self):
        return -(self.w * self.y), self.w, 0.0

    def __repr__(self):
        return "WeightedQuadratic(w=%r, y=%r)" % (self.w, self.y)


class QuarticQuadratic(Loss):
    """f(x) = a*x^2 + b*x^4 + c*x with a > 0, b >= 0."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        a = _finite(a, "quadratic coefficient")
        b = _finite(b, "quartic coefficient")
        if a <= 0:
            raise MalformedInstanceError("quadratic coefficient must be positive, got %r" % a)
        if b < 0:
            raise MalformedInstanceError("quartic coefficient must be nonnegative, got %r" % b)
        self.a = a
        self.b = b
        self.c = _finite(c, "linear coefficient")

    def value(self, x):
        x2 = x * x
        return self.a * x2 + self.b * x2 * x2 + self.c * x

    def derivative(self, x):
        return 2.0 * self.a * x + 4.0 * self.b * x * x * x + self.c

    def second_derivative(self, x):
        return 2.0 * self.a + 12.0 * self.b * x * x

    def poly_form(self):
        return self.c, 2.0 * self.a, 4.0 * self.b

    def __repr__(self):
        return "QuarticQuadratic(a=%r, b=%r, c=%r)" % (self.a, self.b, self.c)


class LinearShift(Loss):
    """A base loss plus slope*x; shifting again merges the slopes."""

    __slots__ = ("base", "slope")

    def __init__(self, base: Loss, slope: float):
        self.base = base
        self.slope = _finite(slope, "shift slope")

    def value(self, x):
        return self.base.value(x) + self.slope * x

    def derivative(self, x):
        return self.base.derivative(x) + self.slope

    def second_derivative(self, x):
        return self.base.second_derivative(x)

    def poly_form(self):
        form = self.base.poly_form()
        if form is None:
            return None
        c0, c1, c3 = form
        return c0 + self.slope, c1, c3

    def shifted(self, slope):
        if slope == 0.0:
            return self
        return LinearShift(self.base, self.slope + slope)

    def __repr__(self):
        return "LinearShift(%r, slope=%r)" % (self.base, self.slope)


class LossGroup:
    """Several losses sharing one variable, pooled by summing derivatives."""

    __slots__ = ("losses", "_form")

    def __init__(self, losses: Sequence[Loss]):
        self.losses = tuple(losses)
        if not self.losses:
            raise ContractViolationError("a loss group needs at least one member")
        self._form = pooled_form(self.losses)

    def poly_form(self):
        return self._form

    def derivative(self, x):
        if self._form is not None:
            return poly_derivative(self._form, x)
        return sum(loss.derivative(x) for loss in self.losses)

    def second_derivative(self, x):
        return sum(loss.second_derivative(x) for loss in self.losses)

    def inverse_derivative(self, s: float) -> float:
        """The common point at which the pooled derivative equals s."""
        if self._form is not None:
            return poly_inverse(self._form, s)
        return pooled_inverse(self.losses, s)


def equilibrium_t(group: LossGroup, boundary_flow: float, attach_loss: Loss) -> float:
    """Parameter value at which a pooled component meets its attached node.

    The component tracks group.inverse_derivative(t + boundary_flow) while
    the attached node tracks attach_loss.inverse_derivative(-t); both are
    monotone in t with opposite directions, so they meet at exactly one t.
    Solved in value space: the meeting value v satisfies

        group.derivative(v) + attach_loss.derivative(v) = boundary_flow,

    whose left side is strictly increasing, and then t = -attach'(v).
    """
    gform = group.poly_form()
    aform = attach_loss.poly_form()
    if gform is not None and aform is not None:
        gc0, gc1, gc3 = gform
        ac0, ac1, ac3 = aform
        c3 = gc3 + ac3
        if c3 == 0.0:
            # Two subtractions, not flow - (gc0 + ac0): all-quadratic
            # outputs are meant to stay bit-for-bit reproducible.
            v = (boundary_flow - gc0 - ac0) / (gc1 + ac1)
        else:
            # Newton's stopping test scales with |target|, so the target
            # stays the flow rather than absorbing gc0.
            v = poly_inverse((gc0 + ac0, gc1 + ac1, c3), boundary_flow)
    else:
        v = pooled_inverse(group.losses + (attach_loss,), boundary_flow)
    return -attach_loss.derivative(v)


def loss_from_json(obj) -> Loss:
    """Build a loss from its JSON encoding.

    {"type": "quadratic", "y": 4.0, "w": 1.0} or
    {"type": "quartic", "a": 1.0, "b": 0.25, "c": 0.0}.
    """
    if not isinstance(obj, dict):
        raise MalformedInstanceError("loss must be an object, got %r" % (obj,))
    kind = obj.get("type")
    if kind == "quadratic":
        missing = {"y", "w"} - set(obj)
        if missing:
            raise MalformedInstanceError("quadratic loss missing %s" % sorted(missing))
        return WeightedQuadratic(obj["w"], obj["y"])
    if kind == "quartic":
        missing = {"a", "b", "c"} - set(obj)
        if missing:
            raise MalformedInstanceError("quartic loss missing %s" % sorted(missing))
        return QuarticQuadratic(obj["a"], obj["b"], obj["c"])
    raise MalformedInstanceError("unknown loss type %r" % (kind,))
