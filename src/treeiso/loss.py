"""Strongly convex scalar losses with analytic derivative access.

Every loss exposes its value, first and second derivative, and the inverse
of its derivative (the derivative is a strictly increasing bijection on the
reals, so the inverse is well defined).  Two concrete families are
supported:

    WeightedQuadratic(w, y)     f(x) = w/2 * (x - y)^2          (w > 0)
    QuarticQuadratic(a, b, c)   f(x) = a*x^2 + b*x^4 + c*x      (a > 0, b >= 0)

Every derivative above has the form f'(x) = c0 + c1*x + c3*x^3, which
`poly_form` returns as (c0, c1, c3).  Losses that share one variable pool
by summing those coefficients, so evaluating a pooled derivative costs
O(1) whatever the group's size: the solver's `ComponentView` keeps these
sums, and `LossGroup` pools a fixed list (the benchmark traces it).

One scalar problem recurs: at which point does the summed derivative of
some losses equal a target s?  `pooled_inverse` answers it for any losses,
in closed form whenever the members have a polynomial form: a quotient
when c3 == 0 (every member quadratic), otherwise the one real root of the
cubic, polished by one Newton step (`poly_inverse`).  A loss without a
polynomial form is still supported: then a safeguarded Newton-bisection
iteration (`solve_increasing`) runs on the member sum.  A single loss,
a pooled group, the far half of a component and `equilibrium_t` (where a
pooled component meets a separately parametrized attached node) all
invert through it, or through the stored form it would compute.  A
linear tilt needs no wrapper: the oracle, whose strict edges add constant
slopes to their endpoint losses, moves the slopes' negated sum into the
target.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional, Sequence, Tuple

from .errors import ContractViolationError, MalformedInstanceError

INF = math.inf

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
    """The x at which c0 + c1*x + c3*x^3 equals s (c1 > 0, c3 >= 0).

    With c3 > 0 this is the one real root of the depressed cubic
    x^3 + (c1/c3)*x - (s - c0)/c3 = 0, in its hyperbolic closed form, then
    one Newton step that brings it to within a few ulps.  Where the closed
    form overflows (a subnormal c3 makes r infinite, or |s - c0| is near
    the float limit), `solve_increasing` finds the root instead.  It
    starts at x0, the root of whichever of c1*x and c3*x^3 alone reaches
    s - c0 first: the root lies between x0/2 and x0, and c3*x*x*x
    (evaluated left to right) does not overflow there.
    """
    c0, c1, c3 = form
    if c3 == 0.0:
        return (s - c0) / c1
    # Rooted in s - c0, not c0 - s, so that x takes its sign: s == c0
    # gives +0.0, as the quotient above does.
    e = s - c0
    r = math.sqrt(c1 / (3.0 * c3))
    x = 2.0 * r * math.sinh(math.asinh(1.5 * e / (c1 * r)) / 3.0)
    if not math.isfinite(x):
        a = abs(e)
        x = solve_increasing(
            lambda v: poly_derivative(form, v),
            lambda v: c1 + 3.0 * c3 * v * v,
            s,
            math.copysign(min(a / c1, a ** (1.0 / 3.0) / c3 ** (1.0 / 3.0)), e),
        )
    polished = x - (c1 * x + c3 * x * x * x - e) / (c1 + 3.0 * c3 * x * x)
    return polished if math.isfinite(polished) else x


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
    # float() would also take True or " 2 "; the float test skips the ABC check.
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise MalformedInstanceError("%s must be a real number, got %r" % (what, value))
    try:
        v = float(value)
    except OverflowError:
        raise MalformedInstanceError(
            "%s must be finite, got a number beyond the float range" % what) from None
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


class WeightedQuadratic(Loss):
    """f(x) = w/2 * (x - y)^2 with w > 0."""

    __slots__ = ("w", "y")

    def __init__(self, w: float, y: float):
        # A float in range passes one test; anything else is checked and
        # worded by `_finite`, in the same order.
        if not (type(w) is float and 0.0 < w < INF):
            w = _finite(w, "quadratic weight w")
            if w <= 0:
                raise MalformedInstanceError("quadratic weight must be positive, got %r" % w)
        self.w = w
        self.y = y if type(y) is float and -INF < y < INF else _finite(y, "quadratic target y")

    def value(self, x):
        d = x - self.y
        return 0.5 * self.w * d * d

    def derivative(self, x):
        return self.w * (x - self.y)

    def second_derivative(self, x):
        return self.w

    def poly_form(self):
        return -(self.w * self.y), self.w, 0.0

    def inverse_derivative(self, s):
        # poly_inverse's (s - c0) / c1 with c0 = -(w*y), which rounds alike.
        return (s + self.w * self.y) / self.w

    def __repr__(self):
        return "WeightedQuadratic(w=%r, y=%r)" % (self.w, self.y)


class QuarticQuadratic(Loss):
    """f(x) = a*x^2 + b*x^4 + c*x with a > 0, b >= 0."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        # As in WeightedQuadratic: one test for floats in range.
        if not (type(a) is float and 0.0 < a < INF and type(b) is float and 0.0 <= b < INF):
            a = _finite(a, "quadratic coefficient a")
            b = _finite(b, "quartic coefficient b")
            if a <= 0:
                raise MalformedInstanceError("quadratic coefficient must be positive, got %r" % a)
            if b < 0:
                raise MalformedInstanceError("quartic coefficient must be nonnegative, got %r" % b)
        self.a = a
        self.b = b
        self.c = c if type(c) is float and -INF < c < INF else _finite(c, "linear coefficient c")

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

    def inverse_derivative(self, s: float) -> float:
        """The common point at which the pooled derivative equals s."""
        if self._form is not None:
            return poly_inverse(self._form, s)
        return pooled_inverse(self.losses, s)


def equilibrium_t(group, boundary_flow: float, attach_loss: Loss) -> float:
    """Parameter value at which a pooled component meets its attached node.

    `group` is anything with `poly_form()` and `losses`: the solver passes
    its `ComponentView`, the tests a `LossGroup`.  The component tracks the
    value where its pooled derivative equals t + boundary_flow, while
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
            v = poly_inverse((gc0 + ac0, gc1 + ac1, c3), boundary_flow)
    else:
        v = pooled_inverse(group.losses + (attach_loss,), boundary_flow)
    return -attach_loss.derivative(v)


# A loss object has exactly these keys; only one that does not is taken
# through `_check_fields`, which words the error.
_QUADRATIC_FIELDS = frozenset(("type", "y", "w"))
_QUARTIC_FIELDS = frozenset(("type", "a", "b", "c"))


def _check_fields(obj: dict, fields: frozenset, kind: str):
    missing = fields - obj.keys()
    if missing:
        raise MalformedInstanceError("%s loss missing %s" % (kind, sorted(missing)))
    raise MalformedInstanceError(
        "unknown field %s" % ", ".join(sorted(obj.keys() - fields)))


def loss_from_json(obj) -> Loss:
    """Build a loss from its JSON encoding.

    {"type": "quadratic", "y": 4.0, "w": 1.0} or
    {"type": "quartic", "a": 1.0, "b": 0.25, "c": 0.0}; any other field
    is rejected.
    """
    if not isinstance(obj, dict):
        raise MalformedInstanceError("loss must be an object, got %r" % (obj,))
    kind = obj.get("type")
    if kind == "quadratic":
        if obj.keys() != _QUADRATIC_FIELDS:
            _check_fields(obj, _QUADRATIC_FIELDS, kind)
        return WeightedQuadratic(obj["w"], obj["y"])
    if kind == "quartic":
        if obj.keys() != _QUARTIC_FIELDS:
            _check_fields(obj, _QUARTIC_FIELDS, kind)
        return QuarticQuadratic(obj["a"], obj["b"], obj["c"])
    raise MalformedInstanceError("unknown loss type %r" % (kind,))
