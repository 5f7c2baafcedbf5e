"""Symbolic rational expressions over the equivariant parameters.

A small expression tree (constants, variables t/x/y/z, +, -, *, /, integer
powers, half-integer powers of z-free subexpressions) is enough to hold every
closed form used by the Verlinde-type engine.  Two consumers:

* :func:`rational_eval` -- IEEE-double evaluation at a parameter point, with
  pole and branch guards;
* :meth:`RationalExpr.expand` -- exact expansion into a PuiseuxSeries, used
  for graded-dimension series; :func:`reach` predicts the box it loses.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .series import ExactComplex, INF_CUTOFF, PuiseuxSeries, SeriesError, default_denominator

__all__ = [
    "RationalExpr",
    "Var",
    "Const",
    "T", "X", "Y", "Z",
    "rational_eval",
    "PoleError",
    "BranchError",
]

EPS_POLE = 1e-12


class PoleError(ArithmeticError):
    """Denominator magnitude below the pole threshold at the given point."""


class BranchError(ArithmeticError):
    """Half-integer power applied to a value that is not positive real."""


class RationalExpr:
    """Expression-tree node; subclasses implement children/eval/expand."""

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __neg__(self):
        return Sub(Const(0), self)

    def __pow__(self, exponent):
        exponent = Fraction(exponent)
        if exponent.denominator == 1:
            return Pow(self, int(exponent))
        if exponent.denominator == 2:
            if self.contains("z"):
                raise BranchError("half-integer power of a z-dependent expression")
            return HalfPow(self, exponent)
        raise ValueError("only integer and half-integer powers are supported")

    # -- interface -----------------------------------------------------

    def contains(self, name):
        raise NotImplementedError

    def eval(self, point, eps_pole=EPS_POLE):
        raise NotImplementedError

    def expand(self, variables, order, den=None):
        """Exact PuiseuxSeries expansion around the origin."""
        raise NotImplementedError


def _coerce(value):
    if isinstance(value, RationalExpr):
        return value
    return Const(value)


class Const(RationalExpr):
    def __init__(self, value):
        self.value = ExactComplex.coerce(value)

    def contains(self, name):
        return False

    def eval(self, point, eps_pole=EPS_POLE):
        return complex(self.value)

    def expand(self, variables, order, den=None):
        den = den or default_denominator(variables)
        return PuiseuxSeries.constant(self.value, variables, order=order, den=den)

    def __repr__(self):
        return repr(self.value)


class Var(RationalExpr):
    def __init__(self, name):
        if name not in ("t", "x", "y", "z"):
            raise ValueError(f"unsupported variable {name!r}")
        self.name = name

    def contains(self, name):
        return self.name == name

    def eval(self, point, eps_pole=EPS_POLE):
        return complex(point[self.name])

    def expand(self, variables, order, den=None):
        den = den or default_denominator(variables)
        if self.name not in variables:
            raise SeriesError(f"variable {self.name} missing from expansion set")
        return PuiseuxSeries.variable(self.name, variables, order=order, den=den)

    def __repr__(self):
        return self.name


class _Binary(RationalExpr):
    op = "?"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def contains(self, name):
        return self.left.contains(name) or self.right.contains(name)

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Add(_Binary):
    op = "+"

    def eval(self, point, eps_pole=EPS_POLE):
        return self.left.eval(point, eps_pole) + self.right.eval(point, eps_pole)

    def expand(self, variables, order, den=None):
        return self.left.expand(variables, order, den) + self.right.expand(variables, order, den)


class Sub(_Binary):
    op = "-"

    def eval(self, point, eps_pole=EPS_POLE):
        return self.left.eval(point, eps_pole) - self.right.eval(point, eps_pole)

    def expand(self, variables, order, den=None):
        return self.left.expand(variables, order, den) - self.right.expand(variables, order, den)


class Mul(_Binary):
    op = "*"

    def eval(self, point, eps_pole=EPS_POLE):
        return self.left.eval(point, eps_pole) * self.right.eval(point, eps_pole)

    def expand(self, variables, order, den=None):
        return self.left.expand(variables, order, den) * self.right.expand(variables, order, den)


class Div(_Binary):
    op = "/"

    def eval(self, point, eps_pole=EPS_POLE):
        return self.left.eval(point, eps_pole) / _factor_eval(self.right, point, eps_pole)

    def expand(self, variables, order, den=None):
        numerator = self.left.expand(variables, order, den)
        denominator = self.right.expand(variables, order, den)
        return numerator * denominator.invert()


def _factor_eval(expr, point, eps_pole):
    """`expr.eval`, testing each factor of its product tree against eps_pole:
    small factors can multiply to below it far from a pole (as in `bethe`)."""
    if isinstance(expr, Mul):
        return _factor_eval(expr.left, point, eps_pole) * _factor_eval(expr.right, point, eps_pole)
    value = expr.eval(point, eps_pole)
    if abs(value) < eps_pole:
        raise PoleError(f"denominator factor {value} below pole threshold {eps_pole}")
    return value


class Pow(RationalExpr):
    def __init__(self, base, exponent):
        self.base = base
        self.exponent = int(exponent)

    def contains(self, name):
        return self.base.contains(name)

    def eval(self, point, eps_pole=EPS_POLE):
        if self.exponent < 0:  # a denominator: tested factor by factor, as in Div
            return _factor_eval(self.base, point, eps_pole) ** self.exponent
        return self.base.eval(point, eps_pole) ** self.exponent

    def _flipped(self):
        # (L/R)^{-k} expands as R^k / L^k so that only sparse polynomial
        # powers are ever inverted, never a dense series.
        if self.exponent < 0 and isinstance(self.base, Div):
            return Div(Pow(self.base.right, -self.exponent), Pow(self.base.left, -self.exponent))

    def expand(self, variables, order, den=None):
        if flipped := self._flipped():
            return flipped.expand(variables, order, den)
        return self.base.expand(variables, order, den) ** self.exponent

    def __repr__(self):
        return f"{self.base!r}^{self.exponent}"


class HalfPow(RationalExpr):
    """base^(k/2) with base z-free and positive real at evaluation points."""

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = Fraction(exponent)

    def contains(self, name):
        return self.base.contains(name)

    def eval(self, point, eps_pole=EPS_POLE):
        value = self.base.eval(point, eps_pole)
        if abs(value.imag) > 1e-13 * max(1.0, abs(value.real)) or value.real <= 0:
            raise BranchError(f"half power of non-positive-real value {value}")
        return complex(value.real ** float(self.exponent))

    def expand(self, variables, order, den=None):
        series = self.base.expand(variables, order, den)
        # Supported exactly when the base is a single monomial (covers every
        # closed form in use: t^{3/2}, y^{3/2}/x^{3/2}, (x/(y t))^{3/2}, ...).
        if len(series.terms) != 1:
            raise SeriesError("half-integer power of a non-monomial series")
        (exps, coeff), = series.terms.items()
        if coeff.im != 0:
            raise BranchError("half power of a non-real monomial coefficient")
        root = ExactComplex.sqrt_of_positive(coeff.re)
        scaled = [e * self.exponent for e in exps]
        if any(v.denominator != 1 for v in scaled):
            raise SeriesError("half power leaves the exponent lattice")
        return PuiseuxSeries(series.variables, series.den,
                             {tuple(map(int, scaled)): root ** self.exponent.numerator},
                             series.cutoff)

    def __repr__(self):
        return f"{self.base!r}^({self.exponent})"


T, X, Y, Z = Var("t"), Var("x"), Var("y"), Var("z")


def rational_eval(expr, point, eps_pole=EPS_POLE):
    """Evaluate `expr` at `point` (mapping of variable name to value)."""
    return expr.eval(point, eps_pole)


def reach(expr, variables, den, need):
    """(valuation, loss) of `expr.expand(variables, order, den)`, per variable.

    Scaled-int tuples: the leading exponents, and order * den minus the cutoff,
    for any order whose box holds each leading term.  By the kernel's rules, a
    product is cut at min(ca + vb, cb + va), an inversion loses 2m more, `**`
    takes its square-and-multiply steps, and a sum has the least valuation of
    its parts, so leading terms that cancel make the true loss larger.  Each
    half-integer power raises need[i] to the least box holding its base.
    """
    zero = (0,) * len(variables)
    if isinstance(expr, Const):
        return (0 if expr.value else INF_CUTOFF,) * len(variables), zero
    if isinstance(expr, Var):
        return tuple(den if v == expr.name else 0 for v in variables), zero
    if isinstance(expr, HalfPow):
        val, loss = reach(expr.base, variables, den, need)
        need[:] = [max(n, v + l + 1) for n, v, l in zip(need, val, loss)]
        return tuple(v * expr.exponent.numerator // expr.exponent.denominator for v in val), loss
    if isinstance(expr, Pow):
        if flipped := expr._flipped():
            return reach(flipped, variables, den, need)
        base, n = reach(expr.base, variables, den, need), expr.exponent
        if n < 0:
            base, n = _inverse(base), -n
        result = (zero, base[1])  # the `one` of PuiseuxSeries.__pow__
        while n:
            if n & 1:
                result = _times(result, base)
            base, n = _times(base, base), n >> 1
        return result
    a, b = reach(expr.left, variables, den, need), reach(expr.right, variables, den, need)
    if isinstance(expr, (Add, Sub)):
        return tuple(map(min, a[0], b[0])), tuple(map(max, a[1], b[1]))
    return _times(a, _inverse(b) if isinstance(expr, Div) else b)


def _times(a, b):
    """`reach` of a product (`PuiseuxSeries.__mul__`) from its factors'."""
    (va, la), (vb, lb) = a, b
    return tuple(map(add, va, vb)), tuple(map(max, map(sub, la, vb), map(sub, lb, va)))


def _inverse(a):
    """`reach` of `PuiseuxSeries.invert`: the loss grows by twice the valuation."""
    val, loss = a
    return tuple(-v for v in val), tuple(l + 2 * v for l, v in zip(loss, val))
