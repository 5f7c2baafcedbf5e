"""Symbolic rational expressions over the equivariant parameters.

A small expression tree (constants, the variables t, x and y, +, -, *, /,
integer and half-integer powers) is enough to hold every closed form used by
the Verlinde-type engine.  Two consumers:

* :func:`rational_eval` -- IEEE-double evaluation at a parameter point, with
  pole and branch guards;
* :meth:`RationalExpr.factored` -- compilation into a `Factored`, a
  coefficient times a lattice monomial times signed powers of polynomial
  factors.  A sum of such forms is put over common denominators and shared
  factors are cancelled exactly (:func:`common_quotients`); each group then
  expands once as the quotient `Div(Poly N, Poly D)` of two untruncated
  polynomials, which certifies its own box.  Every closed form expands so.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .series import ZERO, ExactComplex, INF_CUTOFF, PuiseuxSeries, SeriesError, default_denominator

__all__ = [
    "RationalExpr",
    "Var",
    "Const",
    "Factored",
    "common_quotients",
    "T", "X", "Y",
    "rational_eval",
    "PoleError",
    "BranchError",
]

# The one pole threshold: a denominator factor of smaller magnitude is a pole.
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
            return HalfPow(self, exponent)
        raise ValueError("only integer and half-integer powers are supported")

    # -- interface -----------------------------------------------------

    def eval(self, point):
        raise NotImplementedError

    def expand(self, variables, order):
        """Exact PuiseuxSeries expansion around the origin, on the lattice
        `default_denominator(variables)`.

        Constants and variables are untruncated (cutoff `INF_CUTOFF`, which
        is infinite), and so is every sum, product, power and monomial half
        power of them.  A `Div` of two such polynomials is the one truncating
        expansion: it certifies the box of `order`.  A `Div` or half power of
        a truncated series raises `SeriesError`; a negative power is the
        `Div` 1 / base^k.
        """
        raise NotImplementedError

    def factored(self, variables):
        """This expression as a `Factored` on the lattice of `variables`.

        Products, quotients and integer powers combine the forms of their
        children; any other node must expand to an untruncated polynomial,
        which becomes one factor (a sum is never split).
        """
        return Factored.of(self.expand(variables, 0))


def _coerce(value):
    if isinstance(value, RationalExpr):
        return value
    return Const(value)


class Const(RationalExpr):
    def __init__(self, value):
        self.value = ExactComplex.coerce(value)

    def eval(self, point):
        return complex(self.value)

    def expand(self, variables, order):
        return PuiseuxSeries.constant(self.value, variables, order=INF_CUTOFF)

    def __repr__(self):
        return repr(self.value)


class Var(RationalExpr):
    def __init__(self, name):
        if name not in ("t", "x", "y"):
            raise ValueError(f"unsupported variable {name!r}")
        self.name = name

    def eval(self, point):
        return complex(point[self.name])

    def expand(self, variables, order):
        if self.name not in variables:
            raise SeriesError(f"variable {self.name} missing from expansion set")
        return PuiseuxSeries.monomial(variables, {self.name: 1}, order=INF_CUTOFF)

    def __repr__(self):
        return self.name


class _Binary(RationalExpr):
    op = "?"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Add(_Binary):
    op = "+"

    def eval(self, point):
        return self.left.eval(point) + self.right.eval(point)

    def expand(self, variables, order):
        return self.left.expand(variables, order) + self.right.expand(variables, order)


class Sub(_Binary):
    op = "-"

    def eval(self, point):
        return self.left.eval(point) - self.right.eval(point)

    def expand(self, variables, order):
        return self.left.expand(variables, order) - self.right.expand(variables, order)


class Mul(_Binary):
    op = "*"

    def eval(self, point):
        return self.left.eval(point) * self.right.eval(point)

    def expand(self, variables, order):
        return self.left.expand(variables, order) * self.right.expand(variables, order)

    def factored(self, variables):
        return self.left.factored(variables) * self.right.factored(variables)


class Div(_Binary):
    op = "/"

    def eval(self, point):
        return self.left.eval(point) / _factor_eval(self.right, point)

    def expand(self, variables, order):
        # n / d for untruncated polynomials n and d.  n d^-1 holds on the box B
        # if d^-1 holds on B - vn; invert loses 2 vd, so d is cut at
        # B - vn + 2 vd (at least vd + 1: its corner).
        numerator = self.left.expand(variables, order)
        denominator = self.right.expand(variables, order)
        if min(numerator.cutoff + denominator.cutoff) < INF_CUTOFF:
            raise SeriesError("a quotient expands only from untruncated polynomials")
        box = order * denominator.den
        zero = (0,) * len(denominator.cutoff)
        vn, vd = numerator._valuations() or zero, denominator._valuations() or zero
        cut = tuple(max(box - n + 2 * d, d + 1) for n, d in zip(vn, vd))
        return numerator * denominator._cut(cut).invert()

    def factored(self, variables):
        return self.left.factored(variables) * self.right.factored(variables) ** -1


def _factor_eval(expr, point):
    """`expr.eval`, testing each factor of its product tree against EPS_POLE:
    small factors can multiply to below it far from a pole (as in `bethe`)."""
    if isinstance(expr, Mul):
        return _factor_eval(expr.left, point) * _factor_eval(expr.right, point)
    value = expr.eval(point)
    if abs(value) < EPS_POLE:
        raise PoleError(f"denominator factor {expr!r} = {value} below pole threshold {EPS_POLE}")
    return value


class Pow(RationalExpr):
    def __init__(self, base, exponent):
        self.base = base
        self.exponent = int(exponent)

    def eval(self, point):
        if self.exponent < 0:  # a denominator: tested factor by factor, as in Div
            return _factor_eval(self.base, point) ** self.exponent
        return self.base.eval(point) ** self.exponent

    def expand(self, variables, order):
        if self.exponent < 0:
            return Div(Const(1), Pow(self.base, -self.exponent)).expand(variables, order)
        return self.base.expand(variables, order) ** self.exponent

    def factored(self, variables):
        return self.base.factored(variables) ** self.exponent

    def __repr__(self):
        return f"{self.base!r}^{self.exponent}"


class HalfPow(RationalExpr):
    """base^(k/2) with base positive real at evaluation points."""

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = Fraction(exponent)

    def eval(self, point):
        value = self.base.eval(point)
        if abs(value.imag) > 1e-13 * max(1.0, abs(value.real)) or value.real <= 0:
            raise BranchError(f"half power of non-positive-real value {value}")
        return complex(value.real ** float(self.exponent))

    def expand(self, variables, order):
        # Supported exactly when the base is an untruncated monomial (covers
        # every closed form in use: t^{3/2}, x^{3/2}, y^{3/2}).
        series = self.base.expand(variables, order)
        if len(series.terms) != 1 or min(series.cutoff) < INF_CUTOFF:
            raise SeriesError("half-integer power of a series not an untruncated monomial")
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


class Poly(RationalExpr):
    """An untruncated polynomial series as a leaf, equal and hashed by its terms."""

    def __init__(self, series):
        self.series, self.key = series, frozenset(series.terms.items())

    def __eq__(self, other):
        return isinstance(other, Poly) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def expand(self, variables, order):
        return self.series


class Factored:
    """coeff * m * prod f^k: an exact coefficient, a lattice monomial m (its
    scaled exponents `mono`) and `powers` {f: k} with nonzero signed ints k.

    Each factor f is a `Poly` of at least two terms, untruncated, with
    valuation 0 in every variable and coefficient 1 at its least exponent
    tuple, so a polynomial names one f whatever unit it is written with
    (1 - t^2 and t^2 - 1 alike).  Factors are not factorised, so two of them
    need not be coprime.  A power of the form scales its k's.
    """

    def __init__(self, variables, coeff, mono, powers):
        self.variables, self.coeff, self.mono, self.powers = variables, coeff, mono, powers

    @staticmethod
    def of(series):
        """The untruncated polynomial `series` as coeff * m * f (no f if one term)."""
        if min(series.cutoff) < INF_CUTOFF:
            raise SeriesError("only an untruncated polynomial compiles to a factor")
        mono = series._valuations() or (0,) * len(series.variables)
        if len(series.terms) < 2:
            return Factored(series.variables, series.terms.get(mono, ZERO), mono, {})
        lead = series.terms[min(series.terms)]
        terms = {tuple(map(sub, e, mono)): c / lead for e, c in series.terms.items()}
        f = PuiseuxSeries._from_terms(series.variables, series.den, terms, series.cutoff)
        return Factored(series.variables, lead, mono, {Poly(f): 1})

    def __mul__(self, other):
        """The product with another form or with an int multiplicity."""
        if isinstance(other, int):
            return Factored(self.variables, self.coeff * other, self.mono, self.powers)
        powers = dict(self.powers)
        for f, k in other.powers.items():
            if k := k + powers.pop(f, 0):
                powers[f] = k
        return Factored(self.variables, self.coeff * other.coeff,
                        tuple(map(add, self.mono, other.mono)), powers)

    def __pow__(self, k):
        return Factored(self.variables, self.coeff ** k, tuple(e * k for e in self.mono),
                        {f: j * k for f, j in self.powers.items()} if k else {})

    def denominator(self):
        return {f: -k for f, k in self.powers.items() if k < 0}

    def expanded(self, powers):
        """Multiplied out, untruncated; every k must be positive.  `powers`
        keeps each f^k taken, for the caller's next forms."""
        series = PuiseuxSeries._from_terms(
            self.variables, default_denominator(self.variables),
            {self.mono: self.coeff} if self.coeff else {}, (INF_CUTOFF,) * len(self.mono))
        for f, k in self.powers.items():
            if (f, k) not in powers:
                powers[f, k] = f.series ** k
            series = series * powers[f, k]
        return series


def common_quotients(terms):
    """The sum of `Factored` terms as `Div`s of untruncated polynomials N / D.

    Terms linked by shared denominator factors, directly or through other
    terms, form one group, and so do the terms with no denominator.  A group
    is put over the lcm of its denominators (factors taken as atoms at their
    largest power).  Each lcm factor that two or more terms have in their
    denominators is divided out of N for as long as it divides exactly.
    `Div.expand` of each group certifies its box.
    """
    groups = []  # (denominator factors, terms)
    for term in terms:
        factors, members = set(term.denominator()), [term]
        for group in [group for group in groups if group[0] & factors or not group[0] | factors]:
            groups.remove(group)
            factors |= group[0]
            members += group[1]
        groups.append((factors, members))
    quotients = []
    for _, members in groups:
        dens = [term.denominator() for term in members]
        lcm = {f: max(d.get(f, 0) for d in dens) for d in dens for f in d}
        variables = members[0].variables
        unit = (variables, ExactComplex(1), (0,) * len(variables))
        powers = {}
        numerator = sum((term * Factored(*unit, lcm)).expanded(powers) for term in members)
        for f in [f for f in lcm if sum(f in d for d in dens) > 1]:
            while lcm[f] and (quotient := _exact_quotient(numerator, f.series)) is not None:
                numerator, lcm[f] = quotient, lcm[f] - 1
        denominator = Factored(*unit, {f: k for f, k in lcm.items() if k}).expanded(powers)
        quotients.append(Div(Poly(numerator), Poly(denominator)))
    return quotients


def _exact_quotient(n, f):
    """n / f for untruncated polynomials, or None if f does not divide n.

    A quotient's exponents lie from vn - vf to top(n) - top(f) (v the
    valuation, top the largest exponent, per variable); f is inverted to
    certify n / f on that box, and the quotient is kept if it times f is n.
    """
    vn, vf = n._valuations(), f._valuations()
    if vn is None or vf not in f.terms:
        return None
    box = tuple(max(a) - max(b) + 1 for a, b in zip(zip(*n.terms), zip(*f.terms)))
    cut = tuple(b - v + 2 * w for b, v, w in zip(box, vn, vf))
    if any(c <= w for c, w in zip(cut, vf)):
        return None
    q = PuiseuxSeries._from_terms(n.variables, n.den, (n * f._cut(cut).invert()).terms, n.cutoff)
    return q if q * f == n else None


T, X, Y = Var("t"), Var("x"), Var("y")


def rational_eval(expr, point):
    """Evaluate `expr` at `point` (mapping of variable name to value)."""
    return expr.eval(point)
