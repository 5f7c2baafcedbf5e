"""Exact arithmetic kernel: complex rationals and truncated Puiseux/Laurent series.

Coefficients are exact complex rationals (`ExactComplex`).  Exponents of a
`PuiseuxSeries` live on a scaled integer lattice (1/D)Z per variable, so
half-integer powers such as t^{3/2} and the denominator-24 lattice used for
q-series coexist in one type.  Truncation is a per-variable exclusive upper
bound (a "box"); Laurent tails (negative exponents) are allowed.  An
untruncated variable has the cutoff `INF_CUTOFF`, which JSON writes as null.

A series keeps one variable tuple for life, a subsequence of `VARIABLE_ORDER`:
each computation builds all its series on one tuple.  `+`, `*` and `==` raise
`SeriesError` on two different tuples; they merge only lattices, moving both
operands to the lcm of their denominators.

A series stands for its stored terms plus terms it does not store, all at or
beyond its cutoff.  `*` is sound only when every such unstored term also lies
at or above the stored valuation in each variable, as for a monomial times a
power series, and, for a series that stores nothing, at or above its cutoff;
the product's cutoff min(ca + vb, cb + va) assumes it.  An untruncated series
that stores nothing is the exact zero, and so is its product with any series.

All values are immutable after construction; operations are pure functions.

Every `PuiseuxSeries` holds only nonzero `ExactComplex` coefficients keyed by
exponent tuples of the series' arity, each exponent below its cutoff.  The
public constructor enforces this by coercing and filtering its input.  Kernel
outputs that hold it by construction skip that pass through the trusted
`PuiseuxSeries._from_terms`: `+`, `scale`, `*`, `invert`, unary `-`, `_cut`
(behind `truncate`), `substitute_power`, `rescale`, `ratexpr`'s `Factored.of`,
`Factored.expanded` and `_exact_quotient`, `elliptic`'s integer q-series and
`_half_argument`, and `floer`'s superspace character.  `+` and `truncate` drop
the terms beyond the new cutoff and `scale` by an exact 0 keeps none and returns
the exact zero, untruncated, since 0 * (s + O(c)) = 0; the rest need no filter.

Products and inversion run one path for every coefficient, on integer
numerators over one denominator as in FLINT's `fmpq_poly`.  The functions
after `PuiseuxSeries` convert: `_numerator` (an int, or a Gaussian-integer
ExactComplex only where im != 0), `_lift` for a whole term map, and `_unlift`,
which reduces an output once.  `vw3d.grassmann` stores and shares this form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import inf, isqrt, lcm, prod
from operator import add, ge, mul, sub

__all__ = [
    "ExactComplex",
    "PuiseuxSeries",
    "SeriesError",
    "VARIABLE_ORDER",
    "default_denominator",
    "poly_mul",
    "poly_pow",
]

# Canonical variable order; every series uses a subsequence of this.
VARIABLE_ORDER = ("t", "x", "y", "q", "s")

# Lattice denominators matching the printed exponent conventions:
# half-integer powers for the grading variables, 1/24 for q-series.
_DEFAULT_DEN = {"t": 2, "x": 2, "y": 2, "q": 24, "s": 1}


def default_denominator(variables):
    """Least common lattice denominator for a set of variables."""
    return lcm(*(_DEFAULT_DEN[v] for v in variables))


class SeriesError(ValueError):
    """Raised for invalid series operations (zero inversion, bad lattice...)."""


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # floats are user-facing parameter values; snap to the best rational
        # with denominator <= 1e15 if it lies within 1e-15 relative, so 0.3
        # means 3/10, not its binary expansion, and 1e-20 does not snap to 0
        exact = Fraction(value)
        snapped = exact.limit_denominator(10**15)
        # |snapped - exact| <= 1e-15 |exact|, cross-multiplied in integers
        (p, q), (n, d) = snapped.as_integer_ratio(), exact.as_integer_ratio()
        return snapped if abs(p * d - n * q) * 10**15 <= abs(n) * q else exact
    raise TypeError(f"cannot coerce {type(value).__name__} to Fraction")


class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @staticmethod
    def coerce(value):
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, Fraction):
            return _real(value)
        if isinstance(value, complex):
            return ExactComplex(_as_fraction(value.real), _as_fraction(value.imag))
        return ExactComplex(value)

    def __add__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:  # a series on the right adds itself (`__radd__`)
            return NotImplemented
        if not (self.im or other.im):
            return _real(self.re + other.re)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        if not self.im:
            return _real(-self.re)
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        if not (self.im or other.im):
            return _real(self.re - other.re)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is int:
            return ExactComplex(self.re * other, self.im * other) if self.im else _real(self.re * other)
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        if not (self.im or other.im):
            return _real(self.re * other.re)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        if not (self.im or other.im) and other.re:
            return _real(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __pow__(self, k):
        """An integer power."""
        if not self.im:
            return _real(self.re ** k)
        return prod([self if k >= 0 else 1 / self] * abs(k), start=ExactComplex(1))

    def __eq__(self, other):
        if isinstance(other, (ExactComplex, int, float, Fraction, complex)):
            other = ExactComplex.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):  # a real value hashes like the int, Fraction or float it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re or self.im)

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    def __complex__(self):
        return complex(self.re, self.im)

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"

    @staticmethod
    def sqrt_of_positive(value):
        """Exact square root of a positive rational that is a perfect square."""
        value = _as_fraction(value)
        if value <= 0:
            raise SeriesError("exact sqrt requires a positive rational")
        num, den = value.numerator, value.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise SeriesError(f"{value} is not a perfect rational square")
        return Fraction(rn, rd)


_FRACTION_ZERO = Fraction(0)


def _real(value):
    """The ExactComplex `value` + 0i for a Fraction `value`, without coercion."""
    z = object.__new__(ExactComplex)
    object.__setattr__(z, "re", value)
    object.__setattr__(z, "im", _FRACTION_ZERO)
    return z


ZERO = ExactComplex(0)

# The cutoff of a variable with no truncation: shifted or scaled, it stays one.
INF_CUTOFF = inf

# The scalars `+`, `-` and `*` take besides a series.
_SCALARS = (int, float, Fraction, ExactComplex, complex)


class PuiseuxSeries:
    """Truncated multivariate series on the exponent lattice (1/D)Z.

    terms maps scaled integer exponent tuples to nonzero ExactComplex
    coefficients; `cutoff` is the per-variable exclusive truncation bound in
    scaled units (a stored exponent vector e satisfies e[i] < cutoff[i] for
    every i).  The represented object is the coset "stored terms + O(cutoff)".
    """

    __slots__ = ("variables", "den", "terms", "cutoff")

    def __init__(self, variables, den, terms, cutoff):
        variables = tuple(variables)
        for v in variables:
            if v not in VARIABLE_ORDER:
                raise SeriesError(f"unknown variable {v!r}")
        if list(variables) != [v for v in VARIABLE_ORDER if v in variables]:
            raise SeriesError("variables must follow canonical order")
        if den <= 0:
            raise SeriesError("lattice denominator must be positive")
        cutoff = tuple(cutoff)
        if len(cutoff) != len(variables):
            raise SeriesError("cutoff arity mismatch")
        clean = {}
        for exps, coeff in terms.items():
            coeff = ExactComplex.coerce(coeff)
            if not coeff:
                continue
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise SeriesError("exponent arity mismatch")
            if any(map(ge, exps, cutoff)):
                continue
            clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "cutoff", cutoff)

    @staticmethod
    def _from_terms(variables, den, terms, cutoff):
        """Trusted constructor: the caller guarantees the module invariant."""
        series = object.__new__(PuiseuxSeries)
        for name, value in zip(PuiseuxSeries.__slots__, (variables, den, terms, cutoff)):
            object.__setattr__(series, name, value)
        return series

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def constant(value, variables=(), order=None, den=None):
        return PuiseuxSeries.monomial(variables, {}, value, order=order, den=den)

    @staticmethod
    def monomial(variables, exponents, coeff=1, order=None, den=None):
        """Monomial with `exponents` given as Fractions or ints per variable."""
        variables = tuple(variables)
        den = den if den is not None else default_denominator(variables)
        order = order if order is not None else 21
        scaled = []
        for v in variables:
            e = Fraction(exponents.get(v, 0))
            se = e * den
            if se.denominator != 1:
                raise SeriesError(f"exponent {e} of {v} not on lattice 1/{den}")
            scaled.append(int(se))
        cutoff = tuple(order * den for _ in variables)
        return PuiseuxSeries(variables, den, {tuple(scaled): ExactComplex.coerce(coeff)}, cutoff)

    # ------------------------------------------------------------------
    # structure helpers

    def is_zero(self):
        return not self.terms

    def rescale(self, new_den):
        """Move to a finer lattice; new_den must be a multiple of den."""
        if new_den == self.den:
            return self
        if new_den % self.den:
            raise SeriesError("lattice denominators must merge by lcm")
        f = new_den // self.den
        terms = {tuple(e * f for e in exps): c for exps, c in self.terms.items()}
        cutoff = tuple(c * f for c in self.cutoff)
        return PuiseuxSeries._from_terms(self.variables, new_den, terms, cutoff)

    def _valuations(self):
        """Componentwise minimum exponent over stored terms (None if zero)."""
        if not self.terms:
            return None
        return tuple(map(min, zip(*self.terms)))

    @staticmethod
    def _align(a, b):
        """Both operands on their lcm lattice; their variables must agree."""
        if a.variables != b.variables:
            raise SeriesError(f"series in {a.variables} and {b.variables} do not combine")
        den = lcm(a.den, b.den)
        return a.rescale(den), b.rescale(den)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = PuiseuxSeries(self.variables, self.den,
                                  {(0,) * len(self.variables): other}, self.cutoff)
        a, b = PuiseuxSeries._align(self, other)
        cutoff = tuple(map(min, a.cutoff, b.cutoff))
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            c = terms.get(exps)
            if c is None:
                terms[exps] = coeff
            elif s := c + coeff:
                terms[exps] = s
            else:
                del terms[exps]
        if a.cutoff != b.cutoff:
            terms = {e: c for e, c in terms.items() if not any(map(ge, e, cutoff))}
        return PuiseuxSeries._from_terms(a.variables, a.den, terms, cutoff)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries._from_terms(self.variables, self.den,
                                         {e: -c for e, c in self.terms.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value):
        if type(value) is not int:  # ExactComplex * int has its own fast branch
            value = ExactComplex.coerce(value)
        terms = {e: c * value for e, c in self.terms.items()} if value else {}
        cutoff = self.cutoff if value else (INF_CUTOFF,) * len(self.cutoff)  # 0 * (s + O(c)) = 0
        return PuiseuxSeries._from_terms(self.variables, self.den, terms, cutoff)

    def __mul__(self, other):
        """The truncated product, cut at min(ca + vb, cb + va) per variable.

        Precondition, not checked: every term an operand does not store lies
        at or above its stored valuation in each variable, as for a monomial
        times a power series, and an operand that stores nothing stands for
        terms at or above its cutoff in each variable, which serves as its
        valuation; an untruncated one is the exact zero, and so is the
        product.  Otherwise the product can miss terms inside its claimed
        cutoff.
        """
        if isinstance(other, _SCALARS):
            return self.scale(other)
        a, b = PuiseuxSeries._align(self, other)
        va, vb = a._valuations() or a.cutoff, b._valuations() or b.cutoff
        # a is known mod O(ca), so a*b is known mod O(ca + vb), and likewise
        # mod O(cb + va), componentwise
        cutoff = tuple(min(ca + eb, cb + ea)
                       for ca, cb, ea, eb in zip(a.cutoff, b.cutoff, va, vb))
        terms = _product(a.terms, b.terms, cutoff)
        return PuiseuxSeries._from_terms(a.variables, a.den, terms, cutoff)

    __rmul__ = __mul__

    def __pow__(self, n):
        """Square-and-multiply: each step is a `*` with its cutoff rule, so `s ** 1` is `s`."""
        if not isinstance(n, int):
            raise SeriesError("series powers must be integers")
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return PuiseuxSeries(self.variables, self.den, {(0,) * len(self.variables): 1},
                                 self.cutoff)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _cut(self, cutoff):
        """The trusted restriction to `cutoff`, componentwise <= self.cutoff."""
        terms = self.terms if cutoff == self.cutoff else {
            e: c for e, c in self.terms.items() if not any(map(ge, e, cutoff))}
        return PuiseuxSeries._from_terms(self.variables, self.den, terms, cutoff)

    def truncate(self, order):
        """Restrict to the box with per-variable bound `order` (in 1/1 units, on the lattice)."""
        bound = _as_fraction(order) * self.den
        if bound.denominator != 1:
            raise SeriesError(f"truncation order {order} is not on the lattice 1/{self.den}")
        return self._cut(tuple(min(c, int(bound)) for c in self.cutoff))

    def invert(self):
        """Multiplicative inverse up to the inherited truncation.

        Requires a "corner" term: a stored exponent vector componentwise <=
        all others with nonzero coefficient (automatic in one variable).
        Writes self = corner * x^m (1 + u) and solves (1 + u) B = 1 in one
        walk over increasing total degree: once B_e is final, its product
        with each u_j is added at e + j if that lies in the box, so sparse
        inputs stay sparse.  The walk runs on `_numerator`s: with numerators
        n over one denominator D and n0 the corner's, u_j = n_{j+m} / n0.
        Let m0 be the least total degree in u and K(e) = |e| // m0.  Since
        |e| >= |e - j| + m0, K(e) > K(e - j), so N_e = B_e * n0^K(e) is a
        (Gaussian) integer given by the integer recurrence

            N_e = -sum_j n_{j+m} * N_{e-j} * n0^(K(e) - 1 - K(e-j)),

        and each output coefficient D * N_e / n0^(K(e)+1) is reduced once.
        A nonreal corner c goes through 1/s = conj(c) (conj(c) s)^-1, whose
        corner |c|^2 is real, so n0 is always an int.
        """
        if self.is_zero():
            raise SeriesError("cannot invert a series that is zero to its truncation")
        mins = self._valuations()
        corner = self.terms.get(mins)
        if corner is None or not corner:
            raise SeriesError("no corner term: series is not a unit on its exponent box")
        if INF_CUTOFF in self.cutoff:
            raise SeriesError("inversion needs a fully truncated series")
        if corner.im:  # conj(c) s has the real corner |c|^2
            return self.scale(corner.conjugate()).invert().scale(corner.conjugate())
        lifted, den = _lift(self.terms)
        n0 = dict(lifted)[mins]
        u = [(j, sum(j), c) for j, c in ((tuple(map(sub, e, mins)), c) for e, c in lifted)
             if any(j)]
        m0 = min((dj for _, dj, _ in u), default=1)
        # B lives below cutoff - m (>= 1, as the corner is stored); the result,
        # shifted by -m again, is certified modulo O(cutoff - 2m) componentwise.
        b_cutoff = tuple(c - m for c, m in zip(self.cutoff, mins))
        cutoff = tuple(c - 2 * m for c, m in zip(self.cutoff, mins))
        # buckets[d]: exponent e of total degree d -> -N_e, summed as the
        # terms of lower degree finish
        buckets = {0: {tuple(0 for _ in mins): -1}}
        terms = {}
        while buckets:
            d = min(buckets)
            k = d // m0
            for p, acc in buckets.pop(d).items():
                n = -acc
                if not n:
                    continue
                terms[tuple(map(sub, p, mins))] = _unlift(n * den, n0 ** (k + 1))
                for j, dj, c in u:
                    e = tuple(map(add, p, j))
                    if any(map(ge, e, b_cutoff)):
                        continue
                    step = c * n
                    if n0 != 1:
                        step *= n0 ** ((d + dj) // m0 - 1 - k)
                    bucket = buckets.setdefault(d + dj, {})
                    bucket[e] = bucket.get(e, 0) + step
        return PuiseuxSeries._from_terms(self.variables, self.den, terms, cutoff)

    def substitute_power(self, variable, num, sign=1):
        """Substitute variable -> sign * variable^num (num a positive Fraction).

        Used for argument changes such as q -> q^2 or q -> -q^{1/2}; `sign`
        is +1 or -1 and multiplies each coefficient by sign^exponent (the
        exponent in 1/1 units, which must then be integral).
        """
        num = Fraction(num)
        if num <= 0:
            raise SeriesError("substitution exponent must be positive")
        idx = self.variables.index(variable)
        # On the lattice 1/(den * num.denominator) the image of a scaled
        # exponent e is exactly e * num.numerator, always integral.
        new_den = self.den * num.denominator
        terms = {}
        for exps, coeff in self.terms.items():
            if sign == -1:
                power, rest = divmod(exps[idx], self.den)
                if rest:
                    raise SeriesError("sign substitution needs integral exponents")
                if power % 2:
                    coeff = -coeff
            e = [v * num.denominator for v in exps]
            e[idx] = exps[idx] * num.numerator
            terms[tuple(e)] = coeff
        cutoff = [c * num.denominator for c in self.cutoff]
        cutoff[idx] = self.cutoff[idx] * num.numerator
        return PuiseuxSeries._from_terms(self.variables, new_den, terms, tuple(cutoff))

    # ------------------------------------------------------------------
    # queries

    def coefficient(self, exponents):
        """Coefficient at unscaled exponents given as a {var: Fraction} map;
        ZERO when a variable outside the series has a nonzero exponent."""
        if any(e and v not in self.variables for v, e in exponents.items()):
            return ZERO
        key = []
        for v in self.variables:
            se = Fraction(exponents.get(v, 0)) * self.den
            if se.denominator != 1:
                return ZERO
            key.append(int(se))
        return self.terms.get(tuple(key), ZERO)

    def coefficients_of(self, variable):
        """Collapse to {exponent Fraction: coefficient} in a 1-variable series."""
        if len(self.variables) != 1 or self.variables[0] != variable:
            raise SeriesError("coefficients_of expects a univariate series")
        return {Fraction(e[0], self.den): c for e, c in sorted(self.terms.items())}

    def evaluate(self, point):
        """Numerical evaluation, one power per (variable, exponent); fractional
        exponents need positive real bases."""
        powers = {}
        total = 0j
        for exps, coeff in sorted(self.terms.items()):
            term = complex(coeff)
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                if (v, e) not in powers:
                    base, exponent = complex(point[v]), Fraction(e, self.den)
                    if exponent.denominator == 1:
                        powers[v, e] = base ** exponent.numerator
                    elif base.imag != 0 or base.real <= 0:
                        raise SeriesError(f"fractional power of non-positive {v}={base}")
                    else:
                        powers[v, e] = base.real ** float(exponent)
                term *= powers[v, e]
            total += term
        return total

    def __eq__(self, other):
        """Equality of stored terms on the common box."""
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries(self.variables, self.den,
                                  {(0,) * len(self.variables): other}, self.cutoff)
        a, b = PuiseuxSeries._align(self, other)
        cutoff = tuple(map(min, a.cutoff, b.cutoff))
        return a._cut(cutoff).terms == b._cut(cutoff).terms

    # ------------------------------------------------------------------
    # presentation

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def to_text(self):
        """One term per line: `coeff * t^{a/D} ...`, sorted by total exponent."""
        if not self.terms:
            return "0"
        lines = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 0:
                    continue
                exponent = Fraction(e, self.den)
                factors.append(f"{v}^{{{exponent}}}")
            mono = " ".join(factors) if factors else "1"
            lines.append(f"{coeff!r} * {mono}")
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "variables": list(self.variables),
            "denominator": self.den,
            "terms": [[list(e), [str(c.re), str(c.im)]] for e, c in self._sorted_terms()],
            "truncation": [None if c == INF_CUTOFF else c for c in self.cutoff],
        }

    @staticmethod
    def from_json_dict(data):
        terms = {tuple(e): ExactComplex(Fraction(re), Fraction(im))
                 for e, (re, im) in data["terms"]}
        cutoff = tuple(INF_CUTOFF if c is None else c for c in data["truncation"])
        return PuiseuxSeries(tuple(data["variables"]), data["denominator"], terms, cutoff)

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __repr__(self):
        body = " + ".join(f"{c!r}*{e}" for e, c in self._sorted_terms()) or "0"
        return f"PuiseuxSeries[{','.join(self.variables)}; 1/{self.den}]({body})"


def _numerator(value, den):
    """value * den for an ExactComplex value that it makes integral."""
    re = value.re.numerator * (den // value.re.denominator)
    return ExactComplex(re, value.im.numerator * (den // value.im.denominator)) if value.im else re


def _unlift(n, den):
    """The ExactComplex n / den for a `_numerator` n and a nonzero int den."""
    if type(n) is int:
        return _real(Fraction(n, den))
    return ExactComplex(n.re / den, n.im / den)


def _lift(terms):
    """Coefficients as `_numerator`s over one denominator, least if all are real."""
    den = lcm(*(c.re.denominator * c.im.denominator for c in terms.values()))
    return [(e, _numerator(c, den)) for e, c in terms.items()], den


def _product(ta, tb, cutoff):
    """Terms of the product of two term maps below `cutoff`.

    The convolution runs on `_numerator`s; each nonzero output coefficient
    is reduced to lowest terms once, at the end.
    """
    na, da = _lift(ta)
    nb, db = _lift(tb)
    acc = {}
    if len(cutoff) == 1:
        (cut,) = cutoff
        nb = sorted((eb, y) for (eb,), y in nb)
        for (ea,), x in na:
            lim = cut - ea
            for eb, y in nb:
                if eb >= lim:
                    break
                e = ea + eb
                acc[e] = acc.get(e, 0) + x * y
        acc = {(e,): n for e, n in acc.items()}
    else:
        for ea, x in na:
            for eb, y in nb:
                e = tuple(map(add, ea, eb))
                if not any(map(ge, e, cutoff)):
                    acc[e] = acc.get(e, 0) + x * y
    den = da * db
    return {e: _unlift(n, den) for e, n in acc.items() if n}


# ----------------------------------------------------------------------
# dense univariate polynomials: coefficient lists, ascending powers


def poly_mul(a, b, order=None):
    """Product of two coefficient lists, truncated to degree <= `order` if given.

    Zero coefficients are skipped, so sparse factors such as the Euler
    product cost only their nonzero terms.
    """
    size = len(a) + len(b) - 1
    if order is not None:
        size = min(size, order + 1)
    out = [0] * size
    for i, ca in enumerate(a[:size]):
        if ca:
            for j, cb in enumerate(b[:size - i]):
                if cb:
                    out[i + j] += ca * cb
    return out


def poly_pow(base, k, order=None):
    """base**k for any integer k, truncated to degree <= `order` if given.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with a = base
    and B = a**k, n a_0 B_n = sum_{j=1}^{n} ((k+1) j - n) a_j B_{n-j}.  Only
    nonzero a_j are visited, so the sparse Euler product costs O(n sqrt n).
    Leading zeros of `base` shift the result.  A negative k needs a_0 != 0
    and an `order`.  Integer bases give integers when k >= 0 or a_0 = +-1.
    k = -1 on such an integer unit (the dense 1/eta^24) runs B_n = -a_0
    sum_j a_j B_{n-j} as one C-level dot product per term instead; Miller's
    loop stays faster on sparse powers such as eta^24.
    """
    shift = next((i for i, c in enumerate(base) if c), None)
    if k < 0 and (shift != 0 or order is None):
        raise SeriesError("a negative power needs a nonzero constant term and an order")
    size = order + 1 if k < 0 else (len(base) - 1) * k + 1
    if order is not None:
        size = min(size, order + 1)
    lead = 0 if shift is None else shift * k
    if k == 0 or shift is None or lead >= size:
        return [1 if k == 0 else 0] + [0] * (size - 1)
    a = base[shift:shift + size - lead]
    a0 = a[0]
    exact = all(isinstance(c, int) for c in a) and (k >= 0 or a0 in (1, -1))
    nonzero = [(j, c) for j, c in enumerate(a) if j and c]
    out = [a0 ** abs(k) if exact else Fraction(a0) ** k]
    if k == -1 and exact:
        tail = a[1:]
        for _ in range(1, size):
            out.append(-a0 * sum(map(mul, tail, reversed(out))))
        return out
    for n in range(1, size - lead):
        acc = 0
        for j, c in nonzero:
            if j > n:
                break
            acc += ((k + 1) * j - n) * c * out[n - j]
        out.append(acc // (n * a0) if exact else Fraction(acc) / (n * a0))
    return [0] * lead + out

