"""Exact Grassmann supernumbers with Lie-algebra-valued coefficients.

A GrassmannElement is a finite sum of monomials in anticommuting generators
theta_0, theta_1, ...; each monomial (stored as a bitmask) carries a tuple of
exact complex components in a fixed basis of the coefficient algebra:
su(2) with structure constants eps_abc (3 components) or u(1) (1 component,
all brackets zero).  Products carry exact Koszul signs, so identities like
"residual = 0" are literal equalities of dictionaries.

Invariant: an element stores integer numerators over one denominator
`den` > 0 with gcd(den, every integral part) = 1.  Each of a tuple's `ncomp`
numerators is an int, or a Gaussian-integer ExactComplex only where im != 0;
no tuple is all zero.  The form is canonical, so `==` and `hash` compare
dicts.  `cplx` records whether any numerator is complex, so real elements
never scan for one.  The series kernel computes on the same form, and its
`_numerator` and `_unlift` convert values here too.  Ints and ExactComplex
share `+ - *`, so each kernel runs one path: products multiply the
denominators, sums take their lcm.  The public constructor coerces and checks
each component.  Kernel results use the trusted `GrassmannElement._from_terms`,
which drops all-zero tuples, turns real Gaussian numerators into ints and
divides out one gcd; only `+`, unary `-`, `scale`, `sum`, `grassmann_mul`,
`lie_bracket` and `vw3d.brst._extract_theta` call it.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add

from .series import ExactComplex, _numerator, _unlift

__all__ = ["GrassmannElement", "grassmann_mul", "lie_bracket", "koszul_sign"]


def koszul_sign(mask_a, mask_b):
    """Sign from reordering theta^{mask_a} theta^{mask_b} into ascending order.

    Zero overlap is assumed (checked by callers via mask_a & mask_b).
    Counts pairs (i in a, j in b) with i > j.
    """
    sign = 1
    b = mask_b
    while b:
        j = b & -b
        # each generator of a strictly above j must hop over it
        above = mask_a & ~((j << 1) - 1)
        if bin(above).count("1") % 2:
            sign = -sign
        b ^= j
    return sign


class GrassmannElement:
    """Algebra-valued supernumber; `parity` is 0 (even) or 1 (odd)."""

    __slots__ = ("ncomp", "parity", "terms", "den", "cplx")

    def __init__(self, ncomp, parity, terms=None):
        terms = {m: tuple(map(ExactComplex.coerce, c)) for m, c in (terms or {}).items()}
        if any(len(c) != ncomp for c in terms.values()):
            raise ValueError("component arity mismatch")
        den = lcm(*(p.denominator for c in terms.values() for x in c for p in (x.re, x.im)))
        terms = {m: tuple(_numerator(x, den) for x in c) for m, c in terms.items()}
        self._fill(ncomp, parity % 2, terms, den,
                   any(type(x) is not int for x in chain.from_iterable(terms.values())))

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    # -- constructors ----------------------------------------------------

    def _fill(self, ncomp, parity, terms, den, cplx):
        """Set the slots from numerators over `den`, restoring the invariant."""
        terms = {m: c for m, c in terms.items() if any(c)}
        parts = chain.from_iterable(terms.values())
        if cplx:
            terms = {m: tuple(x if type(x) is int or x.im else x.re.numerator for x in c)
                     for m, c in terms.items()}
            parts = [p for x in chain.from_iterable(terms.values())
                     for p in ((x,) if type(x) is int else (x.re.numerator, x.im.numerator))]
            cplx = len(parts) > sum(map(len, terms.values()))  # some x gave two parts
        g = gcd(den, *parts) if den != 1 else 1
        if g != 1:
            den //= g
            terms = {m: tuple(x // g if type(x) is int else ExactComplex(x.re // g, x.im // g)
                              for x in c) for m, c in terms.items()}
        for name, value in zip(self.__slots__, (ncomp, parity, terms, den, cplx)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _from_terms(ncomp, parity, terms, den, cplx):
        """Trusted constructor: numerator tuples over `den`; `cplx` False only if all are ints."""
        element = object.__new__(GrassmannElement)
        element._fill(ncomp, parity, terms, den, cplx)
        return element

    @staticmethod
    def sum(ncomp, elements):
        """`zero(ncomp) + e1 + e2 + ...` over the nonzero `elements`, in one accumulator."""
        parts, parity = [], 0
        for element in elements:
            if element.ncomp != ncomp:
                raise ValueError("component count mismatch")
            if element.terms:
                if parts and element.parity != parity:
                    raise ValueError("cannot add elements of opposite parity")
                parity = element.parity
                parts.append(element)
        den = lcm(*(e.den for e in parts))
        acc = {}
        for element in parts:
            f = den // element.den
            for mask, comps in element.terms.items():
                if f != 1:
                    comps = tuple(f * x for x in comps)
                prev = acc.get(mask)
                if prev is not None:
                    comps = tuple(map(add, prev, comps))
                    if not any(comps):
                        del acc[mask]  # a recurring mask lands where `+` puts it
                        continue
                acc[mask] = comps
        return GrassmannElement._from_terms(ncomp, parity, acc, den,
                                            any(e.cplx for e in parts))

    @staticmethod
    def zero(ncomp, parity=0):
        return GrassmannElement(ncomp, parity, {})

    @staticmethod
    def body(comps, parity=0):
        comps = tuple(comps)
        return GrassmannElement(len(comps), parity, {0: comps})

    @staticmethod
    def generator(index, comps):
        """comps * theta_index (an odd element)."""
        comps = tuple(comps)
        return GrassmannElement(len(comps), 1, {1 << index: comps})

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if self.ncomp == other.ncomp and not (self.terms and other.terms):
            return self if self.terms else other
        return GrassmannElement.sum(self.ncomp, (self, other))

    def __neg__(self):
        return GrassmannElement._from_terms(
            self.ncomp, self.parity, {m: tuple(-x for x in c) for m, c in self.terms.items()},
            self.den, self.cplx)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        value = ExactComplex.coerce(value)
        if not value.im and value.re in (1, -1):
            return self if value.re > 0 else -self
        den = lcm(value.re.denominator, value.im.denominator)
        num = _numerator(value, den)
        return GrassmannElement._from_terms(
            self.ncomp, self.parity, {m: tuple(x * num for x in c) for m, c in self.terms.items()},
            self.den * den, self.cplx or type(num) is not int)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, GrassmannElement) and self.ncomp == other.ncomp
                and self.den == other.den and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ncomp, self.den, frozenset(self.terms.items())))

    def max_abs(self):
        """Float max-norm over all stored components (0.0 for zero)."""
        # int true division is correctly rounded, as float(Fraction) is
        return max((abs(x) / self.den if type(x) is int else
                    abs(complex(x.re.numerator / self.den, x.im.numerator / self.den))
                    for x in chain.from_iterable(self.terms.values())), default=0.0)

    def monomial_parities_match(self):
        return all(bin(m).count("1") % 2 == self.parity for m in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms):
            gens = "".join(f"th{i}" for i in range(mask.bit_length()) if mask >> i & 1)
            values = tuple(_unlift(x, self.den) for x in self.terms[mask])
            bits.append(f"{gens or '1'}*{values}")
        return " + ".join(bits)


def grassmann_mul(a, b):
    """Exterior product with componentwise (diagonal) coefficient product.

    When one factor is scalar-valued (1 component) it broadcasts over the
    other's components; otherwise components multiply slotwise.  Lie
    structure enters only through :func:`lie_bracket`, never here.
    """
    if a.ncomp == b.ncomp:
        ncomp = a.ncomp
        combine = lambda u, v: tuple(x * y for x, y in zip(u, v))
    elif a.ncomp == 1:
        ncomp = b.ncomp
        combine = lambda u, v: tuple(u[0] * y for y in v)
    elif b.ncomp == 1:
        ncomp = a.ncomp
        combine = lambda u, v: tuple(x * v[0] for x in u)
    else:
        raise ValueError("incompatible component counts")
    return _product(a, b, ncomp, combine)


def _product(a, b, ncomp, combine):
    """Exterior product of a and b, numerator tuples joined by `combine`."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue  # repeated generator: theta^2 = 0
            sign = koszul_sign(ma, mb)
            comps = combine(ca, cb)
            if sign < 0:
                comps = tuple(-x for x in comps)
            mask = ma | mb
            if mask in out:
                out[mask] = tuple(x + y for x, y in zip(out[mask], comps))
            else:
                out[mask] = comps
    return GrassmannElement._from_terms(ncomp, a.parity ^ b.parity, out, a.den * b.den,
                                        a.cplx or b.cplx)


def _cross(u, v):
    """su(2) structure constants eps_abc: (u x v)_c = eps_abc u_a v_b."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def lie_bracket(a, b):
    """Graded commutator through the coefficient algebra.

    For su(2)-valued supernumbers X = X^a e_a the bracket is
    [X, Y]^c = eps_abc X^a Y^b with the Grassmann factors multiplied (and
    signed) exactly; for u(1) every bracket vanishes.  Graded symmetry
    ([X, Y] = -(-1)^{|X||Y|} [Y, X]) is automatic in this representation.
    """
    if a.ncomp != b.ncomp:
        raise ValueError("bracket needs matching component counts")
    if a.ncomp == 1:
        return GrassmannElement._from_terms(1, a.parity ^ b.parity, {}, 1, False)
    return _product(a, b, a.ncomp, _cross)
