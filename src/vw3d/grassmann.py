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
dicts.  The series kernel computes on the same form, and its `_numerator` and
`_unlift` convert values here too.  Ints and ExactComplex share `+ - *`, so
each kernel runs one path: products multiply the denominators, and
`GrassmannElement.combination`, the linear kernel behind `+`, `-`, `scale`,
`sum` and the BRST rule images, takes their lcm.  The public constructor
coerces and checks each component.  Kernel results use the trusted
`_from_terms`, which takes no all-zero tuple, turns real Gaussian numerators
into ints and divides out one gcd; only the checked `__new__`, `combination`,
unary `-`, `zero`, `body`, the two products and `brst._extract_theta` call it.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, mul

from .series import ExactComplex, _numerator, _unlift

__all__ = ["GrassmannElement", "grassmann_mul", "lie_bracket", "koszul_sign"]


def koszul_sign(mask_a, mask_b):
    """Sign from reordering theta^{mask_a} theta^{mask_b} into ascending order.

    Zero overlap is assumed (checked by callers via mask_a & mask_b).
    Counts pairs (i in a, j in b) with i > j: bit j of `suffix` is the parity
    of a's bits at j and above (built by doubling shifts), so each j in b
    contributes bit j + 1 of it.
    """
    suffix, shift, n = mask_a, 1, mask_a.bit_length()
    while shift < n:
        suffix ^= suffix >> shift
        shift <<= 1
    return -1 if (mask_b & (suffix >> 1)).bit_count() & 1 else 1


class GrassmannElement:
    """Algebra-valued supernumber; `parity` is 0 (even) or 1 (odd)."""

    __slots__ = ("ncomp", "parity", "terms", "den")

    def __new__(cls, ncomp, parity, terms=None):
        terms = {m: tuple(map(ExactComplex.coerce, c)) for m, c in (terms or {}).items()}
        if any(len(c) != ncomp for c in terms.values()):
            raise ValueError("component arity mismatch")
        den = lcm(*(p.denominator for c in terms.values() for x in c for p in (x.re, x.im)))
        terms = {m: tuple(_numerator(x, den) for x in c) for m, c in terms.items() if any(c)}
        return GrassmannElement._from_terms(ncomp, parity % 2, terms, den)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _from_terms(ncomp, parity, terms, den):
        """Trusted constructor: nonzero numerator tuples over `den`, reduced to the
        invariant."""
        try:
            g = gcd(den, *chain.from_iterable(terms.values()))
        except TypeError:  # Gaussian numerators: real ones become ints, gcd over parts
            terms = {m: tuple(x if type(x) is int or x.im else x.re.numerator for x in c)
                     for m, c in terms.items()}
            g = gcd(den, *(p for x in chain.from_iterable(terms.values()) for p in
                           ((x,) if type(x) is int else (x.re.numerator, x.im.numerator))))
        if g != 1:
            den //= g
            terms = {m: tuple(x // g if type(x) is int else ExactComplex(x.re // g, x.im // g)
                              for x in c) for m, c in terms.items()}
        element = object.__new__(GrassmannElement)
        for name, value in zip(GrassmannElement.__slots__, (ncomp, parity, terms, den)):
            object.__setattr__(element, name, value)
        return element

    @staticmethod
    def combination(ncomp, items):
        """sum_k c_k x_k over `items` (c_k, x_k), accumulated once on numerators.

        c_k is an int, Fraction or ExactComplex; x_k is an element, or a pair
        (a, b) standing for lie_bracket(a, b), taken from the raw product.  The
        result, its mask order and parity are those of `sum` of the scaled x_k.
        """
        parts, parity = [], None
        for c, x in items:
            if type(x) is tuple:
                a, b = x
                if a.ncomp != ncomp or b.ncomp != ncomp:
                    raise ValueError("component count mismatch")
                terms = ncomp != 1 and _product(a, b, _cross)
                x_den, x_parity = a.den * b.den, a.parity ^ b.parity
            elif x.ncomp != ncomp:
                raise ValueError("component count mismatch")
            else:
                terms, x_den, x_parity = x.terms, x.den, x.parity
            if type(c) is int:
                num, c_den = c, 1
            elif (c := ExactComplex.coerce(c)).im:
                c_den = lcm(c.re.denominator, c.im.denominator)
                num = _numerator(c, c_den)
            else:
                num, c_den = c.re.numerator, c.re.denominator
            if not (terms and num):
                continue
            if parity is not None and x_parity != parity:
                raise ValueError("cannot add elements of opposite parity")
            parity = x_parity
            parts.append((num, c_den * x_den, terms))
        den = lcm(*(d for _, d, _ in parts))
        acc = {}
        for num, d, terms in parts:
            if type(f := num * (den // d)) is not int or f != 1:
                terms = {m: tuple([f * x for x in c]) for m, c in terms.items()}
            if not acc:
                acc.update(terms)
                continue
            for mask, comps in terms.items():
                if (prev := acc.get(mask)) is not None:
                    comps = tuple(map(add, prev, comps))
                    if not any(comps):
                        del acc[mask]  # a recurring mask lands where `+` puts it
                        continue
                acc[mask] = comps
        return GrassmannElement._from_terms(ncomp, parity or 0, acc, den)

    @staticmethod
    def sum(ncomp, elements):
        """`zero(ncomp) + e1 + e2 + ...` over the nonzero `elements`, in one accumulator."""
        return GrassmannElement.combination(ncomp, [(1, e) for e in elements])

    @staticmethod
    def zero(ncomp, parity=0):
        return GrassmannElement._from_terms(ncomp, parity, {}, 1)

    @staticmethod
    def body(comps, parity=0, mask=0):
        """comps * theta^mask for int or Fraction comps, lifted over their lcm."""
        comps = tuple(comps)
        den = lcm(*(x.denominator for x in comps))
        nums = tuple(x.numerator * (den // x.denominator) for x in comps)
        terms = {mask: nums} if any(nums) else {}
        return GrassmannElement._from_terms(len(comps), parity, terms, den)

    @staticmethod
    def generator(index, comps):
        """comps * theta_index (an odd element)."""
        return GrassmannElement.body(comps, 1, 1 << index)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        return GrassmannElement.combination(self.ncomp, ((1, self), (1, other)))

    def __neg__(self):
        terms = {m: tuple(-x for x in c) for m, c in self.terms.items()}
        return GrassmannElement._from_terms(self.ncomp, self.parity, terms, self.den)

    def __sub__(self, other):
        return GrassmannElement.combination(self.ncomp, ((1, self), (-1, other)))

    def scale(self, value):
        value = ExactComplex.coerce(value)
        if not value.im and value.re in (1, -1):
            return self if value.re > 0 else -self
        return GrassmannElement.combination(self.ncomp, ((value, self),))

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
    ncomp = max(a.ncomp, b.ncomp)
    if min(a.ncomp, b.ncomp) not in (1, ncomp):
        raise ValueError("incompatible component counts")
    combine = lambda u, v: tuple(map(mul, u * (ncomp // len(u)), v * (ncomp // len(v))))
    terms = _product(a, b, combine)
    return GrassmannElement._from_terms(ncomp, a.parity ^ b.parity, terms, a.den * b.den)


def _product(a, b, combine):
    """Exterior product terms of a and b over a.den * b.den, numerator tuples
    joined by `combine`, all-zero tuples dropped."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue  # repeated generator: theta^2 = 0
            comps = combine(ca, cb)
            if koszul_sign(ma, mb) < 0:
                comps = tuple(-x for x in comps)
            mask = ma | mb
            out[mask] = tuple(map(add, out[mask], comps)) if mask in out else comps
    return {m: c for m, c in out.items() if any(c)}


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
    terms = _product(a, b, _cross) if a.ncomp != 1 else {}
    return GrassmannElement._from_terms(a.ncomp, a.parity ^ b.parity, terms, a.den * b.den)
