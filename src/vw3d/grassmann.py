"""Exact Grassmann supernumbers with Lie-algebra-valued coefficients.

A GrassmannElement is a finite sum of monomials in anticommuting generators
theta_0, theta_1, ...; each monomial (stored as a bitmask) carries a tuple of
exact complex components in a fixed basis of the coefficient algebra:
su(2) with structure constants eps_abc (3 components) or u(1) (1 component,
all brackets zero).  Products carry exact Koszul signs, so identities like
"residual = 0" are literal equalities of dictionaries.

Invariant: every stored tuple holds `ncomp` ExactComplex values, not all
zero, and `parity` is 0 or 1.  The public constructor coerces and checks each
component.  Results built only from valid elements' tuples can break it only
by cancellation, so they use the trusted `GrassmannElement._from_terms`, which
just drops all-zero tuples.  Only `+`, unary `-`, `scale`, `sum`, the
products (`grassmann_mul`, `lie_bracket`) and `vw3d.brst._extract_theta` call it.
"""

from __future__ import annotations

from .series import ExactComplex, _real

__all__ = ["GrassmannElement", "grassmann_mul", "lie_bracket", "koszul_sign"]

_I = ExactComplex(0, 1)


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

    __slots__ = ("ncomp", "parity", "terms")

    def __init__(self, ncomp, parity, terms=None):
        clean = {}
        for mask, comps in (terms or {}).items():
            comps = tuple(ExactComplex.coerce(c) for c in comps)
            if len(comps) != ncomp:
                raise ValueError("component arity mismatch")
            if any(comps):
                clean[mask] = comps
        object.__setattr__(self, "ncomp", ncomp)
        object.__setattr__(self, "parity", parity % 2)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _from_terms(ncomp, parity, terms):
        """Trusted constructor for internal results (see the module docstring)."""
        element = object.__new__(GrassmannElement)
        object.__setattr__(element, "ncomp", ncomp)
        object.__setattr__(element, "parity", parity)
        object.__setattr__(element, "terms", {m: c for m, c in terms.items() if any(c)})
        return element

    @staticmethod
    def sum(ncomp, elements):
        """`zero(ncomp) + e1 + e2 + ...` over the nonzero `elements`, in one accumulator."""
        acc, parity = {}, 0
        for element in elements:
            if element.ncomp != ncomp:
                raise ValueError("component count mismatch")
            if element.terms:
                if acc and element.parity != parity:
                    raise ValueError("cannot add elements of opposite parity")
                parity = element.parity
                _add_terms(acc, element.terms)
        return GrassmannElement._from_terms(ncomp, parity, acc)

    @staticmethod
    def zero(ncomp, parity=0):
        return GrassmannElement(ncomp, parity, {})

    @staticmethod
    def body(comps, parity=0):
        comps = tuple(ExactComplex.coerce(c) for c in comps)
        return GrassmannElement(len(comps), parity, {0: comps})

    @staticmethod
    def generator(index, comps):
        """comps * theta_index (an odd element)."""
        comps = tuple(ExactComplex.coerce(c) for c in comps)
        return GrassmannElement(len(comps), 1, {1 << index: comps})

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if self.ncomp != other.ncomp:
            raise ValueError("component count mismatch")
        if self.terms and other.terms and self.parity != other.parity:
            raise ValueError("cannot add elements of opposite parity")
        parity = self.parity if self.terms else other.parity
        terms = dict(self.terms)
        _add_terms(terms, other.terms)
        return GrassmannElement._from_terms(self.ncomp, parity, terms)

    def __neg__(self):
        return GrassmannElement._from_terms(
            self.ncomp, self.parity, {m: tuple(-x for x in c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        value = ExactComplex.coerce(value)
        if not value.im and value.re in (1, -1):
            return self if value.re > 0 else -self
        return GrassmannElement._from_terms(
            self.ncomp, self.parity, {m: tuple(x * value for x in c) for m, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, GrassmannElement)
                and self.ncomp == other.ncomp and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ncomp, frozenset(self.terms.items())))

    def max_abs(self):
        """Float max-norm over all stored components (0.0 for zero)."""
        best = 0.0
        for comps in self.terms.values():
            for c in comps:
                best = max(best, abs(c.to_complex()))
        return best

    def monomial_parities_match(self):
        return all(bin(m).count("1") % 2 == self.parity for m in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms):
            gens = "".join(f"th{i}" for i in range(mask.bit_length()) if mask >> i & 1)
            bits.append(f"{gens or '1'}*{self.terms[mask]}")
        return " + ".join(bits)


def _add_terms(acc, terms):
    """Add `terms` into the dict `acc`; a mask whose sum cancels is removed."""
    for mask, comps in terms.items():
        prev = acc.get(mask)
        comps = comps if prev is None else tuple(a + b for a, b in zip(prev, comps))
        if any(comps):
            acc[mask] = comps
        else:
            acc.pop(mask, None)


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
    """Exterior product of a and b, coefficient tuples joined by `combine`."""
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
    return GrassmannElement._from_terms(ncomp, a.parity ^ b.parity, out)


def _cross(u, v):
    """su(2) structure constants eps_abc: (u x v)_c = eps_abc u_a v_b."""
    if not any(x.im for x in u + v):
        (a0, a1, a2), (b0, b1, b2) = (x.re for x in u), (y.re for y in v)
        return (_real(a1 * b2 - a2 * b1), _real(a2 * b0 - a0 * b2), _real(a0 * b1 - a1 * b0))
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
        return GrassmannElement(1, a.parity ^ b.parity, {})
    return _product(a, b, a.ncomp, _cross)
