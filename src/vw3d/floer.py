"""Graded-vector-space algebra: towers, reference catalogs, characters.

Covers the boson-tower building block t^n/(1-t^2) and its truncations, the
catalog of plus-flavor Heegaard Floer groups for lens spaces, S^2 x S^1 and
nontrivial circle bundles over surfaces, the rank-2 bundle moduli Poincare
polynomial, the invariant-counting check that local observables form C[u],
descent-degree bookkeeping, the abelian zero-mode superspace character, and
the Brieskorn-sphere reference data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from .series import (VARIABLE_ORDER, PuiseuxSeries, SeriesError, _unlift, default_denominator,
                     poly_divmod, poly_mul, poly_pow)

__all__ = [
    "tower_series",
    "HFResult",
    "hf_plus",
    "hn_poincare",
    "gl_vs_sl_cohomology",
    "molien_su2_adjoint",
    "trivial_isotypic_dims",
    "descent_degree",
    "SuperspaceFactor",
    "standard_superspace_factors",
    "superspace_character",
    "BrieskornDatum",
    "brieskorn",
    "conjecture_series",
    "UnbalancedConfigurationError",
]

T_DEN = 2


def _t_series(terms, order):
    scaled = {}
    for e, c in terms.items():
        se = Fraction(e) * T_DEN
        if se.denominator != 1:
            raise SeriesError("t-exponent off the half-integer lattice")
        scaled[(int(se),)] = c
    return PuiseuxSeries(("t",), T_DEN, scaled, (int(order * T_DEN),))


def tower_series(bottom, truncation=None, order=20):
    """t^bottom (1 + t^2 + t^4 + ...), cut to `truncation` levels if given."""
    bottom = Fraction(bottom)
    if order < bottom:
        raise ValueError("order must reach the tower bottom")
    terms = {}
    level = 0
    while True:
        degree = bottom + 2 * level
        if degree >= order:
            break
        if truncation is not None and level >= truncation:
            break
        terms[degree] = 1
        level += 1
    return _t_series(terms, order)


@dataclass(frozen=True)
class HFResult:
    manifold: str
    series: PuiseuxSeries
    rank: int | None            # None for infinite rank
    spin_c_count: int | None = None
    relative_grading: bool = False


def hf_plus(manifold, order=20, p=None, g=None, h=None):
    """Plus-flavor Floer groups of the catalog manifolds.

    "lens": one tower per spin-c structure (p of them), series given per
    structure.  "S2xS1": two towers at degrees -1/2 and +1/2.  "SigmaGxS1"
    with 0 < |h| <= g-1: finitely many truncated towers; only relative
    gradings are reported (each tower bottom is normalized to zero), since
    absolute shifts of the exterior-power summands are not part of the
    catalog data.
    """
    if manifold == "lens":
        if p is None or p < 1:
            raise ValueError("lens space needs p >= 1")
        return HFResult(manifold=f"L({p},1)", series=tower_series(0, order=order),
                        rank=None, spin_c_count=p)
    if manifold == "S2xS1":
        series = (tower_series(Fraction(-1, 2), order=order)
                  + tower_series(Fraction(1, 2), order=order))
        return HFResult(manifold="S2xS1", series=series, rank=None, spin_c_count=1)
    if manifold == "SigmaGxS1":
        if g is None or h is None:
            raise ValueError("SigmaGxS1 needs g and h")
        if h == 0 or abs(h) > g - 1:
            raise ValueError("catalog covers 0 < |h| <= g-1 only")
        d = g - 1 - abs(h)
        rank = 0
        series = None
        for i in range(d + 1):
            mult = comb(2 * g, i)
            length = d + 1 - i
            rank += mult * length
            part = tower_series(0, length, order) * mult
            series = part if series is None else series + part
        return HFResult(manifold=f"SigmaGxS1(g={g},h={h})", series=series,
                        rank=rank, spin_c_count=None, relative_grading=True)
    raise ValueError(f"unknown manifold {manifold!r}")


# ----------------------------------------------------------------------
# moduli of rank-2 bundles

def hn_poincare(g):
    """Poincare polynomial of the fixed-determinant rank-2 moduli over a
    genus-g surface: ((1+t^3)^{2g} - t^{2g}(1+t)^{2g}) / ((1-t^2)(1-t^4)).

    The division must be exact; a nonzero remainder would flag a bug.
    Returns the coefficient list (degree 6g-6).
    """
    if g < 2:
        raise ValueError("formula applies for g >= 2")
    num = [Fraction(c) for c in poly_pow([1, 0, 0, 1], 2 * g)]  # degree 6g
    for i, c in enumerate(poly_pow([1, 1], 2 * g)):
        num[2 * g + i] -= c
    q, rem = poly_divmod(num, poly_mul([1, 0, -1], [1, 0, 0, 0, -1]))
    if any(rem):
        raise ArithmeticError("moduli Poincare division left a remainder")
    assert len(q) - 1 == 6 * g - 6
    return q


def gl_vs_sl_cohomology(N, g, order=20):
    """All-bundles cohomology: H*(T^{2g}) tensor the fixed-determinant part,
    i.e. (1+t)^{2g} times the moduli Poincare polynomial.  Only N = 2."""
    if N != 2:
        raise ValueError("only rank 2 is tabulated")
    torus = poly_pow([Fraction(1), Fraction(1)], 2 * g)
    total = poly_mul(torus, hn_poincare(g))
    return _t_series({k: c for k, c in enumerate(total) if c}, order)


# ----------------------------------------------------------------------
# invariants of the adjoint scalar

def trivial_isotypic_dims(order):
    """dim of the invariant part of Sym^n(adjoint su(2)), n = 0..order.

    Weight multiplicities of Sym^n of the spin-1 representation are counted
    by enumeration; the number of trivial summands is mult(0) - mult(2).
    """
    dims = []
    for n in range(order + 1):
        # a, n - a - c and c copies of the weights 2, 0 and -2
        weights = [2 * a - 2 * c for a in range(n + 1) for c in range(n - a + 1)]
        dims.append(weights.count(0) - weights.count(2))
    return dims


def molien_su2_adjoint(order=20):
    """Generating series of invariant dimensions; equals 1/(1-t^2)."""
    dims = trivial_isotypic_dims(order)
    return _t_series({n: d for n, d in enumerate(dims) if d},
                     order + Fraction(1, 2))


def descent_degree(deg_w0, p):
    """Descent bookkeeping: the p-form observable built from a local class of
    t-degree deg_w0 carries (t-degree, homological degree) =
    (deg_w0 - p/2, 2 deg_w0 - p)."""
    if not 0 <= p <= 4:
        raise ValueError("form degree p must be 0..4")
    deg_w0 = Fraction(deg_w0)
    return (deg_w0 - Fraction(p, 2), 2 * deg_w0 - p)


# ----------------------------------------------------------------------
# abelian zero-mode superspace

class UnbalancedConfigurationError(ValueError):
    """Even and odd complex dimensions differ, or an even factor is weightless."""


@dataclass(frozen=True)
class SuperspaceFactor:
    """One factor of the zero-mode superspace.

    kind: "even" (C^multiplicity, contributes 1/(1-w) per copy), "odd"
    (Pi C^multiplicity, contributes (1+w) per copy), or "torus" (the compact
    Jacobian: weightless, bookkeeping character (1+s)^{2g}, g even complex
    dimensions).  weight maps variable names to exponents.
    """

    kind: str
    weight: dict
    multiplicity: int


def standard_superspace_factors(g, second_odd_weight):
    """The factor list of the abelian zero-mode space.

    Fiber C^g of the cotangent Jacobian: weight x.  One standalone odd line:
    weight x.  The second standalone odd line has no stated weight; the
    caller chooses (a {var: exponent} mapping).  Two blocks C x (Pi C)^g with
    weights y and t.  The Jacobian base is weightless.
    """
    return (
        SuperspaceFactor("torus", {}, g),
        SuperspaceFactor("even", {"x": 1}, g),
        SuperspaceFactor("odd", {"x": 1}, 1),
        SuperspaceFactor("odd", dict(second_odd_weight), 1),
        SuperspaceFactor("even", {"y": 1}, 1),
        SuperspaceFactor("odd", {"y": 1}, g),
        SuperspaceFactor("even", {"t": 1}, 1),
        SuperspaceFactor("odd", {"t": 1}, g),
    )


def superspace_character(g, factors, order=12):
    """Equivariant character of a product superspace, cut to the box `order`.

    An even factor of weight m and multiplicity k gives 1/(1-m)^k =
    sum_n C(n+k-1, k-1) m^n, an odd one (1+m)^k = sum_n C(k, n) m^n, and the
    torus (1+s)^{2k} in the bookkeeping variable s.  Factors of one weight
    merge by `poly_mul`; each distinct weight then enters one outer product.
    The configuration must be balanced (equal even and odd complex
    dimensions), weights nonnegative, and even weights nontrivial.
    """
    dims = {"even": 0, "odd": 0}
    lines = []  # (kind, weight, multiplicity); the torus is 2k odd lines of weight s
    for f in factors:
        if f.kind not in ("torus", "even", "odd"):
            raise ValueError(f"unknown factor kind {f.kind!r}")
        if unknown := [v for v in f.weight if v not in VARIABLE_ORDER]:
            raise SeriesError(f"{f.kind} factor of weight {f.weight}: unknown variable {unknown[0]!r}")
        if any(e < 0 for e in f.weight.values()):
            raise UnbalancedConfigurationError(f"weight {f.weight} has a negative exponent")
        dims["odd" if f.kind == "odd" else "even"] += f.multiplicity
        lines.append(("odd", {"s": 1} if f.multiplicity else {}, 2 * f.multiplicity)
                     if f.kind == "torus" else (f.kind, f.weight, f.multiplicity))
    if dims["even"] != dims["odd"]:
        raise UnbalancedConfigurationError(
            f"even dimension {dims['even']} != odd dimension {dims['odd']}")
    variables = tuple(sorted({v for _, w, _ in lines for v in w}, key=VARIABLE_ORDER.index))
    den = default_denominator(variables)
    cut = order * den
    polys = {}
    for kind, weight, k in lines:
        if k == 0:
            continue
        if kind == "even" and not any(weight.values()):
            raise UnbalancedConfigurationError(
                "weightless non-compact factor has a divergent character")
        scaled = [Fraction(weight.get(v, 0)) * den for v in variables]
        if any(e.denominator != 1 for e in scaled):
            raise SeriesError(f"weight {weight} not on lattice 1/{den}")
        w = tuple(map(int, scaled))
        top = min(((cut - 1) // e for e in w if e), default=None)  # highest power of m in the box
        poly = ([comb(n + k - 1, k - 1) for n in range(top + 1)] if kind == "even"
                else [comb(k, n) for n in range(k + 1)])
        polys[w] = poly_mul(polys[w], poly, top) if w in polys else poly
    terms = {(0,) * len(variables): 1}
    for w, poly in polys.items():
        steps = [(tuple(n * e for e in w), p) for n, p in enumerate(poly)]
        product = {}
        for e, c in terms.items():
            room = min(((cut - 1 - a) // b for a, b in zip(e, w) if b), default=len(poly))
            for step, p in steps[:room + 1]:
                exps = tuple(map(add, e, step))
                product[exps] = product.get(exps, 0) + c * p
        terms = product
    return PuiseuxSeries._from_terms(variables, den, {e: _unlift(c, 1) for e, c in terms.items()},
                                     (cut,) * len(variables))


# ----------------------------------------------------------------------
# Brieskorn reference catalog

@dataclass(frozen=True)
class BrieskornDatum:
    name: str
    instanton_ranks: dict       # degree mod 8 -> rank
    hp_rank: int | None         # sheaf-model rank; None where not tabulated
    flat_connection_counts: tuple  # (trivial, irreducible su2, irreducible sl2c-only)


_BRIESKORN = {
    "P": BrieskornDatum(
        name="Sigma(2,3,5)",
        instanton_ranks={0: 1, 4: 1},
        hp_rank=None,
        flat_connection_counts=(1, 2, 0),
    ),
    "Sigma237": BrieskornDatum(
        name="Sigma(2,3,7)",
        instanton_ranks={2: 1, 6: 1},
        hp_rank=3,
        flat_connection_counts=(1, 2, 1),
    ),
}


def brieskorn(name):
    if name not in _BRIESKORN:
        raise KeyError(f"unknown Brieskorn sphere {name!r}")
    return _BRIESKORN[name]


def conjecture_series(name, order=20):
    """Conjectural graded dimension: one tower plus hp_rank degree-0 classes.

    Flagged conjectural in the returned report; only available where the
    sheaf-model rank is tabulated.
    """
    datum = brieskorn(name)
    if datum.hp_rank is None:
        raise KeyError(f"sheaf-model rank for {datum.name} is not tabulated")
    series = tower_series(0, None, order) + \
        PuiseuxSeries.constant(datum.hp_rank, ("t",), order=order, den=T_DEN)
    return {"manifold": datum.name, "series": series, "conjectural": True}
