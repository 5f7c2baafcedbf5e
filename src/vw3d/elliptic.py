"""Partition functions of elliptic surfaces E(n) as exact q-series.

The Kahler-surface formula expresses the SU(2) partition function through
Seiberg-Witten data and G(q) = 1/eta(q)^24, at b1 = 0, zero 't Hooft flux
and basic classes (n-2j)F that are multiples of the fibre F (F.F = 0).  For
E(n) (chi = 12n, sigma = -8n) every theta-dependent factor has exponent zero,
and the result is a combination of G at q^2, q^{1/2}, -q^{1/2}.  The
fiber-sum gluing comparison shows that a naive multiplicative gluing rule
fails, and its report pinpoints the first differing power of q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .series import PuiseuxSeries, SeriesError, _real, default_denominator, poly_pow

__all__ = [
    "BasicClass",
    "KahlerTopology",
    "eta24_series",
    "g_series",
    "sw_data_en",
    "z_vw_kahler",
    "en_closed_form",
    "gluing_check",
    "binomial_remainder",
    "second_line_series",
    "UnsupportedTopologyError",
]

Q_DEN = default_denominator(("q",))


class UnsupportedTopologyError(ValueError):
    """A nonzero theta exponent was requested; those series are not defined."""


def _euler_factor_coeffs(order):
    """Euler product prod (1 - q^n) to q^order, by pentagonal sparse expansion."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 > order and e2 > order:
            break
        sign = -1 if k % 2 else 1
        if e1 <= order:
            coeffs[e1] = sign
        if e2 <= order:
            coeffs[e2] = sign
        k += 1
    return coeffs


def _int_qseries(coeffs, shift, order):
    """Trusted sum_k coeffs[k] q^{k+shift} + O(q^{order+1}) for integer coeffs."""
    terms = {((k + shift) * Q_DEN,): _real(Fraction(c)) for k, c in enumerate(coeffs) if c}
    return PuiseuxSeries._from_terms(("q",), Q_DEN, terms, ((order + 1) * Q_DEN,))


def eta24_series(order=20):
    """eta(q)^24 = q prod (1 - q^n)^24, exact integers, through q^{order}."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return _int_qseries(poly_pow(_euler_factor_coeffs(order), 24, order), 1, order + 1)


def g_series(order=20):
    """G(q) = 1/eta^24 = q^{-1} (1 + 24 q + 324 q^2 + ...), exact."""
    if order < 1:
        raise ValueError("order must be at least 1")
    e24 = [0] * (order + 2)
    for (e,), c in eta24_series(order + 1).terms.items():
        e24[e // Q_DEN - 1] = c.re.numerator
    return _int_qseries(poly_pow(e24, -1, order + 1), -1, order)


@dataclass(frozen=True)
class BasicClass:
    """A basic class x' = multiple * F with its Seiberg-Witten invariant."""

    multiple: int
    sw: int

    @property
    def is_zero_class(self):
        return self.multiple == 0


@dataclass(frozen=True)
class KahlerTopology:
    chi: int
    sigma: int
    basic_classes: tuple

    @property
    def chi_plus_sigma_over_8(self):
        value = Fraction(self.chi + self.sigma, 8)
        if value.denominator != 1:
            raise UnsupportedTopologyError("(chi + sigma)/8 must be an integer")
        return int(value)

    @property
    def theta_eta_exponent(self):
        return -2 * self.chi - 3 * self.sigma


def sw_data_en(n):
    """Topology and Seiberg-Witten data of the elliptic surface E(n), n even.

    chi = 12n, sigma = -8n, b1 = 0; basic classes (n-2j)F for j = 1..n-1 with
    SW = (-1)^{j+1} binom(n-2, j-1); F.F = 0.
    """
    if n < 2 or n % 2:
        raise ValueError("E(n) data here requires even n >= 2")
    classes = tuple(
        BasicClass(multiple=n - 2 * j, sw=(-1) ** (j + 1) * comb(n - 2, j - 1))
        for j in range(1, n)
    )
    top = KahlerTopology(chi=12 * n, sigma=-8 * n, basic_classes=classes)
    assert (top.chi + top.sigma) // 4 == n and 2 * top.chi + 3 * top.sigma == 0
    return top


def _g_order(k, order, half_weight):
    """The `g_series` order whose G^k serves Z through q^order (order >= 0).

    G through q^M gives G^k below q^{M+2-k} for k != 0 (each `*` cuts at ca + vb,
    `invert` at c + 2) and below q^{M+1} for k = 0.  The q^2 term needs G^k below
    q^{(order+2)//2}, the +-q^{1/2} terms below q^{2 order + 2} unless their weight
    is an exact 0: 0 * (s + O(c)) is the exact zero, which caps no cutoff."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    need = 2 * order + 2 if half_weight else (order + 2) // 2
    return max(1, need + k - 2 if k else need - 1)


def _half_argument(p, weight):
    """weight * (p(q^{1/2}) + p(-q^{1/2})) = 2 weight E(q^{1/2}), where E keeps the
    terms of p at even powers of q: the odd powers, which would cancel, are never built."""
    if any(e % p.den for (e,) in p.terms):
        raise SeriesError("sign substitution needs integral exponents")
    even = {e: c for e, c in p.terms.items() if not e[0] % (2 * p.den)}
    even = PuiseuxSeries._from_terms(p.variables, p.den, even, p.cutoff)
    return even.substitute_power("q", Fraction(1, 2)) * (2 * weight)


def _certified(series, order):
    """`series` through q^order; a box short of q^{order+1} raises SeriesError."""
    if series.cutoff[0] < (order + 1) * series.den:
        raise SeriesError(f"could not certify the q-series to order {order}")
    return series.truncate(order + 1)


def _en_terms(k, q2_weight, half_weight, order):
    """q2_weight G^k(q^2) + half_weight (G^k(q^{1/2}) + G^k(-q^{1/2})), certified
    through q^order.  Substitution is a ring map, so G(q^2)^k = (G^k)(q^2) and
    likewise at +-q^{1/2}: one power of the integer series, each term cut to its box."""
    g_pow = g_series(_g_order(k, order, half_weight)) ** k
    term_q2 = g_pow.truncate((order + 2) // 2).substitute_power("q", 2) * q2_weight
    return _certified(term_q2 + _half_argument(g_pow, half_weight), order)


def z_vw_kahler(top, order=20):
    """SU(2) partition function via the Seiberg-Witten expansion, at flux 0.

    The half factor accounts for the center of SU(2).  The first term keeps
    only the zero class (the flux-matching delta with v = 0), and its sign
    (-1)^{(chi+sigma)/4} is +1 since (chi+sigma)/8 is an integer; the second and
    third carry 2^{1-b1} = 2.  Any nonzero theta exponent is out of scope.
    """
    if top.theta_eta_exponent != 0:
        raise UnsupportedTopologyError(
            f"theta/eta exponent {top.theta_eta_exponent} != 0 needs theta series")
    exp1 = top.chi_plus_sigma_over_8
    weight = Fraction(1, 4) ** exp1 / 2
    sw_zero = sum(c.sw for c in top.basic_classes if c.is_zero_class)
    half_weight = 2 * sum(c.sw for c in top.basic_classes) * weight
    return _en_terms(exp1, sw_zero * weight, half_weight, order)


def en_closed_form(n, order=20):
    """The collapsed form of z_vw_kahler for E(n), n even."""
    if n < 2 or n % 2:
        raise ValueError("even n >= 2 required")
    if n == 2:  # G(q^2)/8 + (G(q^{1/2}) + G(-q^{1/2}))/4
        return _en_terms(1, Fraction(1, 8), Fraction(1, 4), order)
    coeff = Fraction((-1) ** (n // 2 + 1) * comb(n - 2, n // 2 - 1), 2 * 4 ** (n // 2))
    g2 = g_series(_g_order(n // 2, order, 0)).substitute_power("q", 2)
    return _certified(g2 ** (n // 2) * coeff, order)


def binomial_remainder(n):
    """sum_j (-1)^{j+1} binom(n-2, j-1): vanishes for n > 2 (binomial theorem)."""
    return sum((-1) ** (j + 1) * comb(n - 2, j - 1) for j in range(1, n))


def second_line_series(n, order=20):
    """The half-argument part of the E(n) expansion; identically 0 for n > 2."""
    weight = binomial_remainder(n) * Fraction(1, 4) ** (n // 2)
    g_pow = g_series(_g_order(n // 2, order, weight)) ** (n // 2)
    return _certified(_half_argument(g_pow, weight), order)


def gluing_check(n, order=20):
    """Compare Z(E(n)) with the naive multiplicative fiber-sum prediction.

    The prediction (Z(E(4))/Z(E(2)))^{(n-2)/2} * Z(E(2)) never matches for
    even n >= 6; the report carries both leading values and the first q-power
    where the series differ.  Both sides are certified through q^order: Z(E(n))
    at `order`, Z(E(2)) and Z(E(4)) at order + n - 2, as Z(E(2)) has valuation
    -2 and each of the (n-2)/2 factors 1/Z(E(2)) costs two powers of q.
    """
    if n < 6 or n % 2:
        raise ValueError("gluing comparison needs even n >= 6")
    lhs = z_vw_kahler(sw_data_en(n), order)
    z2 = z_vw_kahler(sw_data_en(2), order + n - 2)
    z4 = z_vw_kahler(sw_data_en(4), order + n - 2)
    rhs = _certified((z4 * z2.invert()) ** ((n - 2) // 2) * z2, order)
    diff = lhs - rhs
    first = None if diff.is_zero() else str(Fraction(min(diff.terms)[0], diff.den))
    return {
        "n": n,
        "order": order,
        "equal": diff.is_zero(),
        "first_differing_exponent": first,
        "lhs_leading": _leading(lhs),
        "rhs_leading": _leading(rhs),
    }


def _leading(series):
    if series.is_zero():
        return None
    exps = min(series.terms, key=lambda e: e[0])
    coeff = series.terms[exps]
    return {"exponent": str(Fraction(exps[0], series.den)), "coeff": repr(coeff)}
