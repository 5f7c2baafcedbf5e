import heapq
import json
import operator
import random
from fractions import Fraction
from math import inf, lcm
from operator import add, lt, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vw3d import bethe, elliptic, grassmann, series
from vw3d.elliptic import eta24_series, g_series
from vw3d.series import ExactComplex, PuiseuxSeries, SeriesError, poly_mul, poly_pow


def t_poly(coeffs, order=21):
    """Series in t from {exponent Fraction: int} with half-integer lattice."""
    return sum(
        (PuiseuxSeries.monomial(("t",), {"t": Fraction(e)}, c, order=order)
         for e, c in coeffs.items()),
        PuiseuxSeries.constant(0, ("t",), order=order),
    )


def q_poly(coeffs, order=21):
    return sum(
        (PuiseuxSeries.monomial(("q",), {"q": Fraction(e)}, c, order=order)
         for e, c in coeffs.items()),
        PuiseuxSeries.constant(0, ("q",), order=order),
    )


class TestExactComplex:
    def test_field_ops_exact(self):
        a = ExactComplex(Fraction(1, 3), Fraction(2, 7))
        b = ExactComplex(Fraction(-5, 11), Fraction(1, 2))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * ExactComplex(1) == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ExactComplex(1) / ExactComplex(0)

    def test_complex_conversion(self):
        assert complex(ExactComplex(Fraction(1, 2), -3)) == 0.5 - 3j
        assert complex(ExactComplex(Fraction(-7, 4))) == -1.75 + 0j

    def test_perfect_square_root(self):
        big = 10**30 + 12345  # its square is beyond float precision
        for root in (Fraction(3, 4), Fraction(big), Fraction(1, big), Fraction(2 * 10**200)):
            assert ExactComplex.sqrt_of_positive(root * root) == root
        for value in (Fraction(2), Fraction(big * big + 1), Fraction(big * big, 2)):
            with pytest.raises(SeriesError):
                ExactComplex.sqrt_of_positive(value)

    def test_equals_a_float_as_the_constructor_reads_it(self):
        assert ExactComplex(Fraction(1, 2)) == 0.5
        assert ExactComplex(1) == 1.0 and ExactComplex(Fraction(3, 10)) == 0.3
        assert ExactComplex(Fraction(1, 3)) != 0.5
        assert PuiseuxSeries.constant(1, ("t",)).coefficient({"t": 0}) == 1.0

    def test_a_float_snaps_only_within_1e_15_relative(self):
        # a short rational within 1e-15 relative stands for the float; a tiny
        # float that the 1e15 denominator cannot reach stays exact, not 0
        assert ExactComplex(0.3).re == Fraction(3, 10)
        assert ExactComplex(0.1 + 0.2).re == Fraction(3, 10)
        assert ExactComplex(-2.0).re == -2
        for tiny in (4e-16, 6e-16, 1e-20):
            assert ExactComplex(tiny).re == Fraction(tiny)
        assert ExactComplex(1e-20) != 0

    def test_real_values_hash_like_the_numbers_they_equal(self):
        for value in (2, -7, Fraction(2, 3), 0.5):
            z = ExactComplex(value)
            assert z == value and hash(z) == hash(value)
            assert z in {value} and value in {z} and {value: "a"}[z] == "a"
        gaussian = ExactComplex(Fraction(1, 2), -3)
        assert hash(gaussian) == hash((Fraction(1, 2), Fraction(-3)))
        assert {gaussian: "b"}[ExactComplex(Fraction(1, 2), -3)] == "b"

    def test_integer_powers(self):
        a = ExactComplex(Fraction(-2, 3))
        assert a ** 3 == Fraction(-8, 27) and a ** -2 == Fraction(9, 4) and a ** 0 == 1
        b = ExactComplex(1, 2)
        assert b ** 3 == b * b * b and b ** -2 == 1 / (b * b) and b ** 0 == 1


_PARTS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# im is either exactly zero (the real-by-real shortcuts) or nonzero
_EXACT = st.builds(ExactComplex, _PARTS, st.one_of(st.just(Fraction(0)), _PARTS.filter(bool)))


def _pair(z):
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return z.re, z.im


class TestExactComplexShortcuts:
    @given(_EXACT, _EXACT, st.integers(-50, 50))
    def test_ops_match_gaussian_rational_formula(self, x, y, k):
        a, b = x.re, x.im
        c, d = y.re, y.im
        assert _pair(-x) == (-a, -b)
        assert _pair(x + y) == (a + c, b + d)
        assert _pair(x - y) == (a - c, b - d)
        assert _pair(x * y) == (a * c - b * d, a * d + b * c)
        assert _pair(x * k) == _pair(k * x) == (a * k, b * k)  # the int shortcut
        results = [-x, x + y, x - y, x * y, x * k]
        if y:
            n = c * c + d * d
            assert _pair(x / y) == ((a * c + b * d) / n, (b * c - a * d) / n)
            results.append(x / y)
        if not (b or d):
            assert all(z.im == 0 for z in results)
        for zero in (ExactComplex(0), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero


class TestArithmetic:
    def test_difference_of_squares(self):
        one_plus = t_poly({0: 1, 1: 1})
        one_minus = t_poly({0: 1, 1: -1})
        assert one_plus * one_minus == t_poly({0: 1, 2: -1})

    def test_half_exponent_product(self):
        h = PuiseuxSeries.monomial(("t",), {"t": Fraction(1, 2)}, 1)
        assert h * h == PuiseuxSeries.monomial(("t",), {"t": 1}, 1)

    def test_laurent_square(self):
        # hand multiplication: q^{-1}(1+24q) squared = q^{-2}(1+48q+576q^2)
        a = q_poly({-1: 1, 0: 24})
        expected = q_poly({-2: 1, -1: 48, 0: 576})
        assert a * a == expected

    def test_add_intersects_truncation(self):
        a = t_poly({0: 1}, order=5)
        b = t_poly({0: 1}, order=9)
        assert (a + b).cutoff == (5 * 2,)


class TestInvert:
    def test_geometric(self):
        inv = t_poly({0: 1, 1: -1}, order=8).invert()
        assert inv == t_poly({k: 1 for k in range(8)}, order=8)

    def test_boson_tower(self):
        inv = t_poly({0: 1, 2: -1}, order=10).invert()
        assert inv == t_poly({k: 1 for k in range(0, 10, 2)}, order=10)

    def test_laurent_inverse_multiplies_back(self):
        g_low = q_poly({-1: 1, 0: 24, 1: 324, 2: 3200, 3: 25650}, order=11)
        inv = g_low.invert()
        prod = g_low * inv
        assert prod.coefficient({"q": 0}) == 1
        assert all(e == (0,) for e in prod.terms)
        # leading outputs frozen from the reciprocal recurrence
        assert inv.coefficient({"q": 1}) == 1
        assert inv.coefficient({"q": 2}) == -24
        assert inv.coefficient({"q": 3}) == 252
        assert inv.coefficient({"q": 4}) == -1472

    def test_hand_inverses(self):
        # 1/(1 - 3t) has corner numerator n0 = 1, 1/(2 - t^{1/2}) has n0 = 2
        inv = t_poly({0: 1, 1: -3}, order=6).invert()
        assert inv == t_poly({k: 3**k for k in range(6)}, order=6)
        inv = t_poly({0: 2, Fraction(1, 2): -1}, order=5).invert()
        assert inv == t_poly({Fraction(k, 2): Fraction(1, 2 ** (k + 1)) for k in range(10)},
                             order=5)

    def test_zero_rejected(self):
        with pytest.raises(SeriesError):
            t_poly({}, order=4).invert()

    def test_involution(self):
        a = t_poly({0: 2, 1: 3, 3: -1}, order=9)
        assert a.invert().invert() == a

    def test_untruncated_rejected(self):
        # a sentinel cutoff shifted by a negative valuation is still no truncation
        with pytest.raises(SeriesError):
            PuiseuxSeries(("x",), 1, {(-1,): 1}, (series.INF_CUTOFF - 1,)).invert()


def _random_series(rng, order=6):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = Fraction(rng.randint(0, 2 * order - 1), 2)
        terms[e] = rng.randint(-5, 5)
    return t_poly(terms, order=order)


class TestRingAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(40):
            a, b, c = (_random_series(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_no_stored_zeros_and_box(self):
        rng = random.Random(3)
        for _ in range(20):
            s = _random_series(rng) * _random_series(rng)
            assert all(c for c in s.terms.values())
            assert all(e[i] < s.cutoff[i] for e in s.terms for i in range(len(e)))


def schoolbook_product(a, b):
    """Reference product: the ExactComplex double loop under the sound cutoff."""
    a, b = PuiseuxSeries._align(a, b)
    va, vb = a._valuations() or a.cutoff, b._valuations() or b.cutoff
    cutoff = tuple(min(ca + eb, cb + ea)
                   for ca, cb, ea, eb in zip(a.cutoff, b.cutoff, va, vb))
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(map(add, ea, eb))
            if all(map(lt, e, cutoff)):
                terms[e] = terms.get(e, ExactComplex(0)) + ca * cb
    return {e: c for e, c in terms.items() if c}, cutoff


_BIG_DENOMINATORS = (10007, 999983, 2**31 - 1, 3**20)


def _random_coeff(rng, kind):
    if kind == "big":
        return ExactComplex(Fraction(rng.randint(-10**6, 10**6), rng.choice(_BIG_DENOMINATORS)))
    re = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 8)))
    if kind == "real":
        return ExactComplex(re)
    return ExactComplex(re, Fraction(rng.randint(-2, 2), rng.choice((1, 4))))


def _random_operand(rng, variables, den, kind):
    """Random series; small coefficients so that sums often cancel to 0."""
    low, high = (-2 * den, 8 * den) if den == 24 else (-2, 10)
    step = rng.choice((1, den // 2, den)) if den > 2 else 1
    cutoff = tuple(rng.randint(high // 2, high) for _ in variables)
    if rng.random() < 0.1:
        return PuiseuxSeries(variables, den, {}, cutoff)
    terms = {}
    for _ in range(rng.randint(1, 12)):
        exps = tuple(rng.randrange(low, high, step) for _ in variables)
        terms[exps] = _random_coeff(rng, kind)
    return PuiseuxSeries(variables, den, terms, cutoff)


def _exact_product_in_box(a_full, b_full, cutoff):
    """The product of two untruncated term maps, restricted to the box below `cutoff`."""
    terms = {}
    for ea, ca in a_full.items():
        for eb, cb in b_full.items():
            e = tuple(map(add, ea, eb))
            if all(map(lt, e, cutoff)):
                terms[e] = terms.get(e, 0) + ca * cb
    return {e: ExactComplex.coerce(c) for e, c in terms.items() if c}


class TestProductPrecondition:
    """`*` is exact in its claimed box when every term an operand does not
    store lies at or above its stored valuation in each variable."""

    def test_unstored_term_below_the_valuation_is_missed(self):
        # a stands for t x^-3 + t^-1 x^2 and b for t^-3 x^5 + t^3 x^-1; the
        # unstored t^-1 x^2 lies below a's stored t-valuation 1
        a_full = {(1, -3): 1, (-1, 2): 1}
        b_full = {(-3, 5): 1, (3, -1): 1}
        prod = (PuiseuxSeries(("t", "x"), 1, a_full, (14, 2))
                * PuiseuxSeries(("t", "x"), 1, b_full, (3, 12)))
        assert prod.terms == {(-2, 2): ExactComplex(1)}
        assert prod.cutoff == (4, 7)
        assert _exact_product_in_box(a_full, b_full, prod.cutoff) == {
            (-2, 2): ExactComplex(1), (2, 1): ExactComplex(1)}

    def test_monomial_times_polynomial_with_its_corner_stored(self):
        rng = random.Random(59)
        variables = ("t", "x")
        for _ in range(200):
            # a: a stored monomial m; its unstored tail lies at or above m
            m = tuple(rng.randint(-4, 4) for _ in variables)
            ca = tuple(e + rng.randint(1, 6) for e in m)
            a_full = {m: Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))}
            for _ in range(rng.randint(0, 3)):
                k = rng.randrange(len(variables))
                e = [v + rng.randint(0, 8) for v in m]
                e[k] = ca[k] + rng.randint(0, 3)
                a_full[tuple(e)] = rng.randint(-3, 3)
            # b: a polynomial whose corner, its least exponent in every
            # variable, is stored, so its other terms all lie above it
            corner = tuple(rng.randint(-4, 4) for _ in variables)
            cb = tuple(e + rng.randint(1, 9) for e in corner)
            b_full = {corner: rng.choice((-2, -1, 1, 3))}
            for _ in range(rng.randint(0, 10)):
                b_full.setdefault(tuple(v + rng.randint(0, 10) for v in corner),
                                  rng.randint(-3, 3))
            a = PuiseuxSeries(variables, 1, a_full, ca)
            b = PuiseuxSeries(variables, 1, b_full, cb)
            assert len(a.terms) == 1 and corner in b.terms
            prod = a * b if rng.random() < 0.5 else b * a
            assert prod.terms == _exact_product_in_box(a_full, b_full, prod.cutoff)


class TestRealFastPath:
    """The integer-numerator product against the schoolbook ExactComplex loop."""

    @pytest.mark.parametrize("variables,den", [(("q",), 24), (("t", "x"), 2)])
    @pytest.mark.parametrize("kinds", [("real", "real"), ("complex", "complex"),
                                       ("real", "complex")])
    def test_random_products(self, variables, den, kinds):
        rng = random.Random(f"{variables}{kinds}")
        for _ in range(60):
            a = _random_operand(rng, variables, den, kinds[0])
            b = _random_operand(rng, variables, den, kinds[1])
            terms, cutoff = schoolbook_product(a, b)
            prod = a * b
            assert prod.terms == terms
            assert prod.cutoff == cutoff
            assert all(c for c in prod.terms.values())

    def test_cancellation_to_exact_zero(self):
        # (1 + t^{1/2} x)(1 - t^{1/2} x) = 1 - t x^2: the cross terms cancel
        one = PuiseuxSeries.constant(1, ("t", "x"), order=6)
        tx = PuiseuxSeries.monomial(("t", "x"), {"t": Fraction(1, 2), "x": 1}, order=6)
        prod = (one + tx) * (one - tx)
        assert prod.terms == {(0, 0): ExactComplex(1), (2, 4): ExactComplex(-1)}
        q = q_poly({-1: Fraction(1, 3), 1: Fraction(2, 3)})
        r = q_poly({-1: Fraction(-3, 2), 1: 3})
        assert (q * r).terms == schoolbook_product(q, r)[0]
        assert (q * r).coefficient({"q": 0}) == 0

    def test_truncated_zero_operand(self):
        # an empty operand's cutoff serves as its valuation: O(q^2) times
        # q^-1 + 24 + O(q^5) is O(q^1)
        zero = PuiseuxSeries(("q",), 24, {}, (48,))
        prod = zero * q_poly({-1: 1, 0: 24}, order=5)
        assert prod.is_zero() and prod.cutoff == (24,)
        # 1 cut at q^0 stores nothing, and q^-2 lies inside the box of its
        # product with q^-2 + O(q^5): the product is 0 + O(q^-2), not O(q^0)
        one = PuiseuxSeries(("q",), 1, {(0,): 1}, (0,))
        laurent = PuiseuxSeries(("q",), 1, {(-2,): 1}, (5,))
        for prod in (one * laurent, laurent * one):
            assert prod.is_zero() and prod.cutoff == (-2,)
        # an exact zero times anything is an exact zero
        exact = PuiseuxSeries(("q",), 1, {}, (inf,))
        assert (exact * laurent).cutoff == (inf,)


def heap_walk_invert(s):
    """Reference inverse: B_e summed from its predecessors B_{e-j}.

    Exponents are visited in total-degree order from a heap; every
    coefficient is ExactComplex.  An independent path for `invert`.
    """
    mins = s._valuations()
    inv_corner = ExactComplex(1) / s.terms[mins]
    u_terms = {tuple(map(sub, e, mins)): c * inv_corner
               for e, c in s.terms.items() if e != mins}
    b_cutoff = tuple(map(sub, s.cutoff, mins))
    b_terms = {}
    origin = tuple(0 for _ in s.variables)
    heap = [(0, origin)]
    seen = set()
    while heap:
        _, exps = heapq.heappop(heap)
        if exps in seen:
            continue
        seen.add(exps)
        if any(e >= c for e, c in zip(exps, b_cutoff)):
            continue
        if exps == origin:
            value = ExactComplex(1)
        else:
            value = ExactComplex(0)
            for ue, uc in u_terms.items():
                prev = tuple(e - f for e, f in zip(exps, ue))
                if any(p < 0 for p in prev):
                    continue
                pv = b_terms.get(prev)
                if pv is not None:
                    value = value - uc * pv
        if value:
            b_terms[exps] = value
        for ue in u_terms:
            nxt = tuple(e + f for e, f in zip(exps, ue))
            if nxt not in seen and all(e < c for e, c in zip(nxt, b_cutoff)):
                heapq.heappush(heap, (sum(nxt), nxt))
    cutoff = tuple(c - 2 * m for c, m in zip(s.cutoff, mins))
    shifted = {tuple(map(sub, e, mins)): c * inv_corner for e, c in b_terms.items()}
    return PuiseuxSeries(s.variables, s.den, shifted, cutoff)


def _unit_operand(rng, variables, den, low, kind, corner_coeff=None, size=8):
    """Random series whose least exponent vector (the corner) is a stored term.

    The corner lies in [low, low + 2 den) per variable; with a negative `low`
    it is a Laurent corner.  Other terms sit up to 6 units above it.
    """
    step = rng.choice((1, max(den // 2, 1), den))
    corner = tuple(rng.randrange(low, low + 2 * den, step) for _ in variables)
    cutoff = tuple(m + rng.randint(1, 8 * den) for m in corner)
    if corner_coeff is None:
        corner_coeff = _random_coeff(rng, kind) or ExactComplex(1)
    terms = {}
    for _ in range(rng.randint(0, size)):
        offset = tuple(rng.randrange(0, 6 * den + 1, step) for _ in variables)
        if any(offset):
            terms[tuple(map(add, corner, offset))] = _random_coeff(rng, kind)
    terms[corner] = corner_coeff
    return PuiseuxSeries(variables, den, terms, cutoff)


_INVERT_CASES = {
    "q-lattice": lambda rng: _unit_operand(rng, ("q",), 24, 0, "real"),
    "tx-half": lambda rng: _unit_operand(rng, ("t", "x"), 2, 0, "real"),
    "laurent-q": lambda rng: _unit_operand(rng, ("q",), 24, -72, "real"),
    "laurent-tx": lambda rng: _unit_operand(rng, ("t", "x"), 2, -6, "real"),
    "negative-corner": lambda rng: _unit_operand(
        rng, ("t", "x"), 2, -2, "real", ExactComplex(Fraction(-rng.randint(1, 9), rng.randint(1, 4)))),
    "big-denominators": lambda rng: _unit_operand(
        rng, ("t", "x", "y"), 2, 0, "big",
        ExactComplex(Fraction(rng.choice((-12, -6, 5, 35)), rng.choice(_BIG_DENOMINATORS)))),
    "monomial": lambda rng: _unit_operand(rng, ("t", "x"), 2, -4, "real", size=0),
    "complex": lambda rng: _unit_operand(rng, ("q",), 24, -48, "complex"),
    "mixed": lambda rng: _unit_operand(rng, ("t", "x"), 2, -2, "complex", ExactComplex(3)),
    # a nonreal corner of norm 25/49: 1/s = conj(c) (conj(c) s)^-1 with n0 != 1
    "gaussian-corner": lambda rng: _unit_operand(
        rng, ("t", "x"), 2, -4, "complex", ExactComplex(Fraction(3, 7), Fraction(4, 7))),
}


class TestInvertAgainstHeapWalk:
    """The forward-scatter walk against the ExactComplex heap walk."""

    @pytest.mark.parametrize("case", sorted(_INVERT_CASES))
    def test_seeded_inputs(self, case):
        rng = random.Random(case)
        for _ in range(40):
            s = _INVERT_CASES[case](rng)
            assert s.invert().to_json() == heap_walk_invert(s).to_json()

    def test_smallest_box(self):
        # the corner sits one lattice step below the cutoff in t: B has only
        # its t-degree-0 slice, and a pure monomial inverts to one term
        s = PuiseuxSeries(("t", "x"), 2, {(3, -1): ExactComplex(Fraction(-4, 7)),
                                          (3, 2): ExactComplex(5), (3, 0): ExactComplex(1)},
                          (4, 6))
        inv = s.invert()
        assert inv.to_json() == heap_walk_invert(s).to_json()
        assert inv.cutoff == (-2, 8)
        mono = PuiseuxSeries(("q",), 24, {(-25,): ExactComplex(Fraction(3, 10007))}, (-24,))
        assert mono.invert().terms == {(25,): ExactComplex(Fraction(10007, 3))}
        assert mono.invert().cutoff == (26,)


@st.composite
def _in_domain(draw, variables=("t", "x"), empty=False):
    """An in-domain series and the untruncated term map it stands for.

    The map is a stored monomial times a polynomial with a constant term, so
    its corner (least exponent in every variable) is stored and every term
    cut off lies above it, as `*` requires.  The box is random; the series
    is a unit, since its corner is stored and nonzero.  With `empty`, the
    box ends at or below the corner in every variable: nothing is stored,
    and every term lies at or above the cutoff, as `*` requires of an
    operand that stores nothing.
    """
    den = 24 if variables == ("q",) else 2
    coeffs = draw(st.sampled_from([st.builds(ExactComplex, _PARTS), _EXACT]))
    corner = tuple(draw(st.integers(-6, 6)) for _ in variables)
    full = {}
    for _ in range(draw(st.integers(0, 6))):
        offset = tuple(draw(st.integers(0, 10)) for _ in variables)
        if any(offset):
            full[tuple(map(add, corner, offset))] = draw(coeffs)
    full[corner] = draw(coeffs.filter(bool))
    cutoff = tuple(m + draw(st.integers(-4, 0) if empty else st.integers(1, 14))
                   for m in corner)
    return full, PuiseuxSeries(variables, den, full, cutoff)


_units = st.sampled_from([("q",), ("t", "x"), ("t", "x", "y")]).flatmap(_in_domain).map(
    lambda pair: pair[1])

_UNBOUNDED = (inf, inf)


def _exact_inverse_in_box(full, cutoff):
    """1/full restricted to the box below `cutoff`, by the geometric series.

    full = c x^m (1 + h) with every exponent of h nonnegative and nonzero,
    so (-h)^k leaves the (finite) box once k exceeds its total degree.
    """
    m = tuple(map(min, zip(*(e for e, c in full.items() if c))))
    c = ExactComplex.coerce(full[m])
    minus_h = {tuple(map(sub, e, m)): -v / c for e, v in full.items() if v and e != m}
    box = tuple(map(add, cutoff, m))  # x^-m x^j lies below cutoff iff j < cutoff + m
    power = total = {(0,) * len(m): ExactComplex(1)}
    while power:
        power = _exact_product_in_box(power, minus_h, box)
        total = {e: total.get(e, 0) + power.get(e, 0) for e in total.keys() | power.keys()}
    return {tuple(map(sub, e, m)): v / c for e, v in total.items() if v}


class TestInverseProperty:
    @given(_units)
    def test_product_with_inverse_is_one(self, s):
        assert s * s.invert() == 1


class TestExactInDomain:
    """Each operation on in-domain truncated series equals the exact
    operation on the untruncated term maps, restricted to its claimed box."""

    @settings(max_examples=30)
    @given(st.one_of(_in_domain(), _in_domain(empty=True)), _in_domain())
    def test_product(self, a, b):
        (a_full, a), (b_full, b) = a, b
        for prod in (a * b, b * a):
            assert prod.terms == _exact_product_in_box(a_full, b_full, prod.cutoff)

    @settings(max_examples=25)
    @given(_in_domain(), st.integers(2, 4))
    def test_power(self, a, k):
        a_full, a = a
        full = a_full
        for _ in range(k - 2):
            full = _exact_product_in_box(full, a_full, _UNBOUNDED)
        power = a ** k
        assert power.terms == _exact_product_in_box(full, a_full, power.cutoff)

    @settings(max_examples=25)
    @given(_in_domain())
    def test_inverse(self, u):
        u_full, u = u
        inv = u.invert()
        assert inv.terms == _exact_inverse_in_box(u_full, inv.cutoff)

    @settings(max_examples=15)
    @given(_in_domain(), _in_domain(), st.sampled_from((1, 3)))
    def test_sum(self, a, b, f):
        # b moves to the lattice 1/6 for f = 3, so the sum merges lattices
        (a_full, a), (b_full, b) = a, b
        b = b.rescale(b.den * f)
        total = a + b
        assert _box(total) == tuple(map(min, _box(a), _box(b)))
        exact = _unscaled(a_full, a.den)
        for e, c in _unscaled(b_full, b.den // f).items():
            exact[e] = exact.get(e, 0) + c
        assert _unscaled(total.terms, total.den) == _in_box(exact, total)

    @settings(max_examples=10)
    @given(_in_domain(), st.integers(1, 4))
    def test_rescale(self, a, f):
        a_full, a = a
        fine = a.rescale(a.den * f)
        assert fine.den == a.den * f
        assert _box(fine) == _box(a)
        assert _unscaled(fine.terms, fine.den) == _in_box(_unscaled(a_full, a.den), fine)

    @settings(max_examples=20)
    @given(_in_domain(), st.sampled_from(("t", "x")),
           st.sampled_from((Fraction(1, 2), Fraction(1, 3), 1, Fraction(3, 2), 2, 3)),
           st.sampled_from((1, -1)))
    def test_substitute_power(self, a, variable, num, sign):
        a_full, a = a
        if sign == -1:  # v -> -v^num needs integral exponents: read them on lattice 1
            a = PuiseuxSeries(a.variables, 1, a_full, a.cutoff)
        image = a.substitute_power(variable, num, sign)
        k = a.variables.index(variable)
        box = list(_box(a))
        box[k] *= num
        assert _box(image) == tuple(box)
        exact = {}
        for e, c in _unscaled(a_full, a.den).items():
            moved = list(e)
            moved[k] *= num
            exact[tuple(moved)] = c if sign == 1 else c * (-1) ** int(e[k])
        assert _unscaled(image.terms, image.den) == _in_box(exact, image)


def _unscaled(terms, den):
    """A term map with its scaled exponents read as Fractions on lattice 1/den."""
    return {tuple(Fraction(e, den) for e in exps): c for exps, c in terms.items()}


def _box(series):
    """The cutoff of `series` in unscaled units."""
    return tuple(Fraction(c, series.den) for c in series.cutoff)


def _in_box(terms, series):
    """The nonzero terms of an unscaled map below the unscaled box of `series`."""
    box = _box(series)
    return {e: ExactComplex.coerce(c) for e, c in terms.items() if c and all(map(lt, e, box))}


class TestTrustedOutputs:
    """Outputs built by `_from_terms` hold the invariant the constructor enforces."""

    METHODS = ("__mul__", "invert", "__neg__", "rescale", "__add__", "truncate", "scale", "substitute_power", "__pow__")

    def test_kernel_outputs_hold_the_invariant(self, monkeypatch):
        outputs = {name: [] for name in self.METHODS}
        for name in self.METHODS:
            def recorded(series, *args, _original=getattr(PuiseuxSeries, name), _name=name,
                         **kwargs):
                result = _original(series, *args, **kwargs)
                outputs[_name].append(result)
                return result

            monkeypatch.setattr(PuiseuxSeries, name, recorded)
        bethe.grdim_closed_form("SigmaGxS1", order=12, g=2)
        bethe.limit_specialize("R2", 2, order=12)
        elliptic.gluing_check(6, order=10)
        for name, results in outputs.items():
            assert results, name
            for s in results:
                assert isinstance(s, PuiseuxSeries)
                arity = len(s.variables)
                assert type(s.cutoff) is tuple and len(s.cutoff) == arity
                for exps, c in s.terms.items():
                    assert type(c) is ExactComplex and c, name
                    assert type(exps) is tuple and len(exps) == arity, name
                    assert all(map(lt, exps, s.cutoff)), name


def _reciprocal(a, order):
    out = [Fraction(1) / a[0]]
    for n in range(1, order + 1):
        acc = sum(a[j] * out[n - j] for j in range(1, min(n, len(a) - 1) + 1))
        out.append(-acc / a[0])
    return out


def _pow_from_one(s, n):
    """Square-and-multiply over `*`, multiplying from the exact 1.

    The exact 1 is untruncated, so `*` leaves each first factor as it is:
    the loop is plain square-and-multiply, and `s ** 1` is `s`.  `s ** 0`
    is 1 + O(s.cutoff).
    """
    one = {(0,) * len(s.variables): 1}
    if n == 0:
        return PuiseuxSeries(s.variables, s.den, one, s.cutoff)
    result = PuiseuxSeries(s.variables, s.den, one, (series.INF_CUTOFF,) * len(s.variables))
    base = s
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


POW_CASES = {
    "laurent": PuiseuxSeries(("q",), 24, {(-48,): 1, (-24,): 3, (0,): -2, (72,): 5}, (120,)),
    "laurent_complex": PuiseuxSeries(("q",), 24, {(-24,): ExactComplex(1, 2), (48,): 3}, (96,)),
    "bivariate": PuiseuxSeries(("t", "x"), 2, {(0, 0): 1, (1, -2): Fraction(-1, 3),
                                              (3, 1): 2, (-1, 4): ExactComplex(0, 1)}, (9, 7)),
    "bivariate_unequal_cutoffs": PuiseuxSeries(("t", "x"), 2, {(-2, 0): 2, (0, 3): -1,
                                                              (4, 1): 1}, (6, 20)),
    "laurent_short_box": PuiseuxSeries(("q",), 1, {(-5,): 1, (-1,): 2, (1,): -1}, (2,)),
    "zero": PuiseuxSeries(("t",), 2, {}, (10,)),
    "zero_negative_cutoff": PuiseuxSeries(("t", "x"), 2, {}, (-4, 6)),
    # cutoffs at or below 0: s ** 0 stores nothing, s ** 1 keeps every term
    "cutoff_at_zero": PuiseuxSeries(("q",), 24, {(-72,): 1, (-48,): 2}, (0,)),
    "cutoff_below_zero": PuiseuxSeries(("q",), 24, {(-72,): 1, (-48,): 2}, (-24,)),
    "bivariate_cutoff_at_zero": PuiseuxSeries(("t", "x"), 2, {(-3, 2): 1, (-1, 0): 4}, (0, 8)),
}


class TestPowFromFirstFactor:
    """`__pow__` is square-and-multiply from the first factor, over `*`."""

    @pytest.mark.parametrize("name", sorted(POW_CASES))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_matches_multiply_from_one(self, name, n):
        s = POW_CASES[name]
        got, want = s ** n, _pow_from_one(s, n)
        assert got.terms == want.terms
        assert got.cutoff == want.cutoff
        assert (got.variables, got.den) == (want.variables, want.den)
        if n == 1:
            assert (got.terms, got.cutoff) == (s.terms, s.cutoff)

    def test_cutoff_follows_the_valuation(self):
        # (q^-2 + 7 q^4 + O(q^5)) ** 1 is itself; its square q^-4 + 14 q^2
        # is known mod O(q^(5 - 2)) by the cutoff rule of `*`
        s = PuiseuxSeries(("q",), 1, {(-2,): 1, (4,): 7}, (5,))
        assert ((s ** 1).terms, (s ** 1).cutoff) == (s.terms, (5,))
        assert ((s ** 2).terms, (s ** 2).cutoff) == ({(-4,): 1, (2,): 14}, (3,))

    def test_cutoff_at_or_below_zero_stays_sound(self):
        # (q^-3 + 2 q^-2 + O(q^0)) ** 1 keeps both terms, and its square
        # q^-6 + 4 q^-5 + 4 q^-4 + O(q^-3) holds whatever the O(q^0) tail is
        s = POW_CASES["cutoff_at_zero"]
        assert ((s ** 1).terms, (s ** 1).cutoff) == (s.terms, (0,))
        assert (s ** 2).cutoff == (-72,)
        assert (s ** 2).terms == {(-144,): 1, (-120,): 4, (-96,): 4}

    def test_power_of_a_truncated_laurent_monomial(self):
        # (t^-1 x^-1 + O(t^0, x^0)) ** 3 = t^-3 x^-3 + O(t^-2, x^-2)
        s = PuiseuxSeries(("t", "x"), 1, {(-1, -1): 1}, (0, 0))
        cube = s ** 3
        assert (cube.terms, cube.cutoff) == ({(-3, -3): 1}, (-2, -2))


class TestDenseReciprocal:
    """k = -1 on integer units takes the dense convolution; the rest Miller's loop."""

    ORDER = 300

    @staticmethod
    def _unit_bases():
        """(base, orders checked): short bases at every order; eta^24 (and its
        negative, for a_0 = -1) is longer than 300 and checked at a spread."""
        rng = random.Random(11)
        every, spread = range(301), (*range(25), 97, 150, 211, 270, 299, 300)
        eta = eta24_series(301)
        e24 = [int(eta.coefficient({"q": n + 1}).re) for n in range(302)]
        return [([1] + [rng.randint(-3, 3) for _ in range(40)], every),
                ([1, 0, 0, -1, 0, 2], every), ([-1, 1], every), ([1], every),
                ([-c for c in e24], spread)]

    def test_matches_reciprocal_at_orders_0_to_300(self):
        for base, orders in self._unit_bases():
            ref = _reciprocal(base, self.ORDER)
            for order in orders:
                inv = poly_pow(base, -1, order)
                assert inv == ref[:order + 1]
                assert all(type(c) is int for c in inv)
            for order in (*range(12), 97, self.ORDER):
                inv = poly_pow(base, -1, order)
                assert poly_mul(base, inv, order) == [1] + [0] * order

    def test_other_bases_stay_on_millers_loop(self, monkeypatch):
        calls = []

        def counting_mul(x, y):
            calls.append(1)
            return x * y

        monkeypatch.setattr(series, "mul", counting_mul)
        poly_pow([1, 3, -2, 5], -1, 30)
        assert calls
        calls.clear()
        cases = [([Fraction(1), 3, -2], -1), ([Fraction(1, 2), 1, 4], -1), ([2, 1, -1], -1),
                 ([1, 3, -2, 5], -2), ([1, 3, -2, 5], 24)]
        for base, k in cases:
            got = poly_pow(base, k, 30)
            factor = base if k > 0 else _reciprocal(base, 30)
            want = [1]
            for _ in range(abs(k)):
                want = poly_mul(want, factor, 30)
            assert got == want
        assert not calls
        for base in ([Fraction(1), 3, -2], [Fraction(1, 2), 1, 4], [2, 1, -1]):
            assert all(type(c) is Fraction for c in poly_pow(base, -1, 30))


class TestPolyPow:
    @pytest.mark.parametrize("k", range(-3, 9))
    def test_miller_matches_repeated_products(self, k):
        order = 9
        bases = ([1, -2, 0, 5], [3, 1, -1], [-1, 0, 0, 4],
                 [Fraction(2, 3), Fraction(-1, 2), 0, Fraction(5, 7)])
        for base in bases:
            factor = base if k >= 0 else _reciprocal(base, order)
            truncated, full = [1], [1]
            for _ in range(abs(k)):
                truncated = poly_mul(truncated, factor, order)
                full = poly_mul(full, factor)
            assert poly_pow(base, k, order) == truncated
            if k >= 0:
                assert poly_pow(base, k) == full

    def test_integer_results_stay_integers(self):
        assert poly_pow([1, 1], 3) == [1, 3, 3, 1]
        assert all(isinstance(c, int) for c in poly_pow([1, -3, 2], -2, 12))
        assert poly_pow([0, 0, 1, 1], 2, 5) == [0, 0, 0, 0, 1, 2]

    def test_negative_power_needs_unit_and_order(self):
        with pytest.raises(SeriesError):
            poly_pow([0, 1], -1, 5)
        with pytest.raises(SeriesError):
            poly_pow([1, 1], -1)

    @pytest.mark.parametrize("order", [1, 2, 7, 40, 133, 270])
    def test_g_times_eta24_is_one(self, order):
        prod = g_series(order) * eta24_series(order + 1)
        assert prod.terms == {(0,): ExactComplex(1)}
        assert prod.cutoff == ((order + 2) * 24,)


class TestVariableMerging:
    def test_union_of_variables(self):
        # a series keeps its variables for life: mixed sets do not combine
        a = PuiseuxSeries.monomial(("t",), {"t": 1}, order=6)
        b = PuiseuxSeries.monomial(("x",), {"x": 1}, order=6)
        c = PuiseuxSeries.monomial(("t", "x"), {"t": 1}, order=6)
        for x, y in ((a, b), (a, c), (c, b)):
            for combine in (operator.add, operator.mul, operator.eq):
                with pytest.raises(SeriesError, match="do not combine"):
                    combine(x, y)

    def test_coefficient_of_a_foreign_variable(self):
        s = PuiseuxSeries.constant(3, ("t",))
        assert s.coefficient({}) == s.coefficient({"x": 0}) == 3
        assert s.coefficient({"x": 1}) == s.coefficient({"q": 5}) == 0
        assert s.coefficient({"t": 0, "x": Fraction(1, 2)}) == 0

    def test_lattice_lcm(self):
        a = PuiseuxSeries.monomial(("q",), {"q": Fraction(1, 2)}, 1, den=2)
        b = PuiseuxSeries.monomial(("q",), {"q": Fraction(1, 3)}, 1, den=3)
        assert (a * b).den == (a + b).den == 6
        assert (a * b).coefficient({"q": Fraction(5, 6)}) == 1
        assert a + b == b + a and a * b == b * a


class TestScalarOperands:
    def test_constant(self):
        for value in (0, 3, Fraction(-1, 2), ExactComplex(1, 2)):
            c = PuiseuxSeries.constant(value, ("t", "x"), order=4)
            assert (c.variables, c.den, c.cutoff) == (("t", "x"), 2, (8, 8))
            assert c.terms == ({(0, 0): ExactComplex.coerce(value)} if value else {})

    def test_subtracting_a_scalar(self):
        s = PuiseuxSeries.monomial(("t",), {"t": 1}, 2, order=4)
        for value in (3, Fraction(1, 2), ExactComplex(1, -2), 1j):
            shift = PuiseuxSeries.constant(-ExactComplex.coerce(value), ("t",), order=4)
            assert (s - value).terms == (s + shift).terms

    def test_float_scalars(self):
        # a float coerces like the other scalars: 0.5 is exactly 1/2
        s = PuiseuxSeries.monomial(("t",), {"t": 1}, 2, order=4) + 3
        half = Fraction(1, 2)
        for got, want in ((s * 0.5, s * half), (0.5 * s, half * s), (s + 0.5, s + half),
                          (s - 0.5, s - half), (0.5 - s, half - s)):
            assert got.to_json() == want.to_json()

    def test_exact_complex_on_the_left_of_a_series(self):
        # ExactComplex defers to the series' reflected operators
        s = PuiseuxSeries.monomial(("t",), {"t": 1}, 2, order=4) + ExactComplex(1, 3)
        assert (ExactComplex(2) * s).to_json() == (s * 2).to_json()
        assert (ExactComplex(1) + s).to_json() == (s + 1).to_json()
        assert (ExactComplex(1) - s).to_json() == (-(s - 1)).to_json()
        with pytest.raises(TypeError):
            ExactComplex(1) / s
        with pytest.raises(TypeError):
            ExactComplex(2) * "x"


class TestSerialization:
    def test_text_format_sorted(self):
        s = t_poly({2: 3, Fraction(1, 2): 1})
        lines = s.to_text().splitlines()
        assert lines[0] == "1 * t^{1/2}"
        assert lines[1] == "3 * t^{2}"

    def test_json_roundtrip(self):
        s = q_poly({-1: 1, 0: 24, 2: Fraction(3, 2)})
        again = PuiseuxSeries.from_json_dict(s.to_json_dict())
        assert again == s and again.den == s.den

    def test_untruncated_cutoff_is_null(self):
        # strict JSON has no Infinity: an untruncated variable writes null
        s = PuiseuxSeries(("t", "x"), 2, {(0, 2): 3, (4, 0): Fraction(1, 2)},
                          (series.INF_CUTOFF, 8))
        text = s.to_json()
        assert '"truncation": [null, 8]' in text and "Infinity" not in text
        again = PuiseuxSeries.from_json_dict(json.loads(text))
        assert again.cutoff == s.cutoff and again.terms == s.terms

    def test_evaluate(self):
        s = t_poly({Fraction(3, 2): 1})
        assert abs(s.evaluate({"t": 4.0}) - 8.0) < 1e-12


def _evaluate_per_term(s, point):
    """Reference `evaluate`: every term takes its own powers."""
    total = 0j
    for exps, coeff in sorted(s.terms.items()):
        term = complex(coeff)
        for v, e in zip(s.variables, exps):
            if e == 0:
                continue
            base = complex(point[v])
            exponent = Fraction(e, s.den)
            if exponent.denominator == 1:
                term *= base ** exponent.numerator
            else:
                if base.imag != 0 or base.real <= 0:
                    raise SeriesError(f"fractional power of non-positive {v}={base}")
                term *= base.real ** float(exponent)
        total += term
    return total


class TestEvaluatePowerTables:
    @pytest.mark.parametrize("point", [{"t": 0.13, "x": 0.31}, {"t": 0.7, "x": -0.4 + 0.2j}])
    def test_bit_identical_to_per_term_powers(self, point):
        cases = [bethe.grdim_closed_form("SigmaGxS1", order=9, g=2),
                 bethe.limit_specialize("R0", 3, order=12),
                 bethe.limit_specialize("R2", 0, order=10),
                 _random_series(random.Random(4), order=8)]
        for s in cases:
            p = {v: point[v] for v in s.variables}
            assert s.evaluate(p) == _evaluate_per_term(s, p)

    def test_fractional_power_of_negative_base_rejected(self):
        s = t_poly({Fraction(1, 2): 1, 1: 2})
        with pytest.raises(SeriesError):
            s.evaluate({"t": -0.5})


class TestIntegerScale:
    def test_int_multiplier_matches_exact_one(self):
        s = _random_series(random.Random(9)) + t_poly({1: ExactComplex(2, -3)})
        for k in (-3, 0, 1, 7):
            scaled = s.scale(k)
            assert scaled.terms == s.scale(ExactComplex(k)).terms
            # 0 * (s + O(c)) is the exact zero; a nonzero k keeps s's cutoff
            assert scaled.cutoff == (s.cutoff if k else (series.INF_CUTOFF,))
            assert all(type(c.re) is Fraction and type(c.im) is Fraction
                       for c in scaled.terms.values())


class TestExactZero:
    """`scale` by an exact 0 returns the exact zero: no terms, untruncated."""

    @pytest.mark.parametrize("zero", [0, Fraction(0), ExactComplex(0), 0.0, 0j])
    def test_scale_by_zero_stores_nothing_untruncated(self, zero):
        s = _random_series(random.Random(3)) + t_poly({-1: 2})
        for z in (s * zero, zero * s, s.scale(zero)):
            assert z.terms == {} and z.cutoff == (series.INF_CUTOFF,)
            assert z.variables == s.variables and z.den == s.den

    def test_zero_plus_series_is_the_series(self):
        # t's box is wider than s's, so only an untruncated zero leaves it whole
        s, t = _random_series(random.Random(4)), _random_series(random.Random(5), order=9)
        for total in (s * 0 + t, t + s * 0):
            assert total.terms == t.terms and total.cutoff == t.cutoff

    def test_zero_times_series_is_the_exact_zero(self):
        s = _random_series(random.Random(6))
        for u in (t_poly({-3: 1, 1: 5}, order=4), PuiseuxSeries.constant(0, ("t",), order=2)):
            for z in ((s * 0) * u, u * (s * 0)):
                assert z.terms == {} and z.cutoff == (series.INF_CUTOFF,)

    def test_bivariate_zero(self):
        s = PuiseuxSeries(("t", "x"), 2, {(1, -2): 3}, (6, 4))
        z = s * Fraction(0)
        assert z.terms == {} and z.cutoff == (series.INF_CUTOFF,) * 2
        assert (z + s) == s and (z + s).cutoff == s.cutoff


class TestTruncateLattice:
    """`truncate` stores an int cutoff on the lattice, or raises."""

    def test_lattice_fraction_is_stored_as_int(self):
        s = t_poly({0: 1, Fraction(7, 2): 2, 4: 3}, order=9)
        cut = s.truncate(Fraction(7, 2))
        assert cut.cutoff == (7,) and type(cut.cutoff[0]) is int
        assert cut.coefficients_of("t") == {0: 1}
        assert json.loads(cut.to_json())["truncation"] == [7]

    def test_float_on_the_lattice_is_stored_as_int(self):
        cut = t_poly({0: 1, 3: 2}, order=9).truncate(2.5)
        assert cut.cutoff == (5,) and type(cut.cutoff[0]) is int

    @pytest.mark.parametrize("order", [Fraction(7, 3), Fraction(1, 4), 0.3])
    def test_off_the_lattice_raises(self, order):
        with pytest.raises(SeriesError, match="not on the lattice"):
            t_poly({0: 1}, order=9).truncate(order)


def _fraction_sign_substitute(s, variable, num):
    """Reference q -> -q^num terms: the parity read off Fraction(e, den)."""
    idx = s.variables.index(variable)
    terms = {}
    for exps, coeff in s.terms.items():
        unscaled = Fraction(exps[idx], s.den)
        if unscaled.denominator != 1:
            raise SeriesError("sign substitution needs integral exponents")
        if unscaled.numerator % 2:
            coeff = -coeff
        e = [v * num.denominator for v in exps]
        e[idx] = exps[idx] * num.numerator
        terms[tuple(e)] = coeff
    return terms


def _generator_valuations(s):
    """Reference `_valuations`: one componentwise-min tuple per stored term."""
    if not s.terms:
        return None
    mins = None
    for exps in s.terms:
        mins = exps if mins is None else tuple(min(a, b) for a, b in zip(mins, exps))
    return mins


class TestSignSubstitution:
    """`substitute_power(..., sign=-1)` takes the parity from divmod on the
    scaled exponent; it must agree with the Fraction parity."""

    @pytest.mark.parametrize("den", [1, 2, 24])
    @pytest.mark.parametrize("num", [Fraction(1, 2), Fraction(2), Fraction(3, 4)])
    def test_matches_fraction_parity(self, den, num):
        rng = random.Random(den * 100 + num.numerator)
        for _ in range(20):
            terms = {(rng.randint(-3, 3), rng.randint(-40, 40) * den): rng.randint(-9, 9)
                     for _ in range(rng.randint(1, 12))}
            s = PuiseuxSeries(("t", "q"), den, terms, (4 * den, 41 * den))
            out = s.substitute_power("q", num, sign=-1)
            assert out.terms == _fraction_sign_substitute(s, "q", num)
            assert out.den == den * num.denominator

    @pytest.mark.parametrize("den, exponent", [(2, 1), (2, -3), (24, 1), (24, -23), (24, 36)])
    def test_fractional_exponent_rejected(self, den, exponent):
        s = PuiseuxSeries(("q",), den, {(0,): 1, (exponent,): 5}, (48 * den,))
        with pytest.raises(SeriesError):
            _fraction_sign_substitute(s, "q", Fraction(1, 2))
        with pytest.raises(SeriesError):
            s.substitute_power("q", Fraction(1, 2), sign=-1)


class TestValuations:
    def test_matches_generator_form(self):
        rng = random.Random(31)
        for _ in range(60):
            terms = {(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)): 1
                     for _ in range(rng.randint(1, 8))}
            s = PuiseuxSeries(("t", "x", "q"), 6, terms, (10, 10, 10))
            assert s._valuations() == _generator_valuations(s)
        assert PuiseuxSeries(("q",), 1, {}, (5,))._valuations() is None
        assert PuiseuxSeries((), 1, {(): 3}, ())._valuations() == ()


class TestNumerators:
    """`_numerator` and `_unlift`, the coefficient form both exact kernels share."""

    def test_round_trip(self):
        rng = random.Random(41)
        for kind in ("real", "complex", "big"):
            for _ in range(50):
                values = [_random_coeff(rng, kind) for _ in range(4)]
                den = lcm(*(p.denominator for c in values for p in (c.re, c.im)))
                for c in values:
                    n = series._numerator(c, den)
                    assert (type(n) is int) == (not c.im)
                    if type(n) is not int:
                        assert n.re.denominator == n.im.denominator == 1
                    assert series._unlift(n, den) == c
                    assert series._unlift(n * den, den * den) == c

    def test_grassmann_shares_the_helpers(self):
        assert grassmann._numerator is series._numerator
        assert grassmann._unlift is series._unlift


class TestEqualityAndHash:
    def test_equal_cosets_and_no_hash(self):
        a = PuiseuxSeries(("t",), 2, {(0,): 1, (4,): 1}, (10,))
        b = PuiseuxSeries(("t",), 2, {(0,): 1}, (2,))
        assert a == b and b == a
        # `==` compares cosets on the common box, which no hash but a
        # constant could respect, so series are unhashable
        with pytest.raises(TypeError):
            hash(a)
        assert a != PuiseuxSeries(("t",), 2, {(0,): 2}, (2,))
        assert a != PuiseuxSeries(("t",), 2, {(0,): 1, (4,): 3}, (10,))
