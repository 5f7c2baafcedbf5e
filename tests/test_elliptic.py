import hashlib
import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vw3d import elliptic
from vw3d.elliptic import (
    UnsupportedTopologyError,
    BasicClass,
    KahlerTopology,
    binomial_remainder,
    en_closed_form,
    eta24_series,
    g_series,
    gluing_check,
    second_line_series,
    sw_data_en,
    z_vw_kahler,
)
from vw3d.series import PuiseuxSeries, SeriesError

G_LEADING = {-1: 1, 0: 24, 1: 324, 2: 3200, 3: 25650, 4: 176256, 5: 1073720}


class TestGSeries:
    def test_leading_coefficients(self):
        g = g_series(6)
        for e, c in G_LEADING.items():
            assert g.coefficient({"q": e}) == c

    def test_eta24_tau_values(self):
        # the discriminant cusp form coefficients, an independent frozen bank
        eta = eta24_series(9)
        expected = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048,
                    7: -16744, 8: 84480, 9: -113643}
        for n, tau in expected.items():
            assert eta.coefficient({"q": n}) == tau

    def test_inverse_of_eta24(self):
        g = g_series(10)
        eta = eta24_series(12)
        assert (g * eta).to_text() == "1 * 1"

    @pytest.mark.parametrize("order", [-1, -5])
    def test_negative_order_rejected(self, order):
        with pytest.raises(ValueError):
            eta24_series(order)
        with pytest.raises(ValueError):
            g_series(order)

    def test_order_zero(self):
        eta = eta24_series(0)
        assert eta.coefficients_of("q") == {1: 1}
        assert eta.cutoff == (48,)

    def test_argument_doubling(self):
        g2 = g_series(6).substitute_power("q", 2)
        assert g2.coefficient({"q": -2}) == 1
        assert g2.coefficient({"q": -1}) == 0
        assert g2.coefficient({"q": 0}) == 24

    def test_half_argument_sign(self):
        gm = g_series(6).substitute_power("q", Fraction(1, 2), sign=-1)
        assert gm.coefficient({"q": Fraction(-1, 2)}) == -1
        assert gm.coefficient({"q": 0}) == 24
        assert gm.coefficient({"q": Fraction(1, 2)}) == -324

    def test_even_part_reindexes_odd_coefficients(self):
        # G(q^{1/2}) + G(-q^{1/2}) keeps exactly the integral powers, with
        # coefficient 2 * (coefficient of the odd-index entry of G)
        g = g_series(9)
        both = g.substitute_power("q", Fraction(1, 2)) + \
            g.substitute_power("q", Fraction(1, 2), sign=-1)
        coeffs = g.coefficients_of("q")
        for e in both.coefficients_of("q"):
            assert e.denominator == 1
        for m in range(0, 4):
            want = coeffs.get(Fraction(2 * m), None)
            got = both.coefficient({"q": m})
            assert got == (want * 2 if want is not None else 0)


class TestSWData:
    def test_k3_single_class(self):
        top = sw_data_en(2)
        assert top.chi == 24 and top.sigma == -16
        assert len(top.basic_classes) == 1
        assert top.basic_classes[0].sw == 1
        assert top.basic_classes[0].is_zero_class

    def test_e4_classes(self):
        swl = [c.sw for c in sw_data_en(4).basic_classes]
        assert swl == [1, -2, 1]
        mults = [c.multiple for c in sw_data_en(4).basic_classes]
        assert mults == [2, 0, -2]

    def test_e6_classes(self):
        assert [c.sw for c in sw_data_en(6).basic_classes] == [1, -4, 6, -4, 1]

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            sw_data_en(3)


class TestPartitionFunction:
    def test_k3_matches_three_term_form(self):
        assert z_vw_kahler(sw_data_en(2), order=20) == en_closed_form(2, order=20)

    def test_k3_leading_values(self):
        z = z_vw_kahler(sw_data_en(2), order=3)
        assert z.coefficient({"q": -2}) == Fraction(1, 8)
        assert z.coefficient({"q": 0}) == 15
        assert z.coefficient({"q": 1}) == 1600
        assert z.coefficient({"q": 2}) == Fraction(176337, 2)

    def test_e4_is_minus_g_squared_over_16(self):
        z = z_vw_kahler(sw_data_en(4), order=12)
        g2 = g_series(30).substitute_power("q", 2)
        expected = ((g2 * g2) * Fraction(-1, 16)).truncate(13)
        assert z == expected

    def test_pipeline_equals_closed_form(self):
        for n in (2, 4, 6, 8):
            assert z_vw_kahler(sw_data_en(n), order=20) == en_closed_form(n, order=20)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_one_power_of_g(self, monkeypatch, n):
        # substitution is a ring map: G^(n/2) is taken once, then substituted
        # at q^2 and +-q^{1/2}
        powers, power = [], PuiseuxSeries.__pow__
        monkeypatch.setattr(PuiseuxSeries, "__pow__",
                            lambda s, k: powers.append(k) or power(s, k))
        z_vw_kahler(sw_data_en(n), order=4)
        assert powers == [n // 2]

    def test_e6_leading(self):
        z = z_vw_kahler(sw_data_en(6), order=0)
        assert z.coefficient({"q": -6}) == Fraction(3, 64)

    def test_binomial_remainder_vanishes(self):
        assert [binomial_remainder(n) for n in (6, 8, 10)] == [0, 0, 0]
        assert binomial_remainder(2) == 1

    def test_second_line_vanishes_identically(self):
        for n in (4, 6, 8):
            assert second_line_series(n, order=10).is_zero()

    def test_coefficients_are_dyadic(self):
        z = z_vw_kahler(sw_data_en(6), order=12)
        for c in z.terms.values():
            assert c.im == 0
            den = c.re.denominator
            assert den & (den - 1) == 0  # power of two

    def test_unsupported_theta_exponent(self):
        top = KahlerTopology(chi=11, sigma=-7, basic_classes=())
        with pytest.raises(UnsupportedTopologyError):
            z_vw_kahler(top)


class TestGluing:
    def test_e6_not_multiplicative(self):
        report = gluing_check(6, order=6)
        assert report["equal"] is False
        assert report["first_differing_exponent"] == "-6"
        assert report["lhs_leading"] == {"exponent": "-6", "coeff": "3/64"}

    def test_e8_not_multiplicative(self):
        report = gluing_check(8, order=4)
        assert report["equal"] is False
        assert report["first_differing_exponent"] is not None
        assert report["lhs_leading"]["coeff"] == "-5/128"

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_matches_the_long_box_reference(self, n):
        for order in range(17):
            assert gluing_check(n, order) == _reference_gluing(n, order), order


def _reference_gluing(n, order):
    """The gluing report on one long box: all three Z at order + 3n + 8, both
    sides cut to order + 1 without a certificate."""
    z = {m: z_vw_kahler(sw_data_en(m), order + 3 * n + 8) for m in (n, 2, 4)}
    lhs = z[n].truncate(order + 1)
    rhs = ((z[4] * z[2].invert()) ** ((n - 2) // 2) * z[2]).truncate(order + 1)
    diff = lhs - rhs
    first = None if diff.is_zero() else str(Fraction(min(diff.terms)[0], diff.den))
    return {"n": n, "order": order, "equal": diff.is_zero(), "first_differing_exponent": first,
            "lhs_leading": elliptic._leading(lhs), "rhs_leading": elliptic._leading(rhs)}


def _reference_z(top, order):
    """Z built on one long box: G on 2 order + 2k + 4, all three substitutions
    at full length, one weight per term."""
    k = top.chi_plus_sigma_over_8
    g_pow = g_series(2 * order + 2 * k + 4) ** k
    sign1 = (-1) ** ((top.chi + top.sigma) // 4)
    weight = Fraction(1, 4) ** k / 2
    sw_zero = sum(c.sw for c in top.basic_classes if c.is_zero_class)
    sw_all = sum(c.sw for c in top.basic_classes)
    half = Fraction(1, 2)
    total = (g_pow.substitute_power("q", 2) * (sign1 * sw_zero * weight)
             + g_pow.substitute_power("q", half) * (2 * sw_all * weight)
             + g_pow.substitute_power("q", half, sign=-1) * (2 * sw_all * weight))
    return total.truncate(order + 1)


def _reference_closed_form(n, order):
    g = g_series(2 * order + 2 * n + 4)
    g2 = g.substitute_power("q", 2)
    if n == 2:
        quarter, half = Fraction(1, 4), Fraction(1, 2)
        return (g2 * Fraction(1, 8) + g.substitute_power("q", half) * quarter
                + g.substitute_power("q", half, sign=-1) * quarter).truncate(order + 1)
    coeff = Fraction((-1) ** (n // 2 + 1) * comb(n - 2, n // 2 - 1), 2 * 4 ** (n // 2))
    return (g2 ** (n // 2) * coeff).truncate(order + 1)


# k = (chi + sigma)/8 in {-1, 0, 1} with a zero theta exponent, and basic
# classes that make the q^2 and the half-argument weights zero or not
SYNTHETIC_CLASSES = [
    (),
    (BasicClass(0, 1),),
    (BasicClass(2, 1), BasicClass(-2, -1)),
    (BasicClass(2, 3), BasicClass(0, -1)),
    (BasicClass(1, 2),),
]


class TestPerTermBoxes:
    """Each term of Z is expanded only on the box it needs: the result is
    byte-identical to the one-long-box reference."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_en_matches_reference(self, n):
        for order in range(41):
            assert z_vw_kahler(sw_data_en(n), order).to_json() == \
                _reference_z(sw_data_en(n), order).to_json(), order
            assert en_closed_form(n, order).to_json() == \
                _reference_closed_form(n, order).to_json(), order

    @pytest.mark.parametrize("k", [-1, 0, 1])
    @pytest.mark.parametrize("classes", SYNTHETIC_CLASSES)
    def test_synthetic_topology_matches_reference(self, k, classes):
        top = KahlerTopology(chi=24 * k, sigma=-16 * k, basic_classes=classes)
        assert top.chi_plus_sigma_over_8 == k and top.theta_eta_exponent == 0
        for order in range(13):
            z = z_vw_kahler(top, order)
            assert z.to_json() == _reference_z(top, order).to_json(), order
            assert z.cutoff == ((order + 1) * z.den,)

    def test_zero_weighted_terms_do_not_cap_the_box(self, monkeypatch):
        # for n > 2 the half-argument weight is an exact 0, so G is built for
        # the q^2 term alone: about order/2, not about 2 order
        orders, g = [], elliptic.g_series
        monkeypatch.setattr(elliptic, "g_series", lambda o: orders.append(o) or g(o))
        z_vw_kahler(sw_data_en(6), order=40)
        en_closed_form(6, order=40)
        second_line_series(6, order=40)
        assert max(orders) <= 40 // 2 + 3

    def test_short_box_raises(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_g_order", lambda k, order, weight: 1)
        for call in (lambda: z_vw_kahler(sw_data_en(2), 10),
                     lambda: en_closed_form(2, 10), lambda: en_closed_form(6, 10),
                     lambda: gluing_check(6, 10)):
            with pytest.raises(SeriesError, match="order 10"):
                call()


def _two_substitutions(p, weight):
    """The half-argument term as written: p(q^{1/2}) + p(-q^{1/2}), then the weight."""
    half = Fraction(1, 2)
    return (p.substitute_power("q", half) + p.substitute_power("q", half, sign=-1)) * weight


# integer q-series on lattice 24 with powers -3..60 and a finite cutoff
_Q_SERIES = st.builds(
    lambda terms, cut: PuiseuxSeries(("q",), 24, {(24 * e,): c for e, c in terms.items()}, (cut,)),
    st.dictionaries(st.integers(-3, 60), st.integers(-10**6, 10**6), max_size=20),
    st.integers(-71, 24 * 61))


class TestHalfArgument:
    """`_half_argument` builds only the even part of p; it equals the sum of both
    substitutions, weighted, in every byte."""

    @settings(max_examples=25)
    @given(_Q_SERIES, st.sampled_from([0, Fraction(1, 4), Fraction(-3, 8), 5]))
    def test_matches_two_substitutions(self, p, weight):
        assert elliptic._half_argument(p, weight).to_json() == \
            _two_substitutions(p, weight).to_json()

    def test_zero_weight_is_the_exact_zero(self):
        z = elliptic._half_argument(g_series(8), Fraction(0))
        assert z.terms == {} and z.cutoff == (float("inf"),)

    def test_half_integral_power_raises(self):
        p = PuiseuxSeries(("q",), 48, {(0,): 1, (24,): 3}, (480,))
        for call in (elliptic._half_argument, _two_substitutions):
            with pytest.raises(SeriesError, match="sign substitution needs integral exponents"):
                call(p, Fraction(1, 4))


class TestOrderDomain:
    @pytest.mark.parametrize("call", [
        lambda o: z_vw_kahler(sw_data_en(2), o),
        lambda o: z_vw_kahler(sw_data_en(4), o),
        lambda o: en_closed_form(2, o),
        lambda o: en_closed_form(6, o),
        lambda o: second_line_series(4, o),
        lambda o: gluing_check(6, o),
    ], ids=["z2", "z4", "closed2", "closed6", "second_line", "gluing"])
    def test_negative_order_rejected(self, call):
        for order in (-1, -3):
            with pytest.raises(ValueError, match="order"):
                call(order)
        call(0)


# SHA-256 of exact q-series results.  Any change to a coefficient, a
# certified cutoff or the JSON layout shows here; update a digest only for an
# intended change of output.
SERIES_DIGESTS = [
    (2, 130, "d4d7eccf3ad09e1c22437510e67107d8f2570806e308218042d2cc17e8161612",
     "d4d7eccf3ad09e1c22437510e67107d8f2570806e308218042d2cc17e8161612"),
    (4, 34, "134e947de04ff127145befde0fb2d055125813d1b24569c0ea4649bf7c02eabd",
     "5f8e88312c3b21f4008039409c333d98e9c0b87353ace005adc285a5bfe552d0"),
    (10, 19, "c03b8e0ff8cb0eabb819867d38cb7f3ced591d4f65b47b65e0a33d9b63c757cc",
     "5448c9d08100b780fe7652127e587a0234c5aa2b7a98add55900f567e5951e54"),
]
GLUING_8_13_DIGEST = "123bc733ef8a59a3dbe9d57d737fc6cc974e0d920c4d3fb618df9839bbc8cc06"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestSeriesDigests:
    @pytest.mark.parametrize("n,order,z_digest,closed_digest", SERIES_DIGESTS,
                             ids=[f"E{n}-order{o}" for n, o, *_ in SERIES_DIGESTS])
    def test_partition_function_bytes(self, n, order, z_digest, closed_digest):
        assert _sha256(z_vw_kahler(sw_data_en(n), order).to_json()) == z_digest
        assert _sha256(en_closed_form(n, order).to_json()) == closed_digest

    def test_gluing_report_bytes(self):
        assert _sha256(json.dumps(gluing_check(8, 13), sort_keys=True)) == GLUING_8_13_DIGEST


def test_elliptic_demo_runs(run_demo):
    out = run_demo("02_elliptic_surfaces.py")
    assert "multiplicative gluing prediction vs the direct series for E(6):" in out
    assert "first differing q-power: -6" in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b8de188286217607f96ad459b90a265eb4f4b36fc935be22d9a8c0910f8e3dc2"
