import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_series import _exact_product_in_box, _in_domain

from vw3d.bethe import s_elements_xy
from vw3d.ratexpr import (BranchError, Const, Div, Factored, HalfPow, PoleError, Poly, Pow, T, Var,
                          X, _exact_quotient, common_quotients, rational_eval)
from vw3d.series import INF_CUTOFF, PuiseuxSeries, SeriesError, default_denominator


class TestEval:
    def test_principal_half_power(self):
        assert abs(rational_eval(T ** Fraction(3, 2), {"t": 4.0}) - 8.0) < 1e-14

    def test_simple_ratio(self):
        expr = (X + 1) / (X - 1)
        assert abs(rational_eval(expr, {"x": 3.0}) - 2.0) < 1e-14

    def test_first_weight_at_rational_point(self):
        # independent substitution oracle in exact rationals:
        # t^{3/2}(x+1) / ((t^2-1)(t(3x-1)+x-3)) at (x,t) = (1/4, 1/9)
        t, x = Fraction(1, 9), Fraction(1, 4)
        t32 = Fraction(1, 27)          # (1/9)^{3/2} exactly
        bracket = t * (3 * x - 1) + x - 3
        oracle = t32 * (x + 1) / ((t * t - 1) * bracket)
        assert oracle == Fraction(27, 1600)
        value = rational_eval(s_elements_xy()[0], {"t": 1 / 9, "x": 0.25})
        assert abs(value - float(oracle)) < 1e-14

    def test_pole_error(self):
        with pytest.raises(PoleError):
            rational_eval(Const(1) / (X - 1), {"x": 1.0 + 1e-14})

    def test_pole_threshold_applies_per_factor(self):
        # the product (x-1)^2 ~ 1e-14 is below the threshold, each factor is not
        expr = Const(1) / ((X - 1) * (X - 1))
        value = rational_eval(expr, {"x": 1.0 + 1e-7})
        assert abs(value * 1e-14 - 1) < 1e-6
        with pytest.raises(PoleError):
            rational_eval(expr * (X - 1), {"x": 1.0})

    def test_negative_power_tests_each_factor(self):
        # as for a quotient: the base (x-1)^2 ~ 1e-14 is below the threshold, each factor is not
        expr = ((X - 1) * (X - 1)) ** -1
        value = rational_eval(expr, {"x": 1.0 + 1e-7})
        quotient = rational_eval(Const(1) / ((X - 1) * (X - 1)), {"x": 1.0 + 1e-7})
        assert abs(value / quotient - 1) < 1e-12 and abs(value * 1e-14 - 1) < 1e-6
        with pytest.raises(PoleError):
            rational_eval(expr, {"x": 1.0})
        with pytest.raises(PoleError):
            rational_eval((X - 1) ** -2, {"x": 1.0 + 1e-14})
        # a positive power has no pole to test
        assert abs(rational_eval(((X - 1) * (X - 1)) ** 2, {"x": 1.0 + 1e-7})) < 1e-27

    def test_factorwise_value_is_the_product(self):
        # the factor-wise walk multiplies in the tree's own order
        expr = Const(1) / ((X - 3) * ((X + 1) * (2 * X - 1)))
        for xv in (0.1, 0.37, 2.5):
            den = (xv - 3) * ((xv + 1) * (2 * xv - 1))
            assert rational_eval(expr, {"x": xv}) == 1 / complex(den)

    def test_branch_error(self):
        with pytest.raises(BranchError):
            rational_eval((X - 2) ** Fraction(1, 2), {"x": 1.0})

    def test_half_power_of_z_rejected(self):
        # trees are over t, x and y: z is refused like any unknown name
        with pytest.raises(ValueError, match="unsupported variable 'z'"):
            Var("z") ** Fraction(1, 2)


class TestExpansion:
    def test_geometric_expansion(self):
        series = (Const(1) / (1 - T ** 2)).expand(("t",), 9)
        for k in range(0, 9, 2):
            assert series.coefficient({"t": k}) == 1
        assert series.coefficient({"t": 1}) == 0

    def test_expansion_matches_eval(self):
        # series evaluation inside the convergence region tracks the closed form
        expr = (T ** Fraction(3, 2) * (X + 1)) / ((1 - T) * (1 - T * X ** 2))
        series = expr.expand(("t", "x"), 24)
        rng = random.Random(11)
        for _ in range(5):
            point = {"t": rng.uniform(0.05, 0.3), "x": rng.uniform(0.05, 0.3)}
            direct = rational_eval(expr, point)
            summed = series.evaluate(point)
            assert abs(direct - summed) < 1e-8 * max(1.0, abs(direct))

    def test_negative_power_expansion(self):
        series = ((1 - T) ** -2).expand(("t",), 7)
        for k in range(7):
            assert series.coefficient({"t": k}) == k + 1

    def test_polynomial_expands_exactly(self):
        # constants and variables carry no truncation, so 1 - 1 cancels exactly
        # and t^2 survives the box of order 1
        series = ((1 + T) - 1 + T ** 2).expand(("t",), 1)
        assert series.coefficient({"t": 1}) == 1 and series.coefficient({"t": 2}) == 1
        assert len(series.terms) == 2 and series.cutoff[0] == INF_CUTOFF

    def test_half_power_of_a_large_square(self):
        # the exact root of (10^30 + 12345)^2 is beyond a float square root
        root = 10**30 + 12345
        series = ((Const(root * root) * T) ** Fraction(3, 2)).expand(("t",), 4)
        assert series.terms == {(3,): root ** 3}
        with pytest.raises(SeriesError):
            ((Const(root * root + 1) * T) ** Fraction(3, 2)).expand(("t",), 4)

    def test_half_power_of_truncated_base(self):
        # (t^-2 (1 + t^8 + ...))^{3/2} = t^-3 (1 + (3/2) t^8 + ...): the base,
        # certified to t^6, gives its power to t^{6 + (1/2)(-2)} = t^5
        expr = (Const(1) / (T ** 2 * (1 - T ** 8))) ** Fraction(3, 2)
        series = expr.expand(("t",), 6)
        assert series.terms == {(-6,): 1} and series.cutoff == (10,)
        for order in (8, 9):  # the base holds t^-2 + t^6: no monomial half power
            with pytest.raises(SeriesError):
                expr.expand(("t",), order)


class TestUntruncatedCutoff:
    def test_leaves_expand_untruncated(self):
        assert INF_CUTOFF == math.inf
        for expr in (T, X, Const(3)):
            assert expr.expand(("t", "x"), 4).cutoff == (math.inf, math.inf)

    def test_infinity_survives_cutoff_arithmetic(self):
        t = T.expand(("t",), 4)
        assert t.rescale(24).cutoff == (math.inf,)
        assert t.substitute_power("t", Fraction(1, 2)).cutoff == (math.inf,)
        assert t.substitute_power("t", 3, sign=-1).cutoff == (math.inf,)
        assert (T ** Fraction(3, 2)).expand(("t",), 4).cutoff == (math.inf,)
        with pytest.raises(SeriesError):  # an untruncated series is not inverted
            (1 + T).expand(("t",), 4).invert()

    def test_truncated_laurent_factor_cuts_the_product(self):
        # t (untruncated) times t^-1 + O(t^4): known only to O(t^5)
        laurent = PuiseuxSeries(("t",), 2, {(-2,): 1}, (8,))
        assert (T.expand(("t",), 4) * laurent).cutoff == (10,)

    @pytest.mark.parametrize("variables", [("x",), ("t", "x"), ("t", "x", "y"), ("x", "q"),
                                           ("x", "s")])
    def test_lattice_follows_the_variables(self, variables):
        for expr in (Const(2), X + 1, (X ** 2 + 1) ** 3, Const(1) / (1 - X)):
            assert expr.expand(variables, 3).den == default_denominator(variables)


def _poly(variables, terms):
    """An untruncated polynomial from {unscaled exponent tuple: coefficient}."""
    den = default_denominator(variables)
    return PuiseuxSeries(variables, den,
                         {tuple(int(e * den) for e in exps): c for exps, c in terms.items()},
                         (INF_CUTOFF,) * len(variables))


class TestFactored:
    def test_a_polynomial_names_one_factor_up_to_a_unit(self):
        a, b = (1 - T ** 2).factored(("t",)), (T ** 2 - 1).factored(("t",))
        assert a.powers == b.powers and list(a.powers.values()) == [1]
        assert (a.coeff, b.coeff) == (1, -1) and a.mono == b.mono == (0,)
        (f,) = a.powers
        assert f.series == _poly(("t",), {(0,): 1, (2,): -1})

    def test_monomials_and_half_powers_carry_no_factor(self):
        form = (3 * T ** Fraction(3, 2) * X ** 2).factored(("t", "x"))
        assert (form.coeff, form.mono, form.powers) == (3, (3, 4), {})

    def test_products_and_powers_combine_exponents(self):
        form = ((X + 1) ** 3 * (1 - X) / ((X + 1) * (2 * X - 2) ** 2)).factored(("x",))
        assert sorted(form.powers.values()) == [-1, 2]
        # 2x - 2 = -2 (1 - x), so the form is (1 + x)^2 / (4 (1 - x))
        assert form.coeff == Fraction(1, 4)
        cubed = form ** -3
        assert sorted(cubed.powers.values()) == [-6, 3] and cubed.coeff == 64
        assert (form * (X - 1).factored(("x",))).powers == {
            f: k for f, k in form.powers.items() if k > 0}

    def test_a_sum_must_be_a_polynomial(self):
        with pytest.raises(SeriesError):
            (1 + Const(1) / (1 - X)).factored(("x",))

    def test_expanded_multiplies_out(self):
        form = (2 * T ** Fraction(1, 2) * (1 + T) ** 2 * (1 - T)).factored(("t",))
        assert form.expanded({}) == _poly(("t",), {(Fraction(1, 2),): 2, (Fraction(3, 2),): 2,
                                                 (Fraction(5, 2),): -2, (Fraction(7, 2),): -2})


class TestExactQuotient:
    def test_divides_exactly(self):
        f = _poly(("t", "x"), {(0, 0): 1, (1, 1): 3, (0, 1): -1})
        q = _poly(("t", "x"), {(0, 0): 2, (2, 0): Fraction(1, 2), (1, 3): -1})
        got = _exact_quotient(q * f, f)
        assert got == q and got.cutoff == (INF_CUTOFF, INF_CUTOFF)
        laurent = _poly(("t", "x"), {(Fraction(-3, 2), -1): 5}) * q
        assert _exact_quotient(laurent * f, f) == laurent

    def test_rejects_a_non_divisor(self):
        one_minus_t = _poly(("t",), {(0,): 1, (1,): -1})
        assert _exact_quotient(_poly(("t",), {(0,): 1, (1,): 1}), one_minus_t) is None
        # a quotient box smaller than the divisor's span: no quotient at all
        assert _exact_quotient(_poly(("t",), {(0,): 1}), one_minus_t) is None
        # t^2 - 1 = (t - 1)(t + 1), but t + t^3 is not a multiple of 1 - t
        assert _exact_quotient(_poly(("t",), {(1,): 1, (3,): 1}), one_minus_t) is None


class TestCommonQuotients:
    def test_groups_follow_shared_denominator_factors(self):
        variables = ("x",)
        exprs = (Const(1) / (1 - X), X ** 2, Const(-3) / ((1 - X) * (2 + X)), Const(1) / (3 + X),
                 5 * X)
        groups = common_quotients([e.factored(variables) for e in exprs])
        assert len(groups) == 3
        # 1/(1-x) - 3/((1-x)(2+x)) = -1/(2+x) once 1 - x cancels
        assert Factored.of(groups[0].right.series).powers == (2 + X).factored(variables).powers
        # the two polynomials share the denominator 1
        assert groups[2].left.series == (X ** 2 + 5 * X).expand(variables, 0)
        assert groups[2].right.series == Const(1).expand(variables, 0)
        for q in groups:
            assert q.left.series.cutoff == q.right.series.cutoff == (INF_CUTOFF,)
        total = sum(q.expand(variables, 9) for q in groups).truncate(9)
        want = sum(e.expand(variables, 9) for e in exprs).truncate(9)
        assert total.to_json() == want.to_json()


class TestExactExpansions:
    """Quotients and half powers of exact inputs against exact oracles."""

    @settings(max_examples=20)
    @given(_in_domain(), _in_domain(), st.integers(1, 4))
    def test_quotient_times_denominator(self, n, d, order):
        # N and D untruncated, D's corner stored.  The stored terms of Q = N/D
        # miss only terms at or above Q's cutoff in some variable, so Q times
        # D equals N below that cutoff moved by D's valuation
        (n_full, n), (d_full, d) = n, d
        untruncated = [PuiseuxSeries(s.variables, s.den, full, (INF_CUTOFF,) * len(s.variables))
                       for s, full in ((n, n_full), (d, d_full))]
        quotient = Div(*map(Poly, untruncated)).expand(n.variables, order)
        assert all(c >= order * d.den for c in quotient.cutoff)
        box = tuple(c + min(e[k] for e, v in d_full.items() if v)
                    for k, c in enumerate(quotient.cutoff))
        assert _exact_product_in_box(quotient.terms, d_full, box) == {
            e: c for e, c in n_full.items() if c and all(x < b for x, b in zip(e, box))}

    @settings(max_examples=25)
    @given(st.fractions(-9, 9, max_denominator=9).filter(bool), st.integers(-3, 3),
           st.integers(-3, 3), st.sampled_from((-3, -1, 1, 3, 5)), st.integers(1, 4))
    def test_half_power_squares_to_the_power(self, c, a, b, k, order):
        # the exact monomial c^2 t^a x^b; a negative k expands the power as a Div
        base = Poly(PuiseuxSeries(("t", "x"), 2, {(2 * a, 2 * b): c * c}, (INF_CUTOFF,) * 2))
        half = HalfPow(base, Fraction(k, 2)).expand(("t", "x"), order)
        assert half.cutoff == (INF_CUTOFF,) * 2
        want = Pow(base, k).expand(("t", "x"), order)
        assert half * half == want
        assert want.terms == {(2 * k * a, 2 * k * b): (c * c) ** k}
