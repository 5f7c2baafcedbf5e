import hashlib
import json
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import lt, mul

import numpy as np
import pytest
from test_series import _exact_product_in_box

from vw3d import bethe
from vw3d.bethe import (
    CLASS_LABELS,
    CLASS_MULTIPLICITIES,
    DegenerateParameterError,
    _factored,
    admissible_roots,
    asymptotics_check,
    build_bethe,
    closed_form_value,
    grdim_closed_form,
    limit_specialize,
    point_report,
    r0_limit_elements,
    r2_limit_elements,
    r2_series_elements,
    s2s1_generic_expr,
    s2xs1_closed_expr,
    s2xs1_elements,
    s3_elements,
    s_elements_generic,
    s_elements_xy,
    s_squared,
    s_squared_values,
    saddle_coefficients,
    verlinde_sum,
)
from vw3d.ratexpr import (Factored, PoleError, T, X, _exact_quotient, common_quotients,
                          rational_eval)
from vw3d.roots import poly_roots
from vw3d.series import INF_CUTOFF, ExactComplex, default_denominator, poly_mul

GENERIC = {"x": 0.3, "y": 0.7, "t": 0.11}


def expansion_oracle(x, y, t):
    """Independent expansion of the cleared saddle polynomial via numpy."""
    a = np.array([1.0])
    b = np.array([1.0])
    for p in (t, x, y):
        a = np.polymul(a, np.array([-1.0, 0.0, p]))       # -z^2 + p
        b = np.polymul(b, np.array([p, 0.0, -1.0]))       # p z^2 - 1
    return np.polymul(a, a) - np.polymul(b, b)            # descending powers


class TestBuild:
    def test_degree_and_forced_roots(self):
        coeffs = saddle_coefficients(build_bethe(GENERIC))
        assert len(coeffs) == 13 and coeffs[-1] != 0
        for z in (1.0, -1.0, 1j, -1j):
            assert abs(np.polyval(coeffs[::-1], z)) < 1e-12

    def test_expansion_matches_oracle(self):
        mine = np.array(saddle_coefficients(build_bethe(GENERIC)))
        oracle = expansion_oracle(**GENERIC)[::-1]        # ascending
        assert len(mine) == len(oracle)
        assert np.allclose(mine, oracle, rtol=1e-12, atol=1e-12)

    def test_leading_coefficient_exact(self):
        # expanding the difference of products gives 1 - (t x y)^2 at z^12
        system = build_bethe({"x": Fraction(3, 10), "y": Fraction(7, 10),
                              "t": Fraction(11, 100)})
        txy = Fraction(3, 10) * Fraction(7, 10) * Fraction(11, 100)
        assert saddle_coefficients(system)[-1] == complex(1 - txy ** 2)

    def test_singular_parameters_rejected(self):
        with pytest.raises(DegenerateParameterError):
            build_bethe({"x": 1.0, "y": 0.5, "t": 0.25})

    @pytest.mark.parametrize("x, y, t", [
        (2, Fraction(1, 2), Fraction(3, 10)),       # xy = 1: u_- = u_+
        (2, 2, Fraction(5, 7)),                     # u_- = 2: vacua meet z = +-1
        (2, 2, Fraction(1, 5)),                     # u_+ = -2: vacua meet z = +-i
        (Fraction(1, 2), Fraction(3, 10), 2),       # tx = 1: u_- = u_+
    ])
    def test_merging_vacua_rejected_exactly(self, x, y, t):
        with pytest.raises(DegenerateParameterError):
            verlinde_sum(1, {"x": x, "y": y, "t": t})

    def test_palindromic_factorisation_exact(self):
        # A(w)^2 - B(w)^2 = (1 - (txy)^2)(w^2 - 1)(w^2 - u_- w + 1)(w^2 - u_+ w + 1).
        # 1 - (txy)^2 = (1 + txy)(1 - txy) clears the denominators of u_- and
        # u_+, and then both sides are polynomials in w whose coefficients have
        # degree <= 2 in each of t, x and y.  Such a polynomial that vanishes
        # on a 3 x 3 x 3 grid vanishes identically, so the grid proves the
        # identity at every point with txy != +-1; the 50 random points are
        # spot checks on top.
        rng = random.Random(7)
        points = [tuple(Fraction(rng.randint(1, 97), rng.randint(1, 97)) for _ in range(3))
                  for _ in range(50)]
        grid = list(product((Fraction(1, 5), Fraction(1, 3), Fraction(3, 7)), repeat=3))
        checked = []
        for x, y, t in points + grid:
            if 1 in (x, y, t) or t * x * y == 1:
                continue
            a = b = [Fraction(1)]
            for p in (t, x, y):
                a = poly_mul(a, [p, -1])
                b = poly_mul(b, [-1, p])
            lhs = [ca - cb for ca, cb in zip(poly_mul(a, a), poly_mul(b, b))]
            txy = t * x * y
            u_minus = -(txy - t * x - t * y - t - x * y - x - y + 1) / (txy + 1)
            u_plus = (txy + t * x + t * y - t + x * y - x - y - 1) / (txy - 1)
            rhs = [1 - txy ** 2]
            for factor in ([-1, 0, 1], [1, -u_minus, 1], [1, -u_plus, 1]):
                rhs = poly_mul(rhs, factor)
            assert lhs == rhs
            system = build_bethe({"x": x, "y": y, "t": t})
            assert system.traces == (u_minus, u_plus)
            # the sweep solves exactly this polynomial, in z with w = z^2
            coeffs = saddle_coefficients(system)
            assert coeffs[::2] == tuple(map(complex, lhs)) and not any(coeffs[1::2])
            checked.append((x, y, t))
        assert set(grid) <= set(checked)


class TestAdmissible:
    def test_ten_admissible_with_weyl_pairs(self):
        system = build_bethe(GENERIC)
        roots = admissible_roots(system)
        assert len(roots) == 10
        for r in roots:
            partner = roots[r.weyl_partner_index].z
            assert abs(r.z * partner - 1) < 1e-6
        assert any(abs(r.z - 1j) < 1e-8 for r in roots)
        assert any(abs(r.z + 1j) < 1e-8 for r in roots)

    def test_unit_roots_excluded(self):
        system = build_bethe(GENERIC)
        kept = {round(r.z.real, 8) + 1j * round(r.z.imag, 8)
                for r in admissible_roots(system)}
        assert 1.0 + 0j not in kept and -1.0 + 0j not in kept

    def test_stability_sweep(self):
        # the numeric solver stays as an independent check of the closed forms
        rng = random.Random(123)
        for _ in range(30):
            params = {k: rng.uniform(0.05, 0.95) for k in ("x", "y", "t")}
            system = build_bethe(params)
            roots = admissible_roots(system)
            assert len(roots) == 10
            numeric = poly_roots(saddle_coefficients(system))
            for r in roots:
                assert min(abs(r.z - z) for z in numeric) < 1e-8


def _sorted_key(z):
    return (round(z.real, 9), round(z.imag, 9))


def closed_multiset(point, elements, mults):
    values = []
    for m, expr in zip(mults, elements):
        values += [rational_eval(expr, point)] * m
    return sorted(values, key=_sorted_key)


class TestWeights:
    def test_multiset_matches_generic_closed_forms(self):
        values = sorted(s_squared_values(build_bethe(GENERIC)), key=_sorted_key)
        expected = closed_multiset(GENERIC, s_elements_generic(), (2, 4, 4))
        for got, want in zip(values, expected):
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_multiset_and_classes_at_equal_parameters(self):
        params = {"x": 0.25, "y": 0.25, "t": 1 / 9}
        system = build_bethe(params)
        labels = [r.class_label for r in admissible_roots(system)]
        assert labels.count("S00-class") == 2
        assert labels.count("S02-class") == 4
        assert labels.count("S06-class") == 4
        point = {"x": 0.25, "t": 1 / 9}
        expected = closed_multiset(point, s_elements_xy(), (2, 4, 4))
        got = sorted(s_squared_values(system), key=_sorted_key)
        for a, b in zip(got, expected):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_classes_follow_the_point(self):
        # two x = y points in a row that differ only in t: each vacuum's
        # weight is its own class's x = y closed form at that point
        for t in (Fraction(1, 9), Fraction(3, 10)):
            system = build_bethe({"x": 0.25, "y": 0.25, "t": t})
            roots = admissible_roots(system)
            labels = [r.class_label for r in roots]
            assert tuple(labels.count(n) for n in CLASS_LABELS) == CLASS_MULTIPLICITIES
            refs = dict(zip(CLASS_LABELS, (rational_eval(e, {"x": 0.25, "t": float(t)})
                                           for e in s_elements_xy())))
            for r in roots:
                ref = refs[r.class_label]
                assert abs(s_squared(r, system) - ref) <= 1e-6 * max(1.0, abs(ref))

    @staticmethod
    def _rational_points(seed, diagonal, n=400):
        """n seeded non-degenerate points with x, y, t in {1, ..., 99}/100."""
        rng = random.Random(seed)
        points = []
        while len(points) < n:
            x, y, t = (Fraction(rng.randint(1, 99), 100) for _ in range(3))
            params = {"x": x, "y": x if diagonal else y, "t": t}
            try:
                system = build_bethe(params)
                weights = s_squared_values(system)
            except (DegenerateParameterError, PoleError):
                continue
            points.append((system, weights))
        return points

    def test_origin_labels_equal_the_float_match_at_x_eq_y(self):
        # the float classification the labels replaced: each weight must
        # match exactly one x = y closed form within 1e-6 (relative, floored
        # at 1), and that class is the vacuum's origin
        for system, weights in self._rational_points(11, diagonal=True):
            point = {"t": float(system.params["t"]), "x": float(system.params["x"])}
            refs = [rational_eval(e, point) for e in s_elements_xy()]
            for r, w in zip(admissible_roots(system), weights):
                matches = [name for name, ref in zip(CLASS_LABELS, refs)
                           if abs(w - ref) <= 1e-6 * max(1.0, abs(ref))]
                assert matches == [r.class_label], (system.params, w, matches)

    def test_weights_equal_their_class_closed_form(self):
        for system, weights in self._rational_points(12, diagonal=False):
            point = {k: float(v) for k, v in system.params.items()}
            refs = dict(zip(CLASS_LABELS, (rational_eval(e, point)
                                           for e in s_elements_generic())))
            for r, w in zip(admissible_roots(system), weights):
                ref = refs[r.class_label]
                assert abs(w - ref) <= 1e-6 * max(1.0, abs(ref)), (system.params, r)

    def test_specialization_coherence(self):
        # generic pipeline evaluated at y = x agrees with the x = y forms
        params = {"x": 0.4, "y": 0.4, "t": 0.2}
        got = sorted(s_squared_values(build_bethe(params)), key=_sorted_key)
        generic = closed_multiset(params, s_elements_generic(), (2, 4, 4))
        for a, b in zip(got, generic):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


class TestVerlindeSum:
    def test_torus_genus_counts_vacua(self):
        for params in (GENERIC, {"x": 0.5, "y": 0.2, "t": 0.8}):
            assert abs(verlinde_sum(1, params) - 10) < 1e-9

    def test_genus_zero_matches_closed_form(self):
        direct = verlinde_sum(0, GENERIC)
        closed = rational_eval(s2s1_generic_expr(),
                               {k: float(v) for k, v in GENERIC.items()})
        assert abs(direct - closed) <= 1e-8 * abs(closed)

    def test_genus_zero_equal_parameters(self):
        params = {"x": 0.25, "y": 0.25, "t": 1 / 9}
        direct = verlinde_sum(0, params)
        closed = rational_eval(s2xs1_closed_expr(), {"x": 0.25, "t": 1 / 9})
        assert abs(direct - closed) <= 1e-8 * abs(closed)

    def test_higher_genus_matches_elements(self):
        params = {"x": 0.35, "y": 0.35, "t": 0.15}
        direct = verlinde_sum(3, params)
        closed = closed_form_value(3, 0.35, 0.15)
        assert abs(direct - closed) <= 1e-7 * abs(closed)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 3e-5])
    def test_genus_two_near_unit_point(self, eps):
        # the criterion-4 path (x, t) = (1 - 2 eps, 1 - eps) at y = x
        x, t = 1 - 2 * eps, 1 - eps
        direct = verlinde_sum(2, {"x": x, "y": x, "t": t})
        closed = closed_form_value(2, x, t)
        assert abs(direct - closed) <= 1e-9 * abs(closed)

    def test_genus_two_finite_below_closed_form_threshold(self):
        # At eps = 1e-5 the closed form's whole denominator is below 1e-12;
        # the pipeline must stay finite and agree with the closed form
        # evaluated at the one threshold, which tests each factor on its own.
        eps = 1e-5
        x, t = 1 - 2 * eps, 1 - eps
        direct = verlinde_sum(2, {"x": x, "y": x, "t": t})
        assert np.isfinite(direct)
        closed = closed_form_value(2, x, t)
        assert abs(direct - closed) <= 1e-9 * abs(closed)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6])
    def test_closed_form_tests_each_denominator_factor(self, eps):
        # Each factor of the x = y denominators is ~eps, so their product
        # falls below 1e-12, yet no factor is near a pole.
        x, t = 1 - 2 * eps, 1 - eps
        direct = verlinde_sum(2, {"x": x, "y": x, "t": t})
        closed = closed_form_value(2, x, t)
        assert abs(direct - closed) <= 1e-9 * abs(closed)

    @pytest.mark.parametrize("x, t", [(0.5, 1.0), (2.0, 0.25)])
    def test_closed_form_true_pole_raises(self, x, t):
        # t = 1 zeroes (t - 1) and (t^2 - 1); (x, t) = (2, 1/4) zeroes t x^2 - 1
        with pytest.raises(PoleError):
            closed_form_value(2, x, t)

    def test_higher_genus_generic_point(self):
        direct = verlinde_sum(2, GENERIC)
        closed = sum(m * rational_eval(e, GENERIC) ** -1
                     for m, e in zip((2, 4, 4), s_elements_generic()))
        assert abs(direct - closed) <= 1e-7 * abs(closed)

    @pytest.mark.parametrize("g,t,stage", [
        # a power past 1e308 raised "complex exponentiation" bare
        (200, 0.11, "genus-200 sum of S^2 ** -199 left the float range: complex exponentiation"),
        # each power is finite, their sum is not: this returned inf-6.48e295j
        (154, 0.11106, "genus-154 sum of S^2 ** -153 left the float range: (inf"),
    ])
    def test_float_range_failure_names_the_genus_sum(self, g, t, stage):
        with pytest.raises(OverflowError) as exc:
            verlinde_sum(g, {"x": 0.3, "y": 0.7, "t": t})
        assert str(exc.value).startswith(stage)

    def test_pole_failure_names_the_point_mode_stage(self, monkeypatch):
        def pole(expr, point):
            raise PoleError("denominator factor (t - 1) = 0 below pole threshold 1e-12")
        monkeypatch.setattr(bethe, "rational_eval", pole)
        with pytest.raises(PoleError) as exc:
            point_report(GENERIC)
        assert str(exc.value) == \
            "closed form genus0_generic: denominator factor (t - 1) = 0 below pole threshold 1e-12"


class TestClosedFormSeries:
    def test_three_sphere_tower(self):
        series = grdim_closed_form("S3", order=12)
        for k in range(0, 12, 2):
            assert series.coefficient({"t": k}) == 1
        assert series.coefficient({"t": 3}) == 0

    def test_s2xs1_expansion_oracle(self):
        # independent triple-loop expansion of
        # 2 t^{3/2} (1 + t x^4) sum_i t^{2i} sum_j (t^2 x^4)^j
        order = 8
        series = grdim_closed_form("S2xS1", order=order)
        expected = {}
        for lead in ((0, 0), (1, 4)):
            for i in range(order):
                for j in range(order):
                    te = Fraction(3, 2) + lead[0] + 2 * i + 2 * j
                    xe = lead[1] + 4 * j
                    if te < order and xe < order:
                        key = (te, xe)
                        expected[key] = expected.get(key, 0) + 2
        for (te, xe), coeff in expected.items():
            assert series.coefficient({"t": te, "x": xe}) == coeff
        total = sum(1 for _ in series.terms)
        assert total == len(expected)

    def test_torus_constant(self):
        series = grdim_closed_form("SigmaGxS1", order=6, g=1)
        assert series.coefficient({}) == 10

    def test_genus_zero_element_sum_equals_product_formula(self):
        # two independent routes: the 2+4+4 weighted sum of rational-function
        # expansions versus the closed product form, as exact series
        assert grdim_closed_form("SigmaGxS1", order=10, g=0) == \
            grdim_closed_form("S2xS1", order=10)

    def test_genus_two_series_values(self):
        # numeric consistency of the expanded series with the closed sum
        series = grdim_closed_form("SigmaGxS1", order=26, g=2)
        point = {"t": 0.1, "x": 0.15}
        direct = closed_form_value(2, 0.15, 0.1)
        assert abs(series.evaluate(point) - direct) < 1e-6 * abs(direct)

    def test_grid_digest(self):
        # byte identity of every expansion on the grid, pinned before the
        # genus sums' expansion is next rewritten
        text = json.dumps([_closed_form(*case).to_json() for case in DIGEST_GRID])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "156f63dea9515a3fbeb3ad74e2aaae738dc2167edbe76d85389f0af30e2eb9c9"


# (manifold, g, order): S3 and S2xS1 at orders 0-40, and the genus sums and
# limits at nine orders for g below 5 (SigmaGxS1), 6 (R2) and 8 (R0)
DIGEST_GRID = ([(m, None, o) for m in ("S3", "S2xS1") for o in range(41)]
               + [(m, g, o) for m, genera in (("SigmaGxS1", 5), ("R2", 6), ("R0", 8))
                  for g in range(genera) for o in (0, 1, 2, 3, 5, 6, 10, 13, 20)])


def _closed_form(manifold, g, order):
    if manifold in ("R2", "R0"):
        return limit_specialize(manifold, g, order=order)
    return grdim_closed_form(manifold, order=order, g=g)


# (label, shipped genus sum, class elements, multiplicities, variables)
GENUS_SUMS = [
    ("xy", lambda g, o: grdim_closed_form("SigmaGxS1", order=o, g=g), s_elements_xy,
     CLASS_MULTIPLICITIES, ("t", "x")),
    ("R2", lambda g, o: limit_specialize("R2", g, order=o), r2_series_elements, (1, 2, 2),
     ("x",)),
    ("R0", lambda g, o: limit_specialize("R0", g, order=o), r0_limit_elements,
     CLASS_MULTIPLICITIES, ("t",)),
]


def _group_quotients(forms, multiplicities, variables, g):
    terms = [e ** (1 - g) * m for m, e in zip(multiplicities, _factored(forms, variables))]
    return common_quotients(terms)


def _expand_by_doubling(q, variables, order):
    """Reference expansion of a quotient: pads 4, 8, 16, ... until the box certifies."""
    for pad in (4, 8, 16, 32, 64):
        series = q.expand(variables, order + pad)
        if all(c >= order * series.den for c in series.cutoff):
            return series.truncate(order)
    raise AssertionError("reference expansion never certified")


def _shipped_forms():
    """Every closed form the genus sums and limits expand (65 in all), as
    (id, elements function, index, genus, variables)."""
    forms = [("S3", s3_elements, 0, 0, ("t",)), ("S2xS1", s2xs1_elements, 0, 0, ("t", "x"))]
    for g in (0, 2, 3, 4, 5, 6, 7):
        for label, elements, variables in (("xy", s_elements_xy, ("t", "x")),
                                           ("R2", r2_series_elements, ("x",)),
                                           ("R0", r0_limit_elements, ("t",))):
            forms += [(f"{label}{i}-g{g}", elements, i, g, variables) for i in range(3)]
    return forms


SHIPPED = _shipped_forms()


def _own_quotient(elements, i, g, variables):
    """Element i to the power 1 - g over its own denominator, as the
    `Div(Poly N, Poly D)` a one-form sum expands (S3 and S2xS1 are such sums)."""
    (q,) = common_quotients([_factored(elements, variables)[i] ** (1 - g)])
    return q


class TestDerivedPad:
    @pytest.mark.parametrize("name, elements, i, g, variables", SHIPPED,
                             ids=[f[0] for f in SHIPPED])
    def test_matches_pad_doubling(self, name, elements, i, g, variables):
        q = _own_quotient(elements, i, g, variables)
        for order in (1, 2, 3, 13):
            assert q.expand(variables, order).truncate(order).to_json() == \
                _expand_by_doubling(q, variables, order).to_json()

    @pytest.mark.parametrize("name, elements, i, g, variables", SHIPPED,
                             ids=[f[0] for f in SHIPPED])
    def test_predicted_loss_is_observed(self, name, elements, i, g, variables):
        # the quotient cuts its denominator to keep the requested box, so the
        # predicted loss is none: one expansion at the order certifies it
        q = _own_quotient(elements, i, g, variables)
        den = default_denominator(variables)
        for order in (3, 6, 20):
            assert all(c >= order * den for c in q.expand(variables, order).cutoff)

    @pytest.mark.parametrize("label, shipped, forms, mults, variables", GENUS_SUMS,
                             ids=[s[0] for s in GENUS_SUMS])
    def test_genus_sum_groups_match_pad_doubling(self, label, shipped, forms, mults, variables):
        for g in (0, 2, 5):
            for q in _group_quotients(forms, mults, variables, g):
                for order in (1, 3, 13):
                    assert q.expand(variables, order).truncate(order).to_json() == \
                        _expand_by_doubling(q, variables, order).to_json()

    def test_half_power_base_stays_in_the_box(self):
        # t expands untruncated, so t^{3/2} is a monomial at every order;
        # the box of order 1 ends below it
        series = grdim_closed_form("S2xS1", order=2)
        assert series.coefficient({"t": Fraction(3, 2)}) == 2
        assert grdim_closed_form("S2xS1", order=1).is_zero()


def _cleared_sides(g, multiplicities, forms, variables):
    """prod D_i and sum_i m_i N_i prod_{j != i} D_j, untruncated, for the class
    terms m_i e_i^(1-g) = m_i N_i / D_i of a genus sum S, so that
    S prod D_i = sum_i m_i N_i prod_{j != i} D_j.  The terms are the compiled
    forms (`test_compiled_forms_match_their_trees` checks them against their
    trees) multiplied out; neither `common_quotients` nor `Div.expand` runs."""
    unit = (variables, ExactComplex(1), (0,) * len(variables))
    nums, dens = [], []
    for m, e in zip(multiplicities, _factored(forms, variables)):
        term = e ** (1 - g) * m
        positive = {f: k for f, k in term.powers.items() if k > 0}
        nums.append(Factored(variables, term.coeff, term.mono, positive).expanded({}))
        dens.append(Factored(*unit, term.denominator()).expanded({}))
    rest = [reduce(mul, dens[:i] + dens[i + 1:]) for i in range(len(dens))]
    return reduce(mul, dens), sum(n * r for n, r in zip(nums, rest))


def _same_up_to_unit(a, b):
    fa, fb = Factored.of(a), Factored.of(b)
    return fa.mono == fb.mono and fa.powers == fb.powers


def _in_box(terms, box):
    return {e: c for e, c in terms.items() if all(map(lt, e, box))}


def _factored_value(form, point):
    den = default_denominator(form.variables)
    value = complex(form.coeff)
    for v, e in zip(form.variables, form.mono):
        value *= point[v] ** (e / den)
    for f, k in form.powers.items():
        value *= f.series.evaluate(point) ** k
    return value


# (elements function, variables) for every form set the closed forms compile
COMPILED = [(s3_elements, ("t",)), (s2xs1_elements, ("t", "x")), (s_elements_xy, ("t", "x")),
            (r2_series_elements, ("x",)), (r0_limit_elements, ("t",))]


class TestGenusSumQuotients:
    @pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 5, 6, 7, 9])
    @pytest.mark.parametrize("label, shipped, forms, mults, variables", GENUS_SUMS,
                             ids=[s[0] for s in GENUS_SUMS])
    def test_matches_the_per_class_sum(self, label, shipped, forms, mults, variables, g):
        # S prod D_i = sum_i m_i N_i prod_{j != i} D_j inside S's box.  Each
        # D_i has valuation 0 and constant term 1, so S's stored terms below
        # its cutoff, and only they, meet the identity there
        dens, cleared = _cleared_sides(g, mults, forms, variables)
        origin = (0,) * len(variables)
        assert dens.terms[origin] == 1 and dens._valuations() == origin
        for order in (1, 2, 3, 6, 13, 20, 35):
            series = shipped(g, order)
            box = (order * series.den,) * len(variables)
            assert series.cutoff == box
            low = [min(e[k] for e in series.terms) if series.terms else 0
                   for k in range(len(box))]
            reach = _in_box(dens.terms, tuple(b - v for b, v in zip(box, low)))
            assert _exact_product_in_box(series.terms, reach, box) == \
                _in_box(cleared.terms, box)

    @pytest.mark.parametrize("forms, variables", COMPILED, ids=[f[0].__name__ for f in COMPILED])
    def test_compiled_forms_match_their_trees(self, forms, variables):
        rng = random.Random(forms.__name__)
        for _ in range(5):
            point = {v: rng.uniform(0.05, 0.9) for v in variables}
            for e, form in zip(forms(), _factored(forms, variables)):
                for g in (0, 3):
                    want = rational_eval(e, point) ** (1 - g)
                    assert abs(_factored_value(form ** (1 - g), point) - want) <= 1e-9 * abs(want)

    def test_hessian_bracket_cancels_at_genus_zero(self):
        # the g = 0 classes form one group, and the dense bracket
        # t(3x - 1) + x - 3 of S00 and S02 leaves its denominator, which is
        # then a product of binomials
        (group,) = _group_quotients(s_elements_xy, CLASS_MULTIPLICITIES, ("t", "x"), 0)
        binomials = (1 - T) * (1 - T ** 2) * (1 - T * X ** 2) * (1 + T * X ** 2)
        assert _same_up_to_unit(group.right.series, binomials.expand(("t", "x"), 0))
        bracket = (T * (3 * X - 1) + X - 3).expand(("t", "x"), 0)
        assert _exact_quotient(group.right.series, bracket) is None

    def test_r2_genus_two_denominator(self):
        # S00 and S02 share 1 - x; their group is over (1 - x^2)^3, the
        # denominator of test_r2_genus_two_closed_ratio
        groups = _group_quotients(r2_series_elements, (1, 2, 2), ("x",), 2)
        assert _same_up_to_unit(groups[0].right.series, ((1 - X ** 2) ** 3).expand(("x",), 0))

    @pytest.mark.parametrize("label, shipped, forms, mults, variables", GENUS_SUMS,
                             ids=[s[0] for s in GENUS_SUMS])
    def test_groups_are_untruncated(self, label, shipped, forms, mults, variables):
        for g in (0, 2, 5):
            for q in _group_quotients(forms, mults, variables, g):
                for side in (q.left.series, q.right.series):
                    assert side.cutoff == (INF_CUTOFF,) * len(variables)


class TestLimits:
    def test_r2_printed_elements(self):
        # the three tabulated limit weights as rational functions of x
        exprs = r2_limit_elements()
        for xv in np.linspace(0.05, 0.9, 10):
            v00 = rational_eval(exprs[0], {"x": xv})
            assert abs(v00 - (xv - 1) * (xv + 1) ** 3 / (xv + 3)) < 1e-9

    def test_r2_limit_is_minus_printed(self):
        # derivation-consistent limit of (y t / x)^{3/2} S^2 as y, t -> 0
        eps = 1e-6
        for xv in (0.3, 0.6):
            norm = (eps * eps / xv) ** 1.5
            for expr, printed in zip(s_elements_generic(), r2_limit_elements()):
                lim = rational_eval(expr, {"x": xv, "y": eps, "t": eps}) / norm
                ref = rational_eval(printed, {"x": xv})
                assert abs(lim - (-ref)) < 1e-4 * abs(ref)

    def test_r2_genus_two_coefficients(self):
        series = limit_specialize("R2", 2, order=6)
        for k, want in enumerate((35, 75, 186, 274, 469)):
            assert series.coefficient({"x": k}) == want

    def test_r2_genus_two_closed_ratio(self):
        # the same series from the compact rational form
        series = limit_specialize("R2", 2, order=10)
        x = 0.07
        num = 16 * x ** 4 + 49 * x ** 3 + 81 * x ** 2 + 75 * x + 35
        assert abs(series.evaluate({"x": x}) - num / (1 - x * x) ** 3) < 1e-6

    def test_r0_element_matches_substitution(self):
        # substitute x = 0 into the x = y weights (valid evaluation point)
        for mine, full in zip(r0_limit_elements(), s_elements_xy()):
            for tv in (0.1, 0.4, 0.7):
                a = rational_eval(mine, {"t": tv})
                b = rational_eval(full, {"t": tv, "x": 0.0})
                assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    def test_r0_series_half_integer_leading(self):
        series = limit_specialize("R0", 0, order=4)
        lead = series.coefficient({"t": Fraction(3, 2)})
        # 2/3 + 4/12 + 4/4 = 2 at t^{3/2}: sum of the three x->0 weights
        assert lead == 2


class TestAsymptotics:
    def test_genus_zero_ratio_to_one(self):
        report = asymptotics_check(0, -1.0, -1.0)
        assert abs(report["entries"][-1]["ratio"] - 1) < 0.01

    def test_genus_one_exact(self):
        report = asymptotics_check(1, -2.0, -1.0)
        assert all(e["value"] == 10.0 for e in report["entries"])

    def test_genus_two_path_constant(self):
        # On the proportional path the true limit of value/target is
        # ((2a+b)^2 + a^2) / (64 b^2); the quoted target is approached only
        # when (1-x) is negligible against (1-t).
        a, b = -2.0, -1.0
        report = asymptotics_check(2, a, b)
        predicted = ((2 * a + b) ** 2 + a ** 2) / (64 * b * b)
        assert abs(report["entries"][-1]["ratio"] - predicted) < 5e-3

    def test_criterion_four_reading_is_unchanged(self):
        # the factor-wise pole check does not move the deliberately red reading
        report = asymptotics_check(2, -2.0, -1.0)
        assert f"{report['entries'][-1]['ratio']:.6f}" == "0.453095"

    def test_genus_two_collapsing_x_regime(self):
        # (1-x) << (1-t): the corrected constant 4*8^{g-1} emerges
        g = 2
        eps = 1e-5
        x = 1 - eps
        t = 1 - 1000 * eps
        value = closed_form_value(g, x, t)
        corrected = 4 * 8 ** (g - 1) * ((1 - t) / (1 - x)) ** (3 * g - 3)
        assert abs(value / corrected - 1) < 0.02


class TestReport:
    def test_point_report_shape(self):
        rep = point_report(GENERIC)
        assert len(rep["roots"]) == 12
        assert len(rep["admissible"]) == 10
        assert len(rep["s_squared"]) == 10
        assert abs(rep["verlinde"]["1"][0] - 10) < 1e-9
        assert abs(rep["verlinde"]["0"][0] - rep["closed_form"]["genus0_generic"]) < 1e-9

    def test_point_report_xy_closed_form(self):
        rep = point_report({"x": 0.25, "y": 0.25, "t": 0.111})
        assert "genus0_xy" in rep["closed_form"]
        assert abs(rep["closed_form"]["genus0_xy"]
                   - rep["closed_form"]["genus0_generic"]) < 1e-12

    def test_sweep_report(self):
        from vw3d.bethe import sweep_report
        rep = sweep_report(10, seed=5)
        assert rep["ok"] is True
        assert rep["max_weyl_residual"] < 1e-6
        assert rep["max_multiset_rel_error"] < 1e-6


def test_bethe_demo_runs(run_demo):
    out = run_demo("01_bethe_vacua_pipeline.py")
    assert "cleared saddle polynomial: degree 12" in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8c8d7ba61e06f6d5762a3f4645205465fbd02d46239e02c30bdb34704466f426"
