import hashlib
from fractions import Fraction

import pytest

from vw3d.floer import (
    SuperspaceFactor,
    UnbalancedConfigurationError,
    brieskorn,
    conjecture_series,
    descent_degree,
    gl_vs_sl_cohomology,
    hf_plus,
    hn_poincare,
    molien_su2_adjoint,
    standard_superspace_factors,
    superspace_character,
    tower_series,
    trivial_isotypic_dims,
)
from vw3d.series import VARIABLE_ORDER, ExactComplex, PuiseuxSeries, SeriesError


class TestTowers:
    def test_bottom_zero(self):
        s = tower_series(0, None, 9)
        assert [s.coefficient({"t": k}) for k in range(9)] == \
            [1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_half_integer_pair(self):
        s = tower_series(Fraction(-1, 2), None, 4) + tower_series(Fraction(1, 2), None, 4)
        assert s.coefficient({"t": Fraction(-1, 2)}) == 1
        assert s.coefficient({"t": Fraction(1, 2)}) == 1
        assert s.coefficient({"t": Fraction(3, 2)}) == 1
        assert s.coefficient({"t": 0}) == 0

    def test_truncated_single_generator(self):
        s = tower_series(0, 1, 9)
        assert s.to_text() == "1 * 1"


class TestHFCatalog:
    def test_lens_space(self):
        result = hf_plus("lens", p=5, order=10)
        assert result.spin_c_count == 5
        assert result.series == tower_series(0, None, 10)

    def test_s2xs1(self):
        result = hf_plus("S2xS1", order=8)
        expected = tower_series(Fraction(-1, 2), None, 8) + \
            tower_series(Fraction(1, 2), None, 8)
        assert result.series == expected

    def test_circle_bundle_small(self):
        assert hf_plus("SigmaGxS1", g=2, h=1).rank == 1
        assert hf_plus("SigmaGxS1", g=3, h=1).rank == 8

    def test_rank_against_enumeration(self):
        # brute-force count of basis elements (exterior power x tower level)
        from math import comb
        for g in range(1, 6):
            for h in range(1, g):
                d = g - 1 - h
                basis = [(i, k, level)
                         for i in range(d + 1)
                         for k in range(comb(2 * g, i))
                         for level in range(d + 1 - i)]
                assert hf_plus("SigmaGxS1", g=g, h=h).rank == len(basis)
                assert hf_plus("SigmaGxS1", g=g, h=-h).rank == len(basis)

    def test_out_of_range_h(self):
        with pytest.raises(ValueError):
            hf_plus("SigmaGxS1", g=2, h=2)
        with pytest.raises(ValueError):
            hf_plus("SigmaGxS1", g=2, h=0)


class TestModuliPoincare:
    def test_genus_two_frozen(self):
        # long-division oracle output, frozen
        assert hn_poincare(2) == [1, 0, 1, 4, 1, 0, 1]

    def test_degree_and_positivity(self):
        for g in range(2, 7):
            coeffs = hn_poincare(g)
            assert len(coeffs) - 1 == 6 * g - 6
            assert all(c >= 0 and c.denominator == 1 for c in coeffs)

    def test_all_bundles_factor(self):
        series = gl_vs_sl_cohomology(2, order=12)
        assert series.coefficient({"t": 0}) == 1
        # top degree 6g-6+2g = 10
        assert series.coefficient({"t": 10}) == 1
        assert series.coefficient({"t": 11}) == 0
        # independent product check at a sample value
        t = 0.21
        hn_val = sum(float(c) * t ** k for k, c in enumerate(hn_poincare(2)))
        assert abs(series.evaluate({"t": t}) - (1 + t) ** 4 * hn_val) < 1e-10


def _invariant_count_by_highest_weight(n):
    """Independent oracle: count weight-0 vectors killed by the raising
    operator in Sym^n of the spin-1 representation, by exact rank
    computation over rationals."""
    states = [(a, b, c) for a in range(n + 1) for b in range(n + 1 - a)
              for c in (n - a - b,)]
    index = {s: i for i, s in enumerate(states)}
    zero_weight = [s for s in states if 2 * s[0] - 2 * s[2] == 0]
    if not zero_weight:
        return 0
    # raising operator on monomials v+^a v0^b v-^c
    rows = []
    for s in zero_weight:
        a, b, c = s
        image = {}
        if b:
            image[(a + 1, b - 1, c)] = Fraction(b)
        if c:
            image[(a, b + 1, c - 1)] = Fraction(c)
        rows.append(image)
    # kernel dimension of the map (zero-weight -> weight-2 subspace)
    targets = sorted({k for row in rows for k in row})
    tindex = {t: i for i, t in enumerate(targets)}
    matrix = [[row.get(t, Fraction(0)) for row in rows] for t in targets]
    rank = 0
    cols = len(rows)
    used = [False] * len(matrix)
    for col in range(cols):
        pivot = None
        for r, rowvals in enumerate(matrix):
            if not used[r] and rowvals[col]:
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        pv = matrix[pivot][col]
        for r in range(len(matrix)):
            if r != pivot and matrix[r][col]:
                f = matrix[r][col] / pv
                matrix[r] = [x - f * y for x, y in zip(matrix[r], matrix[pivot])]
    return len(zero_weight) - rank


class TestMolien:
    def test_dims_against_highest_weight_oracle(self):
        dims = trivial_isotypic_dims(10)
        for n in range(11):
            assert dims[n] == _invariant_count_by_highest_weight(n)

    def test_first_values(self):
        assert trivial_isotypic_dims(4) == [1, 0, 1, 0, 1]

    def test_series_is_boson_tower(self):
        assert molien_su2_adjoint(order=20) == tower_series(0, None, Fraction(41, 2))

    def test_sym2_contains_one_trivial(self):
        assert trivial_isotypic_dims(2)[2] == 1


class TestDescent:
    def test_four_form_of_degree_two_class(self):
        assert descent_degree(2, 0) == (2, 4)
        assert descent_degree(2, 4) == (0, 0)

    def test_half_degrees(self):
        assert descent_degree(2, 3) == (Fraction(1, 2), 1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            descent_degree(2, 5)


class TestSuperspace:
    def test_balance_across_genus(self):
        for g in range(0, 11):
            factors = standard_superspace_factors(g, {"t": 1})
            ch = superspace_character(g, factors, order=3)
            assert not ch.is_zero()

    def test_unbalanced_rejected(self):
        factors = (SuperspaceFactor("even", {"x": 1}, 2),
                   SuperspaceFactor("odd", {"x": 1}, 1))
        with pytest.raises(UnbalancedConfigurationError):
            superspace_character(1, factors)

    def test_weightless_even_rejected(self):
        factors = (SuperspaceFactor("even", {}, 1),
                   SuperspaceFactor("odd", {"x": 1}, 1))
        with pytest.raises(UnbalancedConfigurationError):
            superspace_character(0, factors)

    def test_weightless_even_rejected_with_zero_exponent(self):
        factors = (SuperspaceFactor("even", {"x": 0}, 1),
                   SuperspaceFactor("odd", {"x": 1}, 1))
        with pytest.raises(UnbalancedConfigurationError):
            superspace_character(0, factors)

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_negative_exponent_rejected(self, kind):
        # a negative exponent has no expansion in the requested box
        other = "odd" if kind == "even" else "even"
        factors = (SuperspaceFactor(kind, {"x": -1}, 1),
                   SuperspaceFactor(other, {"t": 1}, 1))
        with pytest.raises(UnbalancedConfigurationError):
            superspace_character(0, factors, order=3)

    def test_unknown_variable_named(self):
        factors = standard_superspace_factors(1, {"w": 1})
        with pytest.raises(SeriesError, match=r"odd factor of weight \{'w': 1\}.*'w'"):
            superspace_character(1, factors, order=3)

    def test_genus_zero_product(self):
        factors = standard_superspace_factors(0, {"t": 1})
        ch = superspace_character(0, factors, order=5)
        # (1 + x)(1 + t) / ((1 - y)(1 - t))
        assert ch.coefficient({}) == 1
        assert ch.coefficient({"x": 1}) == 1
        assert ch.coefficient({"t": 1}) == 2
        assert ch.coefficient({"y": 1}) == 1
        assert ch.coefficient({"t": 1, "x": 1}) == 2

    def test_torus_bookkeeping_variable(self):
        factors = standard_superspace_factors(1, {"y": 1})
        ch = superspace_character(1, factors, order=3)
        assert ch.coefficient({"s": 1}) == 2  # (1+s)^2 at genus one


def _character_from_inversions(factors, order):
    """Reference character: the product of (1 - m)^-1 and (1 + m) series."""
    variables = set()
    for f in factors:
        variables |= {"s"} if f.kind == "torus" and f.multiplicity else set(f.weight)
    variables = tuple(sorted(variables, key=VARIABLE_ORDER.index))
    one = PuiseuxSeries.constant(1, variables, order=order)
    result = one
    for f in factors:
        if f.multiplicity == 0:
            continue
        if f.kind == "torus":
            s_line = one + PuiseuxSeries.monomial(variables, {"s": 1}, order=order)
            result = result * s_line ** (2 * f.multiplicity)
            continue
        mono = PuiseuxSeries.monomial(variables, f.weight, order=order)
        if f.kind == "even":
            result = result * (one - mono).invert() ** f.multiplicity
        else:
            result = result * (one + mono) ** f.multiplicity
    return result


def _superspace_cases():
    for g in range(6):
        for w in ("t", "x", "y"):
            for order in range(1, {0: 13, 1: 10}.get(g, 6)):
                yield g, {w: 1}, order
    for weight in ({"x": 1, "t": 1}, {"t": Fraction(1, 2)}, {"y": 2}, {"x": 0}):
        for order in range(1, 7):
            yield 2, weight, order


class TestSuperspaceBinomials:
    def test_matches_product_of_inversions(self):
        for g, weight, order in _superspace_cases():
            factors = standard_superspace_factors(g, weight)
            ch = superspace_character(g, factors, order)
            assert ch.to_json() == _character_from_inversions(factors, order).to_json(), \
                (g, weight, order)
            assert all(type(c) is ExactComplex and c and type(e) is tuple
                       for e, c in ch.terms.items())

    def test_merged_and_out_of_box_weights(self):
        # zero-weight odd factors of different multiplicities, a weight past
        # the box, a multiplicity-0 weightless even factor
        cases = ((SuperspaceFactor("even", {"t": 1}, 4), SuperspaceFactor("odd", {"x": 0}, 1),
                  SuperspaceFactor("odd", {"x": 0}, 3)),
                 (SuperspaceFactor("even", {"t": 20}, 1), SuperspaceFactor("odd", {"x": 0}, 1)),
                 (SuperspaceFactor("torus", {}, 0), SuperspaceFactor("even", {"t": 1}, 2),
                  SuperspaceFactor("odd", {"t": 3}, 2), SuperspaceFactor("even", {}, 0)))
        for factors in cases:
            for order in (1, 3, 7):
                assert superspace_character(0, factors, order).to_json() == \
                    _character_from_inversions(factors, order).to_json()


class TestBrieskorn:
    def test_poincare_sphere_ranks(self):
        datum = brieskorn("P")
        assert datum.instanton_ranks == {0: 1, 4: 1}
        assert datum.flat_connection_counts == (1, 2, 0)

    def test_sigma237(self):
        datum = brieskorn("Sigma237")
        assert datum.instanton_ranks == {2: 1, 6: 1}
        assert datum.hp_rank == 3

    def test_conjecture_series(self):
        report = conjecture_series("Sigma237", order=8)
        assert report["conjectural"] is True
        s = report["series"]
        assert s.coefficient({"t": 0}) == 4
        assert s.coefficient({"t": 2}) == 1
        assert s.coefficient({"t": 4}) == 1

    def test_unknown_manifold(self):
        with pytest.raises(KeyError):
            brieskorn("Sigma235711")

    def test_conjecture_needs_tabulated_rank(self):
        with pytest.raises(KeyError):
            conjecture_series("P")


class TestNonnegativity:
    def test_graded_series_nonnegative_integer_coefficients(self):
        emitted = [
            tower_series(0, None, 15),
            hf_plus("S2xS1", order=12).series,
            hf_plus("lens", p=3, order=12).series,
            hf_plus("SigmaGxS1", g=4, h=2).series,
            molien_su2_adjoint(order=15),
            gl_vs_sl_cohomology(3),
            conjecture_series("Sigma237", order=10)["series"],
        ]
        for series in emitted:
            for c in series.terms.values():
                assert c.im == 0
                assert c.re >= 0 and c.re.denominator == 1


def test_catalog_demo_runs(run_demo):
    out = run_demo("03_graded_series_catalog.py")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3dc142636dce51785e08ec0fc0c5c6336856fc2d7c244df630733e845a53f7c6"
