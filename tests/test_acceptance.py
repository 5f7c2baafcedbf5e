"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output of failing tests).  Criterion 4's genus-2 clause asserts the
tabulated asymptotic target along the proportional path; the closed forms
provably approach ((2a+b)^2 + a^2)/(64 b^2) times that target instead (see
tests/test_bethe.py::TestAsymptotics for the verified behavior), so that one
clause fails and is reported honestly rather than loosened.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from vw3d import cli
from vw3d.bethe import (
    admissible_roots,
    asymptotics_check,
    build_bethe,
    limit_specialize,
    r2_limit_elements,
    s2s1_generic_expr,
    s2xs1_closed_expr,
    s_elements_generic,
    s_squared_values,
    saddle_coefficients,
    verlinde_sum,
)
from vw3d.brst import calibrate_signs, get_table, q_squared_residual, random_state
from vw3d.elliptic import (
    binomial_remainder,
    en_closed_form,
    g_series,
    gluing_check,
    sw_data_en,
    z_vw_kahler,
)
from vw3d.floer import (
    hf_plus,
    hn_poincare,
    molien_su2_adjoint,
    tower_series,
)
from vw3d.ratexpr import rational_eval
from vw3d.roots import poly_roots
from vw3d.series import PuiseuxSeries


def _verdict(number, ok, detail=""):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _key(z):
    return (round(z.real, 9), round(z.imag, 9))


@pytest.fixture(scope="module")
def bethe_sweep():
    """100 seeded parameter points with their root and weight data."""
    rng = random.Random(0)
    points = []
    start = time.monotonic()
    for _ in range(100):
        params = {k: rng.uniform(0.05, 0.95) for k in ("x", "y", "t")}
        system = build_bethe(params)
        roots = poly_roots(saddle_coefficients(system))
        admissible = admissible_roots(system)
        weights = s_squared_values(system)
        points.append({"params": params, "system": system, "roots": roots,
                       "admissible": admissible, "weights": weights})
    elapsed = time.monotonic() - start
    return points, elapsed


class TestCriterion1:
    def test_bethe_pipeline_sweep(self, bethe_sweep):
        points, elapsed = bethe_sweep
        ok = True
        for entry in points:
            roots = entry["roots"]
            ok &= len(roots) == 12
            ok &= any(abs(z - 1) < 1e-8 for z in roots)
            ok &= any(abs(z + 1) < 1e-8 for z in roots)
            adm = entry["admissible"]
            ok &= len(adm) == 10
            for r in adm:
                ok &= abs(r.z * adm[r.weyl_partner_index].z - 1) < 1e-6
            point = {k: float(v) for k, v in entry["params"].items()}
            closed = [rational_eval(e, point) for e in s_elements_generic()]
            counts = []
            for value in closed:
                matches = sum(1 for w in entry["weights"]
                              if abs(w - value) <= 1e-6 * max(1.0, abs(value)))
                counts.append(matches)
            ok &= counts == [2, 4, 4]
        ok &= elapsed < 5.0
        assert _verdict(1, ok, f"100-point sweep in {elapsed:.2f}s, "
                        "roots 12/10, Weyl pairing, multiset (2,4,4)")


class TestCriterion2:
    def test_torus_sum_is_ten(self, bethe_sweep):
        points, _ = bethe_sweep
        ok = True
        for entry in points:
            total = sum(w ** 0 for w in entry["weights"])
            ok &= abs(total - 10) < 1e-9
        # direct evaluation on a fresh subset as well
        for entry in points[:10]:
            ok &= abs(verlinde_sum(1, entry["params"]) - 10) < 1e-9
        assert _verdict(2, ok, "verlinde_sum(1, .) = 10 within 1e-9")


class TestCriterion3:
    def test_genus_zero_closed_forms(self):
        rng = random.Random(1)
        ok = True
        for _ in range(20):
            params = {k: rng.uniform(0.05, 0.95) for k in ("x", "y", "t")}
            direct = verlinde_sum(0, params)
            closed = rational_eval(s2s1_generic_expr(), params)
            ok &= abs(direct - closed) <= 1e-8 * max(1.0, abs(closed))
        for _ in range(20):
            x = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.05, 0.95)
            direct = verlinde_sum(0, {"x": x, "y": x, "t": t})
            closed = rational_eval(s2xs1_closed_expr(), {"x": x, "t": t})
            ok &= abs(direct - closed) <= 1e-8 * max(1.0, abs(closed))
        assert _verdict(3, ok, "genus-0 sums match both closed forms at 1e-8")


class TestCriterion4:
    def test_genus_two_asymptotics_as_stated(self):
        # Stated target: ratio to 4 (8 (1-t)/(1-x))^3 within 1% at eps=1e-4
        # along (x, t) = (1 - 2 eps, 1 - eps).  The exact path limit of that
        # ratio is 29/64, so this clause cannot pass; it is asserted as
        # written and left red deliberately (see module docstring).
        report = asymptotics_check(2, -2.0, -1.0)
        ratio = report["entries"][-1]["ratio"]
        ok = abs(ratio - 1) < 0.01
        assert _verdict("4 (g=2)", ok,
                        f"ratio at eps=1e-4 is {ratio:.6f} (path limit 29/64)")

    def test_genus_zero_asymptotics(self):
        report = asymptotics_check(0, -1.0, -1.0)
        ratio = report["entries"][-1]["ratio"]
        ok = abs(ratio - 1) < 0.01
        assert _verdict("4 (g=0)", ok, f"ratio at eps=1e-4 is {ratio:.6f}")


class TestCriterion5:
    def test_level_four_series_coefficients(self):
        series = limit_specialize("R2", 2, order=6)
        got = [series.coefficient({"x": k}) for k in range(5)]
        ok = got == [35, 75, 186, 274, 469]
        detail = "coefficients " + ",".join(str(c) for c in got)
        assert _verdict("5 (series)", ok, detail)

    def test_normalized_elements_match_tabulated_forms(self):
        exprs = r2_limit_elements()
        ok = True
        for i, xv in enumerate(0.05 + 0.09 * k for k in range(10)):
            v00 = rational_eval(exprs[0], {"x": xv})
            v02 = rational_eval(exprs[1], {"x": xv})
            v06 = rational_eval(exprs[2], {"x": xv})
            ok &= abs(v00 - (xv - 1) * (xv + 1) ** 3 / (xv + 3)) < 1e-9
            ok &= abs(v02 - (xv - 1) ** 3 / (4 * (xv + 3))) < 1e-9
            ok &= abs(v06 - (xv * xv - 1) / 4) < 1e-9
        assert _verdict("5 (elements)", ok,
                        "limit weights match the tabulated rational functions")


class TestCriterion6:
    def test_q_series_block(self):
        start = time.monotonic()
        ok = True
        g = g_series(6)
        ok &= [g.coefficient({"q": k}) for k in range(-1, 4)] == \
            [1, 24, 324, 3200, 25650]
        ok &= z_vw_kahler(sw_data_en(2), order=20) == en_closed_form(2, order=20)
        g2 = g_series(46).substitute_power("q", 2)
        ok &= z_vw_kahler(sw_data_en(4), order=20) == \
            ((g2 * g2) * Fraction(-1, 16)).truncate(21)
        ok &= all(binomial_remainder(n) == 0 for n in (6, 8, 10))
        for n in (6, 8):
            report = gluing_check(n, order=10)
            ok &= report["equal"] is False
            ok &= report["first_differing_exponent"] is not None
        elapsed = time.monotonic() - start
        ok &= elapsed < 2.0
        assert _verdict(6, ok, f"q-series identities in {elapsed:.2f}s")


class TestCriterion7:
    def test_floer_catalog(self):
        ok = True
        ok &= hf_plus("lens", p=7, order=14).series == tower_series(0, None, 14)
        ok &= hf_plus("S2xS1", order=14).series == \
            tower_series(Fraction(-1, 2), None, 14) + tower_series(Fraction(1, 2), None, 14)
        from math import comb
        for g in range(1, 6):
            for h in range(1, g):
                d = g - 1 - h
                expected = sum(comb(2 * g, i) * (d + 1 - i) for i in range(d + 1))
                ok &= hf_plus("SigmaGxS1", g=g, h=h).rank == expected
        ok &= hn_poincare(2) == [1, 0, 1, 4, 1, 0, 1]
        for g in range(2, 7):
            hn_poincare(g)  # raises on nonexact division
        ok &= molien_su2_adjoint(order=20) == tower_series(0, None, Fraction(41, 2))
        assert _verdict(7, ok, "catalog series, ranks, exact division, invariants")


class TestCriterion8:
    def test_brst_block(self):
        start = time.monotonic()
        ok = True
        abelian = get_table("abelian")
        for seed in range(3):
            res = q_squared_residual(random_state(abelian, seed=seed), "Q")
            ok &= all(v.is_zero() for v in res.values())
        nonabelian = get_table("nonabelian")
        for seed in range(10):
            res = q_squared_residual(random_state(nonabelian, seed=seed), "Q",
                                     param_field="phi",
                                     fields={"phi", "phibar", "C", "eta", "zeta"})
            ok &= all(v.is_zero() for v in res.values())
        conv, report = calibrate_signs("covariant")
        # either a calibrated convention or an explicit typo report passes;
        # silence does not
        ok &= report["calibrated"] or bool(report["failing_rules"])
        elapsed = time.monotonic() - start
        ok &= elapsed < 30.0
        detail = (f"abelian zero, zero-form sector zero, covariant "
                  f"{'calibrated' if report['calibrated'] else 'typo report'}, "
                  f"{elapsed:.1f}s")
        assert _verdict(8, ok, detail)


class TestCriterion9:
    def test_property_block(self, capsys):
        ok = True
        # ring axioms on random series triples
        rng = random.Random(99)

        def rand_series():
            terms = {Fraction(rng.randint(0, 9), 2): rng.randint(-4, 4)
                     for _ in range(3)}
            return sum((PuiseuxSeries.monomial(("t",), {"t": e}, c, order=6)
                        for e, c in terms.items()),
                       PuiseuxSeries.constant(0, ("t",), order=6))

        for _ in range(25):
            a, b, c = rand_series(), rand_series(), rand_series()
            ok &= (a + b) + c == a + (b + c)
            ok &= (a * b) * c == a * (b * c)
            ok &= a * (b + c) == a * b + a * c
        # root sum/product identities
        for _ in range(10):
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(7)]
            coeffs[-1] += 1.0
            roots = poly_roots(coeffs, tol=1e-8)
            s = sum(roots)
            expect = -coeffs[-2] / coeffs[-1]
            ok &= abs(s - expect) < 1e-8 * max(1.0, abs(expect))
        # nonnegative integer coefficients of emitted graded dimensions
        for series in (tower_series(0, None, 12),
                       hf_plus("S2xS1", order=12).series,
                       molien_su2_adjoint(order=12)):
            ok &= all(c.im == 0 and c.re >= 0 and c.re.denominator == 1
                      for c in series.terms.values())
        # byte-identical JSON under a fixed seed
        args = ["brst", "--table", "abelian", "--check", "Q2", "--states", "2",
                "--json", "--seed", "3"]
        cli.main(args)
        out1 = capsys.readouterr().out
        cli.main(args)
        out2 = capsys.readouterr().out
        ok &= out1 == out2 and bool(json.loads(out1)["checks"])
        assert _verdict(9, bool(ok), "ring axioms, root identities, "
                        "nonnegativity, reproducible JSON")
