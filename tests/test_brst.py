import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import vw3d.brst as brstmod
from vw3d.brst import (
    I_UNIT,
    TABLE_TEXTS,
    RuleMissingError,
    SignConvention,
    TableFormatError,
    apply_q,
    _fit_gauge,
    _gauge_basis,
    _resolve_which,
    _rule_image,
    _solve_exact,
    calibrate_signs,
    check_closure,
    check_twistor,
    closure_pairs,
    compose,
    default_convention,
    gauge_variation,
    get_table,
    load_table,
    q_squared_residual,
    random_state,
    residual_report,
)
from vw3d.grassmann import GrassmannElement, lie_bracket
from vw3d.series import ExactComplex, _numerator

ZERO_FORM_SECTOR = {"phi", "phibar", "C", "eta", "zeta"}
SHIPPED_TABLES = ("abelian", "nonabelian", "covariant", "threed")


class TestTables:
    def test_field_counts(self):
        assert len(get_table("abelian").fields) == 13
        assert len(get_table("nonabelian").fields) == 13
        assert len(get_table("covariant").fields) == 8
        assert len(get_table("threed").fields) == 11

    def test_rule_parity_consistency(self):
        # every rule maps a field to terms of opposite parity
        for name in ("abelian", "nonabelian", "covariant", "threed"):
            table = get_table(name)
            for (fam, fname), rule in table.rules.items():
                target = table.fields[fname].parity
                for term in rule.terms:
                    parity = 0
                    for ref_name, _ in term.refs:
                        parity ^= table.fields[ref_name].parity
                    if term.kind == "da":
                        parity ^= table.fields["A"].parity
                    assert parity == 1 - target, (fam, fname)

    def test_declarative_roundtrip(self):
        text = """
            dim 3
            algebra su2
            field A one even
            field psi one odd
            field phi scalar even
            Q A = psi
            Q psi = dA(phi)
        """
        table = load_table("tiny", text)
        assert table.components("one") == 3
        assert ("Q", "psi") in table.rules
        # dA(...) of a scalar odd psi inside its own scalar rule is malformed
        old = text.replace("field psi one odd", "field psi scalar odd").replace(
            "dA(phi)", "dA(psi)")
        with pytest.raises(TableFormatError, match="scalar rule"):
            load_table("tiny", old)


def _edited(name, old, new):
    assert TABLE_TEXTS[name].count(old) == 1, old
    return TABLE_TEXTS[name].replace(old, new)


# one malformed table text per case; each raises at load, before any evaluation
MALFORMED = {
    "undeclared Qp reference": (
        _edited("nonabelian", "Qp eta = i [C, phibar]", "Qp eta = i [Cc, phibar]"), "'Cc'"),
    "Qp form mismatch": (
        _edited("nonabelian", "Qp chitilde1 = - dA(phibar)", "Qp chitilde1 = - dA(psi1)"),
        r"form mismatch: psi1 \(one\)"),
    "one-form inside a self-dual rule": (
        _edited("abelian", "Q chi2 = D2", "Q chi2 = H1"), r"form mismatch: H1 \(one\)"),
    "dA in a scalar rule": (
        _edited("nonabelian", "Q eta = i [phibar, phi]", "Q eta = dA(phi)"),
        "inside the scalar rule Q eta"),
    "sd field in dim 3": (
        _edited("threed", "field Y scalar even", "field Y scalar even\n field W2 sd even"),
        "self-dual forms need dim 4"),
    "parity-wrong rule": (
        _edited("covariant", "Q{a} B2 = chi2{a}", "Q{a} B2 = G2"), "parity of B2"),
    "missing index": (
        _edited("covariant", "Q{a} A = psi1{a}", "Q{a} A = psi1"), "psi1 takes 1 indices"),
    "missing head index": (
        _edited("covariant", "Q{a} psi1{b} = dA(phi{a,b}) + eps{a,b} H1",
                "Q{a} psi1 = dA(phi{a,b}) + eps{a,b} H1"), "psi1 takes 1 indices, in Q psi1"),
    "unknown algebra": (_edited("nonabelian", "algebra su2", "algebra su3"), "unknown algebra 'su3'"),
    "unknown dim": (_edited("threed", "dim 3", "dim 7"), "unknown dim '7'"),
    "unknown parity word": (
        _edited("abelian", "field eta scalar odd", "field eta scalar fermionic"),
        "unknown parity 'fermionic'"),
    "unknown index word": (
        _edited("covariant", "field phi scalar even sym2", "field phi scalar even sym3"),
        "unknown index word 'sym3'"),
}


class TestLoadValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_table_raises_at_load(self, case):
        text, message = MALFORMED[case]
        with pytest.raises(TableFormatError, match=message):
            load_table("broken", text)

    def test_every_compiled_term_flips_parity(self):
        # the load-time check, recounted over the compiled terms (Qp included)
        count = 0
        for name in SHIPPED_TABLES:
            table = get_table(name)
            for (fam, fname, _, _), terms in table.images.items():
                for _, _, refs in terms:
                    parity = sum(table.fields[ref[0]].parity for ref in refs) % 2
                    assert parity != table.fields[fname].parity, (name, fam, fname)
                    count += 1
        assert count == 206

    def test_u1_fit_builds_no_brackets(self, monkeypatch):
        # u(1) brackets all vanish: the fit returns the images as residuals,
        # with no parameter when they are all zero and zeros otherwise
        calls = []
        monkeypatch.setattr(brstmod, "lie_bracket", lambda *a: calls.append(a))
        state = random_state(get_table("abelian"), seed=0)
        report = check_closure(state, ("Q", "Q"))
        assert report["exact_zero"] and report["gauge_parameter"] == {}
        monkeypatch.setitem(TABLE_TEXTS, "typo", _edited("abelian", "Q eta = 0", "Q eta = phi"))
        monkeypatch.setattr(brstmod, "_TABLE_CACHE", {})
        report = check_closure(random_state(get_table("typo"), seed=0), ("Q", "Q"))
        assert report["gauge_parameter"] == {"phi": "0", "phibar": "0", "C": "0"}
        assert report["failing_fields"] == ["phibar"]
        assert calls == []


ROOT = Path(__file__).resolve().parent.parent


def test_brst_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "04_brst_closure.py")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        "d548a59810be70b3baf0697611feb93d28b02d5b598f83b5f53116d8b5ea3a0b"


class TestApply:
    def test_abelian_images(self):
        table = get_table("abelian")
        state = random_state(table, seed=0)
        image = apply_q(state, "Q")
        assert image.values[("phi", (), 0)].is_zero()
        assert image.values[("phibar", (), 0)] == state.values[("eta", (), 0)]
        # constant-field mode: the derivative rule gives zero
        assert image.values[("psi1", (), 2)].is_zero()

    def test_nonabelian_chain(self):
        table = get_table("nonabelian")
        state = random_state(table, seed=3)
        conv = default_convention(table)
        image = apply_q(state, "Q", conv)
        assert image.values[("phibar", (), 0)] == state.values[("eta", (), 0)]
        expected = lie_bracket(state.values[("phibar", (), 0)],
                               state.values[("phi", (), 0)]).scale(ExactComplex(0, 1))
        assert image.values[("eta", (), 0)] == expected

    def test_parity_flip(self):
        table = get_table("threed")
        state = random_state(table, seed=7)
        image = apply_q(state, ("Q", 1))
        for (fname, slot, comp), value in image.values.items():
            if value.is_zero():
                continue
            field_parity = table.fields[fname].parity
            assert all(bin(m).count("1") % 2 == 1 - field_parity
                       for m in value.terms)

    def test_derivation_linearity(self):
        # the shift substitution X -> X + theta QX realizes Q as a linear
        # left derivation: evaluating a X + b Y on the shifted state and
        # extracting theta gives a QX + b QY
        from vw3d.brst import _extract_theta, _shifted_state
        table = get_table("nonabelian")
        state = random_state(table, seed=11)
        conv = default_convention(table)
        images = apply_q(state, "Q", conv).values
        gen = state.n_generators
        shifted = _shifted_state(state, images, gen)
        a, b = ExactComplex(3), ExactComplex(-2)
        x = ("phibar", (), 0)
        y = ("C", (), 0)
        expr_on_shifted = shifted.values[x].scale(a) + shifted.values[y].scale(b)
        assert _extract_theta(expr_on_shifted, gen) == \
            images[x].scale(a) + images[y].scale(b)

    def test_missing_rule_raises(self):
        table = get_table("nonabelian")
        state = random_state(table, seed=0)
        with pytest.raises(RuleMissingError):
            apply_q(state, "Qp")


class TestGaugeVariation:
    def test_zero_parameter(self):
        table = get_table("nonabelian")
        state = random_state(table, seed=0)
        out = gauge_variation(state, GrassmannElement.zero(3))
        assert all(v.is_zero() for v in out.values.values())

    def test_abelian_vanishes(self):
        table = get_table("abelian")
        state = random_state(table, seed=0)
        out = gauge_variation(state, GrassmannElement.body((1,)))
        assert all(v.is_zero() for v in out.values.values())

    def test_phi_with_itself(self):
        table = get_table("nonabelian")
        state = random_state(table, seed=2)
        out = gauge_variation(state, state.values[("phi", (), 0)])
        assert out.values[("phi", (), 0)].is_zero()

    def test_convention_fields(self):
        # delta X = i[X, Lambda] and the printed rule signs are fixed; only da_coef varies
        assert [f.name for f in dataclasses.fields(SignConvention)] == ["da_coef"]


class TestNilpotency:
    def test_abelian_square_zero_all_fields(self):
        table = get_table("abelian")
        for seed in range(5):
            state = random_state(table, seed=seed)
            res = q_squared_residual(state, "Q")
            assert all(v.is_zero() for v in res.values())

    def test_nonabelian_zero_form_sector(self):
        table = get_table("nonabelian")
        for seed in range(10):
            state = random_state(table, seed=seed)
            res = q_squared_residual(state, "Q", param_field="phi",
                                     fields=ZERO_FORM_SECTOR)
            assert all(v.is_zero() for v in res.values())

    def test_nonabelian_full_table(self):
        table = get_table("nonabelian")
        for seed in range(5):
            state = random_state(table, seed=seed)
            res = q_squared_residual(state, "Q", param_field="phi")
            assert all(v.is_zero() for v in res.values())

    def test_qzeta_equals_bracket(self):
        # Q zeta = i [C, phi] and Q^2 C reproduces it
        table = get_table("nonabelian")
        state = random_state(table, seed=4)
        conv = default_convention(table)
        sq = compose(state, "Q", "Q", conv)
        expected = lie_bracket(state.values[("C", (), 0)],
                               state.values[("phi", (), 0)]).scale(ExactComplex(0, 1))
        assert sq[("C", (), 0)] == expected


class TestDoubletClosure:
    def test_covariant_pairs_close_on_phi(self):
        table = get_table("covariant")
        for seed in range(5):
            state = random_state(table, seed=seed)
            for pair in ((("Q", 1), ("Q", 1)), (("Q", 1), ("Q", 2)),
                         (("Q", 2), ("Q", 2))):
                report = check_closure(state, pair)
                assert report["exact_zero"], report
        # anticommutator of distinct charges closes on 2 phi^{12}
        report = check_closure(random_state(table, seed=0), (("Q", 1), ("Q", 2)))
        assert report["gauge_parameter"]["phi{1,2}"] == "2"

    def test_threed_all_pairs_close(self):
        table = get_table("threed")
        state = random_state(table, seed=1)
        from vw3d.brst import closure_pairs
        for pair in closure_pairs(table):
            report = check_closure(state, pair)
            assert report["exact_zero"], (pair, report["failing_fields"])

    def test_mixed_pair_translation_as_gauge(self):
        # {Q^1, Qbar^2} closes on the gauge rotation generated by 2 rho
        table = get_table("threed")
        state = random_state(table, seed=6)
        report = check_closure(state, (("Q", 1), ("Qbar", 2)))
        assert report["exact_zero"]
        assert report["gauge_parameter"]["1*rho"] == "2"

    def test_twistor_family(self):
        table = get_table("threed")
        state = random_state(table, seed=9)
        for s, r in (((1, 0), (0, 1)), ((2, 3), (1, 5)), ((1, 1), (1, 1))):
            report = check_twistor(state, s, r)
            assert report["exact_zero"], report


class TestResidualReport:
    def test_exact_flag_does_not_rest_on_floats(self):
        # 10**-400 underflows to 0.0 as a float; the residual is still nonzero
        tiny = GrassmannElement.body((Fraction(1, 10**400),))
        assert tiny.max_abs() == 0.0
        report = residual_report({("eta", (), 0): tiny,
                                  ("phi", (1, 2), 0): GrassmannElement.zero(1)})
        assert report["exact_zero"] is False
        assert report["failing_fields"] == ["eta"]
        assert report["residual_max"] == {"eta": 0.0, "phi[1, 2]": 0.0}

    def test_zero_residuals(self):
        report = residual_report({("A", (), c): GrassmannElement.zero(3) for c in range(4)})
        assert report == {"residual_max": {"A": 0.0}, "exact_zero": True,
                          "failing_fields": []}


class TestCalibration:
    def test_all_tables_calibrate_at_identity(self):
        for name in ("abelian", "nonabelian", "covariant", "threed"):
            conv, report = calibrate_signs(name)
            assert report["calibrated"], (name, report)
            assert report["failing_rules"] == []

    def test_broken_rule_is_reported(self):
        # flip one sign in a copy of the covariant table: no covariant-derivative
        # coefficient closes it, and the calibrator names the flipped rule
        # among the failing ones instead of patching it
        broken = brstmod.TABLE_TEXTS["covariant"].replace(
            "Q{a} eta{b} = - eps{c,d} [phi{a,c}, phi{b,d}]",
            "Q{a} eta{b} = eps{c,d} [phi{a,c}, phi{b,d}]")
        brstmod.TABLE_TEXTS["broken"] = broken
        try:
            conv, report = calibrate_signs("broken")
            assert not report["calibrated"]
            assert report["stage"] == "report"
            assert "Q eta" in report["failing_rules"]
            assert conv == default_convention(get_table("broken"))
        finally:
            brstmod.TABLE_TEXTS.pop("broken")
            brstmod._TABLE_CACHE.pop("broken", None)

    def test_irreparable_rule_is_reported(self):
        # with Q eta = phi, Q^2 phibar = phi in a u(1) theory: no gauge term
        # absorbs it and no sign toggle removes it, so the calibrator must
        # name the rule instead of patching the table
        brstmod.TABLE_TEXTS["typo"] = brstmod.TABLE_TEXTS["abelian"].replace(
            "Q eta = 0", "Q eta = phi")
        try:
            conv, report = calibrate_signs("typo")
            assert not report["calibrated"]
            assert report["stage"] == "report"
            assert report["failing_rules"] == ["Q phibar"]
        finally:
            brstmod.TABLE_TEXTS.pop("typo")
            brstmod._TABLE_CACHE.pop("typo", None)

    def test_shipped_tables_close_at_their_default(self):
        # the fact the two-stage calibration rests on: every shipped table
        # closes under its default coefficient, with every rule as printed
        for name in SHIPPED_TABLES:
            conv, report = calibrate_signs(name)
            assert conv == default_convention(get_table(name))
            assert report["stage"] == "identity-toggles"

    @pytest.mark.parametrize("name,text", [
        ("abelian", None), ("typo", ("Q eta = 0", "Q eta = phi"))])
    def test_no_seeds_is_rejected(self, name, text):
        # zero seeds would run zero checks and report a vacuous calibration,
        # also for the typo table that does not close
        if text:
            brstmod.TABLE_TEXTS[name] = brstmod.TABLE_TEXTS["abelian"].replace(*text)
        try:
            with pytest.raises(ValueError, match="seeds"):
                calibrate_signs(name, seeds=())
        finally:
            if text:
                brstmod.TABLE_TEXTS.pop(name)
                brstmod._TABLE_CACHE.pop(name, None)


def _assert_well_formed(element, ncomp):
    """The invariant the trusted Grassmann constructor relies on.

    Integer numerators over one denominator den > 0: each an int, or a
    Gaussian-integer ExactComplex with im != 0; no all-zero tuple;
    gcd(den, every integral part) = 1.
    """
    assert element.ncomp == ncomp and element.parity in (0, 1)
    assert type(element.den) is int and element.den > 0
    parts = [element.den]
    for comps in element.terms.values():
        assert isinstance(comps, tuple) and len(comps) == ncomp
        for c in comps:
            if type(c) is int:
                parts.append(c)
            else:
                assert type(c) is ExactComplex and c.im != 0
                assert c.re.denominator == 1 and c.im.denominator == 1
                parts += [c.re.numerator, c.im.numerator]
        assert any(comps)
    assert math.gcd(*parts) == 1
    assert element.monomial_parities_match()


def _assert_same_element(got, want):
    """Equal values in the same form: terms and their order, numerator types, den
    and parity."""
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert ([tuple(map(type, c)) for c in got.terms.values()]
            == [tuple(map(type, c)) for c in want.terms.values()])
    assert (got.den, got.parity) == (want.den, want.parity)


# -- the scale-then-sum fold that `GrassmannElement.combination` replaced ------

def _fold_scale(element, value):
    """Every numerator times value's, over den times value's denominator."""
    value = ExactComplex.coerce(value)
    if not value.im and value.re in (1, -1):
        return element if value.re > 0 else -element
    if not value:
        return GrassmannElement.zero(element.ncomp, element.parity)
    den = math.lcm(value.re.denominator, value.im.denominator)
    num = _numerator(value, den)
    return GrassmannElement._from_terms(
        element.ncomp, element.parity,
        {m: tuple(x * num for x in c) for m, c in element.terms.items()},
        element.den * den)


def _fold_sum(ncomp, elements):
    """The nonzero elements added in one accumulator over the lcm of their dens."""
    parts, parity = [], 0
    for element in elements:
        if element.ncomp != ncomp:
            raise ValueError("component count mismatch")
        if element.terms:
            if parts and element.parity != parity:
                raise ValueError("cannot add elements of opposite parity")
            parity = element.parity
            parts.append(element)
    den = math.lcm(*(e.den for e in parts))
    acc = {}
    for element in parts:
        f = den // element.den
        for mask, comps in element.terms.items():
            comps = tuple(f * x for x in comps)
            prev = acc.get(mask)
            if prev is not None:
                comps = tuple(a + b for a, b in zip(prev, comps))
                if not any(comps):
                    del acc[mask]
                    continue
            acc[mask] = comps
    return GrassmannElement._from_terms(ncomp, parity, acc, den)


def fold_combination(ncomp, items):
    """Reference for `GrassmannElement.combination`: each bracket built by
    `lie_bracket`, each item scaled, then all summed."""
    return _fold_sum(ncomp, [_fold_scale(lie_bracket(*x) if type(x) is tuple else x, c)
                             for c, x in items])


_EPS = {(1, 1): 0, (1, 2): 1, (2, 1): -1, (2, 2): 0}


def _slot_canon(spec, indices):
    if spec.indices == 2:
        return tuple(sorted(indices))
    return tuple(indices)


def _ref_value(ref, binding, state, comp, target_form):
    name, letters = ref
    spec = state.table.fields.get(name)
    if spec is None:
        raise TableFormatError(f"reference to undeclared field {name!r}")
    idx = _slot_canon(spec, tuple(binding[l] for l in letters))
    use_comp = comp if spec.form == target_form else 0
    if spec.form != target_form and spec.form != "scalar":
        raise TableFormatError(
            f"form mismatch: {name} ({spec.form}) inside a {target_form} rule")
    return state.values[(name, idx, use_comp)], spec


def _term_value(term, binding, state, comp, target_form, conv):
    """One parsed term at one index assignment, interpreted on the spot."""
    coeff = term.coeff
    for l1, l2 in term.eps:
        e = _EPS[(binding[l1], binding[l2])]
        if e == 0:
            return None
        if e < 0:
            coeff = -coeff
    if term.kind == "zero":
        return None
    if term.kind == "field":
        value, _ = _ref_value(term.refs[0], binding, state, comp, target_form)
        return value.scale(coeff)
    if term.kind == "bracket":
        v1, _ = _ref_value(term.refs[0], binding, state, comp, target_form)
        v2, _ = _ref_value(term.refs[1], binding, state, comp, target_form)
        return lie_bracket(v1, v2).scale(coeff)
    if term.kind == "da":
        if target_form == "scalar":
            raise TableFormatError("dA(...) inside a scalar rule")
        a_value = state.values[("A", (), comp)]
        v, _ = _ref_value(term.refs[0], binding, state, 0, "scalar")
        return lie_bracket(a_value, v).scale(coeff * conv.da_coef)
    raise TableFormatError(f"unknown term kind {term.kind!r}")


def _reference_rule_image(state, rule, op_index, slot, comp, conv):
    """A rule image from the parsed terms, interpreted term by term and summed
    with `GrassmannElement.__add__`, one term at a time."""
    binding = {} if rule.op_letter is None else {rule.op_letter: op_index}
    binding.update(zip(rule.field_letters, slot))
    form = state.table.fields[rule.field_name].form
    out = GrassmannElement.zero(state.table.ncomp)
    for term in rule.terms:
        letters = [l for pair in term.eps for l in pair] + [l for ref in term.refs for l in ref[1]]
        dummies = list(dict.fromkeys(l for l in letters if l not in binding))
        for assignment in itertools.product((1, 2), repeat=len(dummies)):
            local = {**binding, **dict(zip(dummies, assignment))}
            value = _term_value(term, local, state, comp, form, conv)
            if value is not None and not value.is_zero():
                out = out + value
    return out


class TestInternalResults:
    def test_results_keep_the_invariant(self):
        for name in SHIPPED_TABLES:
            table = get_table(name)
            state = random_state(table, seed=2)
            conv = default_convention(table)
            pairs = closure_pairs(table)
            outer = {w: apply_q(state, w, conv).values for w in dict.fromkeys(sum(pairs, ()))}
            elements = [e for images in outer.values() for e in images.values()]
            for w1, w2 in pairs:
                images = compose(state, w1, w2, conv)
                a, b = (_resolve_which(w)[1] or 1 for w in (w1, w2))
                _, residuals = _fit_gauge(state, images, _gauge_basis(state, a, b))
                elements += list(images.values()) + list(residuals.values())
            assert any(not e.is_zero() for e in elements)
            for element in elements:
                _assert_well_formed(element, table.ncomp)

    def test_cancelling_rule_gives_exact_zero(self):
        brstmod.TABLE_TEXTS["cancel"] = brstmod.TABLE_TEXTS["abelian"].replace(
            "Q eta = 0", "Q eta = phi - phi")
        try:
            table = get_table("cancel")
            assert len(table.rules[("Q", "eta")].terms) == 2
            state = random_state(table, seed=0)
            image = apply_q(state, "Q").values[("eta", (), 0)]
            assert image.is_zero() and image.terms == {}
            _assert_well_formed(image, table.ncomp)
            assert check_closure(state, ("Q", "Q"))["exact_zero"]
        finally:
            brstmod.TABLE_TEXTS.pop("cancel")
            brstmod._TABLE_CACHE.pop("cancel", None)

    def test_rule_image_matches_termwise_sum(self):
        # every rule of every shipped table, under the default convention and
        # with a covariant-derivative coefficient no table defaults to: same
        # terms, same order, same parity
        for name in SHIPPED_TABLES:
            table = get_table(name)
            state = random_state(table, seed=0)
            base = default_convention(table)
            for key, rule in table.rules.items():
                spec = table.fields[rule.field_name]
                ops = (None,) if rule.op_letter is None else (1, 2)
                for conv in (base, replace(base, da_coef=-I_UNIT)):
                    for op_index, slot, comp in itertools.product(
                            ops, spec.slots(), range(table.components(spec.form))):
                        got = _rule_image(state, rule, op_index, slot, comp, conv)
                        want = _reference_rule_image(state, rule, op_index, slot, comp, conv)
                        assert got == want, (name, key, op_index, slot, comp)
                        assert list(got.terms) == list(want.terms)
                        assert got.parity == want.parity


def _reference_solve(rows):
    """Gauss-Jordan elimination over ExactComplex with normalised pivot rows."""
    if not rows:
        return []
    n = len(rows[0][0])
    mat = [[ExactComplex.coerce(v) for v in r[0]] + [ExactComplex.coerce(r[1])] for r in rows]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        mat[row] = [v / pv for v in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    solution = [ExactComplex(0)] * n
    for r, col in enumerate(pivots):
        solution[col] = mat[r][n]
    return solution


def _random_system(rng, gaussian, kind):
    """Integer or Gaussian-integer rows of one of three kinds of system."""
    def entry():
        if rng.random() < 0.3:
            return 0
        re, im = rng.randint(-9, 9), rng.randint(-9, 9) if gaussian else 0
        return ExactComplex(re, im) if im else re

    n = rng.randint(1, 5)
    m = rng.randint(1, 9)
    if kind == "rank-deficient":
        # rows are integer combinations of fewer base rows, and a column may vanish
        base = [[entry() for _ in range(n)] for _ in range(rng.randint(1, max(1, n - 1)))]
        dead = rng.randrange(n)
        coeffs = [[sum((rng.randint(-3, 3) * b[j] for b in base), 0) for j in range(n)]
                  for _ in range(m)]
        coeffs = [[0 if j == dead else v for j, v in enumerate(row)] for row in coeffs]
    else:
        coeffs = [[entry() for _ in range(n)] for _ in range(m)]
    if kind == "inconsistent":
        rhs = [entry() for _ in range(m)]
    else:
        x = [entry() for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), 0) for row in coeffs]
    canon = lambda v: v if type(v) is int or v.im else int(v.re)
    return [(tuple(map(canon, row)), canon(b)) for row, b in zip(coeffs, rhs)]


class TestFractionFreeSolve:
    @pytest.mark.parametrize("kind", ["consistent", "rank-deficient", "inconsistent"])
    @pytest.mark.parametrize("gaussian", [False, True])
    def test_matches_reference_elimination(self, kind, gaussian):
        rng = random.Random(f"{kind}-{gaussian}")
        for _ in range(80):
            rows = _random_system(rng, gaussian, kind)
            got = _solve_exact(rows)
            want = _reference_solve(rows)
            assert got == want and list(map(repr, got)) == list(map(repr, want)), rows
            assert all(type(v) is ExactComplex for v in got)

    def test_empty_system(self):
        assert _solve_exact([]) == []


def _twistor_weights(s, r, keep_zero=False):
    """check_twistor's weights s_a s_b, s_a r_b, ...; keep_zero keeps the zero products."""
    coeffs = {("Q", 1): s[0], ("Q", 2): s[1], ("Qbar", 1): r[0], ("Qbar", 2): r[1]}
    return {(w1, w2): Fraction(c1) * Fraction(c2) for w1, c1 in coeffs.items()
            for w2, c2 in coeffs.items() if keep_zero or (c1 and c2)}


def _per_pair_sum(state, weights, conv):
    """Reference: sum of w * compose(a, b), pair by pair, on a copy with a fresh memo."""
    fresh, total = replace(state), {}
    for (a, b), w in weights.items():
        for key, value in compose(fresh, a, b, conv).items():
            value = value.scale(w)
            total[key] = total[key] + value if key in total else value
    return total


def _assert_same_images(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        assert got[key] == value, key
        assert got[key].terms.keys() == value.terms.keys(), key


class TestGroupedComposition:
    def test_compose_matches_explicit_shift(self):
        # one pair: Q_b applied to X + theta * Q_a X, theta part extracted
        for name in SHIPPED_TABLES:
            table = get_table(name)
            conv = default_convention(table)
            state = random_state(table, seed=1)
            gen = state.n_generators
            for a, b in closure_pairs(table):
                shifted = brstmod._shifted_state(state, apply_q(state, a, conv).values, gen)
                want = {key: brstmod._extract_theta(value, gen)
                        for key, value in apply_q(shifted, b, conv).values.items()}
                _assert_same_images(compose(state, a, b, conv), want)

    def test_closure_pairs_match_per_pair_loop(self):
        for name in SHIPPED_TABLES:
            table = get_table(name)
            conv = default_convention(table)
            state = random_state(table, seed=2)
            for a, b in closure_pairs(table):
                weights = {(a, b): 1} if a == b else {(a, b): 1, (b, a): 1}
                _assert_same_images(brstmod._compose_sum(state, weights, conv),
                                    _per_pair_sum(state, weights, conv))

    @pytest.mark.parametrize("s, r", [((1, 2), (3, 1)), ((0, -1), (2, 0)),
                                      ((-3, 1), (-1, -2)), ((0, 0), (1, -1))])
    def test_twistor_weights_match_per_pair_loop(self, s, r):
        table = get_table("threed")
        conv = default_convention(table)
        for seed, keep_zero in ((0, False), (1, True)):
            state = random_state(table, seed=seed)
            weights = _twistor_weights(s, r, keep_zero)
            assert keep_zero or all(weights.values())
            _assert_same_images(brstmod._compose_sum(state, weights, conv),
                                _per_pair_sum(state, weights, conv))


class TestAgainstFoldEvaluator:
    """Closure checks with every linear combination evaluated by the fold."""

    @staticmethod
    def _run(monkeypatch):
        # apply_q and _compose_sum are looked up at call time, so the recording
        # wrappers see every outer, inner and grouped evaluation of the checks
        images = []

        def recording(fn, values):
            def wrapper(*args):
                result = fn(*args)
                images.append(values(result))
                return result
            return wrapper

        monkeypatch.setattr(brstmod, "apply_q", recording(apply_q, lambda s: s.values))
        monkeypatch.setattr(brstmod, "_compose_sum", recording(brstmod._compose_sum, dict))
        reports = []
        for name in SHIPPED_TABLES:
            table = get_table(name)
            conv = default_convention(table)
            # threed: (Q1, Q2), (Q2, Qbar1) and (Qbar2, Qbar2) reach all four operators
            pairs = closure_pairs(table)
            pairs = [pairs[1], pairs[5], pairs[9]] if name == "threed" else pairs
            for seed in range(4):
                state = random_state(table, seed=seed)
                reports += [check_closure(state, pair, conv) for pair in pairs]
        monkeypatch.undo()
        return reports, images

    def test_apply_q_compose_and_closure_match_fold(self, monkeypatch):
        reports, images = self._run(monkeypatch)
        monkeypatch.setattr(GrassmannElement, "combination", staticmethod(fold_combination))
        fold_reports, fold_images = self._run(monkeypatch)
        assert reports == fold_reports
        assert len(images) == len(fold_images) > 100
        for got, want in zip(images, fold_images):
            assert list(got) == list(want)
            for key in want:
                _assert_same_element(got[key], want[key])


class TestSharedWork:
    @pytest.fixture
    def applied(self, monkeypatch):
        calls = []
        original = brstmod.apply_q

        def counting(state, which, conv=None):
            calls.append(which)
            return original(state, which, conv)

        monkeypatch.setattr(brstmod, "apply_q", counting)
        return calls

    def test_threed_calibration_shares_outer_images(self, applied):
        # 3 seeds x (4 outer images + 16 inner applications), not 32 per seed
        _, report = calibrate_signs("threed")
        assert report["stage"] == "identity-toggles"
        assert len(applied) <= 60

    def test_twistor_composes_once_per_inner_operator(self, applied):
        state = random_state(get_table("threed"), seed=0)
        assert check_twistor(state, (1, 2), (3, 1))["exact_zero"]
        assert len(applied) == 8
        # the outer images are shared with later checks of the same state
        assert check_closure(state, (("Q", 1), ("Qbar", 2)))["exact_zero"]
        assert len(applied) == 10

    def test_apply_q_builds_one_element_per_key(self, monkeypatch):
        # each rule image is one combination: no per-term or per-bracket element
        table = get_table("threed")
        state = random_state(table, seed=0)
        built, original = [], GrassmannElement._from_terms
        monkeypatch.setattr(GrassmannElement, "_from_terms",
                            staticmethod(lambda *a: built.append(a[0]) or original(*a)))
        for which in (("Q", 1), ("Qbar", 2)):
            built.clear()
            images = apply_q(state, which).values
            assert len(built) == len(images) == len(table.state_keys())

    def test_memo_is_per_state_and_invisible(self):
        table = get_table("covariant")
        state = random_state(table, seed=0)
        before = repr(state)
        assert check_closure(state, closure_pairs(table)[1])["exact_zero"]
        assert state.memo and repr(state) == before and "memo" not in before
        derived = replace(state, values=dict(state.values))
        assert derived.memo == {}
        assert derived == state and replace(state) == state
