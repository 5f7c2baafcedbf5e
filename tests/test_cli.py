import contextlib
import hashlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vw3d import bethe, brst, cli
from vw3d.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PRECONDITION, EXIT_RESIDUAL, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerlinde:
    def test_torus_value(self, capsys):
        code, out, _ = run_cli(capsys, "verlinde", "--g", "1",
                               "--x", "0.3", "--y", "0.7", "--t", "0.11")
        assert code == EXIT_OK
        assert "verlinde(g=1) = 10" in out

    def test_series_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verlinde", "--g", "0", "--series",
                               "--order", "6")
        assert code == EXIT_OK
        assert "2 * t^{3/2}" in out

    def test_limit_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verlinde", "--g", "2", "--limit", "R2",
                               "--order", "5")
        assert code == EXIT_OK
        for token in ("35 * 1", "75 * x^{1}", "186 * x^{2}", "274 * x^{3}",
                      "469 * x^{4}"):
            assert token in out

    def test_missing_point_is_precondition(self, capsys):
        code, _, err = run_cli(capsys, "verlinde", "--g", "1")
        assert code == EXIT_PRECONDITION
        assert "error" in err

    def test_sweep_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verlinde", "--sweep", "20", "--seed", "1")
        assert code == EXIT_OK
        assert "ok=True" in out

    def test_sweep_json_is_reproducible(self, capsys):
        # identical invocations give byte-identical JSON: no wall-clock field
        first = run_cli(capsys, "verlinde", "--sweep", "5", "--seed", "0", "--json")
        second = run_cli(capsys, "verlinde", "--sweep", "5", "--seed", "0", "--json")
        assert first[0] == EXIT_OK and first == second
        assert "elapsed" not in first[1]

    @pytest.mark.parametrize("x,t", [("0.99", "0.003"), ("0.05", "0.0003")])
    def test_small_t_diagonal_labels(self, capsys, x, t):
        # every weight carries t^{3/2}: here two classes lie within 1e-6 of
        # each other, and only the vacuum's origin tells them apart
        code, out, _ = run_cli(capsys, "verlinde", "--g", "2", "--x", x, "--y", x,
                               "--t", t, "--json")
        assert code == EXIT_OK
        labels = json.loads(out)["class_labels"]
        assert [labels.count(c) for c in ("S00-class", "S02-class", "S06-class")] == [2, 4, 4]

    def test_singular_point_is_numerical(self, capsys):
        code, _, err = run_cli(capsys, "verlinde", "--g", "1",
                               "--x", "1.0", "--y", "0.5", "--t", "0.2")
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("g,x,t,name", [("2", "0.3", "1e-300", "t"),
                                            ("0", "5e-324", "0.5", "x")])
    def test_dilaton_underflow_names_parameter(self, capsys, g, x, t, name):
        # p^{3/2} underflows to 0.0: the failure names the factor and the parameter
        code, _, err = run_cli(capsys, "verlinde", "--g", g, "--x", x, "--y", "0.7", "--t", t)
        assert code == EXIT_NUMERICAL
        assert f"dilaton factor of {name} = " in err

    def test_pole_guard_names_its_factor(self, capsys):
        # t = 1 - 1e-12 on the path: the factor (t - 1) of the closed form is the pole
        code, out, err = run_cli(capsys, "verlinde", "--g", "3", "--asymptotics",
                                 "--a", "-1", "--b", "-1e-8")
        assert code == EXIT_NUMERICAL
        assert "denominator factor (t - 1) = (-9.99" in err
        assert "genus-3 closed form at eps=0.0001: denominator factor (t - 1) = " in err
        assert out == ""

    @pytest.mark.parametrize("argv,stage", [
        # the smallest S^2 here is about 0.0095: its -199th power is past 1e308
        (("--g", "200", "--x", "0.3", "--y", "0.7", "--t", "0.11"),
         "genus-200 sum of S^2 ** -199 left the float range: complex exponentiation"),
        (("--g", "0", "--asymptotics", "--a", "-1e300", "--b", "-1"),
         "genus-0 closed form at eps=0.01 left the float range"),
        # 1 - x rounds to 0 on this path
        (("--g", "2", "--asymptotics", "--a", "-1e-300", "--b", "-1"),
         "genus-2 closed form at eps=0.01 left the float range"),
        # each power is finite, their sum is not: --json wrote Infinity
        (("--g", "154", "--x", "0.3", "--y", "0.7", "--t", "0.11106"),
         "genus-154 sum of S^2 ** -153 left the float range: (inf"),
        # the closed form is inf / inf: --json wrote NaN
        (("--g", "0", "--x", "4.600522195827881e+25", "--y", "4.600522195827883e+25",
          "--t", "4.600522195827883e+25"), "closed form genus0_generic left the float range"),
        # a complex NaN value: json.dumps raised TypeError
        (("--g", "34", "--asymptotics", "--a", "-1.3759124247064363",
          "--b", "-0.0004096236933799057"),
         "genus-34 closed form at eps=0.0001 left the float range: (nan+nanj)"),
        # 4 (8 (1-t)/(1-x))^75 underflows to 0.0: the ratio divided by zero
        (("--g", "26", "--asymptotics", "--a", "-9.966320554182154e+42",
          "--b", "-1.2602946808229456"), "asymptotic target at eps=0.01 left the float range"),
        # p ** 1.5 overflows ("(34, 'Numerical result out of range')")
        (("--g", "2", "--x", "1e300", "--y", "0.7", "--t", "0.11"),
         "dilaton factor of x = 1e+300 left the float range"),
        # abs(p * w - 1) overflows ("absolute value too large")
        (("--x", "1.8811224823189423", "--y", "1.7976931348623157e+308",
          "--t", "3.408847610275287e+226"),
         "dilaton factor of y = 1.7976931348623157e+308 left the float range"),
        # float(u + 2) overflows ("integer division result too large for a float")
        (("--x", "9.420701177506706e+251", "--y", "9.216098404857356e+305", "--t", "5e-324"),
         "vacua of the u_- factor left the float range"),
    ])
    def test_float_range_failure_names_stage(self, capsys, argv, stage):
        code, out, err = run_cli(capsys, "verlinde", *argv, "--json")
        assert code == EXIT_NUMERICAL
        assert stage in err
        assert out == ""

    def test_small_t_within_float_range_runs(self, capsys):
        code, _, _ = run_cli(capsys, "verlinde", "--g", "2", "--x", "0.3", "--y", "0.7",
                             "--t", "1e-20")
        assert code == EXIT_OK

    @pytest.mark.parametrize("flag,value", [("--x", "-0.5"), ("--x", "0"), ("--t", "-2")])
    def test_non_positive_parameter_is_precondition(self, capsys, flag, value):
        params = {"--x": "0.3", "--y": "0.7", "--t": "0.2", flag: value}
        code, _, err = run_cli(capsys, "verlinde", *(w for kv in params.items() for w in kv))
        assert code == EXIT_PRECONDITION
        assert f"{flag[2:]}=" in err and "must be positive" in err

    def test_tiny_positive_parameter_stays_positive(self, capsys):
        # 1e-20 is read as itself, not snapped to the singular value 0
        code, out, _ = run_cli(capsys, "verlinde", "--g", "2",
                               "--x", "0.3", "--y", "0.7", "--t", "1e-20", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["verlinde"]["1"] == [10.0, 0.0]

    @pytest.mark.parametrize("value,line", [
        ((356579397.748, -4.08e-07), "verlinde(g=4) = 356579397.748"),
        ((7.99e12, -0.00987), "verlinde(g=4) = 7.99e+12"),
        ((2.5, -0.125), "verlinde(g=4) = 2.5 - 0.125i"),
        ((2.5, 0.125), "verlinde(g=4) = 2.5 + 0.125i"),
    ])
    def test_point_text_prints_imaginary_part_relative(self, capsys, monkeypatch, value, line):
        # an imaginary part within 1e-10 * max(1, |re|) is float noise and is
        # not printed; a printed one carries one sign
        report = bethe.point_report
        monkeypatch.setattr(bethe, "point_report", lambda *a, **k: {
            **report(*a, **k), "verlinde": {"4": list(value)}})
        code, out, _ = run_cli(capsys, "verlinde", "--g", "4",
                               "--x", "0.1", "--y", "0.2", "--t", "0.05")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == line


class TestElliptic:
    def test_k3_series(self, capsys):
        code, out, _ = run_cli(capsys, "elliptic", "--n", "2", "--order", "2")
        assert code == EXIT_OK
        assert "1/8 * q^{-2}" in out
        assert "1600 * q^{1}" in out

    def test_parity_rejection(self, capsys):
        code, _, err = run_cli(capsys, "elliptic", "--n", "3")
        assert code == EXIT_PRECONDITION

    def test_gluing_report(self, capsys):
        code, out, _ = run_cli(capsys, "elliptic", "--n", "6", "--gluing",
                               "--order", "2")
        assert code == EXIT_OK
        assert "equal=False" in out
        assert "first_differing_exponent=-6" in out


class TestFloer:
    def test_s2xs1(self, capsys):
        code, out, _ = run_cli(capsys, "floer", "--hf", "S2xS1", "--order", "4")
        assert code == EXIT_OK
        assert "1 * t^{-1/2}" in out
        assert "1 * t^{1/2}" in out

    def test_lens_space(self, capsys):
        code, out, _ = run_cli(capsys, "floer", "--hf", "lens:5", "--order", "4")
        assert code == EXIT_OK
        assert "spin-c structures: 5" in out

    def test_circle_bundle_rank(self, capsys):
        code, out, _ = run_cli(capsys, "floer", "--hf", "sigma:3,1")
        assert code == EXIT_OK
        assert "total rank: 8" in out

    def test_molien_dims(self, capsys):
        code, out, _ = run_cli(capsys, "floer", "--molien", "--order", "10")
        assert code == EXIT_OK
        assert "1,0,1,0,1,0,1,0,1,0,1" in out

    def test_unknown_manifold(self, capsys):
        code, _, err = run_cli(capsys, "floer", "--hf", "poincare")
        assert code == EXIT_PRECONDITION

    def test_key_error_message_prints_unquoted(self, capsys):
        code, out, err = run_cli(capsys, "floer", "--brieskorn", "P", "--conjecture")
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "error: sheaf-model rank for Sigma(2,3,5) is not tabulated\n"


class TestBrst:
    def test_abelian_q2(self, capsys):
        code, out, _ = run_cli(capsys, "brst", "--table", "abelian",
                               "--check", "Q2", "--states", "2")
        assert code == EXIT_OK
        assert "exact_zero=True" in out

    def test_strict_mode_passes_on_clean_table(self, capsys):
        code, out, _ = run_cli(capsys, "brst", "--table", "covariant",
                               "--check", "closure", "--states", "1", "--strict")
        assert code == EXIT_OK

    # (table, --check) pairs with no applicable check: refused, never vacuous
    REFUSED = {("abelian", "twistor"), ("nonabelian", "twistor"), ("covariant", "Q2"),
               ("covariant", "twistor"), ("threed", "Q2")}

    @pytest.mark.parametrize("table", ["abelian", "nonabelian", "covariant", "threed"])
    @pytest.mark.parametrize("check", ["Q2", "closure", "twistor", "all"])
    def test_strict_run_checks_every_state_or_exits_2(self, capsys, table, check):
        code, out, err = run_cli(capsys, "brst", "--table", table, "--check", check,
                                 "--strict", "--states", "2", "--json")
        if (table, check) in self.REFUSED:
            assert code == EXIT_PRECONDITION and out == ""
            assert f"table {table} has no {check} check" in err
        else:
            assert code == EXIT_OK
            assert {c["state"] for c in json.loads(out)["checks"]} == {0, 1}

    @pytest.mark.parametrize("table", ["abelian", "nonabelian"])
    def test_closure_runs_the_one_column_pair(self, capsys, table):
        # under `all` the Q2 check stands in for it; alone, the pair runs
        code, out, _ = run_cli(capsys, "brst", "--table", table, "--check", "closure",
                               "--strict", "--json")
        checks = json.loads(out)["checks"]
        assert code == EXIT_OK
        assert [(c["pair"], c["state"], c["exact_zero"]) for c in checks] == [
            (["Q", "Q"], state, True) for state in range(3)]

    def test_strict_mode_fails_on_broken_table(self, capsys, monkeypatch):
        # Q eta = phi leaves Q^2 phibar = phi, an exact nonzero residual
        monkeypatch.setitem(brst.TABLE_TEXTS, "abelian", brst.TABLE_TEXTS["abelian"].replace(
            "Q eta = 0", "Q eta = phi"))
        monkeypatch.setattr(brst, "_TABLE_CACHE", {})
        code, out, _ = run_cli(capsys, "brst", "--table", "abelian", "--check", "Q2",
                               "--strict", "--json")
        assert code == EXIT_RESIDUAL
        checks = json.loads(out)["checks"]
        assert [c["failing_fields"] for c in checks] == [["phibar"]] * 3
        assert not any(c["exact_zero"] for c in checks)

    def test_malformed_unevaluated_rule_is_a_precondition(self, capsys, monkeypatch):
        # no check evaluates Qp, so only the load-time compile step sees the typo
        monkeypatch.setitem(brst.TABLE_TEXTS, "nonabelian", brst.TABLE_TEXTS["nonabelian"].replace(
            "Qp eta = i [C, phibar]", "Qp eta = i [Cc, phibar]"))
        monkeypatch.setattr(brst, "_TABLE_CACHE", {})
        code, out, err = run_cli(capsys, "brst", "--table", "nonabelian", "--check", "all",
                                 "--strict")
        assert code == EXIT_PRECONDITION
        assert out == "" and "'Cc'" in err

    def test_unknown_algebra_is_a_precondition(self, capsys, monkeypatch):
        # read as u(1), su3 would make every bracket vanish and pass --strict vacuously
        monkeypatch.setitem(brst.TABLE_TEXTS, "nonabelian", brst.TABLE_TEXTS["nonabelian"].replace(
            "algebra su2", "algebra su3").replace("Q eta = i [phibar, phi]", "Q eta = i [phi, phi]"))
        monkeypatch.setattr(brst, "_TABLE_CACHE", {})
        code, out, err = run_cli(capsys, "brst", "--table", "nonabelian", "--check", "all",
                                 "--strict")
        assert code == EXIT_PRECONDITION
        assert out == "" and "unknown algebra 'su3'" in err


class TestReproducibility:
    def test_byte_identical_json(self, capsys):
        args = ("verlinde", "--g", "1", "--x", "0.3", "--y", "0.7",
                "--t", "0.11", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        parsed = json.loads(out1)
        assert parsed["verlinde"]["1"][0] == pytest.approx(10.0, abs=1e-9)

    def test_json_reports_config(self, capsys):
        _, out, _ = run_cli(capsys, "elliptic", "--n", "4", "--json",
                            "--order", "3")
        parsed = json.loads(out)
        assert parsed["config"]["order"] == 3
        assert parsed["surface"] == "E(4)"

    def test_environment_does_not_set_the_order(self, capsys, monkeypatch):
        # the output is a function of argv alone
        monkeypatch.setenv("VW3D_ORDER", "5")
        _, out, _ = run_cli(capsys, "floer", "--molien", "--json")
        assert json.loads(out)["config"]["order"] == 20


class TestParserReuse:
    """`main` parses every call with the one parser of the process."""

    def test_second_call_carries_no_option_of_the_first(self, capsys):
        code, out, _ = run_cli(capsys, "elliptic", "--n", "6", "--order", "2",
                               "--gluing", "--json")
        assert code == EXIT_OK and "gluing" in json.loads(out)
        code, out, _ = run_cli(capsys, "elliptic", "--n", "4", "--order", "2", "--json")
        assert code == EXIT_OK
        parsed = json.loads(out)
        assert "gluing" not in parsed
        assert parsed["config"]["parameters"] == {"gluing": False, "n": 4, "order": 2,
                                                  "seed": 0}
        code, out, _ = run_cli(capsys, "floer", "--hn", "3", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["parameters"] == {
            "conjecture": False, "hn": 3, "molien": False, "seed": 0}

    def test_valid_call_after_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verlinde", "--x", "nan"])
        assert exc.value.code == EXIT_PRECONDITION
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "verlinde", "--g", "1", "--x", "0.3", "--y", "0.7",
                               "--t", "0.11")
        assert code == EXIT_OK
        assert "verlinde(g=1) = 10" in out


class TestInputContract:
    @pytest.mark.parametrize("argv,message", [
        (("verlinde", "--g", "-1", "--x", ".3", "--y", ".7", "--t", ".11"), "genus"),
        (("verlinde", "--sweep", "-1"), "at least one point"),
        (("verlinde", "--sweep", "0", "--x", ".3", "--y", ".7", "--t", ".11"),
         "at least one point"),
        (("verlinde", "--g", "0", "--series", "--order", "0"), "order must be at least 1"),
        (("elliptic", "--n", "2", "--order", "0"), "order must be at least 1"),
        (("elliptic", "--n", "2", "--order", "-3"), "order must be at least 1"),
        (("floer", "--molien", "--order", "0"), "order must be at least 1"),
        (("brst", "--table", "abelian", "--order", "0"), "order must be at least 1"),
        (("brst", "--table", "abelian", "--states", "0", "--strict"), "--states"),
        (("floer", "--hf", "sigma:x"), "sigma:g,h"),
        (("floer", "--hf", "lens:x"), "lens:p"),
        (("verlinde", "--g", "-1", "--asymptotics"), "genus"),
    ])
    def test_rejected_with_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PRECONDITION
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("argv,flag", [
        (("verlinde", "--g", "0", "--asymptotics", "--a", "nan"), "--a"),
        (("verlinde", "--g", "0", "--asymptotics", "--a", "nan", "--json"), "--a"),
        (("verlinde", "--g", "0", "--asymptotics", "--b=-inf"), "--b"),
        (("verlinde", "--x", "inf", "--y", ".7", "--t", ".11"), "--x"),
        (("verlinde", "--x", "nan", "--y", ".7", "--t", ".11"), "--x"),
        (("verlinde", "--x", ".3", "--y", "1e999", "--t", ".11"), "--y"),
        (("verlinde", "--x", ".3", "--y", ".7", "--t", "abc"), "--t"),
        (("verlinde", "--g", "0", "--asymptotics", "--a", "-inf"), "--a"),
    ])
    def test_non_finite_float_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_PRECONDITION
        assert f"argument {flag}: expected a finite number" in captured.err
        assert captured.out == ""

    def test_negative_exponent_value_after_flag(self, capsys):
        # argparse alone reads "-1e-3" here as an option and "--a" as missing its value
        code, out, _ = run_cli(capsys, "verlinde", "--g", "0", "--asymptotics",
                               "--a", "-1e-3", "--b", "-1", "--json")
        assert code == EXIT_OK
        assert (json.loads(out)["a"], json.loads(out)["b"]) == (-1e-3, -1.0)

    @settings(max_examples=60)
    @given(st.floats(max_value=-5e-324, allow_infinity=False),
           st.sampled_from(("{!r}", "{:e}", "{:g}")))
    def test_negative_value_spelled_either_way(self, value, form):
        # the handler is stubbed: only the parsed flags reach `config`
        text = form.format(value)
        configs = []
        for flag in (["--a", text], [f"--a={text}"]):
            stub = {"verlinde": lambda args, order: ({}, [], EXIT_OK)}
            with mock.patch.dict(cli._HANDLERS, stub), \
                    contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["verlinde", "--g", "0", "--asymptotics", *flag, "--json"]) == EXIT_OK
            configs.append(json.loads(out.getvalue())["config"])
        assert configs[0] == configs[1]
        assert configs[0]["parameters"]["a"] == float(text)

    @settings(max_examples=100)
    @given(st.sampled_from((["--x", "--y", "--t"], ["--a", "--b"])),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
           st.integers(0, 50))
    def test_any_finite_float_exits_cleanly(self, flags, values, g):
        # point mode and --asymptotics over the whole finite range (1e+-300,
        # subnormals, +-0): a result, a precondition or a numerical failure,
        # never a traceback, and the JSON of a result is finite
        argv = ["verlinde", "--g", str(g), "--json"] + ["--asymptotics"] * (len(flags) == 2)
        for flag, value in zip(flags, values):
            argv += [flag, repr(value)]
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_NUMERICAL)
        if code == EXIT_OK:
            json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(name))

    @pytest.mark.parametrize("argv,flags", [
        (("verlinde", "--sweep", "5", "--limit", "R2"), ("--limit", "--sweep")),
        (("verlinde", "--g", "1", "--series", "--asymptotics"), ("--asymptotics", "--series")),
        (("verlinde", "--limit", "R0", "--sweep", "5"), ("--sweep", "--limit")),
        (("floer", "--hf", "lens:3", "--molien"), ("--molien", "--hf")),
        (("floer", "--hn", "3", "--brieskorn", "P"), ("--brieskorn", "--hn")),
    ])
    def test_one_mode_per_command(self, capsys, argv, flags):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_PRECONDITION
        assert "argument {}: not allowed with argument {}".format(*flags) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (("verlinde", "--g", "2", "--series", "--x", "0.3", "--order", "1"),
         "--x not allowed with --series"),
        (("verlinde", "--sweep", "2", "--y", ".7", "--t", ".11"),
         "--y --t not allowed with --sweep"),
        (("verlinde", "--limit", "R0", "--x", ".3", "--order", "2"), "--x not allowed with --limit"),
        (("verlinde", "--g", "0", "--asymptotics", "--t", ".11"),
         "--t not allowed with --asymptotics"),
        (("floer", "--hf", "lens:2", "--conjecture"), "--conjecture not allowed with --hf"),
        (("floer", "--molien", "--conjecture"), "--conjecture not allowed with --molien"),
        (("floer", "--hn", "0", "--conjecture"), "--conjecture not allowed with --hn"),
        (("verlinde", "--limit", "R0", "--a", "-5", "--g", "1"),
         "--a not allowed with --limit (--asymptotics only)"),
        (("verlinde", "--g", "1", "--series", "--b", "1"),
         "--b not allowed with --series (--asymptotics only)"),
        (("verlinde", "--sweep", "3", "--g", "7"), "--g not allowed with --sweep"),
        (("elliptic", "--n", "2", "--seed", "9"),
         "--seed not allowed with elliptic (--sweep or brst only)"),
        (("verlinde", "--g", "1", "--x", ".3", "--y", ".7", "--t", ".11", "--seed", "0"),
         "--seed not allowed with point mode"),
    ])
    def test_flag_outside_its_mode(self, capsys, argv, message):
        # a flag its mode does not read is rejected, not silently ignored
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PRECONDITION
        assert message in err
        assert out == ""


# SHA-256 of the --json output of the README commands whose results are
# exact.  Any change to an exact result, or to the JSON layout, shows here;
# update a digest only for an intended change of output.
JSON_DIGESTS = [
    ("verlinde --g 0 --series --order 6",
     "67ccfbfa4f9fb74ec51c33be58e4b58c68574089a9201c21a586006c62dd888c"),
    ("verlinde --g 2 --limit R2 --order 5",
     "dc68fabe0d92f70c6f894c18340a4b12f5b6f4c5a6aa77db57a733515154530e"),
    ("elliptic --n 2 --order 4",
     "941154178b73e764da15dae67ae3c412ce0c760e066f7868d70fd16b9eec1f7d"),
    ("elliptic --n 6 --gluing",
     "43aec248cf73c82dcd6a3e8649fd90e47b328f7770b9292a0658353f93a33820"),
    ("floer --hf S2xS1",
     "769140f8ed709efa3a816d4739b14fec5b52e5f81a2cbefc9839176cb06c7c32"),
    ("floer --hf sigma:3,1",
     "b6dc641553470d3adf3bc19778ad705b1f0af1c794144eba07077998319d5aac"),
    ("floer --molien --order 10",
     "85b02d0f861aaaff1f16f243e5245fcec8a41959894db6d366923642330f418e"),
    ("floer --brieskorn Sigma237 --conjecture",
     "a46dc3bb50b1d7319535fcde51a05477032656c05bf70951c0026f9cdc7eb7fd"),
    ("brst --table abelian --check Q2",
     "5c7e20e81437b825c781209ec6378441c7318d6dbaf21e6743d1975e9664c740"),
    # the only shipped table whose Grassmann numerators are Gaussian integers
    ("brst --table nonabelian --check all",
     "9191d925a1e79c4cf05544c79ee80ff352e4bf91a7053069e5f6db7596bf4386"),
    ("floer --hn 3",
     "09f39195183091bfc9c50151c269577788ed86f45b1ae4b8dd9fb1c9eef33806"),
    # floating-point outputs: point mode (x = y writes the class labels),
    # asymptotics, the sweep and --calibrate.  Their floats come from CPython
    # float, cmath and libm only; numpy's roots reach only the sweep's `ok`.
    ("verlinde --g 1 --x 0.3 --y 0.7 --t 0.11",
     "e68b0bc19cba23ac9d7f29a9edb6a85b9e717ca9786fa14b268c0920a104ba38"),
    ("verlinde --g 2 --x 0.35 --y 0.35 --t 0.15",
     "19dc183dd2347fde74b0f810ab6744123375414738b70a7bf7ff1d791b5d0db6"),
    ("verlinde --g 0 --asymptotics --a -1 --b -1",
     "e97f401ee23368010e26d65a3bcd0a343c1fb7f130d280ba903fc5ebce2ad4cd"),
    ("verlinde --sweep 20 --seed 0",
     "c435143f1052b5944fe965244074db8853d9616a2d2cae3244d368d633284e04"),
    ("brst --table covariant --check all --calibrate --strict --states 1",
     "4200bbf5241595d3e3787f385fb95ab8530fcd45e73a32473293df5b2e2c3f7b"),
    # genus sums and limits put over one denominator per group of classes
    ("verlinde --g 2 --series --order 12",
     "9f19c6f6891c3a19174542342be281d65368ef56c9b6c2586e22f9d670583f8b"),
    ("verlinde --g 4 --series --order 8",
     "6a6b46eadb4cc75045964d424bee5ce4454bcbdb87bf422384bcb22220fa9a71"),
    ("verlinde --g 3 --limit R0 --order 20",
     "34274eadf8b98612be6ed7e8d1c25f532b836be33685162fe042c036d1ffb1fc"),
    ("verlinde --g 0 --limit R2 --order 30",
     "d7fa397e9949e89f7f60dfc83aafcb2c32780f5cf1f96fef7cf74f896debb154"),
    ("verlinde --g 4 --limit R2 --order 16",
     "2e340f748afdfd0bc551c4586ae9805b7ce1f09474465009e7b2e694ac3b213c"),
]


class TestJsonDigests:
    @pytest.mark.parametrize("command,digest", JSON_DIGESTS)
    def test_json_output_is_pinned(self, capsys, command, digest):
        code, out, _ = run_cli(capsys, *command.split(), "--json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the text output of the same commands.  `main` prints the text and
# the --json form through one statement, so the text is pinned as well.
TEXT_DIGESTS = [
    ("verlinde --g 0 --series --order 6",
     "e1593b010dbdefabb9b57f3efebbc6da925211c494bb07a5de5a8c63fee94318"),
    ("verlinde --g 2 --limit R2 --order 5",
     "c1d23a90288c670022810e48a2b8931274319d07b058500ad830d265ab6ae7d1"),
    ("elliptic --n 2 --order 4",
     "143d400405a2fc9d56183d2996ef0241e41a22cc7dd37245a7da461c3a71deba"),
    ("elliptic --n 6 --gluing",
     "ae11ad528a590b0724972e12812e1eff0b789f178cf96d047778ecce29087211"),
    ("floer --hf S2xS1",
     "837844e4ef35b183af120b6a13ed7488e75b0961be5cb5207380ecb7eed7523b"),
    ("floer --hf sigma:3,1",
     "2ab799ce75a077c2de801adcd701b34b93b060eb7106e6b87b427456a30cb70a"),
    ("floer --molien --order 10",
     "07d3420a07115cb975e5d5c0e48f8f1044c6b6cd6a955508ba816d881b4d979b"),
    ("floer --brieskorn Sigma237 --conjecture",
     "9a1551af05648e54dc5def7742ec7fe038efcee94631316f68cbefb016aa99ca"),
    ("brst --table abelian --check Q2",
     "a51acfd307321968100623ebcd6c14c4da4e46ff0354e895d9cac71856ad27e6"),
    ("brst --table nonabelian --check all",
     "ff05d1de0b20306958e03fd7a32471583f30eb95ea50d49139c9b6095a81aad5"),
    ("floer --hn 3",
     "5ab6f8840dc8148adeb7ff0fbd9f26fa5ef9970f282696049538461a67733d37"),
    # the sweep line carries no wall-clock field, so its text is pinned too
    ("verlinde --sweep 20 --seed 0",
     "0a91cb4bc01019cb96438ac7e8e8196a7934dae7f367e0fa91fefdf92a5bffe4"),
]


class TestTextDigests:
    @pytest.mark.parametrize("command,digest", TEXT_DIGESTS)
    def test_text_output_is_pinned(self, capsys, command, digest):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
