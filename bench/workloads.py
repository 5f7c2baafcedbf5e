"""The four benchmark workloads: seeded call lists and their output checks.

A workload yields passes.  A pass is a list of `Call`s whose inputs come
from the run's seeded generator; across one run no call repeats another
call's full input, except the README commands, which are literal by nature
and run exactly twice per run so their `--json` bytes can be compared.
Orders and other small integer inputs are drawn without replacement from
`Pool`s sized for several times the passes a run makes today; a pool that
runs dry refills and counts each repeat in `repeats`, which the run reports.

Every call's output is checked with facts the repository already proves
(the acceptance criteria), never against the output of the same call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable

from vw3d import bethe, brst, cli, elliptic, floer
from vw3d.ratexpr import rational_eval
from vw3d.series import PuiseuxSeries

CLASS_COUNTS = (2, 4, 4)
G_COEFFS = [1, 24, 324, 3200, 25650]
R2_G2 = [35, 75, 186, 274, 469]
TABLES = ("abelian", "nonabelian", "covariant", "threed")
NONZERO = (-3, -2, -1, 1, 2, 3)


class CheckError(AssertionError):
    """An output disagrees with a known result."""


def need(ok, what):
    if not ok:
        raise CheckError(what)


@dataclass
class Call:
    slot: str                       # position in the pass; stable across passes
    run: Callable[[], Any]
    check: Callable[[Any], None]
    cli: bool = False


class Pool:
    """Draws the values of a range without replacement, evenly spread.

    Draw k takes the value at sorted position (bit-reversal of k + a seeded
    offset) mod 2^m, skipping positions past the end, so the first draws
    of any run cover the range evenly (0, 1/2, 1/4, 3/4, ... of the way up)
    and every run, whatever its seed and however many passes it makes, sees
    about the same mix of small and large inputs.  After len(values) draws
    the cycle starts again and each draw is counted in `stats["repeats"]`.
    """

    def __init__(self, rng, values, stats):
        self.values = sorted(values)
        self.bits = max(1, (len(self.values) - 1).bit_length())
        self.offset = rng.randrange(1 << self.bits)
        self.k = 0
        self.drawn = 0
        self.stats = stats

    def draw(self):
        size = 1 << self.bits
        while True:
            j = int(format(self.k % size, f"0{self.bits}b")[::-1], 2)
            self.k += 1
            index = (j + self.offset) % size
            if index < len(self.values):
                break
        if self.drawn >= len(self.values):
            self.stats["repeats"] += 1
        self.drawn += 1
        return self.values[index]


def run_cli(argv):
    """One in-process `vw3d ... --json` invocation: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_json(result):
    exit_code, text = result
    need(exit_code == 0, f"exit code {exit_code}")
    return json.loads(text)


def _series_equal(data, reference):
    need(PuiseuxSeries.from_json_dict(data) == reference, "series differs from reference")


class Workload:
    name = ""

    def __init__(self, rng, seed):
        self.rng = rng
        self.stats = {"repeats": 0}
        # Fresh integer seeds for states, sweeps and calibration; disjoint
        # from brst calibration's internal seeds 0-2 and from other runs.
        self.fresh = itertools.count(1000 + 100_000 * seed)

    def pool(self, values):
        return Pool(self.rng, values, self.stats)

    def readme(self):
        """(argv, check, compare_bytes) for each README command."""
        return []

    def next_pass(self):
        raise NotImplementedError


# ----------------------------------------------------------------------
# bethe_sweep


def _same_multiset(weights, closed, rel=1e-6):
    """Each class value claims the unused weights nearest to it, as many as
    its multiplicity; all must lie within `rel`.  Counting matches per class
    instead would fail at points where two classes nearly coincide."""
    unused = list(weights)
    for value, mult in zip(closed, CLASS_COUNTS):
        unused.sort(key=lambda w: abs(w - value))
        if len(unused) < mult or abs(unused[mult - 1] - value) > rel * max(1.0, abs(value)):
            return False
        del unused[:mult]
    return not unused


def check_point(report):
    """Criteria 1-3 at one point of a `point_report` (library or CLI JSON)."""
    roots = [complex(*z) for z in report["roots"]]
    need(len(roots) == 12, "12 roots")
    need(any(abs(z - 1) < 1e-8 for z in roots) and any(abs(z + 1) < 1e-8 for z in roots),
         "z = +1 and z = -1 among the roots")
    adm = [complex(*z) for z in report["admissible"]]
    need(len(adm) == 10, "10 admissible roots")
    for i, j in enumerate(report["weyl_partners"]):
        need(abs(adm[i] * adm[j] - 1) < 1e-6, "Weyl pairing z * z' = 1")
    point = report["params"]
    weights = [complex(*w) for w in report["s_squared"]]
    closed = [rational_eval(e, point) for e in bethe.s_elements_generic()]
    need(_same_multiset(weights, closed), "weights = closed forms with multiplicities (2, 4, 4)")
    sums = {int(g): complex(*v) for g, v in report["verlinde"].items()}
    if 1 in sums:
        need(abs(sums[1] - 10) < 1e-9, "genus-1 sum = 10 within 1e-9")
    if 0 in sums:
        ref = rational_eval(bethe.s2s1_generic_expr(), point)
        need(abs(sums[0] - ref) <= 1e-8 * max(1.0, abs(ref)), "genus-0 sum = closed form")
    for g in (2, 3):
        if g in sums:
            ref = sum(m * v ** (1 - g) for m, v in zip(CLASS_COUNTS, closed))
            need(abs(sums[g] - ref) <= 1e-6 * max(1.0, abs(ref)), f"genus-{g} sum = closed form")
    if point["x"] == point["y"]:
        labels = report["class_labels"]
        need([labels.count(c) for c in ("S00-class", "S02-class", "S06-class")]
             == list(CLASS_COUNTS), "x = y class labels (2, 4, 4)")


class BetheSweep(Workload):
    """Criterion-1 pipeline at seeded points; one point per call."""

    name = "bethe_sweep"
    POINTS = 20
    DIAGONAL_EVERY = 5          # a fixed 20% of the points have y = x
    SWEEP_POINTS = 10

    def readme(self):
        def sweep_ok(result):
            rep = cli_json(result)
            need(rep["ok"] is True and rep["points"] == 100, "README sweep ok over 100 points")

        return [
            (["verlinde", "--g", "1", "--x", "0.3", "--y", "0.7", "--t", "0.11", "--json"],
             lambda r: check_point(cli_json(r)), True),
            # The sweep report carries its own elapsed time, so its bytes differ.
            (["verlinde", "--sweep", "100", "--seed", "0", "--json"], sweep_ok, False),
        ]

    def _point(self, k):
        u = self.rng.uniform
        x, y, t = u(0.05, 0.95), u(0.05, 0.95), u(0.05, 0.95)
        if k % self.DIAGONAL_EVERY == 0:
            y = x
        return {"x": x, "y": y, "t": t}

    def next_pass(self):
        calls = []
        for k in range(self.POINTS):
            params = self._point(k)
            calls.append(Call(f"point{k}",
                              lambda p=params: bethe.point_report(p, genera=(0, 1, 2, 3)),
                              check_point))
        for k in range(2):
            p = self._point(k)
            g = self.rng.randrange(4)
            argv = ["verlinde", "--g", str(g), "--x", repr(p["x"]), "--y", repr(p["y"]),
                    "--t", repr(p["t"]), "--json"]
            calls.append(Call(f"cli-point{k}", lambda a=argv: run_cli(a),
                              lambda r: check_point(cli_json(r)), cli=True))
        seed = next(self.fresh)
        argv = ["verlinde", "--sweep", str(self.SWEEP_POINTS), "--seed", str(seed), "--json"]

        def sweep_ok(result, seed=seed):
            rep = cli_json(result)
            need(rep["ok"] is True and rep["points"] == self.SWEEP_POINTS and rep["seed"] == seed,
                 "seeded sweep ok")

        calls.append(Call("cli-sweep", lambda a=argv: run_cli(a), sweep_ok, cli=True))
        return calls


# ----------------------------------------------------------------------
# qseries


class QSeries(Workload):
    """E(n) partition functions and the fiber-sum gluing comparison."""

    name = "qseries"
    # (n, calls per pass, orders): each call position draws from its own
    # residue class of the orders, so no two calls share an input.
    Z_CALLS = ((2, 8, range(4, 132)), (4, 2, range(4, 36)), (6, 1, range(4, 20)),
               (8, 1, range(4, 20)), (10, 1, range(4, 20)))
    CLI_CALLS = ((2, 8, range(2, 130)), (4, 2, range(2, 34)))
    G_CALLS = (4, range(4, 68))
    # gluing_check's cost grows slowly up to order 13 and steps up at 14.
    GLUING_ORDERS = range(1, 14)

    def __init__(self, rng, seed):
        super().__init__(rng, seed)
        self.z_orders = {n: self.split(orders, count) for n, count, orders in self.Z_CALLS}
        self.cli_orders = {n: self.split(orders, count) for n, count, orders in self.CLI_CALLS}
        self.g_orders = self.split(self.G_CALLS[1], self.G_CALLS[0])
        self.gluing_orders = {n: self.pool(self.GLUING_ORDERS) for n in (6, 8)}

    def split(self, orders, count):
        return [self.pool(orders[k::count]) for k in range(count)]

    def readme(self):
        def e2(result):
            rep = cli_json(result)
            _series_equal(rep["series"], elliptic.en_closed_form(2, order=4))

        def e6(result):
            rep = cli_json(result)
            _series_equal(rep["series"], elliptic.en_closed_form(6, order=20))
            check_gluing(rep["gluing"], 6)

        return [(["elliptic", "--n", "2", "--order", "4", "--json"], e2, True),
                (["elliptic", "--n", "6", "--gluing", "--json"], e6, True)]

    def next_pass(self):
        calls = []

        def g_ok(g):
            need([g.coefficient({"q": k}) for k in range(-1, 4)] == G_COEFFS,
                 "G = q^-1 (1 + 24 q + 324 q^2 + 3200 q^3 + 25650 q^4 + ...)")

        for k, pool in enumerate(self.g_orders):
            calls.append(Call(f"g_series{k}", lambda o=pool.draw(): elliptic.g_series(o), g_ok))
        for n, pools in self.z_orders.items():
            for k, pool in enumerate(pools):
                order = pool.draw()

                def z_ok(z, n=n, order=order):
                    need(z == elliptic.en_closed_form(n, order=order),
                         f"Z(E({n})) = closed form through q^{order}")
                    need(n == 2 or elliptic.binomial_remainder(n) == 0,
                         "half-argument coefficient vanishes for n > 2")

                calls.append(Call(f"z_vw{n}.{k}",
                                  lambda n=n, o=order: elliptic.z_vw_kahler(
                                      elliptic.sw_data_en(n), order=o),
                                  z_ok))
        # the criterion-6 block: both gluing comparisons
        for n in (6, 8):
            order = self.gluing_orders[n].draw()
            calls.append(Call(f"gluing{n}", lambda n=n, o=order: elliptic.gluing_check(n, order=o),
                              lambda r, n=n: check_gluing(r, n)))
        for n, pools in self.cli_orders.items():
            for k, pool in enumerate(pools):
                order = pool.draw()
                argv = ["elliptic", "--n", str(n), "--order", str(order), "--json"]

                def e_ok(result, n=n, order=order):
                    _series_equal(cli_json(result)["series"],
                                  elliptic.en_closed_form(n, order=order))

                calls.append(Call(f"cli-elliptic{n}.{k}", lambda a=argv: run_cli(a), e_ok,
                                  cli=True))
        return calls


def check_gluing(report, n):
    need(report["n"] == n and report["equal"] is False
         and report["first_differing_exponent"] is not None,
         f"multiplicative gluing fails for E({n}) at a reported power of q")


# ----------------------------------------------------------------------
# closed_forms


def _integer_coeffs(series, nonnegative=False):
    for c in series.terms.values():
        need(c.im == 0 and c.re.denominator == 1, "integer coefficients")
        need(not nonnegative or c.re >= 0, "nonnegative coefficients")


class ClosedForms(Workload):
    """Bivariate (t, x) expansions and the graded-series catalog."""

    name = "closed_forms"
    GRDIM_ORDERS = range(4, 36)
    LIMIT_ORDERS = range(5, 37)

    def __init__(self, rng, seed):
        super().__init__(rng, seed)
        self.pools = {}

    def _order(self, key, values):
        if key not in self.pools:
            self.pools[key] = self.pool(values)
        return self.pools[key].draw()

    def mirrored(self, key, values):
        """Two orders (v, lo + hi - v) from `values`, v from its lower half."""
        if key not in self.pools:
            self.pools[key] = self.pool(values[:len(values) // 2])
        v = self.pools[key].draw()
        return v, values[0] + values[-1] - v

    def readme(self):
        def r2(result):
            rep = cli_json(result)
            s = PuiseuxSeries.from_json_dict(rep["series"])
            need([s.coefficient({"x": k}) for k in range(5)] == R2_G2, "R2 g=2: 35,75,186,274,469")

        def molien(result):
            s = PuiseuxSeries.from_json_dict(cli_json(result)["series"])
            need(s == floer.tower_series(0, None, Fraction(21, 2)), "Molien series 1/(1-t^2)")

        def parsed(result):
            cli_json(result)

        return [
            (["verlinde", "--g", "0", "--series", "--order", "6", "--json"], parsed, True),
            (["verlinde", "--g", "2", "--limit", "R2", "--order", "5", "--json"], r2, True),
            (["verlinde", "--g", "0", "--asymptotics", "--a", "-1", "--b", "-1", "--json"],
             parsed, True),
            (["floer", "--hf", "S2xS1", "--json"], parsed, True),
            (["floer", "--hf", "sigma:3,1", "--json"], parsed, True),
            (["floer", "--molien", "--order", "10", "--json"], molien, True),
            (["floer", "--brieskorn", "Sigma237", "--conjecture", "--json"], parsed, True),
        ]

    def next_pass(self):
        calls = []
        add = calls.append
        # Each closed form is expanded at two mirrored orders; the lower
        # expansion must be a prefix of the higher one.
        low, high = self.mirrored("grdim0", self.GRDIM_ORDERS)
        box = {}

        def s2s1_ok(series, order):
            box[("S2xS1", order)] = series
            if order == high:
                need(series == box[("S2xS1", low)], "S2xS1 expansions at two orders agree")

        def g0_ok(series, order):
            need(series == box[("S2xS1", order)],
                 "sum over vacuum classes (g=0) = S2xS1 closed form")

        for order in (low, high):
            add(Call("grdim-S2xS1", lambda o=order: bethe.grdim_closed_form("S2xS1", order=o),
                     lambda s, o=order: s2s1_ok(s, o)))
            add(Call("grdim-g0",
                     lambda o=order: bethe.grdim_closed_form("SigmaGxS1", order=o, g=0),
                     lambda s, o=order: g0_ok(s, o)))
        for g in range(1, 5):
            self._pair(add, f"grdim-g{g}", self.GRDIM_ORDERS,
                       lambda o, g=g: bethe.grdim_closed_form("SigmaGxS1", order=o, g=g),
                       (lambda s: need(s == PuiseuxSeries.constant(10, ("t", "x"), order=1),
                                       "g=1 sum = 10")) if g == 1 else None)
        for mode in ("R2", "R0"):
            for g in range(5):
                def limit_ok(series, mode=mode, g=g):
                    if mode == "R2" and g == 2:
                        need([series.coefficient({"x": k}) for k in range(5)] == R2_G2,
                             "R2 g=2: 35,75,186,274,469")
                    if g == 1:
                        need(series.coefficient({}) == (5 if mode == "R2" else 10),
                             "genus-1 limit counts the vacua")
                    if mode == "R2" and g >= 2:
                        _integer_coeffs(series, nonnegative=True)

                self._pair(add, f"limit-{mode}-g{g}", self.LIMIT_ORDERS,
                           lambda o, m=mode, g=g: bethe.limit_specialize(m, g, order=o), limit_ok)
        for g in (0, 1):
            a, b = -self.rng.uniform(0.25, 3.0), -self.rng.uniform(0.25, 3.0)

            def asym_ok(rep, g=g):
                ratios = [e["ratio"] for e in rep["entries"]]
                if g == 0:
                    need(abs(ratios[-1] - 1) < 0.01, "genus-0 asymptotic ratio within 1%")
                else:
                    need(all(r == 1 for r in ratios), "genus-1 ratio is exactly 1")

            add(Call(f"asymptotics-g{g}", lambda g=g, a=a, b=b: bethe.asymptotics_check(g, a, b),
                     asym_ok))
        self._catalog(add)
        self._cli(add)
        return calls

    def _pair(self, add, slot, orders, fn, check):
        """`fn` at mirrored orders; the two expansions agree on the lower box."""
        low, high = self.mirrored(slot, orders)
        box = {}

        def check_low(series):
            if check:
                check(series)
            box["low"] = series

        def check_high(series):
            if check:
                check(series)
            need(series == box["low"], f"{slot}: expansions at two orders disagree")

        add(Call(slot, lambda: fn(low), check_low))
        add(Call(slot, lambda: fn(high), check_high))

    def _catalog(self, add):
        order = self._order("lens", range(4, 200))
        p = next(self.fresh) % 97 + 2

        def lens_ok(res, order=order, p=p):
            need(res.series == floer.tower_series(0, None, order) and res.spin_c_count == p,
                 "lens space: one tower per spin-c structure")

        add(Call("hf-lens", lambda p=p, o=order: floer.hf_plus("lens", p=p, order=o), lens_ok))
        order = self._order("S2xS1-hf", range(4, 200))

        def s2_ok(res, order=order):
            ref = (floer.tower_series(Fraction(-1, 2), None, order)
                   + floer.tower_series(Fraction(1, 2), None, order))
            need(res.series == ref, "S2xS1: towers at -1/2 and +1/2")

        add(Call("hf-S2xS1", lambda o=order: floer.hf_plus("S2xS1", order=o), s2_ok))
        gh = self._order("sigma-gh", [(g, h) for g in range(2, 12) for h in range(1, g)])

        def sigma_ok(res, g=gh[0], h=gh[1]):
            d = g - 1 - h
            need(res.rank == sum(comb(2 * g, i) * (d + 1 - i) for i in range(d + 1)),
                 "circle-bundle rank formula")

        add(Call("hf-sigma", lambda g=gh[0], h=gh[1]: floer.hf_plus("SigmaGxS1", g=g, h=h),
                 sigma_ok))
        genus = self._order("hn", range(2, 30))

        def hn_ok(coeffs, genus=genus):
            need(len(coeffs) == 6 * genus - 5 and coeffs == coeffs[::-1]
                 and all(c >= 0 and c.denominator == 1 for c in coeffs),
                 "moduli Poincare polynomial: degree 6g-6, palindromic, nonnegative")
            need(genus != 2 or coeffs == [1, 0, 1, 4, 1, 0, 1], "g=2 moduli polynomial")

        add(Call("hn", lambda g=genus: floer.hn_poincare(g), hn_ok))
        order = self._order("molien", range(4, 120))
        add(Call("molien", lambda o=order: floer.molien_su2_adjoint(order=o),
                 lambda s, o=order: need(s == floer.tower_series(0, None, o + Fraction(1, 2)),
                                         "invariants of Sym(adjoint) = 1/(1-t^2)")))
        for g in (1, 2, 3):
            weight, order = self._order(("superspace", g),
                                        [(w, o) for w in "txy" for o in range(4, 10)])

            def ss_ok(series, g=g):
                need(series.coefficient({}) == 1, "character starts at 1")
                _integer_coeffs(series)
                # the product formula at a small point; truncation error ~ 0.05^order
                v = 0.05
                product = ((1 + v) ** (2 * g) * (1 + v) * (1 + v) / (1 - v) ** g
                           * (1 + v) ** g / (1 - v) * (1 + v) ** g / (1 - v))
                value = series.evaluate({k: v for k in series.variables})
                need(abs(value - product) <= 1e-3 * product, "character = product formula")

            add(Call(f"superspace-g{g}",
                     lambda g=g, w=weight, o=order: floer.superspace_character(
                         g, floer.standard_superspace_factors(g, {w: 1}), order=o),
                     ss_ok))
        order = self._order("conjecture", range(4, 200))

        def conj_ok(rep, order=order):
            coeffs = rep["series"].coefficients_of("t")
            need(coeffs == {Fraction(k): (4 if k == 0 else 1) for k in range(0, order, 2)},
                 "conjectural Sigma(2,3,7) series: tower plus 3 classes in degree 0")

        add(Call("conjecture", lambda o=order: floer.conjecture_series("Sigma237", order=o),
                 conj_ok))

    def _cli(self, add):
        order = self._order("cli-R2", range(5, 25))
        argv = ["verlinde", "--g", "2", "--limit", "R2", "--order", str(order), "--json"]

        def r2_ok(result):
            s = PuiseuxSeries.from_json_dict(cli_json(result)["series"])
            need([s.coefficient({"x": k}) for k in range(5)] == R2_G2, "R2 g=2 via CLI")
            _integer_coeffs(s, nonnegative=True)

        add(Call("cli-R2", lambda: run_cli(argv), r2_ok, cli=True))
        p = next(self.fresh) % 89 + 2
        order = self._order("cli-lens", range(4, 200))
        argv2 = ["floer", "--hf", f"lens:{p}", "--order", str(order), "--json"]

        def lens_ok(result, order=order, p=p):
            rep = cli_json(result)
            need(rep["spin_c_count"] == p, "lens spin-c count via CLI")
            _series_equal(rep["series"], floer.tower_series(0, None, order))

        add(Call("cli-lens", lambda: run_cli(argv2), lens_ok, cli=True))


# ----------------------------------------------------------------------
# brst_closure


def all_zero(result):
    rep = cli_json(result)
    need(rep["checks"] and all(c["exact_zero"] for c in rep["checks"]),
         "every reported residual exactly zero")


def covariant_closes(result):
    rep = cli_json(result)
    need(rep["calibration"]["calibrated"] and len(rep["checks"]) == 3
         and all(c["exact_zero"] for c in rep["checks"]),
         "covariant calibrates and closes exactly via the CLI")


class BrstClosure(Workload):
    """Sign calibration and exact closure on all four shipped tables.

    The per-rule toggle search is left out: every shipped table calibrates
    at stage `identity-toggles`, so real use never reaches it.
    """

    name = "brst_closure"
    STATES = {"abelian": 2, "nonabelian": 2, "covariant": 4, "threed": 1}
    # threed's pairs are already checked by its calibration, on three fresh
    # seeded states every pass; separate checks would only repeat that cost.
    SEPARATE_CLOSURE = ("abelian", "nonabelian", "covariant")

    def readme(self):
        # The README's threed `--check all --calibrate --strict` command takes
        # 7 s even at --states 1; its flags run here on the covariant table,
        # and re-check seed 0 after calibrating on seeds 0-2 as the README does.
        return [(["brst", "--table", "abelian", "--check", "Q2", "--json"], all_zero, True),
                (["brst", "--table", "covariant", "--check", "all", "--calibrate", "--strict",
                  "--states", "1", "--json"], covariant_closes, True)]

    def _operators(self, table):
        if table.rules[("Q", "A")].op_letter:
            return [(fam, a) for fam in table.families for a in (1, 2)]
        return ["Q"]        # the second differential lacks printed rules for 3 fields

    def next_pass(self):
        calls = []
        add = calls.append
        for name in TABLES:
            table = brst.get_table(name)
            seeds = (next(self.fresh), next(self.fresh), next(self.fresh))
            conv_box = {}

            def cal_ok(result, box=conv_box):
                conv, report = result
                need(report["calibrated"] and report["stage"] == "identity-toggles",
                     "table calibrates with identity toggles")
                box["conv"] = conv

            add(Call(f"calibrate-{name}", lambda n=name, s=seeds: brst.calibrate_signs(n, seeds=s),
                     cal_ok))
            for k in range(self.STATES[name]):
                self._state_calls(add, name, table, k, conv_box)
        seed = next(self.fresh)
        argv = ["brst", "--table", "abelian", "--check", "all", "--strict", "--states", "2",
                "--seed", str(seed), "--json"]
        add(Call("cli-abelian", lambda a=argv: run_cli(a), all_zero, cli=True))
        return calls

    def _state_calls(self, add, name, table, k, conv_box):
        seed = next(self.fresh)
        box = {}

        def state_ok(state):
            need(sorted(state.values) == sorted(table.state_keys()) and state.n_generators > 0,
                 "random state covers every field component")
            box["state"] = state

        add(Call(f"state-{name}{k}", lambda: brst.random_state(table, seed=seed), state_ok))
        for op in self._operators(table):
            def q_ok(image, op=op):
                for key, value in image.values.items():
                    parity = table.fields[key[0]].parity ^ 1
                    need(all(bin(m).count("1") % 2 == parity for m in value.terms),
                         f"{op} flips the parity of {key[0]}")

            add(Call(f"apply_q-{name}{k}-{op}",
                     lambda op=op: brst.apply_q(box["state"], op, conv_box["conv"]), q_ok))
        for pair in brst.closure_pairs(table) if name in self.SEPARATE_CLOSURE else ():
            add(Call(f"closure-{name}{k}-{pair}",
                     lambda pair=pair: brst.check_closure(box["state"], pair, conv_box["conv"]),
                     lambda rep: need(rep["exact_zero"], "closure residual exactly zero")))
        if name in ("abelian", "nonabelian"):
            # criterion 8: abelian Q^2 = 0; nonabelian zero-form sector up to gauge
            param, fields = (None, None) if name == "abelian" else (
                "phi", {"phi", "phibar", "C", "eta", "zeta"})
            add(Call(f"q2-{name}{k}",
                     lambda: brst.q_squared_residual(box["state"], "Q", conv_box["conv"],
                                                     param_field=param, fields=fields),
                     lambda res: need(all(v.is_zero() for v in res.values()),
                                      "Q^2 residual exactly zero")))
        if "Qbar" in table.families:
            # nonzero entries, so every pass composes all 16 operator pairs
            s = (self.rng.choice(NONZERO), self.rng.choice(NONZERO))
            r = (self.rng.choice(NONZERO), self.rng.choice(NONZERO))
            add(Call(f"twistor-{name}{k}",
                     lambda: brst.check_twistor(box["state"], s, r, conv_box["conv"]),
                     lambda rep: need(rep["exact_zero"], "twistor residual exactly zero")))


WORKLOADS = {w.name: w for w in (BetheSweep, QSeries, ClosedForms, BrstClosure)}
