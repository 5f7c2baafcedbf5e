"""Which vw3d functions the traced run wraps, and the per-layer metrics.

Layer names follow the modules of `src/vw3d`.  Metrics are reported per
complete traced pass, so they do not depend on how many passes fit in a run.
"""

from __future__ import annotations

import inspect
from fractions import Fraction

from tracer import Tracer

import vw3d
from vw3d import bethe, brst, cli, elliptic, floer, grassmann, ratexpr, roots, series
from vw3d.series import ExactComplex, PuiseuxSeries

MODULES = (vw3d, series, ratexpr, roots, bethe, elliptic, floer, grassmann, brst, cli)

# Layers each workload must exercise; a traced run fails if one of these
# spans (or counters) records zero calls.
EXPECTED = {
    "bethe_sweep": ("ratexpr.eval", "roots.poly_roots", "bethe.build_bethe",
                    "bethe.admissible_roots", "bethe.s_squared", "cli.main"),
    "qseries": ("series.mul", "series.invert", "series.pow", "series.substitute_power",
                "series.coeff_mul", "series.scale_by_zero", "elliptic.g_series",
                "elliptic.eta24_series", "elliptic.z_vw_kahler", "elliptic.gluing_check",
                "cli.main"),
    "closed_forms": ("series.mul", "series.invert", "series.pow", "series.coeff_mul",
                     "ratexpr.expand", "bethe.closed_form_series", "floer", "cli.main"),
    "brst_closure": ("grassmann.mul", "grassmann.lie_bracket", "brst.apply_q",
                     "brst.check_closure", "brst.calibrate_signs", "series.coeff_mul",
                     "cli.main"),
}

TABLES = ("abelian", "nonabelian", "covariant", "threed")

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("series.mul.calls", "calls/pass"),
    ("series.mul.self_s", "s/pass"),
    ("series.mul.terms_out", "terms/pass"),
    ("series.invert.calls", "calls/pass"),
    ("series.invert.self_s", "s/pass"),
    ("series.pow.self_s", "s/pass"),
    ("series.substitute_power.self_s", "s/pass"),
    ("series.coeff_mul.calls", "calls/pass"),
    ("series.scale_by_zero.calls", "calls/pass"),
    ("ratexpr.expand.calls", "calls/pass"),
    ("ratexpr.expand.self_s", "s/pass"),
    ("ratexpr.eval.calls", "calls/pass"),
    ("ratexpr.eval.self_s", "s/pass"),
    ("roots.poly_roots.calls", "calls/pass"),
    ("roots.poly_roots.self_s", "s/pass"),
    ("roots.poly_roots.calls_per_point", "calls/point"),
    ("bethe.build_bethe.self_s", "s/pass"),
    ("bethe.admissible_roots.self_s", "s/pass"),
    ("bethe.s_squared.calls", "calls/pass"),
    ("bethe.s_squared.self_s", "s/pass"),
    ("bethe.closed_form_series.self_s", "s/pass"),
    ("elliptic.g_series.calls", "calls/pass"),
    ("elliptic.g_series.distinct_frac", "frac"),
    ("elliptic.eta24_series.calls", "calls/pass"),
    ("elliptic.z_vw_kahler.self_s", "s/pass"),
    ("elliptic.gluing_check.self_s", "s/pass"),
    ("floer.calls", "calls/pass"),
    ("floer.self_s", "s/pass"),
    ("grassmann.mul.calls", "calls/pass"),
    ("grassmann.mul.self_s", "s/pass"),
    ("grassmann.lie_bracket.calls", "calls/pass"),
    ("grassmann.lie_bracket.self_s", "s/pass"),
    ("brst.apply_q.calls", "calls/pass"),
    ("brst.apply_q.self_s", "s/pass"),
    ("brst.check_closure.calls", "calls/pass"),
    ("brst.check_closure.self_s", "s/pass"),
    ("brst.check_closure.distinct_frac", "frac"),
    ("brst.calibrate_signs.self_s", "s/pass"),
    ("brst.calibrate.checks_per_call", "checks/call"),
) + tuple((f"brst.calibrate.checks_per_call.{t}", "checks/call") for t in TABLES) + (
    ("cli.main.self_s", "s/pass"),
    ("cli.json_bytes", "bytes/pass"),
    ("trace.overhead_frac", "frac"),
)


# Metrics read from counters rather than span aggregates.
COUNTERS = {
    "series.coeff_mul.calls": "series.coeff_mul",
    "series.scale_by_zero.calls": "series.scale_by_zero",
    "series.mul.terms_out": "series.mul.terms_out",
    "cli.json_bytes": "cli.json_bytes",
}


def _is_scalar(value):
    return isinstance(value, (int, Fraction, ExactComplex, complex))


_CLOSURE_SIGNATURE = inspect.signature(brst.check_closure)


def _state_key(state):
    return (state.table.name, hash(frozenset(state.values.items())))


def _conv_key(conv):
    # `calibrated` only labels a convention; it does not change a check.
    return (conv.rule_signs, conv.sigma, conv.gauge_includes_i, conv.da_coef)


def _closure_key(args, kwargs):
    bound = _CLOSURE_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    conv = a["conv"] or brst.default_convention(a["state"].table)
    fields = None if a["fields"] is None else tuple(sorted(a["fields"]))
    return (_state_key(a["state"]), repr(a["pair"]), _conv_key(conv), fields)


def make_tracer():
    """A Tracer with every layer function registered (not yet installed)."""
    t = Tracer()

    def mul_before(args, kwargs):
        if len(args) > 1 and _is_scalar(args[1]) and args[1] == 0:
            t.counters["series.scale_by_zero"] += 1

    def mul_after(token, result, args, kwargs):
        t.counters["series.mul.terms_out"] += len(result.terms)

    t.span_wrapper("series.mul", PuiseuxSeries.__mul__, mul_before, mul_after)
    t.span_wrapper("series.invert", PuiseuxSeries.invert)
    t.span_wrapper("series.pow", PuiseuxSeries.__pow__)
    t.span_wrapper("series.substitute_power", PuiseuxSeries.substitute_power)
    t.counter_wrapper("series.coeff_mul", ExactComplex.__mul__)

    for cls in (ratexpr.Const, ratexpr.Var, ratexpr.Add, ratexpr.Sub, ratexpr.Mul,
                ratexpr.Div, ratexpr.Pow, ratexpr.HalfPow):
        t.span_wrapper("ratexpr.expand", vars(cls)["expand"])
        t.span_wrapper("ratexpr.eval", vars(cls)["eval"])

    t.span_wrapper("roots.poly_roots", roots.poly_roots)

    t.span_wrapper("bethe.build_bethe", bethe.build_bethe)
    t.span_wrapper("bethe.admissible_roots", bethe.admissible_roots)
    t.span_wrapper("bethe.s_squared", bethe.s_squared)
    t.span_wrapper("bethe.closed_form_series", bethe.grdim_closed_form)
    t.span_wrapper("bethe.closed_form_series", bethe.limit_specialize)
    for name in ("point_report", "sweep_report", "asymptotics_check"):
        t.span_wrapper(f"bethe.{name}", getattr(bethe, name))

    def g_before(args, kwargs):
        t.distinct["elliptic.g_series"].add(args[0] if args else kwargs.get("order", 20))

    t.span_wrapper("elliptic.g_series", elliptic.g_series, g_before)
    t.span_wrapper("elliptic.eta24_series", elliptic.eta24_series)
    t.span_wrapper("elliptic.z_vw_kahler", elliptic.z_vw_kahler)
    t.span_wrapper("elliptic.gluing_check", elliptic.gluing_check)
    t.span_wrapper("elliptic.sw_data_en", elliptic.sw_data_en)

    for name in floer.__all__:
        obj = getattr(floer, name)
        if inspect.isfunction(obj):
            t.span_wrapper("floer", obj)

    t.span_wrapper("grassmann.mul", grassmann.grassmann_mul)
    t.span_wrapper("grassmann.lie_bracket", grassmann.lie_bracket)

    t.span_wrapper("brst.apply_q", brst.apply_q)

    def closure_before(args, kwargs):
        t.distinct["brst.check_closure"].add(_closure_key(args, kwargs))

    t.span_wrapper("brst.check_closure", brst.check_closure, closure_before)

    def calibrate_before(args, kwargs):
        return t.calls["brst.check_closure"]

    def calibrate_after(checks_before, result, args, kwargs):
        table = args[0] if args else kwargs["table_name"]
        t.counters[f"brst.calibrate.checks.{table}"] += t.calls["brst.check_closure"] - checks_before
        t.counters[f"brst.calibrate.calls.{table}"] += 1

    t.span_wrapper("brst.calibrate_signs", brst.calibrate_signs, calibrate_before, calibrate_after)
    for name in ("get_table", "random_state", "default_convention", "closure_pairs",
                 "q_squared_residual", "check_twistor", "gauge_variation"):
        t.span_wrapper(f"brst.{name}", getattr(brst, name))

    t.span_wrapper("cli.main", cli.main)
    return t


def namespaces():
    """Every module and class dictionary a traced function may be bound in."""
    out = list(MODULES)
    out += [PuiseuxSeries, ExactComplex]
    out += [cls for cls in vars(ratexpr).values()
            if inspect.isclass(cls) and issubclass(cls, ratexpr.RationalExpr)]
    return out


def layer_metrics(snap, passes, overhead_frac):
    """Per-layer metrics from a tracer snapshot over `passes` traced passes."""
    calls, self_s, counters, distinct = (snap["calls"], snap["self_s"],
                                         snap["counters"], snap["distinct"])
    per = 1.0 / passes
    out = {}
    for metric, unit in PER_LAYER:
        name, _, stat = metric.rpartition(".")
        if metric == "roots.poly_roots.calls_per_point":
            points = calls.get("bethe.build_bethe", 0)
            value = calls.get("roots.poly_roots", 0) / points if points else 0.0
        elif metric == "trace.overhead_frac":
            value = overhead_frac
        elif metric.startswith("brst.calibrate.checks_per_call"):
            tables = TABLES if metric.endswith("per_call") else (metric.rsplit(".", 1)[1],)
            n = sum(counters.get(f"brst.calibrate.calls.{tb}", 0) for tb in tables)
            checks = sum(counters.get(f"brst.calibrate.checks.{tb}", 0) for tb in tables)
            value = checks / n if n else 0.0
        elif stat == "distinct_frac":
            n = calls.get(name, 0)
            value = distinct.get(name, 0) / n if n else 1.0
        elif metric in COUNTERS:
            value = counters.get(COUNTERS[metric], 0) * per
        elif stat == "self_s":
            value = self_s.get(name, 0.0) * per
        else:
            value = calls.get(name, 0) * per
        out[metric] = {"value": value, "unit": unit}
    return out


def missing_layers(workload, snap):
    """Expected layers that saw zero calls in the traced passes."""
    seen = dict(snap["calls"])
    seen.update(snap["counters"])
    return [name for name in EXPECTED[workload] if not seen.get(name)]
