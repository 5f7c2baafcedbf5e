"""Command-line front end with reproducible JSON reports.

Subcommands expose the four engines: `verlinde` (Bethe pipeline, closed-form
series, equivariant limits, asymptotics), `elliptic` (E(n) q-series and the
gluing comparison), `floer` (graded-series catalog), and `brst` (closure
residuals and sign calibration).  JSON is the stable contract; text output is
cosmetic.  Exit codes: 0 success, 2 precondition violation, 3 numerical
failure, 4 nonzero closure residual under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import cache

from . import bethe, brst, elliptic, floer

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_RESIDUAL = 4


def _order(args):
    """--order, else $VW3D_ORDER, else 20; at least 1 for every subcommand."""
    order = args.order
    if order is None:
        raw = os.environ.get("VW3D_ORDER", "20")
        try:
            order = int(raw)
        except ValueError:
            raise ValueError(f"VW3D_ORDER must be an integer, got {raw!r}") from None
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    return order


def _given(args, names):
    """The flags among `names` given on the command line (not None, not False), as "--name"."""
    return [f"--{n}" for n in names if (v := getattr(args, n)) is not None and v is not False]


# ----------------------------------------------------------------------
# verlinde

def _cmd_verlinde(args, order):
    mode = _given(args, ("sweep", "limit", "series", "asymptotics"))
    stray = _given(args, ("x", "y", "t"))
    if mode and stray and (args.sweep is None or args.sweep > 0):  # sweep_report rejects < 1 point
        raise ValueError(f"{' '.join(stray)} not allowed with {mode[0]} (point mode only)")
    if args.sweep is not None:
        start = time.monotonic()
        rep = bethe.sweep_report(args.sweep, seed=args.seed)
        report = {"mode": "sweep", **rep}
        lines = [f"# stability sweep over {args.sweep} seeded points",
                 f"ok={rep['ok']} max_weyl_residual={rep['max_weyl_residual']:.3e} "
                 f"max_multiset_rel_error={rep['max_multiset_rel_error']:.3e} "
                 f"elapsed={time.monotonic() - start:.2f}s"]
        return report, lines, EXIT_OK if rep["ok"] else EXIT_NUMERICAL
    if args.limit:
        series = bethe.limit_specialize(args.limit, args.g, order=order)
        report = {"mode": f"limit-{args.limit}", "g": args.g, "series": series.to_json_dict()}
        return report, ["# limit {} (g={})".format(args.limit, args.g),
                        series.to_text()], EXIT_OK
    if args.series:
        if args.g == 0:
            series = bethe.grdim_closed_form("S2xS1", order=order)
        else:
            series = bethe.grdim_closed_form("SigmaGxS1", order=order, g=args.g)
        report = {"mode": "series", "g": args.g, "series": series.to_json_dict()}
        return report, ["# graded dimension series (g={})".format(args.g),
                        series.to_text()], EXIT_OK
    if args.asymptotics:
        rep = bethe.asymptotics_check(args.g, args.a, args.b)
        report = {"mode": "asymptotics", **rep}
        lines = [f"# asymptotics g={args.g} path a={args.a} b={args.b}"]
        for e in rep["entries"]:
            lines.append(f"eps={e['eps']:g} value={e['value']:.10g} "
                         f"target={e['target']:.10g} ratio={e['ratio']:.10g}")
        return report, lines, EXIT_OK
    if args.x is None or args.y is None or args.t is None:
        raise ValueError("value mode needs --x --y --t")
    params = {"x": args.x, "y": args.y, "t": args.t}
    rep = bethe.point_report(params, genera=(0, 1, args.g))
    report = {"mode": "point", **rep}
    value = rep["verlinde"][str(args.g)]
    lines = ["# Bethe pipeline at x={x} y={y} t={t}".format(**params),
             "roots: " + " ".join(f"{z[0]:+.6f}{z[1]:+.6f}i" for z in rep["roots"]),
             f"admissible: {len(rep['admissible'])}",
             "S^2 values: " + " ".join(f"{v[0]:+.8f}" for v in rep["s_squared"]),
             f"verlinde(g={args.g}) = {value[0]:.12g}" +
             (f" + {value[1]:.3g}i" if abs(value[1]) > 1e-9 else "")]
    return report, lines, EXIT_OK


# ----------------------------------------------------------------------
# elliptic

def _cmd_elliptic(args, order):
    if args.n < 2 or args.n % 2:
        raise ValueError("surface index n must be even and >= 2")
    series = elliptic.z_vw_kahler(elliptic.sw_data_en(args.n), order=order)
    report = {"surface": f"E({args.n})", "n": args.n, "order": order,
              "series": series.to_json_dict()}
    lines = [f"# Z_VW(E({args.n})) through q^{order}", series.to_text()]
    if args.gluing:
        gl = elliptic.gluing_check(args.n, order=order)
        report["gluing"] = gl
        lines.append(f"gluing: equal={gl['equal']} "
                     f"first_differing_exponent={gl['first_differing_exponent']}")
    return report, lines, EXIT_OK


# ----------------------------------------------------------------------
# floer

def _parse_hf(text):
    if text in ("S2xS1", "s2xs1"):
        return ("S2xS1", {})
    kind, _, values = text.partition(":")
    kind = kind.lower()
    try:
        if kind == "lens":
            return ("lens", {"p": int(values)})
        if kind == "sigma":
            g, h = (int(v) for v in values.split(","))
            return ("SigmaGxS1", {"g": g, "h": h})
    except ValueError:
        form = "lens:p" if kind == "lens" else "sigma:g,h"
        raise ValueError(f"bad manifold {text!r}: expected {form} with integers") from None
    raise ValueError(f"unknown manifold {text!r} "
                     "(use S2xS1, lens:p, or sigma:g,h)")


def _cmd_floer(args, order):
    if args.conjecture and (mode := _given(args, ("hf", "molien", "hn"))):
        raise ValueError(f"--conjecture not allowed with {mode[0]} (--brieskorn only)")
    if args.molien:
        series = floer.molien_su2_adjoint(order=order)
        report = {"manifold": "S3 local observables", "series": series.to_json_dict()}
        dims = [int(str(series.coefficient({"t": n}).re)) for n in range(order + 1)]
        return report, ["# invariant dimensions of Sym^n(adjoint)",
                        ",".join(str(d) for d in dims)], EXIT_OK
    if args.hn is not None:
        coeffs = floer.hn_poincare(args.hn)
        report = {"manifold": f"Bun_SL2(Sigma_{args.hn})",
                  "coefficients": [str(c) for c in coeffs]}
        return report, ["# rank-2 moduli Poincare polynomial",
                        " + ".join(f"{c}t^{k}" for k, c in enumerate(coeffs) if c)], EXIT_OK
    if args.brieskorn:
        datum = floer.brieskorn(args.brieskorn)
        report = {"manifold": datum.name,
                  "instanton_ranks": {str(k): v for k, v in datum.instanton_ranks.items()},
                  "hp_rank": datum.hp_rank,
                  "flat_connections": list(datum.flat_connection_counts)}
        lines = [f"# {datum.name}", f"instanton ranks: {datum.instanton_ranks}",
                 f"sheaf-model rank: {datum.hp_rank}"]
        if args.conjecture:
            conj = floer.conjecture_series(args.brieskorn, order=order)
            report["conjecture"] = {"series": conj["series"].to_json_dict(),
                                    "conjectural": True}
            lines += ["conjectural graded dimension:", conj["series"].to_text()]
        return report, lines, EXIT_OK
    if args.hf:
        kind, kwargs = _parse_hf(args.hf)
        result = floer.hf_plus(kind, order=order, **kwargs)
        report = {"manifold": result.manifold,
                  "series": result.series.to_json_dict(),
                  "rank": result.rank,
                  "relative_grading": result.relative_grading,
                  "spin_c_count": result.spin_c_count}
        lines = [f"# HF+ of {result.manifold}"
                 + (" (relative grading)" if result.relative_grading else ""),
                 result.series.to_text()]
        if result.spin_c_count is not None and result.spin_c_count > 1:
            lines.append(f"spin-c structures: {result.spin_c_count} "
                         "(series shown per structure)")
        if result.rank is not None:
            lines.append(f"total rank: {result.rank}")
        return report, lines, EXIT_OK
    raise ValueError("choose one of --hf/--molien/--hn/--brieskorn")


# ----------------------------------------------------------------------
# brst

def _cmd_brst(args, order):
    if args.states < 1:
        raise ValueError("--states must be at least 1")
    table = brst.get_table(args.table)
    report = {"table": args.table, "checks": []}
    lines = [f"# closure checks on table {args.table}"]
    if args.calibrate:
        conv, cal = brst.calibrate_signs(args.table)
        report["calibration"] = cal
        lines.append(f"calibration: calibrated={cal['calibrated']} stage={cal['stage']}")
        if cal["failing_rules"]:
            lines.append("failing rules: " + ", ".join(cal["failing_rules"]))
    else:
        conv = brst.default_convention(table)
    q2 = ("Q", "phi") in table.rules and table.fields["phi"].indices == 0
    twistor = "Qbar" in table.families
    if args.check == "Q2" and not q2 or args.check == "twistor" and not twistor:
        raise ValueError(f"table {args.table} has no {args.check} check")
    run_q2 = q2 and args.check in ("Q2", "all")
    for state_index in range(args.states):
        state = brst.random_state(table, seed=args.seed + state_index)
        if run_q2:
            param = None if table.algebra == "u1" else "phi"
            rep = brst.q_squared_residual(state, "Q", conv, param_field=param)
            report["checks"].append(
                {"kind": "Q2", "state": state_index, **brst.residual_report(rep)})
        if args.check in ("closure", "all"):
            for pair in brst.closure_pairs(table):
                if pair == ("Q", "Q") and run_q2:
                    continue  # the Q2 check of this run covers it
                rep = brst.check_closure(state, pair, conv)
                rep["state"] = state_index
                report["checks"].append(rep)
        if args.check in ("twistor", "all") and twistor:
            rep = brst.check_twistor(state, (1, 2), (3, 1), conv)
            rep["state"] = state_index
            report["checks"].append(rep)
    for entry in report["checks"]:
        tag = entry.get("pair") or entry.get("kind") or "twistor"
        lines.append(f"state {entry.get('state', 0)} {tag}: "
                     f"exact_zero={entry['exact_zero']}")
    closed = all(entry["exact_zero"] for entry in report["checks"])
    return report, lines, EXIT_RESIDUAL if args.strict and not closed else EXIT_OK


# ----------------------------------------------------------------------
# top level

def _finite_float(text):
    """Type of the real-valued flags: nan, inf or a non-number exits 2 naming the flag."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


@cache
def build_parser():
    """The argument parser, built once per process.

    Parsing leaves no state on the parser: each call returns a fresh
    namespace, and defaults such as `_order`'s $VW3D_ORDER are read later.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--order", type=int, default=None,
                        help="series truncation order (default 20 or $VW3D_ORDER)")
    common.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="vw3d",
        description="graded dimensions of three-manifold gauge-theory state "
                    "spaces, elliptic-surface q-series, and BRST checks")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verlinde", parents=[common],
                        help="Bethe pipeline and closed forms")
    pv.add_argument("--g", type=int, default=0)
    pv.add_argument("--x", type=_finite_float)
    pv.add_argument("--y", type=_finite_float)
    pv.add_argument("--t", type=_finite_float)
    mode = pv.add_mutually_exclusive_group()
    mode.add_argument("--series", action="store_true")
    mode.add_argument("--sweep", type=int, metavar="N",
                      help="stability sweep over N seeded parameter points")
    mode.add_argument("--limit", choices=("R2", "R0"))
    mode.add_argument("--asymptotics", action="store_true")
    pv.add_argument("--a", type=_finite_float, default=-2.0)
    pv.add_argument("--b", type=_finite_float, default=-1.0)

    pe = sub.add_parser("elliptic", parents=[common], help="E(n) partition q-series")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--gluing", action="store_true")

    pf = sub.add_parser("floer", parents=[common], help="graded series catalog")
    manifold = pf.add_mutually_exclusive_group()
    manifold.add_argument("--hf")
    manifold.add_argument("--molien", action="store_true")
    manifold.add_argument("--hn", type=int)
    manifold.add_argument("--brieskorn", choices=("P", "Sigma237"))
    pf.add_argument("--conjecture", action="store_true")

    pb = sub.add_parser("brst", parents=[common], help="closure residual reports")
    pb.add_argument("--table", required=True,
                    choices=("abelian", "nonabelian", "covariant", "threed"))
    pb.add_argument("--check", default="all",
                    choices=("Q2", "closure", "twistor", "all"))
    pb.add_argument("--states", type=int, default=3)
    pb.add_argument("--strict", action="store_true")
    pb.add_argument("--calibrate", action="store_true")
    return parser


# Each handler takes (args, order) and returns (report, text lines, exit code);
# `main` adds the report's `config` block and prints one of the two forms.
_HANDLERS = {
    "verlinde": _cmd_verlinde,
    "elliptic": _cmd_elliptic,
    "floer": _cmd_floer,
    "brst": _cmd_brst,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        order = _order(args)
        report, lines, code = _HANDLERS[args.command](args, order)
    except (ValueError, KeyError) as exc:
        # str() of a KeyError (RuleMissingError too) is the repr of its
        # argument: print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ArithmeticError as exc:
        # every numerical error of the package (PoleError, BranchError,
        # RootConvergenceError, DegenerateParameterError) is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report["config"] = {"command": args.command, "order": order, "seed": args.seed,
                        "parameters": {k: v for k, v in sorted(vars(args).items())
                                       if k not in ("command", "json") and v is not None}}
    print(json.dumps(report, sort_keys=True, indent=2) if args.json else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
