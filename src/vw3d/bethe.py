"""Bethe-vacua pipeline for graded dimensions of circle bundles over surfaces.

For gauge group SU(2) with three adjoint Higgs sectors of R-charges (2, 0, 0)
and equivariant parameters (x, y, t), the saddle equation in the single torus
variable z is

    (t - z^2)^2 (x - z^2)^2 (y - z^2)^2 = (t z^2 - 1)^2 (x z^2 - 1)^2 (y z^2 - 1)^2

Clearing denominators gives a degree-12 polynomial whose admissible solutions
(z not fixed by the Weyl reflection z -> 1/z, i.e. z != +-1) label the ten
vacua.  In w = z^2 it factors exactly,

    P(w) = (1 - (txy)^2) (w^2 - 1) (w^2 - u_- w + 1) (w^2 - u_+ w + 1),

with u_- = -(txy - tx - ty - t - xy - x - y + 1)/(txy + 1) and
u_+ = (txy + tx + ty - t + xy - x - y - 1)/(txy - 1), so the vacua are
z = +-i and z = (+-sqrt(u+2) +- sqrt(u-2))/2 for u in {u_-, u_+}: closed
forms with exact rational radicands, no root search.  Each vacuum carries a
one-loop weight S^2 assembled from the dilaton, gauge and
superpotential-Hessian factors, and the genus-g graded dimension is the sum
of S^{2-2g} over the ten vacua.  The factor a vacuum is a root of fixes its
closed-form class: the four roots of the u_- quadratic are S06, the four of
the u_+ quadratic S02 and z = +-i the two S00 vacua.

Closed forms for the weights (generic, the x=y specialization, the g=0 sum
and its y=x simplification) are provided as RationalExpr trees for direct
evaluation and exact series expansion.  Each tree builder runs once per
process, on its first call, and hands the same trees to every caller, who
must not mutate them.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .ratexpr import EPS_POLE, T, X, Y, Const, PoleError, common_quotients, rational_eval
from .roots import poly_roots, root_key
from .series import SeriesError, _as_fraction, poly_mul

__all__ = [
    "BetheSystem",
    "BetheRoot",
    "build_bethe",
    "saddle_coefficients",
    "admissible_roots",
    "s_squared",
    "s_squared_values",
    "verlinde_sum",
    "grdim_closed_form",
    "limit_specialize",
    "r2_limit_elements",
    "r0_limit_elements",
    "asymptotics_check",
    "s_elements_xy",
    "s_elements_generic",
    "s2s1_generic_expr",
    "s2xs1_closed_expr",
    "point_report",
    "sweep_report",
    "DegenerateParameterError",
]

# The vacuum classes in the order of the closed-form elements, with the
# number of vacua in each.
CLASS_LABELS = ("S00-class", "S02-class", "S06-class")
CLASS_MULTIPLICITIES = (2, 4, 4)

# The R-charge of the adjoint Higgs field of each equivariant parameter.
R_CHARGES = {"x": 2, "y": 0, "t": 0}


class DegenerateParameterError(ArithmeticError):
    """Parameters sit on a singular locus: vacua merge or leave the count of ten."""


@dataclass(frozen=True)
class BetheRoot:
    z: complex
    weyl_partner_index: int
    class_label: str


@dataclass(frozen=True)
class BetheSystem:
    """The exact parameters {x, y, t} and the exact (u_-, u_+) of the saddle
    polynomial's quadratic factors w^2 - u w + 1 in w = z^2."""

    params: dict
    traces: tuple


def build_bethe(params):
    """The exact Bethe data at (x, y, t): the parameters and the traces u+-.

    Parameters are positive reals away from {0, 1}, taken as exact rationals.
    The ten vacua are distinct exactly when txy != 1, u_- != 2 (merging with
    z = +-1), u_+ != -2 (merging with z = +-i) and u_- != u_+, i.e.
    (tx-1)(ty-1)(xy-1) != 0; each is decided in exact arithmetic.  (u_- = -2
    and u_+ = 2 would need a parameter equal to -1 or 1.)
    """
    x, y, t = (_as_fraction(params[k]) for k in ("x", "y", "t"))
    for name, p in (("x", x), ("y", y), ("t", t)):
        if p <= 0:
            raise ValueError(f"parameter {name}={p} must be positive")
        if p == 1:
            raise DegenerateParameterError(f"parameter {name}={p} on a singular locus")
    txy = t * x * y
    if txy == 1:
        raise DegenerateParameterError("leading coefficient vanishes (t*x*y = 1)")
    u_minus = -(txy - t * x - t * y - t - x * y - x - y + 1) / (txy + 1)
    u_plus = (txy + t * x + t * y - t + x * y - x - y - 1) / (txy - 1)
    if u_minus == 2:
        raise DegenerateParameterError("vacua merge with z = +-1 (u_- = 2)")
    if u_plus == -2:
        raise DegenerateParameterError("vacua merge with z = +-i (u_+ = -2)")
    if u_minus == u_plus:
        raise DegenerateParameterError("vacua merge pairwise ((tx-1)(ty-1)(xy-1) = 0)")
    return BetheSystem(params={"x": x, "y": y, "t": t}, traces=(u_minus, u_plus))


def saddle_coefficients(system):
    """The cleared degree-12 saddle polynomial in z, as ascending complex coefficients."""
    # In w = z^2: A(w) = prod (p - w), B(w) = prod (p w - 1); P = A^2 - B^2.
    a_poly = [Fraction(1)]
    b_poly = [Fraction(1)]
    for p in (system.params[k] for k in ("t", "x", "y")):
        a_poly = poly_mul(a_poly, [p, Fraction(-1)])
        b_poly = poly_mul(b_poly, [Fraction(-1), p])
    a2 = poly_mul(a_poly, a_poly)
    b2 = poly_mul(b_poly, b_poly)
    z_coeffs = []
    for ca, cb in zip(a2, b2):
        z_coeffs += [ca - cb, Fraction(0)]
    z_coeffs.pop()  # no z^13 slot
    return tuple(complex(c) for c in z_coeffs)


def admissible_roots(system):
    """The ten Weyl-paired admissible roots (z = +-1 excluded), in closed form.

    For each u, z = (sqrt(u+2) + sqrt(u-2))/2 has Weyl partner 1/z =
    2/(sqrt(u+2) + sqrt(u-2)), and -z, -1/z are the other pair; both
    square roots point into the same closed quadrant, so the sum never
    cancels.  Both members of each pair {z, 1/z} are kept; the genus sums
    below run over individual roots, not Weyl orbits.  Each root is labelled
    by the factor it solves (see the module docstring).  Roots come in the
    canonical (re, im) order.
    """
    vacua = []
    for name, u in zip(("u_-", "u_+"), system.traces):
        z = _finite(f"vacua of the {name} factor",
                    lambda: (cmath.sqrt(float(u + 2)) + cmath.sqrt(float(u - 2))) / 2)
        vacua += [z, 1 / z, -z, -1 / z]
    vacua += [1j, -1j]
    # vacua[i] and vacua[i ^ 1] are Weyl partners; vacua[i] solves factor i // 4
    origin = ("S06-class", "S02-class", "S00-class")  # u_-, u_+, w = -1
    order = sorted(range(10), key=lambda i: root_key(vacua[i]))
    rank = {i: k for k, i in enumerate(order)}
    return [BetheRoot(z=vacua[i], weyl_partner_index=rank[i ^ 1], class_label=origin[i // 4])
            for i in order]


def _dilaton_factor(name, p, w, r_charge):
    # Each linear factor is tested on its own: near (1, 1) the product is
    # far below EPS_POLE while no factor is near a pole.
    try:
        factors = (p - 1.0, p - w, p * w - 1.0)
        nearest = min(abs(f) for f in factors)
        if nearest < EPS_POLE:
            raise PoleError(f"dilaton factor of {name}: linear factor {nearest} below {EPS_POLE}")
        base = p ** 1.5 * w / (factors[0] * factors[1] * factors[2])
        if base != 0 and cmath.isfinite(base):
            return base ** (r_charge - 1)
    except OverflowError as exc:
        base = exc
    raise PoleError(f"dilaton factor of {name} = {p!r} left the float range (base {base})")


def s_squared(root, system):
    """One-loop weight S^2 at an admissible root.

    S^2 = [prod_sectors (p^{3/2} z^2 / ((p-1)(p-z^2)(p z^2-1)))^{R-1}]^{-1}
          * (1/z - z)^2
          / sum_sectors (4/(z^2 p^{-1} - 1) - 4/(z^2 p - 1))
    """
    z = root.z
    w = z * z
    dilaton = 1.0 + 0.0j
    hessian = 0.0 + 0.0j
    for name, r_charge in R_CHARGES.items():
        p = float(system.params[name])
        dilaton *= _dilaton_factor(name, p, w, r_charge)
        d1 = w / p - 1.0
        d2 = w * p - 1.0
        if min(abs(d1), abs(d2)) < EPS_POLE:
            raise PoleError("superpotential Hessian summand at a pole")
        hessian += 4.0 / d1 - 4.0 / d2
    gauge = (1.0 / z - z) ** 2
    if abs(hessian) < EPS_POLE:
        raise PoleError("vanishing superpotential Hessian")
    return (1.0 / dilaton) * gauge / hessian


def s_squared_values(system):
    return [s_squared(r, system) for r in admissible_roots(system)]


def verlinde_sum(g, params):
    """Sum of S^{2-2g} over the ten admissible vacua at the given point."""
    if g < 0:
        raise ValueError("genus must be a nonnegative integer")
    return _genus_total(g, s_squared_values(build_bethe(params)))


def _genus_total(g, weights):
    """Sum of w^(1-g) over the weights; a float overflow names the genus-g sum."""
    return _finite(f"genus-{g} sum of S^2 ** {1 - g}", lambda: sum(w ** (1 - g) for w in weights))


# ----------------------------------------------------------------------
# closed forms


@cache
def s_elements_xy():
    """The three squared weights at x = y, in (t, x).  Shared: do not mutate."""
    t32 = T ** Fraction(3, 2)
    bracket = T * (3 * X - 1) + X - 3
    s00 = t32 * (X + 1) / ((T ** 2 - 1) * bracket)
    s02 = t32 * (X - 1) ** 3 / (4 * (T - 1) * (T * X ** 2 - 1) * bracket)
    s06 = t32 * (X ** 2 - 1) / (4 * (T ** 2 - 1) * (T * X ** 2 + 1))
    return (s00, s02, s06)


@cache
def s_elements_generic():
    """The three squared weights at generic (x, y, t).  Shared: do not mutate."""
    t32 = T ** Fraction(3, 2)
    y32 = Y ** Fraction(3, 2)
    x32 = X ** Fraction(3, 2)
    bracket = T * (3 * X * Y + X + Y - 1) + X * (Y - 1) - Y - 3
    s00 = t32 * (X - 1) * (X + 1) ** 3 * y32 / (
        (T ** 2 - 1) * x32 * (Y ** 2 - 1) * bracket)
    s02 = t32 * (X - 1) ** 3 * y32 * (T * X - 1) * (X * Y - 1) / (
        4 * (T - 1) * x32 * (Y - 1) * (T * Y - 1) * (T * X * Y - 1) * bracket)
    s06 = t32 * (X ** 2 - 1) * y32 * (T * X - 1) * (X * Y - 1) / (
        4 * (T ** 2 - 1) * x32 * (Y ** 2 - 1) * (T * Y - 1) * (T * X * Y + 1))
    return (s00, s02, s06)


@cache
def s2s1_generic_expr():
    """Genus-0 sum at generic (x, y, t): the S^2 x S^1 graded dimension.
    Shared: do not mutate."""
    inner = X * (T * (X * Y * (T * (X ** 2 + X + 1) * Y - (T + 1) * X - X * Y)
                      + Y + 1) - X + Y - 1) - 1
    return (2 * T ** Fraction(3, 2) * (X - 1) * Y ** Fraction(3, 2) * inner) / (
        (T ** 2 - 1) * X ** Fraction(3, 2) * (Y ** 2 - 1) * (T * Y - 1)
        * (T ** 2 * X ** 2 * Y ** 2 - 1))


@cache
def s2xs1_closed_expr():
    """Genus-0 sum specialized to y = x, in (t, x).  Shared: do not mutate."""
    return 2 * T ** Fraction(3, 2) * (T * X ** 4 + 1) / (
        (1 - T ** 2) * (1 - T ** 2 * X ** 4))


@cache
def s3_elements():
    """1/(1 - t^2), the S^3 graded dimension, as a one-form sum.  Shared."""
    return (Const(1) / (1 - T ** 2),)


@cache
def s2xs1_elements():
    """`s2xs1_closed_expr` as a one-form sum.  Shared: do not mutate."""
    return (s2xs1_closed_expr(),)


@cache
def _factored(forms, variables):
    """The class elements `forms()` as `Factored`s, compiled on first use.

    The key is the builder itself: callers pass the module attribute, the
    builder's own cache wrapper, so one form set compiles once.
    """
    return tuple(e.factored(variables) for e in forms())


def _genus_sum(g, multiplicities, forms, variables, order):
    """Sum over vacuum classes of mult * S^{2-2g} for the elements `forms()`.

    Each element, compiled once per process to coeff * m * prod f^k, is raised
    to 1 - g by scaling its k's.  Classes whose terms share a denominator
    factor are added over one lcm, and each such shared factor is cancelled
    from the exact numerator as often as it divides it (at g = 0 the Hessian
    bracket of S00 and S02 goes); `common_quotients` has the rule.  Each group
    is then expanded once as a quotient of untruncated polynomials, which
    certifies the box of `order`; a short box raises `SeriesError`.
    """
    terms = [e ** (1 - g) * m for m, e in zip(multiplicities, _factored(forms, variables))]
    groups = [q.expand(variables, order) for q in common_quotients(terms)]
    if any(c < order * s.den for s in groups for c in s.cutoff):
        raise SeriesError(f"could not certify expansion to order {order}")
    return sum(s.truncate(order) for s in groups)


def grdim_closed_form(manifold, order=20, g=None):
    """Closed-form graded dimension series for the reference 3-manifolds.

    manifold: "S3", "S2xS1", or "SigmaGxS1" (with genus g); the surface case
    uses the x = y weights and the ten-vacua sum.  S3 and S2xS1 are one-form
    sums, expanded like the genus sums.
    """
    if manifold == "S3":
        return _genus_sum(0, (1,), s3_elements, ("t",), order)
    if manifold == "S2xS1":
        return _genus_sum(0, (1,), s2xs1_elements, ("t", "x"), order)
    if manifold == "SigmaGxS1":
        if g is None or g < 0:
            raise ValueError("SigmaGxS1 requires a genus g >= 0")
        return _genus_sum(g, CLASS_MULTIPLICITIES, s_elements_xy, ("t", "x"), order)
    raise ValueError(f"unknown manifold {manifold!r}")


# ----------------------------------------------------------------------
# limits


@cache
def r2_limit_elements():
    """Normalized weight limits for y -> 0, t -> 0 (printed convention).

    These are the rational functions the limit is conventionally quoted as;
    the derivation-consistent limits of (y t / x)^{3/2} S^2 are their
    negatives (see r2_series_elements), and the genus sums below use the
    derivation-consistent sign.  Shared: do not mutate.
    """
    return (
        (X - 1) * (X + 1) ** 3 / (X + 3),
        (X - 1) ** 3 / (4 * (X + 3)),
        (X ** 2 - 1) / 4,
    )


@cache
def r2_series_elements():
    """The R2 weights in the derivation-consistent sign.  Shared: do not mutate."""
    return tuple(Const(-1) * e for e in r2_limit_elements())


@cache
def r0_limit_elements():
    """Weights at x = y -> 0 with t fixed, in t.  Shared: do not mutate."""
    t32 = T ** Fraction(3, 2)
    return (
        t32 / ((1 - T ** 2) * (T + 3)),
        t32 / (4 * (1 - T) * (T + 3)),
        t32 / (4 * (1 - T ** 2)),
    )


def limit_specialize(mode, g, order=20):
    """Equivariant-Verlinde limits of the genus-g sum.

    mode "R2": y -> 0, t -> 0 after normalizing each weight by (y t / x)^{3/2};
    the five surviving vacua (one per Weyl pair, multiplicities 1, 2, 2) give a
    series in x.  mode "R0": x = y -> 0 at fixed t; series in t over the ten
    vacua (multiplicities 2, 4, 4).
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if mode == "R2":
        forms = r2_series_elements
        multiplicities = (1, 2, 2)
        variables = ("x",)
    elif mode == "R0":
        forms = r0_limit_elements
        multiplicities = CLASS_MULTIPLICITIES
        variables = ("t",)
    else:
        raise ValueError(f"unknown limit mode {mode!r}")
    return _genus_sum(g, multiplicities, forms, variables, order)


# ----------------------------------------------------------------------
# asymptotics near x = t = 1


def closed_form_value(g, x, t):
    """Genus-g sum via the x = y closed forms at a numeric point."""
    point = {"t": float(t), "x": float(x)}
    if g == 1:
        return 10.0
    total = 0.0j
    for mult, expr in zip(CLASS_MULTIPLICITIES, s_elements_xy()):
        total += mult * rational_eval(expr, point) ** (1 - g)
    return total


def asymptotics_check(g, a, b):
    """Ratio of the genus-g sum to its quoted near-(1,1) asymptotic form.

    Path (x, t) = (1 + a*eps, 1 + b*eps) with fixed a, b < 0, at eps = 1e-2,
    1e-3 and 1e-4.  Targets:
    g > 1: 4 * (8 (1-t)/(1-x))^{3g-3};  g = 1: 10;  g = 0: 1/((1-t)(1-t x^2)).
    """
    if g < 0:
        raise ValueError("genus must be a nonnegative integer")
    if a >= 0 or b >= 0:
        raise ValueError("path slopes a, b must be negative")
    entries = []
    for eps in (1e-2, 1e-3, 1e-4):
        x = 1 + a * eps
        t = 1 + b * eps
        value = _finite(f"genus-{g} closed form at eps={eps:g}", lambda: closed_form_value(g, x, t))
        target = _finite(f"asymptotic target at eps={eps:g}", lambda: (
            10.0 if g == 1 else 1.0 / ((1 - t) * (1 - t * x * x)) if g == 0
            else 4.0 * (8.0 * (1 - t) / (1 - x)) ** (3 * g - 3)), nonzero=True)
        ratio = _finite(f"ratio at eps={eps:g}", lambda: value / target)
        entries.append({
            "eps": eps,
            "x": x,
            "t": t,
            "value": _real_if_close(value),
            "target": target,
            "ratio": _real_if_close(ratio),
        })
    return {"g": g, "a": a, "b": b, "entries": entries}


def _finite(stage, compute, nonzero=False):
    """compute(); an overflow, a division by zero, inf or nan (or 0, if `nonzero`, as
    for a target that underflowed) is an OverflowError naming `stage`, and a
    PoleError is re-raised with `stage` in front."""
    try:
        value = compute()
        if cmath.isfinite(value) and (value or not nonzero):
            return value
    except (OverflowError, ZeroDivisionError) as exc:
        value = exc
    except PoleError as exc:
        raise PoleError(f"{stage}: {exc}") from exc
    raise OverflowError(f"{stage} left the float range: {value}")


def _real_if_close(z):
    z = complex(z)
    if abs(z.imag) <= 1e-10 * max(1.0, abs(z.real)):
        return z.real
    return z


# ----------------------------------------------------------------------
# machine-readable per-point report


def point_report(params, genera=(0, 1, 2)):
    """JSON-ready report: roots, admissible set, weights, genus sums.

    "roots" lists all twelve roots of the saddle polynomial: the ten vacua
    and the Weyl-fixed z = +-1, in the canonical (re, im) order.
    """
    if min(genera) < 0:
        raise ValueError("genus must be a nonnegative integer")
    system = build_bethe(params)
    roots = admissible_roots(system)
    diagonal = system.params["x"] == system.params["y"]
    weights = [s_squared(r, system) for r in roots]
    all_roots = sorted([r.z for r in roots] + [1.0 + 0j, -1.0 + 0j], key=root_key)
    point = {k: float(v) for k, v in system.params.items()}
    closed = {"genus0_generic": _finite("closed form genus0_generic", lambda: rational_eval(
        s2s1_generic_expr(), point)).real}
    if diagonal:
        closed["genus0_xy"] = _finite("closed form genus0_xy", lambda: rational_eval(
            s2xs1_closed_expr(), {"t": point["t"], "x": point["x"]})).real
    report = {
        "params": point,
        "roots": [[z.real, z.imag] for z in all_roots],
        "admissible": [[r.z.real, r.z.imag] for r in roots],
        "weyl_partners": [r.weyl_partner_index for r in roots],
        "s_squared": [[w.real, w.imag] for w in weights],
        "class_labels": [r.class_label if diagonal else None for r in roots],
        "closed_form": closed,
        "verlinde": {},
    }
    for g in genera:
        total = _genus_total(g, weights)
        report["verlinde"][str(g)] = [total.real, total.imag]
    return report


def sweep_report(n_points, seed=0):
    """Seeded stability sweep: root counts, Weyl pairing, class weights.

    Draws n_points parameter triples uniformly from (0.05, 0.95)^3, runs the
    pipeline at each, and accumulates the worst deviations.  The numeric
    roots of the saddle polynomial are an independent cross-check of the
    closed-form vacua: `ok` requires 12 roots with both unit roots present,
    every vacuum within 1e-8 of one of them, Weyl pairing, and each vacuum's
    weight within 1e-6 (relative, floored at 1) of the generic closed form of
    its own class.  Since the labels have multiplicities (2, 4, 4), the
    weights then match the closed-form multiset too.
    """
    if n_points < 1:
        raise ValueError("a stability sweep needs at least one point")
    rng = random.Random(seed)
    worst_weyl = 0.0
    worst_rel = 0.0
    counts_ok = True
    for _ in range(n_points):
        params = {k: rng.uniform(0.05, 0.95) for k in ("x", "y", "t")}
        system = build_bethe(params)
        roots = poly_roots(saddle_coefficients(system))
        counts_ok &= len(roots) == 12
        counts_ok &= any(abs(z - 1) < 1e-8 for z in roots)
        counts_ok &= any(abs(z + 1) < 1e-8 for z in roots)
        admissible = admissible_roots(system)
        counts_ok &= all(min(abs(r.z - z) for z in roots) < 1e-8 for r in admissible)
        for r in admissible:
            worst_weyl = max(worst_weyl,
                             abs(r.z * admissible[r.weyl_partner_index].z - 1))
        point = {k: float(v) for k, v in params.items()}
        closed = dict(zip(CLASS_LABELS, (rational_eval(e, point) for e in s_elements_generic())))
        for r in admissible:
            value = closed[r.class_label]
            rel = abs(s_squared(r, system) - value) / max(1.0, abs(value))
            counts_ok &= rel <= 1e-6
            worst_rel = max(worst_rel, rel)
    return {
        "points": n_points,
        "seed": seed,
        "ok": bool(counts_ok and worst_weyl < 1e-6),
        "max_weyl_residual": worst_weyl,
        "max_multiset_rel_error": worst_rel,
    }
