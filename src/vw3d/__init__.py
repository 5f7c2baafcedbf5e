"""Exact computation of graded three-manifold invariants of twisted N=4
gauge theory: Bethe-vacua graded dimensions, elliptic-surface partition
q-series, reference Floer-type series, and Grassmann-exact BRST closure
checks."""

from .series import ExactComplex, PuiseuxSeries
from .ratexpr import RationalExpr, rational_eval, T, X, Y
from .roots import ComplexPolynomial, poly_roots
from .bethe import (
    build_bethe,
    admissible_roots,
    s_squared,
    verlinde_sum,
    grdim_closed_form,
    limit_specialize,
    asymptotics_check,
)
from .elliptic import g_series, sw_data_en, z_vw_kahler, en_closed_form, gluing_check
from .floer import (
    tower_series,
    hf_plus,
    hn_poincare,
    molien_su2_adjoint,
    descent_degree,
    superspace_character,
    brieskorn,
)
from .grassmann import GrassmannElement, grassmann_mul, lie_bracket
from .brst import get_table, random_state, apply_q, check_closure, calibrate_signs

__version__ = "0.1.0"

__all__ = [
    "ExactComplex", "PuiseuxSeries",
    "RationalExpr", "rational_eval", "T", "X", "Y",
    "ComplexPolynomial", "poly_roots",
    "build_bethe", "admissible_roots", "s_squared", "verlinde_sum",
    "grdim_closed_form", "limit_specialize", "asymptotics_check",
    "g_series", "sw_data_en", "z_vw_kahler", "en_closed_form", "gluing_check",
    "tower_series", "hf_plus", "hn_poincare", "molien_su2_adjoint",
    "descent_degree", "superspace_character", "brieskorn",
    "GrassmannElement", "grassmann_mul", "lie_bracket",
    "get_table", "random_state", "apply_q", "check_closure", "calibrate_signs",
]
