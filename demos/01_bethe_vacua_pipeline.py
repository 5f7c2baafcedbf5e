"""Walk through the Bethe-vacua pipeline at one parameter point.

The degree-12 saddle polynomial in the torus variable z always contains the
Weyl-fixed points z = +-1 and the universal pair z = +-i; removing the fixed
points leaves ten vacua organized in Weyl pairs {z, 1/z}.  Each vacuum
carries a one-loop weight S^2, and the genus-g graded dimension is the sum
of S^{2-2g} over the vacua: 10 at genus one, the closed product formula at
genus zero.
"""

from vw3d.bethe import (
    admissible_roots,
    build_bethe,
    grdim_closed_form,
    s2xs1_closed_expr,
    s_squared,
    saddle_coefficients,
    verlinde_sum,
)
from vw3d.ratexpr import rational_eval


def evaluate(coeffs, z):
    value = 0j
    for c in reversed(coeffs):
        value = value * z + c
    return value


params = {"x": 0.25, "y": 0.25, "t": 1 / 9}
system = build_bethe(params)
coeffs = saddle_coefficients(system)

print("cleared saddle polynomial: degree", len(coeffs) - 1)
print("value at z=1:", abs(evaluate(coeffs, 1.0)))
print("value at z=i:", abs(evaluate(coeffs, 1j)))

roots = admissible_roots(system)
print("\nadmissible vacua (z, Weyl partner):")
for r in roots:
    partner = roots[r.weyl_partner_index].z
    print(f"  z = {r.z:+.6f}   1/z ~ {partner:+.6f}")

print("\none-loop weights with their closed-form class at x = y:")
for r in roots:
    print(f"  S^2 = {s_squared(r, system).real:+.8f}   {r.class_label}")

print("\ngenus sums:")
print("  g=1:", verlinde_sum(1, params).real)
g0 = verlinde_sum(0, params)
closed = rational_eval(s2xs1_closed_expr(), {"x": 0.25, "t": 1 / 9})
print(f"  g=0: {g0.real:.12f}  vs closed form {closed.real:.12f}")

print("\ngraded dimension of the product of a 2-sphere and a circle:")
print(grdim_closed_form("S2xS1", order=6).to_text())
