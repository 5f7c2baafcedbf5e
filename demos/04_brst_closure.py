"""Exact nilpotency checks of the transformation tables.

Fields take values in su(2)-valued supernumbers with exact rational
coefficients, so a closure residual of zero is a literal dictionary
equality, not a numerical smallness statement.  On constant fields the
square of the differential is a gauge rotation generated by the scalar
triplet; the mixed anticommutators of the four 3d supercharges produce the
translation generator, which constant configurations see as a gauge rotation
by the reduced time component of the connection.
"""

from vw3d.brst import (
    calibrate_signs,
    check_closure,
    check_twistor,
    get_table,
    q_squared_residual,
    random_state,
)

print("abelian table: Q^2 = 0 exactly on all 13 fields")
state = random_state(get_table("abelian"), seed=0)
res = q_squared_residual(state, "Q")
print("  max residual:", max(v.max_abs() for v in res.values()))

print("\nnonabelian table: Q^2 X = i[X, phi] exactly, full field content")
state = random_state(get_table("nonabelian"), seed=1)
res = q_squared_residual(state, "Q", param_field="phi")
print("  max residual:", max(v.max_abs() for v in res.values()))

print("\ncovariant doublet table: anticommutators close on phi^{ab}")
state = random_state(get_table("covariant"), seed=2)
for pair in ((("Q", 1), ("Q", 1)), (("Q", 1), ("Q", 2))):
    report = check_closure(state, pair)
    print(f"  {pair}: exact_zero={report['exact_zero']} "
          f"parameter={report['gauge_parameter']}")

print("\n3d table with four supercharges:")
state = random_state(get_table("threed"), seed=3)
for pair in ((("Q", 1), ("Qbar", 2)), (("Qbar", 1), ("Qbar", 2))):
    report = check_closure(state, pair)
    print(f"  {pair}: exact_zero={report['exact_zero']} "
          f"parameter={report['gauge_parameter']}")

print("\ntwistor family d = s_a Q^a + r_b Qbar^b, d^2 up to gauge:")
report = check_twistor(state, (1, 2), (3, 1))
print("  exact_zero:", report["exact_zero"])

print("\nsign calibration (the derived covariant-derivative coefficient):")
for name in ("abelian", "nonabelian", "covariant", "threed"):
    conv, rep = calibrate_signs(name)
    print(f"  {name}: calibrated={rep['calibrated']} stage={rep['stage']}")
