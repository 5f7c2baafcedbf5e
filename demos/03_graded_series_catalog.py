"""Reference graded series: towers, circle bundles, moduli, invariants.

Everything here is an exact generating series.  The boson tower t^n/(1-t^2)
is the basic building block; lens spaces carry one per spin-c structure,
nontrivial circle bundles over a genus-g surface carry finitely many
truncated ones, and counting invariants of the adjoint scalar reproduces the
same tower, which is the statement that local observables form a polynomial
ring on one degree-2 generator.
"""

from vw3d.floer import (
    brieskorn,
    conjecture_series,
    descent_degree,
    gl_vs_sl_cohomology,
    hf_plus,
    hn_poincare,
    molien_su2_adjoint,
    standard_superspace_factors,
    superspace_character,
)

print("lens space L(5,1): one tower per spin-c structure (5 of them):")
print(hf_plus("lens", p=5, order=8).series.to_text())

print("\nS^2 x S^1: towers at degrees -1/2 and +1/2:")
print(hf_plus("S2xS1", order=5).series.to_text())

result = hf_plus("SigmaGxS1", g=3, h=1)
print(f"\ncircle bundle over a genus-3 surface, h=1: rank {result.rank},")
print("relative-graded series", result.series.to_text().replace("\n", " + "))

print("\nrank-2 moduli Poincare polynomial at genus 2:")
print(" + ".join(f"{c} t^{k}" for k, c in enumerate(hn_poincare(2)) if c))
print("all-bundles version (first terms):")
print(gl_vs_sl_cohomology(2, order=4).to_text())

print("\ninvariant dimensions of Sym^n(adjoint su(2)) -> boson tower:")
print(molien_su2_adjoint(order=8).to_text())

print("\ndescent bookkeeping for the degree-2 generator:")
for p in range(5):
    td, hd = descent_degree(2, p)
    print(f"  p={p}: t-degree {td}, homological degree {hd}")

print("\nabelian zero-mode superspace character at genus 1")
print("(second odd line weighted by t):")
factors = standard_superspace_factors(1, {"t": 1})
ch = superspace_character(1, factors, order=3)
print(f"  {len(ch.terms)} monomials; constant term {ch.coefficient({})}")

print("\nBrieskorn reference data:")
for name in ("P", "Sigma237"):
    d = brieskorn(name)
    print(f"  {d.name}: instanton ranks {d.instanton_ranks}, "
          f"flat connections {d.flat_connection_counts}")
report = conjecture_series("Sigma237", order=8)
print("conjectural graded dimension (flagged conjectural={}):".format(
    report["conjectural"]))
print(report["series"].to_text())
