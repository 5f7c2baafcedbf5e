"""numpy stays off the import path: only root solving loads it, and no
closed-form tree is built before its first use.

pytest itself has imported numpy by now, so each check runs in a fresh
interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = r"""
import contextlib, io, sys

def check(stage, loaded=False):
    assert ("numpy" in sys.modules) == loaded, f"numpy loaded={not loaded} after {stage}"

import vw3d
check("import vw3d")
from vw3d import bethe, brst, cli
for name in ("abelian", "nonabelian", "covariant", "threed"):
    brst.get_table(name)
check("brst.get_table")
cli.build_parser()
check("cli.build_parser")
for cached in (bethe.s_elements_xy, bethe.s_elements_generic, bethe.s2s1_generic_expr,
               bethe.s2xs1_closed_expr, bethe.r2_limit_elements, bethe.r2_series_elements,
               bethe.r0_limit_elements, bethe.s3_elements, bethe.s2xs1_elements,
               bethe._factored):
    assert cached.cache_info().currsize == 0, f"{cached.__name__} built at import"
for argv in (["verlinde", "--g", "1", "--x", "0.3", "--y", "0.7", "--t", "0.11", "--json"],
             ["floer", "--hf", "S2xS1", "--json"],
             ["brst", "--table", "abelian", "--check", "Q2", "--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, (argv, code)
    check(" ".join(argv))
vw3d.poly_roots(vw3d.ComplexPolynomial((1, 0, 1)))
check("poly_roots", loaded=True)
print("cold start ok")
"""


def test_numpy_loaded_only_by_root_solving():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "cold start ok"
