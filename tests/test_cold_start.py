"""Cold start: `import vw3d` loads no submodule, each CLI command loads only
its engine and the kernels under it, numpy stays off the import path (only
root solving loads it), and no closed-form tree is built before its first use.

pytest itself has imported numpy and vw3d by now, so each check runs in a
fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
from vw3d import roots; roots.poly_roots((1, 0, 1))
check("poly_roots", loaded=True)
print("cold start ok")
"""


# Prints, after one CLI command, the vw3d modules loaded and whether numpy is.
COMMAND_PROBE = r"""
import contextlib, io, json, sys
from vw3d import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
assert code == cli.EXIT_OK, code
print(json.dumps([sorted(m for m in sys.modules if m.partition(".")[0] == "vw3d"),
                  "numpy" in sys.modules]))
"""

CORE = ["vw3d", "vw3d.cli", "vw3d.series"]
BETHE = sorted(CORE + ["vw3d.bethe", "vw3d.ratexpr", "vw3d.roots"])


def run_fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_numpy_loaded_only_by_root_solving():
    assert run_fresh("-c", PROBE) == "cold start ok"


def test_import_loads_no_submodule():
    code = "import sys, vw3d; print(sorted(m for m in sys.modules if m.startswith('vw3d')))"
    assert run_fresh("-c", code) == "['vw3d']"


@pytest.mark.parametrize("argv,modules,numpy", [
    ("verlinde --g 1 --x 0.3 --y 0.7 --t 0.11", BETHE, False),
    ("verlinde --g 0 --series --order 6", BETHE, False),
    ("verlinde --g 2 --limit R2 --order 3", BETHE, False),
    ("verlinde --sweep 1", BETHE, True),
    ("elliptic --n 2 --order 4", sorted(CORE + ["vw3d.elliptic"]), False),
    ("floer --hf S2xS1", sorted(CORE + ["vw3d.floer"]), False),
    ("brst --table abelian --check Q2", sorted(CORE + ["vw3d.brst", "vw3d.grassmann"]), False),
])
def test_command_loads_only_its_engine(argv, modules, numpy):
    assert json.loads(run_fresh("-c", COMMAND_PROBE, *argv.split())) == [modules, numpy]
