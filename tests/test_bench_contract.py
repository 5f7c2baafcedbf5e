"""The traced benchmark wraps vw3d functions by name; keep those names alive.

`bench/layers.py` looks up every layer function it times.  A renamed or
deleted function would otherwise only surface when the traced benchmark
runs; here it fails in well under a second.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

from vw3d import bethe, brst, elliptic, floer  # noqa: E402


def _traced(calls):
    """Install a fresh tracer, run `calls` with it enabled, return it."""
    tracer = layers.make_tracer()
    try:
        tracer.install(layers.namespaces())
        tracer.enabled = True
        calls()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return tracer


def test_every_traced_function_is_bound():
    tracer = layers.make_tracer()
    try:
        tracer.install(layers.namespaces())
        bound = {id(original) for _, _, original in tracer._patched}
    finally:
        tracer.uninstall()
    unbound = [fn.__qualname__ for fn, _ in tracer._wrappers if id(fn) not in bound]
    assert not unbound


def test_bethe_layers_see_calls():
    def calls():
        bethe.point_report({"x": 0.3, "y": 0.7, "t": 0.11})
        bethe.sweep_report(1)

    snap = _traced(calls).snapshot()
    expected = set(layers.EXPECTED["bethe_sweep"]) - {"cli.main"}
    assert [name for name in expected if not snap["calls"].get(name)] == []


def test_qseries_layers_see_calls():
    def calls():
        elliptic.z_vw_kahler(elliptic.sw_data_en(4), order=2)
        elliptic.z_vw_kahler(elliptic.sw_data_en(2), order=2).invert()

    snap = _traced(calls).snapshot()
    seen = dict(snap["calls"], **snap["counters"])
    expected = set(layers.EXPECTED["qseries"]) - {"cli.main", "elliptic.gluing_check"}
    assert [name for name in expected if not seen.get(name)] == []


def test_brst_layers_see_calls():
    # nonabelian too: only its Gaussian numerators reach `ExactComplex.__mul__`
    def calls():
        brst.calibrate_signs("abelian")
        brst.calibrate_signs("nonabelian")

    snap = _traced(calls).snapshot()
    seen = dict(snap["calls"], **snap["counters"])
    expected = set(layers.EXPECTED["brst_closure"]) - {"cli.main"}
    assert [name for name in expected if not seen.get(name)] == []


def test_closed_forms_layers_see_calls():
    def calls():
        bethe.grdim_closed_form("SigmaGxS1", order=8, g=2)
        bethe.limit_specialize("R2", 2, order=8)
        floer.hf_plus("lens", p=3, order=10)

    snap = _traced(calls).snapshot()
    seen = dict(snap["calls"], **snap["counters"])
    expected = set(layers.EXPECTED["closed_forms"]) - {"cli.main"}
    assert [name for name in expected if not seen.get(name)] == []


def test_closed_forms_layers_see_calls_with_a_warm_cache():
    # the genus sums compile their class elements once per process; the
    # traced layers must still see every call once that compilation is cached
    def calls():
        bethe.grdim_closed_form("SigmaGxS1", order=8, g=2)
        bethe.limit_specialize("R2", 2, order=8)
        floer.hf_plus("lens", p=3, order=10)

    calls()
    snap = _traced(calls).snapshot()
    seen = dict(snap["calls"], **snap["counters"])
    expected = set(layers.EXPECTED["closed_forms"]) - {"cli.main"}
    assert [name for name in expected if not seen.get(name)] == []
