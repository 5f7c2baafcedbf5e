"""Exact computation of graded three-manifold invariants of twisted N=4
gauge theory: Bethe-vacua graded dimensions, elliptic-surface partition
q-series, reference Floer-type series, and Grassmann-exact BRST closure
checks.

The API lives in the submodules, each with its own `__all__`: the engines
`vw3d.bethe`, `vw3d.elliptic`, `vw3d.floer` and `vw3d.brst`, the kernels
`vw3d.series`, `vw3d.ratexpr`, `vw3d.roots` and `vw3d.grassmann`, and the
command line `vw3d.cli`.  `import vw3d` loads none of them.
"""

__version__ = "0.1.0"
