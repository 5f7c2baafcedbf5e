"""Deterministic roots of a dense complex polynomial.

A polynomial is its ascending coefficient sequence (c[k] multiplies z^k).
Roots come from companion-matrix eigenvalues (numpy), tightened by a few
guarded Newton steps, and are returned in a canonical order (real part, then
imaginary part, rounded to 12 digits) so runs are reproducible.  The Bethe
vacua themselves are closed forms (`vw3d.bethe`); this general solver is
their independent numeric cross-check.  numpy is imported only when
`poly_roots` runs (hence `verlinde --sweep`), so `import vw3d` and the other
commands never load it.
"""

from __future__ import annotations

__all__ = ["poly_roots", "root_key", "RootConvergenceError"]


class RootConvergenceError(ArithmeticError):
    """Raised when a root fails its residual bound; carries the best residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def _residual(coeffs, z):
    """|p(z)| scaled by the evaluation norm sum |c_k||z|^k (backward error)."""
    value = 0j
    scale = 0.0
    az = abs(z)
    for k in range(len(coeffs) - 1, -1, -1):
        value = value * z + coeffs[k]
    power = 1.0
    for c in coeffs:
        scale += abs(c) * power
        power *= az
    return abs(value) / scale if scale else abs(value)


def root_key(z):
    """The canonical root order: real part, then imaginary part, to 12 digits."""
    return (round(z.real, 12), round(z.imag, 12))


def poly_roots(coefficients, tol=1e-9):
    """All roots (with multiplicity) of sum_k c_k z^k, canonically ordered.

    `coefficients` is ascending, of anything `complex()` accepts; trailing
    zeros are dropped, and the degree must then be at least 1.  Each root
    satisfies |p(z)| / sum_k |c_k||z|^k <= tol; on failure a
    RootConvergenceError reports the worst residual.
    """
    coeffs = [complex(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("degree must be at least 1")
    import numpy as np
    coeffs = np.array(coeffs, dtype=np.complex128)
    # numpy's convention is descending coefficients.
    raw = np.roots(coeffs[::-1])
    # Horner over numpy scalars: the step p/p' must stay a numpy division
    # for the roots to be reproducible bit for bit.
    desc = list(coeffs[::-1])
    ddesc = [k * coeffs[k] for k in range(len(coeffs) - 1, 0, -1)]
    roots, residuals = [], []
    for z in raw:
        z = complex(z)
        res = _residual(coeffs, z)
        for _ in range(3):
            pv = dv = 0j
            for c in desc:
                pv = pv * z + c
            for c in ddesc:
                dv = dv * z + c
            if dv == 0:
                break
            step = pv / dv
            if abs(step) > 1e-2 * max(1.0, abs(z)):
                break  # double-root plateau; Newton would wander
            z2 = z - step
            res2 = _residual(coeffs, z2)
            if res2 <= res:
                z, res = z2, res2
            else:
                break
        roots.append(z)
        residuals.append(res)
    worst = max(residuals)
    if worst > tol:
        raise RootConvergenceError(
            f"root residual {worst:.3e} exceeds tolerance {tol:.3e}", worst)
    roots.sort(key=root_key)
    return roots
