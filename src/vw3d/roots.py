"""Deterministic roots of a dense complex polynomial.

A polynomial is its ascending coefficient sequence (c[k] multiplies z^k).
The roots are numpy's companion-matrix eigenvalues, which are backward stable
(Edelman & Murakami, Math. Comp. 64, 1995); each is held to a backward-error
bound, and they come in a canonical order (real part, then imaginary part, to
12 digits).  They cross-check the closed-form Bethe vacua of `vw3d.bethe`.
numpy is imported only when `poly_roots` runs (hence `verlinde --sweep`), so
`import vw3d` and the other commands never load it.
"""

from __future__ import annotations

__all__ = ["poly_roots", "root_key", "RootConvergenceError"]


class RootConvergenceError(ArithmeticError):
    """Raised when a root fails its residual bound; carries the worst residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


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
    desc = np.array(coeffs[::-1], dtype=np.complex128)  # numpy's order is descending
    roots = np.roots(desc)
    value = np.abs(np.polyval(desc, roots))
    scale = np.polyval(np.abs(desc), np.abs(roots))  # 0 only at z = 0 = c_0, where p(z) = 0
    residuals = np.divide(value, scale, out=np.zeros_like(value), where=scale > 0)
    worst = float(residuals.max())
    if not worst <= tol:  # a NaN residual fails too
        raise RootConvergenceError(
            f"root residual {worst:.3e} exceeds tolerance {tol:.3e}", worst)
    return sorted(map(complex, roots), key=root_key)
