import random
from fractions import Fraction

import numpy as np
import pytest

from vw3d.bethe import admissible_roots, build_bethe, saddle_coefficients
from vw3d.roots import RootConvergenceError, poly_roots, root_key
from vw3d.series import ExactComplex


class TestBasicRoots:
    def test_quadratic_pair(self):
        roots = poly_roots((1, 0, 1))
        assert len(roots) == 2
        assert abs(roots[0] + 1j) < 1e-12 and abs(roots[1] - 1j) < 1e-12

    def test_double_root_multiset(self):
        # (z-1)^2 (z+2) = z^3 - 3z + 2
        roots = poly_roots((2, -3, 0, 1), tol=1e-9)
        near_one = [z for z in roots if abs(z - 1) < 1e-5]
        near_m2 = [z for z in roots if abs(z + 2) < 1e-10]
        assert len(near_one) == 2 and len(near_m2) == 1

    def test_canonical_order_deterministic(self):
        rng = random.Random(0)
        coeffs = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(9))
        a = poly_roots(coeffs)
        b = poly_roots(coeffs)
        assert a == b
        assert a == sorted(a, key=lambda z: (round(z.real, 12), round(z.imag, 12)))

    def test_exact_coefficients_convert(self):
        # (z - i/2)(z + 3) = z^2 + (3 - i/2) z - 3i/2, with mixed coefficient types
        exact = (ExactComplex(0, Fraction(-3, 2)), ExactComplex(3, Fraction(-1, 2)), Fraction(1))
        roots = poly_roots(exact)
        assert roots == poly_roots((-1.5j, 3 - 0.5j, 1 + 0j))
        assert abs(roots[0] + 3) < 1e-12 and abs(roots[1] - 0.5j) < 1e-12

    def test_trailing_zeros_ignored(self):
        assert poly_roots((1, 0, 1, 0, 0)) == poly_roots((1, 0, 1))
        assert poly_roots([Fraction(2), -3, 0, 1, Fraction(0)]) == poly_roots((2, -3, 0, 1))

    def test_degree_zero_rejected(self):
        # a constant, also with trailing zeros, and the zero polynomial
        for coeffs in ((3,), (3, 0, 0), (0,), (0, 0), ()):
            with pytest.raises(ValueError):
                poly_roots(coeffs)

    def test_convergence_error_carries_residual(self):
        with pytest.raises(RootConvergenceError) as err:
            poly_roots((2, -3, 0, 1), tol=1e-40)
        assert err.value.residual > 0


class TestViete:
    def test_sum_and_product_identities(self):
        rng = random.Random(42)
        for _ in range(20):
            degree = rng.randint(2, 9)
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(degree + 1)]
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] += 0.5
            roots = poly_roots(coeffs, tol=1e-8)
            total = sum(roots)
            prod = np.prod(roots)
            expect_sum = -coeffs[-2] / coeffs[-1]
            expect_prod = (-1) ** degree * coeffs[0] / coeffs[-1]
            assert abs(total - expect_sum) < 1e-8 * max(1.0, abs(expect_sum))
            assert abs(prod - expect_prod) < 1e-8 * max(1.0, abs(expect_prod))


def _reference_residual(coeffs, z):
    """|p(z)| / sum_k |c_k||z|^k for ascending `coeffs` at one root z.

    At a root p(z) is rounding noise, and numpy's compiled complex loops
    round differently from Python's `complex` (a pure-Python Horner read
    up to 1% apart), so p(z) is numpy's Horner; the scale is summed here.
    """
    value = abs(complex(np.polyval(np.array(coeffs[::-1], dtype=np.complex128), z)))
    scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
    return value / scale if scale else value


def _numpy_roots(coeffs):
    desc = np.array([complex(c) for c in coeffs][::-1], dtype=np.complex128)
    return sorted(map(complex, np.roots(desc)), key=root_key)


def _same_bits(a, b):
    return [(z.real.hex(), z.imag.hex()) for z in map(complex, a)] == \
        [(z.real.hex(), z.imag.hex()) for z in map(complex, b)]


def _seeded_bethe_systems():
    rng = random.Random(11)
    for k in range(150):
        x, y, t = (rng.uniform(0.05, 0.95) for _ in range(3))
        if k % 5 == 0:
            y = x
        yield build_bethe({"x": x, "y": y, "t": t})


class TestCompanionMatrixSolve:
    """`poly_roots` is one companion-matrix solve (`np.roots`), unpolished,
    in the canonical order, checked by its backward error."""

    def test_seeded_bethe_systems(self):
        for system in _seeded_bethe_systems():
            poly = saddle_coefficients(system)
            mine, ref = poly_roots(poly), _numpy_roots(poly)
            assert mine == ref and _same_bits(mine, ref)

    def test_seeded_complex_polynomials(self):
        rng = random.Random(12)
        for k in range(130):
            degree = k % 13 + 1
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(degree + 1)]
            coeffs[-1] += 0.5
            mine, ref = poly_roots(coeffs, tol=1e-6), _numpy_roots(coeffs)
            assert mine == ref and _same_bits(mine, ref)

    def test_bethe_residuals_and_closed_form_vacua(self):
        # the sweep asks 1e-9 of the residual and 1e-8 of the vacua
        for system in _seeded_bethe_systems():
            poly = saddle_coefficients(system)
            roots = poly_roots(poly)
            assert max(_reference_residual(poly, z) for z in roots) <= 1e-12
            expected = [r.z for r in admissible_roots(system)] + [1, -1]
            assert all(min(abs(z - w) for w in roots) < 1e-9 for z in expected)

    def test_double_root(self):
        # (z-1)^2 (z+2): the pair splits by ~1e-8, its backward error stays tiny
        poly = (2, -3, 0, 1)
        mine, ref = poly_roots(poly), _numpy_roots(poly)
        assert mine == ref and _same_bits(mine, ref)
        assert max(_reference_residual(poly, z) for z in mine) <= 1e-15

    def test_same_residual_on_too_tight_tol(self):
        for coeffs in ((2, -3, 0, 1), (1, 2, 3, 4, 5), (1j, 0.5, -2, 1)):
            with pytest.raises(RootConvergenceError) as err:
                poly_roots(coeffs, tol=1e-40)
            expected = max(_reference_residual(coeffs, z) for z in _numpy_roots(coeffs))
            assert err.value.residual == pytest.approx(expected, rel=1e-12, abs=0)
            assert err.value.residual > 0
            assert str(err.value) == (f"root residual {err.value.residual:.3e} "
                                      f"exceeds tolerance {1e-40:.3e}")
