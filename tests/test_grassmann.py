import random
from fractions import Fraction

import pytest

from vw3d.grassmann import GrassmannElement, grassmann_mul, koszul_sign, lie_bracket
from vw3d.series import ExactComplex


def _rand_vec(rng, ncomp=3):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(ncomp))


def _rand_element(rng, parity, ngen=6, ncomp=3):
    out = GrassmannElement.zero(ncomp, parity)
    for _ in range(rng.randint(1, 3)):
        mask = 0
        while bin(mask).count("1") % 2 != parity:
            mask = rng.getrandbits(ngen)
        out = out + GrassmannElement(ncomp, parity, {mask: _rand_vec(rng, ncomp)})
    return out


class TestKoszul:
    def test_disjoint_singletons(self):
        assert koszul_sign(0b01, 0b10) == 1
        assert koszul_sign(0b10, 0b01) == -1

    def test_pair_past_pair(self):
        # moving theta2 theta3 past theta0 theta1 costs (+1)^4
        assert koszul_sign(0b1100, 0b0011) == 1
        assert koszul_sign(0b1010, 0b0101) == -1


class TestProducts:
    def test_generator_squares_to_zero(self):
        theta = GrassmannElement.generator(0, (1, 0, 0))
        assert grassmann_mul(theta, theta).is_zero()

    def test_anticommutation(self):
        a = GrassmannElement.generator(0, (1, 0, 0))
        b = GrassmannElement.generator(1, (1, 0, 0))
        assert grassmann_mul(a, b) == -grassmann_mul(b, a)

    def test_even_coefficient_anticommutator_vanishes(self):
        rng = random.Random(5)
        a = GrassmannElement.generator(0, _rand_vec(rng))
        b = GrassmannElement.generator(1, _rand_vec(rng))
        total = grassmann_mul(a, b) + grassmann_mul(b, a)
        assert total.is_zero()

    def test_associativity_exact(self):
        rng = random.Random(9)
        for _ in range(25):
            a = _rand_element(rng, rng.randint(0, 1))
            b = _rand_element(rng, rng.randint(0, 1))
            c = _rand_element(rng, rng.randint(0, 1))
            left = grassmann_mul(grassmann_mul(a, b), c)
            right = grassmann_mul(a, grassmann_mul(b, c))
            assert left == right

    def test_graded_commutativity_of_scalar_product(self):
        rng = random.Random(2)
        for _ in range(25):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            a = _rand_element(rng, pa, ncomp=1)
            b = _rand_element(rng, pb, ncomp=1)
            sign = -1 if (pa and pb) else 1
            assert grassmann_mul(a, b) == grassmann_mul(b, a).scale(sign)


class TestBracket:
    def test_basis_relation(self):
        e1 = GrassmannElement.body((1, 0, 0))
        e2 = GrassmannElement.body((0, 1, 0))
        assert lie_bracket(e1, e2) == GrassmannElement.body((0, 0, 1))

    def test_even_self_bracket_vanishes(self):
        rng = random.Random(1)
        a = GrassmannElement.body(_rand_vec(rng))
        assert lie_bracket(a, a).is_zero()

    def test_odd_self_bracket_survives(self):
        # odd-odd brackets are symmetric; theta0 x theta1 cross terms add up
        a = GrassmannElement.generator(0, (1, 0, 0)) + \
            GrassmannElement.generator(1, (0, 1, 0))
        br = lie_bracket(a, a)
        assert not br.is_zero()
        assert br == lie_bracket(a, a)

    def test_graded_antisymmetry(self):
        rng = random.Random(12)
        for _ in range(20):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            a = _rand_element(rng, pa)
            b = _rand_element(rng, pb)
            sign = 1 if (pa and pb) else -1
            assert lie_bracket(a, b) == lie_bracket(b, a).scale(sign)

    def test_real_bracket_matches_complex_path(self):
        # i[X, Y] takes the complex branch of the su(2) product, [X, Y] the real one
        rng = random.Random(31)
        i = ExactComplex(0, 1)
        for _ in range(20):
            a = _rand_element(rng, rng.randint(0, 1))
            b = _rand_element(rng, rng.randint(0, 1))
            assert lie_bracket(a.scale(i), b) == lie_bracket(a, b).scale(i)
            for comps in lie_bracket(a, b).terms.values():
                assert all(type(c.re) is Fraction and c.im == 0 for c in comps)

    def test_abelian_brackets_vanish(self):
        rng = random.Random(4)
        a = _rand_element(rng, 0, ncomp=1)
        b = _rand_element(rng, 1, ncomp=1)
        assert lie_bracket(a, b).is_zero()

    def test_jacobi_even(self):
        rng = random.Random(21)
        for _ in range(10):
            a, b, c = (GrassmannElement.body(_rand_vec(rng)) for _ in range(3))
            total = lie_bracket(a, lie_bracket(b, c)) + \
                lie_bracket(b, lie_bracket(c, a)) + \
                lie_bracket(c, lie_bracket(a, b))
            assert total.is_zero()


class TestHygiene:
    def test_parity_mixing_rejected(self):
        even = GrassmannElement.body((1, 0, 0))
        odd = GrassmannElement.generator(0, (1, 0, 0))
        with pytest.raises(ValueError):
            even + odd

    def test_monomial_parities_match(self):
        rng = random.Random(8)
        for parity in (0, 1):
            el = _rand_element(rng, parity)
            assert el.monomial_parities_match()

    def test_scale_by_unit(self):
        rng = random.Random(17)
        for parity in (0, 1):
            x = _rand_element(rng, parity)
            for one in (1, Fraction(1), ExactComplex(1)):
                assert x.scale(one) == x
            for minus_one in (-1, Fraction(-1), ExactComplex(-1)):
                assert x.scale(minus_one) == -x
                assert x.scale(minus_one).parity == parity
            assert x.scale(0).is_zero()

    def test_sum_equals_fold(self):
        # interleaved negatives cancel masks mid-sum; a cancelled mask that
        # recurs must land where successive `+` puts it
        rng = random.Random(23)
        for parity in (0, 1):
            parts = [_rand_element(rng, parity) for _ in range(4)]
            parts += [-parts[1], GrassmannElement.zero(3, 1 - parity), parts[1], -parts[0]]
            folded = GrassmannElement.zero(3)
            for part in parts:
                folded = folded + part if not part.is_zero() else folded
            total = GrassmannElement.sum(3, parts)
            assert total == folded and list(total.terms) == list(folded.terms)
            assert total.parity == folded.parity == parity
        empty = GrassmannElement.sum(3, [GrassmannElement.zero(3, 1)])
        assert empty.is_zero() and empty.parity == 0

    def test_sum_rejects_mixed_inputs(self):
        even = GrassmannElement.body((1, 0, 0))
        odd = GrassmannElement.generator(0, (1, 0, 0))
        with pytest.raises(ValueError):
            GrassmannElement.sum(3, [even, odd])
        with pytest.raises(ValueError):
            GrassmannElement.sum(1, [even])

    def test_scale_by_i(self):
        a = GrassmannElement.body((1, 2, 3))
        assert a.scale(ExactComplex(0, 1)).terms[0][0] == ExactComplex(0, 1)
