import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_brst import _assert_same_element, _assert_well_formed, fold_combination

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


def _koszul_walk(mask_a, mask_b):
    """Reference sign: per generator j of b, the parity of a's generators above j."""
    sign = 1
    while mask_b:
        j = mask_b & -mask_b
        if bin(mask_a & ~((j << 1) - 1)).count("1") % 2:
            sign = -sign
        mask_b ^= j
    return sign


class TestKoszul:
    def test_disjoint_singletons(self):
        assert koszul_sign(0b01, 0b10) == 1
        assert koszul_sign(0b10, 0b01) == -1

    def test_pair_past_pair(self):
        # moving theta2 theta3 past theta0 theta1 costs (+1)^4
        assert koszul_sign(0b1100, 0b0011) == 1
        assert koszul_sign(0b1010, 0b0101) == -1

    @pytest.mark.parametrize("bits, count", [(8, 2000), (40, 2000), (64, 1000), (360, 200)])
    def test_closed_form_matches_bit_walk(self, bits, count):
        rng = random.Random(bits)
        for _ in range(count):
            a = rng.getrandbits(bits)
            b = rng.getrandbits(bits) & ~a
            assert koszul_sign(a, b) == _koszul_walk(a, b), (a, b)
        assert koszul_sign(0, 0) == koszul_sign(1 << bits, 0) == koszul_sign(0, 1 << bits) == 1


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
        # i[X, Y] runs the su(2) product on Gaussian numerators, [X, Y] on ints
        rng = random.Random(31)
        i = ExactComplex(0, 1)
        for _ in range(20):
            a = _rand_element(rng, rng.randint(0, 1))
            b = _rand_element(rng, rng.randint(0, 1))
            assert lie_bracket(a.scale(i), b) == lie_bracket(a, b).scale(i)
            for el in (a, b, lie_bracket(a, b)):
                _assert_well_formed(el, 3)
                assert all(type(x) is int for c in el.terms.values() for x in c)
            gaussian = lie_bracket(a.scale(i), b)
            assert (any(type(x) is ExactComplex for c in gaussian.terms.values() for x in c)
                    == (not lie_bracket(a, b).is_zero()))

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

    def test_body_and_generator_match_constructor(self):
        # the rational lift gives the public constructor's form, zeros included
        rng = random.Random(3)
        for ncomp in (1, 3):
            for _ in range(30):
                vec = _rand_vec(rng, ncomp)
                for got, want in ((GrassmannElement.body(vec), GrassmannElement(ncomp, 0, {0: vec})),
                                  (GrassmannElement.generator(5, iter(vec)),
                                   GrassmannElement(ncomp, 1, {1 << 5: vec}))):
                    _assert_same_element(got, want)
                    _assert_well_formed(got, ncomp)


class TestCombination:
    """The linear kernel against the fold it replaced: scale each item, then `sum`."""

    @staticmethod
    def _coefficient(rng):
        return rng.choice((0, 1, -1, 3, Fraction(-3, 4), ExactComplex(0), ExactComplex(-1),
                           _rand_value(rng, "real"), _rand_value(rng, "gaussian")))

    @pytest.mark.parametrize("ncomp", [1, 3])
    def test_matches_fold(self, ncomp):
        rng = random.Random(f"combination-{ncomp}")
        for _ in range(60):
            parity = rng.randint(0, 1)
            pool = [_rand_typed(rng, parity, kind, ncomp) for kind in ("real", "gaussian", "mixed")]
            # a negated copy cancels masks; a zero of the other parity takes no part
            pool += [-pool[0], pool[0].scale(Fraction(1, 3)), GrassmannElement.zero(ncomp, 1 - parity)]
            items = []
            for _ in range(rng.randint(0, 6)):
                c = self._coefficient(rng)
                if rng.random() < 0.4:
                    pa = rng.randint(0, 1)
                    a = _rand_typed(rng, pa, "mixed", ncomp)
                    b = _rand_typed(rng, pa ^ parity, rng.choice(("real", "gaussian")), ncomp)
                    # [b, a] = -(-1)^{|a||b|} [a, b]: the pair cancels
                    pair = [(c, (a, b)), (-c if pa and pa ^ parity else c, (b, a))]
                    assert GrassmannElement.combination(ncomp, pair).is_zero()
                    items += pair[:rng.randint(1, 2)]
                    if parity == 0:
                        items.append((c, (a, a)))  # zero unless a is odd
                else:
                    items.append((c, rng.choice(pool)))
            rng.shuffle(items)
            # a mask that cancels, then recurs after new masks, comes last
            c, x, y = self._coefficient(rng), pool[0], pool[rng.randint(1, 2)]
            for items in (items, [(c, x), (-c, x), (1, y), (c, x)]):
                got = GrassmannElement.combination(ncomp, items)
                _assert_same_element(got, fold_combination(ncomp, items))
                _assert_well_formed(got, ncomp)

    def test_rejects_what_the_fold_rejects(self):
        even = GrassmannElement.body((1, 0, 0))
        odd, odd2 = GrassmannElement.generator(0, (1, 0, 0)), GrassmannElement.generator(1, (0, 1, 0))
        # zero items of either parity take no part
        assert GrassmannElement.combination(3, [(2, even), (0, odd), (1, (odd, odd))]) == even.scale(2)
        for items in ([(1, even), (2, odd)], [(1, odd), (1, (odd, odd2))],
                      [(1, GrassmannElement.body((1,)))], [(1, (even, GrassmannElement.body((1,))))]):
            with pytest.raises(ValueError):
                GrassmannElement.combination(3, items)


# -- the ExactComplex kernels, kept as the reference for the numerator form ----

def _values(element):
    """{mask: tuple of ExactComplex values} in the element's term order."""
    return {m: tuple(ExactComplex.coerce(x) / element.den for x in comps)
            for m, comps in element.terms.items()}


def _ref_add(acc, terms):
    acc = dict(acc)
    for mask, comps in terms.items():
        prev = acc.get(mask)
        comps = comps if prev is None else tuple(a + b for a, b in zip(prev, comps))
        if any(comps):
            acc[mask] = comps
        else:
            acc.pop(mask, None)
    return acc


def _ref_scale(terms, value):
    value = ExactComplex.coerce(value)
    out = {m: tuple(x * value for x in c) for m, c in terms.items()}
    return {m: c for m, c in out.items() if any(c)}


def _ref_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _ref_product(a, b, combine):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            comps = combine(ca, cb)
            if koszul_sign(ma, mb) < 0:
                comps = tuple(-x for x in comps)
            mask = ma | mb
            out[mask] = tuple(x + y for x, y in zip(out[mask], comps)) if mask in out else comps
    return {m: c for m, c in out.items() if any(c)}


def _rand_value(rng, kind):
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if kind == "real" or (kind == "mixed" and rng.random() < 0.5):
        return ExactComplex(re)
    return ExactComplex(re, im or 1)


def _rand_typed(rng, parity, kind, ncomp=3):
    out = GrassmannElement.zero(ncomp, parity)
    for _ in range(rng.randint(1, 3)):
        mask = 0
        while bin(mask).count("1") % 2 != parity:
            mask = rng.getrandbits(6)
        comps = tuple(_rand_value(rng, kind) for _ in range(ncomp))
        out = out + GrassmannElement(ncomp, parity, {mask: comps})
    return out


class TestAgainstExactComplexKernels:
    """The numerator kernels agree with the ExactComplex kernels they replaced."""

    @pytest.mark.parametrize("kind", ["real", "gaussian", "mixed"])
    def test_kernels_match_reference(self, kind):
        rng = random.Random(f"kernels-{kind}")
        for _ in range(40):
            pa, pb = rng.randint(0, 1), rng.randint(0, 1)
            a, b = _rand_typed(rng, pa, kind), _rand_typed(rng, pb, kind)
            a2 = _rand_typed(rng, pa, kind)
            s1 = _rand_typed(rng, 0, kind, ncomp=1)
            q = _rand_value(rng, kind)
            va, vb = _values(a), _values(b)
            checks = [
                (grassmann_mul(a, b), _ref_product(va, vb, lambda u, v: tuple(map(mul, u, v)))),
                (grassmann_mul(s1, b),
                 _ref_product(_values(s1), vb, lambda u, v: tuple(u[0] * y for y in v))),
                (lie_bracket(a, b), _ref_product(va, vb, _ref_cross)),
                (-a, _ref_scale(va, -1)),
                (a.scale(q), _ref_scale(va, q)),
                (a + a2, _ref_add(va, _values(a2))),
                (a - a, {}),
                (GrassmannElement.sum(3, [a, -a2, a2, a]),
                 _ref_add(_ref_add(_ref_add(va, _ref_scale(_values(a2), -1)), _values(a2)), va)),
            ]
            for got, want in checks:
                _assert_well_formed(got, got.ncomp)
                assert list(_values(got).items()) == list(want.items())


# -- canonical form ------------------------------------------------------------

_PART = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 10))
_REAL = st.builds(ExactComplex, _PART)
_GAUSS = st.builds(ExactComplex, _PART, _PART.filter(bool))


@st.composite
def _elements(draw, values):
    ncomp = draw(st.sampled_from((1, 3)))
    parity = draw(st.integers(0, 1))
    masks = [m for m in range(16) if bin(m).count("1") % 2 == parity]
    terms = {m: tuple(draw(values) for _ in range(ncomp))
             for m in draw(st.lists(st.sampled_from(masks), max_size=4, unique=True))}
    return GrassmannElement(ncomp, parity, terms)


class TestCanonicalForm:
    @given(st.one_of(_elements(_REAL), _elements(st.one_of(_REAL, _GAUSS))),
           st.one_of(_REAL.filter(bool), _GAUSS), st.integers(2, 30))
    def test_equal_rationals_have_equal_form(self, a, q, k):
        # the same values reached by other routes: enlarged numerators scaled
        # back, and one monomial at a time over different denominators
        big = GrassmannElement(a.ncomp, a.parity, {m: tuple(x * k for x in comps)
                                                   for m, comps in _values(a).items()})
        pieces = GrassmannElement.sum(a.ncomp, [GrassmannElement(a.ncomp, a.parity, {m: c})
                                                for m, c in _values(a).items()])
        b = _rand_typed(random.Random(k), a.parity, "mixed", a.ncomp)
        for same in (big.scale(Fraction(1, k)), pieces, (a + b) - b, a.scale(q).scale(1 / q)):
            _assert_well_formed(same, a.ncomp)
            assert same == a
            assert (same.den, same.terms) == (a.den, a.terms)
            assert hash(same) == hash(a)
