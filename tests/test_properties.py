"""Cross-cutting property tests."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.pairs import PairSum
from exactcft.special import pochhammer
from exactcft.tensor_ops import IVARS
from exactcft.waves import WaveSpec, chiral_wave_series, wave_prefactor
from oracles import coeffs, harmonic_project_poly, igen, ipoly, lapv, power, reversed_spec

F = Fraction

PTS = (1, 2, 3, 4)
PAIRS = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def pair_sum_strategy():
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    exp = st.integers(-2, 2)
    term = st.dictionaries(st.sampled_from(PAIRS), exp, max_size=3)

    def build(items):
        total = PairSum(PTS)
        for c, exps in items:
            total = total + PairSum.monomial(PTS, c, {k: F(v) for k, v in exps.items()})
        return total

    return st.lists(st.tuples(coeff, term), max_size=3).map(build)


@given(pair_sum_strategy(), pair_sum_strategy())
@settings(max_examples=25, deadline=None)
def test_pair_sum_derivative_is_linear(a, b):
    lhs = (a + b).differentiate(2)
    rhs = a.differentiate(2) + b.differentiate(2)
    assert (lhs - rhs).is_zero()


@given(pair_sum_strategy(), pair_sum_strategy())
@settings(max_examples=20, deadline=None)
def test_pair_sum_product_rule(a, b):
    lhs = (a * b).differentiate(3)
    rhs = a.differentiate(3) * b + a * b.differentiate(3)
    assert (lhs - rhs).is_zero_function()


def random_v_homogeneous(rng, vdeg):
    gens = [igen(n) for n in IVARS]
    poly = ipoly()
    for _ in range(rng.randint(1, 4)):
        nv = rng.randint(0, vdeg // 2)
        rest = vdeg - 2 * nv
        ds = rng.randint(0, rest)
        mono = power(gens[3], ds) * power(gens[4], rest - ds) * power(gens[5], nv)
        mono = mono * power(gens[0], rng.randint(0, 1)) * power(gens[1], rng.randint(0, 1))
        poly = poly + mono * rng.randint(-4, 4)
    return poly


def test_harmonic_projection_is_idempotent():
    rng = random.Random(17)
    for _ in range(10):
        poly = random_v_homogeneous(rng, rng.randint(0, 5))
        if poly.is_zero():
            continue
        h = harmonic_project_poly(poly)
        assert harmonic_project_poly(h) == h
        assert lapv(h).is_zero()


def test_harmonic_projection_is_linear():
    rng = random.Random(23)
    for _ in range(8):
        vdeg = rng.randint(0, 5)
        p = random_v_homogeneous(rng, vdeg)
        q = random_v_homogeneous(rng, vdeg)
        assert harmonic_project_poly(p + q) == harmonic_project_poly(p) + harmonic_project_poly(q)


def test_wave_prefactor_conjugation_consistency():
    # reversing the spec reverses the prefactor exponent pattern
    spec = WaveSpec.from_middle((1, 2, 3, 2, 1), (F(5, 2), F(3, 2)))
    rev = reversed_spec(spec)
    pre = wave_prefactor(spec)
    pre_rev = wave_prefactor(rev)
    n = spec.n
    for (i, j), e in pre.items():
        assert pre_rev.get((n + 1 - j, n + 1 - i), 0) == e


def test_wave_coefficients_factor_through_pochhammers():
    # every coefficient of the n=5 series is the stated ratio of rising factorials
    from math import factorial

    spec = WaveSpec.from_middle((1, 2, 1, 2, 1), (2, F(5, 2)))
    wave = chiral_wave_series(spec, 4)
    a = spec.a
    d = spec.d
    for (l1, l2), got in coeffs(wave.series).items():
        want = (
            pochhammer(a(1) + a(2) - d(2), l1)
            * pochhammer(a(2) + a(3) - d(3), l1 + l2)
            * pochhammer(a(3) + a(4) - d(4), l2)
            / (
                factorial(l1)
                * pochhammer(2 * a(2), l1)
                * factorial(l2)
                * pochhammer(2 * a(3), l2)
            )
        )
        assert got == want
