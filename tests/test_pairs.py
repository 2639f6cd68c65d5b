from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exactcft.errors import ConsistencyError, SingularDiagonalError
import exactcft.pairs as pairs_module
from exactcft.pairs import PairSum, _adjacent_expansions, _pair_values
from oracles import (
    is_zero_function_expanded,
    proportional_to_expanded,
    ptolemy_zero,
    two_chiral_monomial,
)

F = Fraction


def mono(points, coeff, exps):
    return PairSum.monomial(points, coeff, exps)


def test_linear_dependence_is_seen():
    # x13 - x12 - x23 = 0 as a function even though the monomials differ
    pts = (1, 2, 3)
    s = (
        mono(pts, 1, {(1, 3): 1})
        + mono(pts, -1, {(1, 2): 1})
        + mono(pts, -1, {(2, 3): 1})
    )
    assert not s.is_zero()
    assert s.is_zero_function()


def test_distinct_rational_classes_do_not_cancel():
    pts = (1, 2)
    s = mono(pts, 1, {(1, 2): F(1, 2)}) + mono(pts, -1, {(1, 2): F(1, 3)})
    assert not s.is_zero_function()
    # same class (integer shift), still nonzero as a function
    t = mono(pts, 1, {(1, 2): F(1, 2)}) + mono(pts, -1, {(1, 2): F(3, 2)})
    assert not t.is_zero_function()


def test_class_grouping_with_integer_offsets():
    # x12^(1/2) * (x12 - x12) = 0 across an integer shift within one class
    pts = (1, 2)
    s = mono(pts, 1, {(1, 2): F(3, 2)}) + mono(pts, -1, {(1, 2): F(3, 2)})
    assert s.is_zero_function()


def test_differentiate_product_rule():
    pts = (1, 2, 3)
    s = mono(pts, 1, {(1, 2): 2, (2, 3): 1})
    d = s.differentiate(2)
    expected = mono(pts, -2, {(1, 2): 1, (2, 3): 1}) + mono(pts, 1, {(1, 2): 2})
    assert (d - expected).is_zero_function()


def test_differentiate_rational_power():
    pts = (1, 2)
    s = mono(pts, 1, {(1, 2): F(1, 2)})
    d = s.differentiate(1)
    assert (d - mono(pts, F(1, 2), {(1, 2): F(-1, 2)})).is_zero_function()


def test_merge_drops_positive_powers():
    pts = (1, 2, 3)
    s = mono(pts, 1, {(1, 2): 1, (2, 3): -1}) + mono(pts, 5, {(1, 3): 2})
    merged = s.merge_adjacent(1)
    assert merged.points == (1, 3)
    assert (merged - PairSum.monomial((1, 3), 5, {(1, 3): 2})).is_zero_function()


def test_merge_detects_singularity():
    pts = (1, 2, 3)
    s = mono(pts, 1, {(1, 2): -1, (2, 3): 1})
    with pytest.raises(SingularDiagonalError):
        s.merge_adjacent(1)


def test_merge_relabels_upper_point():
    pts = (1, 2, 3)
    s = mono(pts, 1, {(2, 3): 4})
    merged = s.merge_adjacent(1)
    assert (merged - PairSum.monomial((1, 3), 1, {(1, 3): 4})).is_zero_function()


def test_relabel_antisymmetry_sign():
    pts = (1, 2, 3)
    s = mono(pts, 1, {(1, 2): 1})
    swapped = s.relabel({1: 2, 2: 1, 3: 3})
    assert (swapped - mono(pts, -1, {(1, 2): 1})).is_zero_function()


def test_relabel_unsigned_symbols():
    pts = (1, 2, 3)
    s = PairSum.monomial(pts, 1, {(1, 2): 1}, antisym=False)
    swapped = s.relabel({1: 2, 2: 1, 3: 3})
    assert swapped.terms == PairSum.monomial(pts, 1, {(1, 2): 1}, antisym=False).terms


def test_proportionality():
    pts = (1, 2, 3)
    a = mono(pts, 2, {(1, 2): 1}) + mono(pts, 2, {(2, 3): 1})
    b = mono(pts, 3, {(1, 3): 1})
    lam = a.proportional_to(b)
    assert lam == F(2, 3)
    assert b.proportional_to(a) == F(3, 2)
    assert a.proportional_to(mono(pts, 1, {(1, 2): 1})) is None


def test_proportionality_with_rational_prefactors():
    pts = (1, 2, 3)
    base = {(1, 2): F(1, 3), (2, 3): F(-5, 2)}
    a = mono(pts, 4, base).mul_monomial(1, {(1, 3): 1})
    b = mono(pts, 1, base).mul_monomial(1, {(1, 2): 1}) + mono(pts, 1, base).mul_monomial(
        1, {(2, 3): 1}
    )
    # x13 = x12 + x23 underneath a shared rational-power prefactor
    assert a.proportional_to(b) == 4


def test_proportionality_needs_one_ratio_in_every_class():
    pts = (1, 2, 3)
    half = mono(pts, 1, {(1, 2): F(1, 2)})
    third = mono(pts, 1, {(2, 3): F(1, 3)})
    # x12^(1/3) (x13 - x12 - x23): terms in a class, zero as a function
    hidden = (
        third.mul_monomial(1, {(1, 3): 1})
        - third.mul_monomial(1, {(1, 2): 1})
        - third.mul_monomial(1, {(2, 3): 1})
    )
    assert hidden and hidden.is_zero_function()
    # ratios 2 and 3 in two classes
    assert (half.scale(2) + third.scale(3)).proportional_to(half + third) is None
    assert (half.scale(2) + third.scale(2)).proportional_to(half + third) == 2
    # self nonzero in a class where other has no terms, or only a zero function
    for other in (half, half + hidden, hidden + half):
        assert (half.scale(2) + third).proportional_to(other) is None
        assert (half.scale(2) + hidden).proportional_to(other) == 2
    # other the zero function: no ratio, whatever self is
    for other in (PairSum.zero(pts), hidden):
        for s in (PairSum.zero(pts), hidden, half):
            assert s.proportional_to(other) is None


def test_two_chiral_zero_detects_ptolemy():
    # x13x24 - x12x34 - x14x23 = 0 in the plus chirality, tensored with 1
    pts = (1, 2, 3, 4)
    t = (
        two_chiral_monomial(pts, 1, {(1, 3): 1, (2, 4): 1}, {})
        + two_chiral_monomial(pts, -1, {(1, 2): 1, (3, 4): 1}, {})
        + two_chiral_monomial(pts, -1, {(1, 4): 1, (2, 3): 1}, {})
    )
    assert t.is_zero_function()


def test_two_chiral_cross_terms():
    pts = (1, 2, 3)
    # (x12+ x23-) - (x23- x12+) = 0; then a genuine nonzero
    t = two_chiral_monomial(pts, 1, {(1, 2): 1}, {(2, 3): 1}) + two_chiral_monomial(
        pts, -1, {(1, 2): 1}, {(2, 3): 1}
    )
    assert t.is_zero_function()
    nz = two_chiral_monomial(pts, 1, {(1, 2): 1}, {(2, 3): 1}) + two_chiral_monomial(
        pts, -1, {(2, 3): 1}, {(1, 2): 1}
    )
    assert not nz.is_zero_function()


def test_two_chiral_bilinear_cancellation():
    # x13+ (x12- + x23-) - (x12+ + x23+) x13- + [swap] style identity:
    # (x12+ + x23+) tensor x13-  equals  x13+ tensor x13- after plus-side Ptolemy
    pts = (1, 2, 3)
    t = (
        two_chiral_monomial(pts, 1, {(1, 2): 1}, {(1, 3): 1})
        + two_chiral_monomial(pts, 1, {(2, 3): 1}, {(1, 3): 1})
        + two_chiral_monomial(pts, -1, {(1, 3): 1}, {(1, 3): 1})
    )
    assert t.is_zero_function()


def test_two_chiral_dependent_minus_rows_nonzero():
    # both terms carry x13-, so the minus-side rows (z1 and z2 coefficients
    # per term) coincide; the plus side x12+ + x23+ = x13+ is still nonzero
    pts = (1, 2, 3)
    t = two_chiral_monomial(pts, 1, {(1, 2): 1}, {(1, 3): 1}) + two_chiral_monomial(
        pts, 1, {(2, 3): 1}, {(1, 3): 1}
    )
    assert not t.is_zero_function()
    assert (t - two_chiral_monomial(pts, 1, {(1, 3): 1}, {(1, 3): 1})).is_zero_function()


pair_monomials = st.dictionaries(
    st.sampled_from([(1, 2), (1, 3), (2, 3)]),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    max_size=3,
)
pair_sums = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=3), pair_monomials),
    max_size=4,
)


def _pair_sum(monos):
    out = PairSum.zero((1, 2, 3))
    for c, exps in monos:
        out = out + mono((1, 2, 3), c, exps)
    return out


@given(pair_sums, pair_sums, st.fractions(min_value=-2, max_value=2, max_denominator=3))
@settings(max_examples=40, deadline=None)
def test_add_scaled_is_in_place_add(ma, mb, c):
    a, b = _pair_sum(ma), _pair_sum(mb)
    expected = a + b.scale(c)
    b_terms = dict(b.terms)
    a.add_scaled(b, c)
    assert a.terms == expected.terms
    assert b.terms == b_terms


@given(
    pair_sums,
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda c: c != 0),
)
@settings(max_examples=40, deadline=None)
def test_proportional_to_own_multiple(m, c):
    # classes with half-integer exponents expand over one shared base per side
    p = _pair_sum(m)
    assume(not p.is_zero_function())
    assert p.proportional_to(p.scale(c)) == 1 / c
    assert p.scale(c).proportional_to(p) == c


def test_adjacent_expansion_names_a_non_integer_offset():
    # exponents 1/2 and 2/2 on x12 share the base 1/2 and differ by 1/2
    keys = [(((1, 2), 1),), (((1, 2), 2),)]
    message = r"^pair \(1, 2\): exponent 2/2 is not an integer away from the class base 1/2$"
    with pytest.raises(ConsistencyError, match=message):
        _adjacent_expansions((1, 2, 3), keys, 2)


def _refuse_expansion(*args):
    raise AssertionError("expanded although the certificate decides")


def test_a_nonzero_value_decides_without_expanding(monkeypatch):
    pts = (1, 2, 3)
    s = mono(pts, 1, {(1, 3): F(1, 2)}) + mono(pts, 2, {(1, 2): 1, (2, 3): -1})
    ref = s.scale(F(-3, 4))
    monkeypatch.setattr(pairs_module, "_adjacent_expansions", _refuse_expansion)
    assert not s.is_zero_function()
    # equal keys with one coefficient ratio: no expansion either
    assert s.proportional_to(ref) == F(-4, 3)


def test_certificate_point_is_a_chain_of_positive_distinct_differences():
    x = _pair_values((1, 2, 3, 5))
    z = [x[(1, 2)], x[(2, 3)], x[(3, 5)]]
    assert all(v > 0 for v in z) and len(set(z)) == 3
    assert x[(1, 3)] == z[0] + z[1] and x[(2, 5)] == z[1] + z[2] and x[(1, 5)] == sum(z)


def test_a_sum_that_vanishes_at_the_certificate_point_is_expanded():
    # z2* x12 - z1* x23 is zero at the point, where x12 = z1* and x23 = z2*,
    # and nowhere near zero as a function
    pts = (1, 2, 3)
    x = _pair_values(pts)
    s = mono(pts, x[(2, 3)], {(1, 2): 1}) - mono(pts, x[(1, 2)], {(2, 3): 1})
    assert x[(2, 3)] * x[(1, 2)] - x[(1, 2)] * x[(2, 3)] == 0
    assert s.is_zero_function() is False
    assert is_zero_function_expanded(s) is False
    # and a multiple of it hidden under x13 - x12 - x23 = 0 is still matched
    hidden = s.scale(3) + s.mul_monomial(1, {(1, 3): 1}) - s.mul_monomial(1, {(1, 2): 1}) \
        - s.mul_monomial(1, {(2, 3): 1})
    assert hidden.proportional_to(s) == 3 == proportional_to_expanded(hidden, s)


@given(
    pair_sums,
    pair_sums,
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda c: c != 0),
)
@settings(max_examples=60, deadline=None)
def test_certificate_verdicts_match_the_full_expansions(ma, mb, c):
    a, b = _pair_sum(ma), _pair_sum(mb)
    z = ptolemy_zero(a)
    for s in (a, b, z, a + z, a - b, z + b, b + ptolemy_zero(b)):
        assert s.is_zero_function() == is_zero_function_expanded(s)
    # a + z is a multiple of a.scale(c) with another key set
    hidden = a + z
    # z.scale(c) and z share their keys and one ratio, yet z is the zero function
    for x, y in ((a, b), (hidden, a.scale(c)), (a.scale(c), hidden), (z, a), (a, z),
                 (a + b, b), (a, a.scale(c)), (hidden, b + ptolemy_zero(b)), (z.scale(c), z)):
        assert x.proportional_to(y) == proportional_to_expanded(x, y)
    if not is_zero_function_expanded(a):
        assert hidden.proportional_to(a.scale(c)) == 1 / c
