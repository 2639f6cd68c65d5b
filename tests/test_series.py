import operator
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.errors import VariableMismatchError
from exactcft.poly import MultiPoly
from exactcft.series import TruncatedSeries
from exactcft.waves import WaveSpec, chiral_wave_series
from oracles import coeffs, series_from_ratios

U = ("u",)


def test_truncation_on_multiply():
    one_plus = TruncatedSeries(U, 1, {(0,): 1, (1,): 1})
    one_minus = TruncatedSeries(U, 1, {(0,): 1, (1,): -1})
    prod = one_plus * one_minus
    assert prod == TruncatedSeries(U, 1, {(0,): 1})


def test_cap_is_minimum():
    a = TruncatedSeries(U, 5, {(0,): 1})
    b = TruncatedSeries(U, 2, {(0,): 1})
    assert (a * b).cap == 2
    assert (a + b).cap == 2


def test_addition_requires_same_vars():
    a = TruncatedSeries(U, 3, {(0,): 1})
    b = TruncatedSeries(("v",), 3, {(0,): 1})
    with pytest.raises(VariableMismatchError):
        a + b


@given(
    st.dictionaries(st.tuples(st.integers(0, 4)), st.fractions(max_denominator=5, min_value=-3, max_value=3), max_size=5),
    st.dictionaries(st.tuples(st.integers(0, 4)), st.fractions(max_denominator=5, min_value=-3, max_value=3), max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_series_product_matches_poly_product(t1, t2):
    cap = 4
    s1 = TruncatedSeries(U, cap, t1)
    s2 = TruncatedSeries(U, cap, t2)
    p1 = MultiPoly(U, t1)
    p2 = MultiPoly(U, t2)
    full = p1 * p2
    truncated = {e: c for e, c in coeffs(full).items() if sum(e) <= cap}
    assert coeffs(s1 * s2) == truncated


series_terms = st.dictionaries(
    st.tuples(st.integers(0, 6)),
    st.fractions(max_denominator=5, min_value=-3, max_value=3),
    max_size=6,
)


@given(
    series_terms,
    series_terms,
    st.integers(0, 6),
    st.integers(0, 6),
    st.fractions(max_denominator=4, min_value=-2, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_add_scaled_is_in_place_add(t1, t2, cap1, cap2, c):
    a = TruncatedSeries(U, cap1, t1)
    b = TruncatedSeries(U, cap2, t2)
    expected = a + b * c
    b_terms = dict(b.terms)
    assert a.add_scaled(b, c) is a
    # the accumulator takes the smaller cap and drops every term past it
    assert a == expected
    assert a.cap == min(cap1, cap2)
    assert all(sum(e) <= a.cap for e in a.terms)
    assert b.terms == b_terms


def test_series_and_polynomial_do_not_mix():
    s = TruncatedSeries(U, 3, {(1,): 1})
    p = MultiPoly(U, {(1,): 1})
    assert s != p and p != s
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(VariableMismatchError):
            op(s, p)
        with pytest.raises(VariableMismatchError):
            op(p, s)


def _filtered_product_oracle(nv, cap, coeff):
    """The enumeration from_coefficients replaces: filter the full box."""
    terms = {}
    for e in product(range(cap + 1), repeat=nv):
        if sum(e) <= cap and coeff(e) != 0:
            terms[e] = Fraction(coeff(e))
    return terms


@pytest.mark.parametrize("nv", range(5))
@pytest.mark.parametrize("cap", range(7))
def test_from_coefficients_matches_filtered_product(nv, cap):
    variables = tuple(f"x{k}" for k in range(nv))

    def coeff(e):
        # zero on some tuples, so pruning is exercised too
        return Fraction(sum((k + 1) * x for k, x in enumerate(e)) % 3, 1 + sum(e))

    s = TruncatedSeries.from_coefficients(variables, cap, coeff)
    oracle = _filtered_product_oracle(nv, cap, coeff)
    assert s.cap == cap
    assert list(coeffs(s).items()) == list(oracle.items())  # same lex order
    full = TruncatedSeries.from_coefficients(variables, cap, lambda e: 1)
    assert len(full) == comb(cap + nv, nv)


@pytest.mark.parametrize("nv", range(5))
@pytest.mark.parametrize("cap", range(7))
def test_from_ratios_matches_closed_coefficients(nv, cap):
    # c(e + 1_k) / c(e) = (t_k - e_k) / (e_k + 1) gives prod_k binom(t_k, e_k),
    # which vanishes past e_k = t_k: zero terms are dropped but still feed
    # the tuples after them
    tops = (2, 5, 1, 3)[:nv]
    variables = tuple(f"x{k}" for k in range(nv))
    s = series_from_ratios(variables, cap, lambda e, k: (tops[k] - e[k], e[k] + 1))

    def closed(e):
        out = 1
        for t, x in zip(tops, e):
            out *= comb(t, x)
        return out

    oracle = TruncatedSeries.from_coefficients(variables, cap, closed)
    assert s.cap == cap
    assert list(coeffs(s).items()) == list(coeffs(oracle).items())  # same lex order


def test_from_ratios_calls_ratio_after_a_zero_term():
    def ratio(e, k):
        if e[k] == 2:
            raise ZeroDivisionError(f"pole at {e}")
        return 1 - e[k], 1  # every term past x^1 is zero

    assert coeffs(series_from_ratios(U, 2, ratio)) == {(0,): 1, (1,): 1}
    with pytest.raises(ZeroDivisionError, match=r"pole at \(2,\)"):
        series_from_ratios(U, 3, ratio)


def test_three_point_wave_has_no_variables():
    # nv = 0 above; the n = 3 wave has no cross ratios and one constant term
    wave = chiral_wave_series(WaveSpec((1, 2, 3), (1, 3)), 5)
    assert wave.series == TruncatedSeries((), 5, {(): 1})


def test_derivative_lowers_the_cap():
    # u^2 + O(u^3) says nothing about the u^2 term of its derivative: the
    # unknown u^3 term contributes there
    d = TruncatedSeries(("u",), 2, {(2,): 1}).differentiate("u")
    assert d == TruncatedSeries(("u",), 1, {(1,): 2})
    s = TruncatedSeries(("u", "v"), 3, {(1, 2): 3, (0, 3): 1, (2, 0): Fraction(1, 2)})
    assert s.differentiate("v") == TruncatedSeries(("u", "v"), 2, {(1, 1): 6, (0, 2): 3})
    with pytest.raises(ValueError):
        TruncatedSeries(("u",), 0, {(0,): 1}).differentiate("u")
