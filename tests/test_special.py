from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.errors import DegenerateParameterError
from exactcft.special import (
    format_rational,
    gauss_2f1_coeff,
    legendre_coeffs,
    parse_rational,
    pochhammer,
)

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8
)


def test_pochhammer_small():
    assert pochhammer(3, 2) == 12
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(5, 0) == 1
    assert pochhammer(0, 4) == 0


def fraction_pochhammer(x, n):
    """(x)_n as a plain product of Fractions."""
    out = Fraction(1)
    for k in range(n):
        out *= Fraction(x) + k
    return out


pochhammer_args = st.one_of(
    st.integers(-40, -1),
    st.just(0),
    st.integers(1, 40),
    st.fractions(Fraction(-12), Fraction(0), max_denominator=9),
    # large denominators: the q^n of the integer product grows fast
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(10**6, 10**12)),
)


@given(pochhammer_args, st.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_pochhammer_matches_fraction_product(x, n):
    got = pochhammer(x, n)
    assert type(got) is Fraction
    assert got == fraction_pochhammer(x, n)


def test_pochhammer_vanishes_at_non_positive_integers():
    assert pochhammer(-3, 5) == 0 == fraction_pochhammer(-3, 5)
    assert pochhammer(-3, 4) == 0
    assert pochhammer(-3, 3) == -6
    assert pochhammer(Fraction(-6, 2), 4) == 0
    assert pochhammer(Fraction(-5, 2), 30) == fraction_pochhammer(Fraction(-5, 2), 30) != 0


def test_pochhammer_rejects_negative_order():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        pochhammer(0, -3)


@given(rationals, st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_pochhammer_splits(x, m, n):
    assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


def test_gauss_coeff():
    assert gauss_2f1_coeff(2, 2, 4, 1) == 1
    assert gauss_2f1_coeff(1, 1, 1, 0) == 1
    with pytest.raises(DegenerateParameterError):
        gauss_2f1_coeff(1, 1, -2, 3)


@given(rationals, rationals, rationals, st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_gauss_coeff_matches_fraction_quotient(a, b, c, ell):
    denom = fraction_pochhammer(c, ell)
    if denom == 0:
        with pytest.raises(DegenerateParameterError):
            gauss_2f1_coeff(a, b, c, ell)
    else:
        expected = fraction_pochhammer(a, ell) * fraction_pochhammer(b, ell) / denom
        assert gauss_2f1_coeff(a, b, c, ell) == expected / factorial(ell)


def test_legendre_low_orders():
    assert legendre_coeffs(0) == {0: 1}
    assert legendre_coeffs(1) == {1: 1}
    assert legendre_coeffs(2) == {2: Fraction(3, 2), 0: Fraction(-1, 2)}


def test_legendre_three_term_recurrence():
    for L in range(1, 13):
        lhs = {p: (L + 1) * c for p, c in legendre_coeffs(L + 1).items()}
        rhs: dict[int, Fraction] = {}
        for p, c in legendre_coeffs(L).items():
            rhs[p + 1] = rhs.get(p + 1, Fraction(0)) + (2 * L + 1) * c
        for p, c in legendre_coeffs(L - 1).items():
            rhs[p] = rhs.get(p, Fraction(0)) - L * c
        rhs = {p: c for p, c in rhs.items() if c != 0}
        assert lhs == rhs


def test_legendre_value_at_one():
    for L in range(9):
        assert sum(legendre_coeffs(L).values()) == 1


def test_rational_round_trip():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-2)) == "-2"
    assert parse_rational("9/10") == Fraction(9, 10)
    assert parse_rational("-7") == -7
