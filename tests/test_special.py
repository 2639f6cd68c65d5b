from fractions import Fraction

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


@given(rationals, st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_pochhammer_splits(x, m, n):
    assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


def test_gauss_coeff():
    assert gauss_2f1_coeff(2, 2, 4, 1) == 1
    assert gauss_2f1_coeff(1, 1, 1, 0) == 1
    with pytest.raises(DegenerateParameterError):
        gauss_2f1_coeff(1, 1, -2, 3)


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
