from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.errors import VariableMismatchError
from exactcft.poly import MultiPoly, _grlex_key

VARS = ("x", "y")


def poly_strategy():
    coeff = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, coeff, max_size=5).map(lambda t: MultiPoly(VARS, t))


def test_construct_and_compare():
    p = MultiPoly(VARS, {(1, 0): 2, (0, 0): 1})
    q = MultiPoly(VARS, {(0, 0): 1, (1, 0): 2})
    assert p == q
    assert p != MultiPoly(VARS, {(1, 0): 2})
    assert MultiPoly(VARS, {(1, 1): 0}).is_zero()


def test_variable_mismatch():
    p = MultiPoly(VARS, {(1, 0): 1})
    q = MultiPoly(("x",), {(1,): 1})
    with pytest.raises(VariableMismatchError):
        p + q


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_ring_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_ring_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a


def test_differentiate():
    x2 = MultiPoly(VARS, {(2, 0): 1})
    assert x2.differentiate("x") == MultiPoly(VARS, {(1, 0): 2})
    assert x2.differentiate("y").is_zero()


def test_sorted_terms_graded_lex():
    p = MultiPoly(VARS, {(0, 2): 1, (1, 0): 1, (0, 0): 1, (2, 0): 1})
    order = [e for e, _ in p.sorted_terms()]
    assert order == [(0, 0), (1, 0), (0, 2), (2, 0)]


@given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), st.integers(1, 9), max_size=60))
@settings(max_examples=60, deadline=None)
def test_sorted_terms_match_one_sort_by_grlex_key(terms):
    p = MultiPoly(("x", "y", "z"), terms)
    assert p.sorted_terms() == sorted(p.terms.items(), key=lambda kv: _grlex_key(kv[0]))


def test_power():
    p = MultiPoly(VARS, {(1, 0): 1, (0, 0): 1})
    assert p**3 == MultiPoly(VARS, {(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1})
    assert p**0 == MultiPoly.constant(VARS, 1)


@given(poly_strategy(), poly_strategy(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_add_scaled_is_in_place_add(a, b, c):
    expected = a + b * c
    b_terms = dict(b.terms)
    assert a.add_scaled(b, c) is a
    assert a == expected
    assert b.terms == b_terms
