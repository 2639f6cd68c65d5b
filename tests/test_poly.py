from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.errors import SingularDiagonalError, VariableMismatchError
from exactcft.pairs import PairSum
from exactcft.poly import MultiPoly, _grlex_key
from exactcft.series import TruncatedSeries
from oracles import (
    add_fraction_term,
    coeffs,
    frac_key,
    frac_terms,
    fraction_derivative,
    fraction_product,
    fraction_sum,
    fraction_truncation,
    is_canonical,
    power,
    ref_differentiate,
    ref_merge_adjacent,
    ref_relabel,
)

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
    assert p.sorted_terms() == sorted(coeffs(p).items(), key=lambda kv: _grlex_key(kv[0]))


def test_power():
    p = MultiPoly(VARS, {(1, 0): 1, (0, 0): 1})
    assert power(p, 3) == MultiPoly(VARS, {(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1})
    assert power(p, 0) == MultiPoly.constant(VARS, 1)


@given(poly_strategy(), poly_strategy(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_add_scaled_is_in_place_add(a, b, c):
    expected = a + b * c
    b_terms = dict(b.terms)
    assert a.add_scaled(b, c) is a
    assert a == expected
    assert b.terms == b_terms


# -- the one representation: every result canonical, every value exact ----------

values = st.fractions(min_value=-5, max_value=5, max_denominator=12)
two_var_terms = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), values, max_size=6)


def _exact(got, want: dict) -> None:
    assert is_canonical(got), (got.terms, got.den)
    assert coeffs(got) == want


@given(two_var_terms, two_var_terms, values)
@settings(max_examples=80, deadline=None)
def test_poly_results_are_canonical_and_match_fractions(t1, t2, f):
    a, b = MultiPoly(VARS, t1), MultiPoly(VARS, t2)
    fa, fb = coeffs(a), coeffs(b)
    assert fa == {e: Fraction(c) for e, c in t1.items() if c}
    _exact(a, fa)
    _exact(a + b, fraction_sum(fa, fb))
    _exact(a - b, fraction_sum(fa, fb, -1))
    _exact(a * b, fraction_product(fa, fb))
    _exact(a.scale(f), {e: c * f for e, c in fa.items() if c * f})
    _exact(a.differentiate("x"), fraction_derivative(fa, 0))
    _exact(a.differentiate("y"), fraction_derivative(fa, 1))


@given(two_var_terms, two_var_terms, values, st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_series_results_are_canonical_and_match_fractions(t1, t2, f, cap1, cap2, cut):
    # exponents reach total order 8, so the caps and the cut drop terms
    a, b = TruncatedSeries(VARS, cap1, t1), TruncatedSeries(VARS, cap2, t2)
    fa = fraction_truncation({e: Fraction(c) for e, c in t1.items() if c}, cap1)
    fb = fraction_truncation({e: Fraction(c) for e, c in t2.items() if c}, cap2)
    cap = min(cap1, cap2)
    _exact(a, fa)
    _exact(a + b, fraction_truncation(fraction_sum(fa, fb), cap))
    _exact(a - b, fraction_truncation(fraction_sum(fa, fb, -1), cap))
    _exact(a * b, fraction_product(fa, fb, cap))
    _exact(a.scale(f), {e: c * f for e, c in fa.items() if c * f})
    _exact(a.truncate(cut), fraction_truncation(fa, cut))
    if cap1:
        _exact(a.differentiate("x"), fraction_truncation(fraction_derivative(fa, 0), cap1 - 1))
    acc = TruncatedSeries(VARS, cap1, t1)
    acc.add_scaled(b, f)
    _exact(acc, fraction_truncation(fraction_sum(fa, {e: c * f for e, c in fb.items()}), cap))


def test_truncation_that_drops_terms_renormalises():
    s = TruncatedSeries(("x",), 2, {(0,): Fraction(1, 2), (1,): 1, (2,): Fraction(1, 3)})
    assert s.den == 6
    assert s.truncate(1).den == 2 and s.truncate(1).terms == {(0,): 1, (1,): 2}
    assert TruncatedSeries(("x",), 1, {(0,): Fraction(1, 2), (2,): Fraction(1, 3)}).den == 2
    empty = s.truncate(0) - s.truncate(0)
    assert empty.terms == {} and empty.den == 1


PTS = (1, 2, 3, 4)
PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
pair_exponents = st.sampled_from([Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])
pair_monomials = st.lists(
    st.tuples(values, st.dictionaries(st.sampled_from(PAIRS), pair_exponents, max_size=3)),
    max_size=5,
)


def _same(got, ref) -> None:
    """got() and ref() raise the same error, or got() is canonical and equals ref()."""
    try:
        want = ref()
    except (SingularDiagonalError, ValueError) as exc:
        with pytest.raises(type(exc)):
            got()
        return
    result = got()
    assert is_canonical(result), (result.terms, result.den)
    assert frac_terms(result) == want


@given(pair_monomials, values, st.dictionaries(st.sampled_from(PAIRS), pair_exponents, max_size=2),
       st.permutations(PTS), st.booleans())
@settings(max_examples=80, deadline=None)
def test_pair_sum_results_are_canonical_and_match_fractions(monos, c, exps, image, antisym):
    ps = PairSum(PTS, None, antisym)
    for coeff, mono in monos:
        ps.add_scaled(PairSum.monomial(PTS, coeff, mono, antisym))
    ref = {}
    for coeff, mono in monos:
        add_fraction_term(ref, frac_key(mono), coeff)
    assert is_canonical(ps) and frac_terms(ps) == ref
    for p in PTS:
        _same(lambda: ps.differentiate(p), lambda: ref_differentiate(ref, p))
    for i in PTS[:-1]:
        _same(lambda: ps.merge_adjacent(i), lambda: ref_merge_adjacent(ref, i))
    mapping = dict(zip(PTS, image))
    _same(lambda: ps.relabel(mapping), lambda: ref_relabel(ref, mapping, antisym))
    shifted = {}
    for key, v in ref.items():
        add_fraction_term(shifted, frac_key({**dict(key), **{pr: dict(key).get(pr, 0) + e for pr, e in exps.items()}}), v * c)
    _same(lambda: ps.mul_monomial(c, exps), lambda: shifted)
