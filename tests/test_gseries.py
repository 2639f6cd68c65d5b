from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft import gseries
from exactcft.gseries import closed_coefficient, completion_series, verify_biharmonic
from exactcft.poly import MultiPoly
from exactcft.series import TruncatedSeries
from oracles import coeffs, is_canonical, power, verify_biharmonic_fractions

F = Fraction


def test_closed_coefficients():
    g = completion_series(6, "closed")
    assert g.coefficient((0, 0)) == 1
    assert g.coefficient((1, 1)) == F(1, 3)
    assert g.coefficient((2, 1)) == F(1, 6)
    assert g.coefficient((2, 2)) == F(2, 15)
    assert g.coefficient((3, 0)) == 0
    assert g.coefficient((0, 2)) == 0


def test_recursion_matches_closed():
    for cap in (4, 8, 12):
        rec = completion_series(cap, "recursion")
        clo = completion_series(cap, "closed")
        assert rec == clo


def test_biharmonic_residual_vanishes():
    g = completion_series(10, "closed")
    assert verify_biharmonic(g).is_zero()


def test_biharmonic_residual_detects_perturbation():
    g = completion_series(6, "closed")
    terms = coeffs(g)
    terms[(1, 1)] = F(1, 2)
    broken = TruncatedSeries(g.variables, 6, terms)
    res = verify_biharmonic(broken)
    assert not res.is_zero()
    # lowest broken instance is the first one: residual starts at s-order 1
    assert res.coefficient((1, 1)) != 0


def test_biharmonic_requires_cap():
    with pytest.raises(ValueError):
        verify_biharmonic(completion_series(1, "closed"))


def test_constant_series_satisfies_leading_order_only():
    # the order-0 instance is vacuous; the first recursion instance breaks
    one = TruncatedSeries(("u_plus", "u_minus"), 4, {(0, 0): F(1)})
    res = verify_biharmonic(one)
    assert not res.is_zero()
    assert res.coefficient((0, 0)) == 0
    assert res.coefficient((1, 0)) == 0
    assert res.coefficient((1, 1)) != 0


def test_biharmonic_requires_symmetry():
    terms = {(0, 0): F(1), (1, 0): F(1)}
    bad = TruncatedSeries(("u_plus", "u_minus"), 4, terms)
    with pytest.raises(ValueError):
        verify_biharmonic(bad)


def test_closed_coefficient_function():
    assert closed_coefficient(0, 0) == 1
    assert closed_coefficient(4, 0) == 0
    assert closed_coefficient(1, 2) == F(2 * 2, 3 * 8)


# -- the integer profile machinery against the series-composition forms ------

W = ("w",)
GVARS = ("u_plus", "u_minus")
SW = ("s", "w")

# mixed denominators, zero often
coeff_values = st.one_of(st.just(F(0)), st.fractions(F(-7), F(7), max_denominator=12))


def _w_series(g):
    """The profile list g as a TruncatedSeries in w with cap len(g) - 1."""
    return TruncatedSeries(W, len(g) - 1, {(j,): c for j, c in enumerate(g)})


def _coeffs(series):
    return [series.coefficient((j,)) for j in range(series.cap + 1)]


def _one_minus_w(cap):
    return TruncatedSeries(W, cap, {(0,): F(1), (1,): F(-1)})


def oracle_t_euler(profile):
    """t d/dt = -(1-w) d/dw, as a series product."""
    return -(_one_minus_w(profile.cap) * profile.differentiate("w"))


def oracle_recursion_rhs(prev, n):
    inner = prev.scale(n) + oracle_t_euler(prev)
    return inner - oracle_t_euler(inner)


def oracle_lhs_op(profile, n):
    one_minus_w = _one_minus_w(profile.cap)
    w_one_minus_w = (1 - one_minus_w) * one_minus_w
    return profile * (one_minus_w.scale(n + 1) + 1) + w_one_minus_w * profile.differentiate("w")


def oracle_profile_series(n, profile, cap):
    """s^n g(w) in the chiral variables by repeated series products."""
    s = TruncatedSeries(GVARS, cap, {(1, 1): F(1)})
    w = TruncatedSeries(GVARS, cap, {(1, 0): F(1), (0, 1): F(1), (1, 1): F(-1)})
    w_poly = TruncatedSeries(GVARS, cap)
    wpow = TruncatedSeries(GVARS, cap, {(0, 0): 1})
    for j in range(max((e for (e,) in profile.terms), default=-1) + 1):
        if j:
            wpow = wpow * w
        c = profile.coefficient((j,))
        if c:
            w_poly.add_scaled(wpow, c)
    return power(s, n) * w_poly


def oracle_power_sum(k, cap):
    """p_k = u+^k + u-^k in s and w by MultiPoly products, terms of 2n + j > cap dropped."""
    e1 = MultiPoly(SW, {(1, 0): F(1), (0, 1): F(1)})
    e2 = MultiPoly(SW, {(1, 0): F(1)})
    sums = [MultiPoly.constant(SW, 2), e1]
    while len(sums) <= k:
        p = e1 * sums[-1] - e2 * sums[-2]
        sums.append(MultiPoly(SW, {(n, j): c for (n, j), c in coeffs(p).items() if 2 * n + j <= cap}))
    return sums[k]


def oracle_sw_components(series):
    """The w-profiles of a symmetric double series through MultiPoly power sums."""
    cap = series.cap
    items = []
    for (a, b), c in coeffs(series).items():
        if a >= b:
            p = oracle_power_sum(a - b, cap) if a > b else MultiPoly.constant(SW, 1)
            items += [((n + b, j), c * d) for (n, j), d in coeffs(p).items()]
    total = coeffs(MultiPoly(SW).set_values(items))
    return [
        TruncatedSeries(W, cap - 2 * n, {(j,): c for (m, j), c in total.items() if m == n})
        for n in range(cap // 2 + 1)
    ]


def oracle_verify(series):
    cap = series.cap
    comp = oracle_sw_components(series)
    residual = TruncatedSeries(GVARS, cap - 1)
    for n in range(1, (cap - 1) // 2 + 1):
        res_n = oracle_lhs_op(comp[n].scale(factorial(n)), n) - oracle_recursion_rhs(
            comp[n - 1].scale(factorial(n - 1)), n
        )
        residual.add_scaled(oracle_profile_series(n, res_n, cap - 1), F(1, factorial(n - 1)))
    return residual


profiles = st.integers(0, 12).flatmap(lambda cap: st.lists(coeff_values, min_size=cap + 1, max_size=cap + 1))


@given(profiles, st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_profile_operators_match_series_compositions(g, n):
    cap = len(g) - 1
    for got, order, oracle in (
        (gseries._t_euler(g), 1, oracle_t_euler),
        (gseries._lhs_op(g, n), 1, lambda p: oracle_lhs_op(p, n)),
        (gseries._recursion_rhs(g, n), 2, lambda p: oracle_recursion_rhs(p, n)),
    ):
        # each map is exact through `order` fewer coefficients than its input
        assert len(got) == max(cap + 1 - order, 0)
        if cap >= order:
            assert got == _coeffs(oracle(_w_series(g)))


@pytest.mark.parametrize("cap", range(13))
def test_profile_operators_send_zero_to_zero(cap):
    zero = [F(0)] * (cap + 1)
    assert not any(gseries._t_euler(zero) + gseries._lhs_op(zero, 3))
    assert not any(gseries._recursion_rhs(zero, 2))


def _int_profile(g: list) -> tuple[int, list[int]]:
    """(D, D g) for a list of Fractions g, D its least common denominator."""
    den = lcm(*(F(c).denominator for c in g))
    return den, [int(c * den) for c in g]


def test_solve_profile_inverts_lhs_op():
    rhs = [F(1, j + 2) - j for j in range(9)]
    den, nums = _int_profile(rhs)
    for n in range(1, 5):
        # the solution at the length of rhs is exact one order below it
        sden, g = gseries._solve_profile(nums, den, n)
        assert all(type(x) is int for x in g)
        assert gseries._lhs_op([F(x, sden) for x in g], n) == rhs[:-1]


@pytest.mark.parametrize("cap", [0, 1, 2, 7, 12, 24])
def test_recursion_profiles_match_the_fraction_route(cap):
    """The int profiles over running denominators are the profiles of the
    triangular solve in Fractions, gamma_j = ((n+j) gamma_{j-1} + rhs_j) / (n+2+j)."""
    expected = [[F(1)] + [F(0)] * cap]
    for n in range(1, cap // 2 + 1):
        gamma, prev = [], F(0)
        for j, r in enumerate(gseries._recursion_rhs(expected[-1], n)):
            prev = ((n + j) * prev + r) / (n + 2 + j)
            gamma.append(prev)
        expected.append(gamma)
    got = gseries._recursion_profiles(cap)
    assert [[F(x, den) for x in g] for den, g in got] == expected
    assert all(type(x) is int for _, g in got for x in g)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_profile_assembly_matches_series_products(data):
    cap = data.draw(st.integers(0, 12), label="cap")
    family = [
        data.draw(st.lists(coeff_values, min_size=cap - 2 * n + 1, max_size=cap - 2 * n + 1))
        for n in range(cap // 2 + 1)
    ]
    expected = TruncatedSeries(GVARS, cap)
    for n, g in enumerate(family):
        expected.add_scaled(oracle_profile_series(n, _w_series(g), cap), F(1, factorial(n)))
    got = gseries._assemble_from_profiles([_int_profile(g) for g in family], cap)
    assert got == expected
    assert is_canonical(got)


def test_zero_profiles_assemble_to_zero():
    for cap in range(13):
        family = [(1, [0] * (cap - 2 * n + 1)) for n in range(cap // 2 + 1)]
        assert gseries._assemble_from_profiles(family, cap) == TruncatedSeries(GVARS, cap)


@pytest.mark.parametrize("cap", range(13))
def test_power_sums_match_multipoly_products(cap):
    sums = gseries._power_sums(cap, cap)
    for k in range(cap + 1):
        expected = oracle_power_sum(k, cap)
        assert {e: F(c) for e, c in sums[k].items()} == coeffs(expected)
        assert all(type(c) is int for c in sums[k].values())


symmetric_series = st.integers(0, 12).flatmap(
    lambda cap: st.dictionaries(
        st.tuples(st.integers(0, cap), st.integers(0, cap)).filter(
            lambda e: e[0] >= e[1] and sum(e) <= cap
        ),
        coeff_values,
        max_size=20,
    ).map(
        lambda half: TruncatedSeries(
            GVARS, cap, {**half, **{(b, a): c for (a, b), c in half.items()}}
        )
    )
)


@given(symmetric_series)
@settings(max_examples=80, deadline=None)
def test_sw_components_match_multipoly_power_sums(series):
    den, got = gseries._to_sw_components(series)
    assert [[F(c, den) for c in g] for g in got] == [_coeffs(p) for p in oracle_sw_components(series)]
    assert all(type(c) is int for g in got for c in g)


@given(symmetric_series.filter(lambda s: s.cap >= 2))
@settings(max_examples=40, deadline=None)
def test_biharmonic_residual_matches_series_composition(series):
    assert verify_biharmonic(series) == oracle_verify(series)


def _perturbed(g, key, delta):
    """g with delta added at key and at its mirror image, so it stays symmetric."""
    terms = coeffs(g)
    for e in {key, key[::-1]}:
        terms[e] = terms.get(e, F(0)) + delta
    return TruncatedSeries(g.variables, g.cap, terms)


@pytest.mark.parametrize("cap", [2, 3, 7, 12, 24])
def test_integer_residual_matches_the_fraction_route(cap):
    for method in ("closed", "recursion"):
        g = completion_series(cap, method)
        assert verify_biharmonic(g) == verify_biharmonic_fractions(g) == TruncatedSeries(GVARS, cap - 1)
    g = completion_series(cap, "closed")
    for key, delta in (((1, 1), F(1, 2)), ((2, 0), F(-3, 7)), ((cap // 2, cap // 2), F(5))):
        broken = _perturbed(g, key, delta)
        res = verify_biharmonic(broken)
        assert res == verify_biharmonic_fractions(broken)
        # a term at s-order n breaks the instances n and n + 1; the lowest shows
        n = min(key)
        if n <= (cap - 1) // 2 and max(key) + n < cap:
            assert not res.is_zero()
            assert min(min(e) for e in res.terms) == max(n, 1)
