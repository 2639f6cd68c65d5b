"""The integer-numerator product and expansion kernel against naive Fraction
arithmetic.

Products and pair-difference expansions scale their operands to integer
numerators over one common denominator and divide each output term once.
The oracles below do the same work the plain way, one Fraction multiply-add
per pair of terms, and the kernel must agree with them exactly.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.pairs import PairSum, TwoChiralSum, bump
from exactcft.poly import MultiPoly
from exactcft.series import TruncatedSeries
from oracles import coeffs, fraction_product, is_canonical, power, ptolemy_zero, two_chiral_is_zero_twelve_point, two_chiral_monomial

F = Fraction
VARS = ("x", "y")


# few distinct exponents and mixed denominators, so products often cancel
coeff_values = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(-3, 4), F(5, 6), F(-7, 10), F(4)])
poly_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff_values, max_size=6)


@given(poly_terms, poly_terms)
@settings(max_examples=60, deadline=None)
def test_poly_product_matches_fraction_double_loop(t1, t2):
    a, b = MultiPoly(VARS, t1), MultiPoly(VARS, t2)
    prod = a * b
    assert coeffs(prod) == fraction_product(coeffs(a), coeffs(b))
    assert is_canonical(prod)


@given(poly_terms, poly_terms, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_series_product_matches_fraction_double_loop(t1, t2, cap1, cap2):
    a, b = TruncatedSeries(VARS, cap1, t1), TruncatedSeries(VARS, cap2, t2)
    prod = a * b
    assert prod.cap == min(cap1, cap2)
    assert coeffs(prod) == fraction_product(coeffs(a), coeffs(b), min(cap1, cap2))
    assert is_canonical(prod)


def test_products_cancel_to_exact_zeros():
    x, y = MultiPoly.var(VARS, "x"), MultiPoly.var(VARS, "y")
    half = F(1, 2)
    p = (x * half + y * F(1, 3)) * (x * half - y * F(1, 3))
    assert coeffs(p) == {(2, 0): F(1, 4), (0, 2): F(-1, 9)}
    assert is_canonical(p)
    # every product term lies past the smaller cap
    s = TruncatedSeries(VARS, 3, {(1, 0): half}) * TruncatedSeries(VARS, 1, {(0, 1): F(2, 3)})
    assert s.terms == {} and s.den == 1 and s.cap == 1
    # integral operands give integral numerators over den 1
    cube = power(x + 1, 3)
    assert is_canonical(cube) and cube.den == 1


# -- pair-difference sums ------------------------------------------------------


def naive_expansions(points, keys):
    """Each key over the least exponent per pair, expanded in the adjacent
    differences z_a + ... + z_{b-1} by repeated Fraction products."""
    nz = len(points) - 1
    pos = {p: k for k, p in enumerate(points)}
    dicts = [dict(k) for k in keys]
    pairs = {pr for d in dicts for pr in d}
    base = {pr: min(d.get(pr, F(0)) for d in dicts) for pr in pairs}
    out = []
    for d in dicts:
        poly = {(0,) * nz: F(1)}
        for pr, b in base.items():
            rel = d.get(pr, F(0)) - b
            assert rel.denominator == 1
            lin = {
                tuple(int(k == m) for k in range(nz)): F(1)
                for m in range(pos[pr[0]], pos[pr[1]])
            }
            for _ in range(int(rel)):
                poly = fraction_product(poly, lin)
        out.append(poly)
    return out


def naive_weighted(points, union, weights):
    total = {}
    for key, poly in zip(union, naive_expansions(points, union)):
        w = weights.get(key, 0)
        for e, c in poly.items():
            total[e] = total.get(e, F(0)) + w * c
    return {e: c for e, c in total.items() if c}


def naive_classes(ps):
    groups = {}
    for key, c in coeffs(ps).items():
        key = tuple((pr, F(e, ps.exp_den)) for pr, e in key)  # exponents as Fractions
        ck = tuple((pr, e - (e.numerator // e.denominator)) for pr, e in key if e.denominator != 1)
        groups.setdefault(ck, {})[key] = c
    return groups


def naive_is_zero(ps):
    return all(
        not naive_weighted(ps.points, list(g), g) for g in naive_classes(ps).values()
    )


def naive_ratio(a, b):
    g1, g2 = naive_classes(a), naive_classes(b)
    lam = None
    for ck in set(g1) | set(g2):
        t1, t2 = g1.get(ck, {}), g2.get(ck, {})
        union = list(set(t1) | set(t2))
        p1 = naive_weighted(a.points, union, t1)
        p2 = naive_weighted(a.points, union, t2)
        if not p2:
            if p1:
                return None
            continue
        k = next(iter(p2))
        cand = p1.get(k, F(0)) / p2[k]
        if not cand or any(p1.get(e, F(0)) != cand * c for e, c in p2.items()) or set(p1) - set(p2):
            return None
        if lam is not None and lam != cand:
            return None
        lam = cand
    return lam


PTS = (1, 2, 3, 4)
PAIRS = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4)]
# half-integer offsets put terms into several exponent classes
exponents = st.sampled_from([F(-1), F(1), F(2), F(1, 2), F(3, 2), F(-1, 2)])
pair_terms = st.lists(
    st.tuples(coeff_values, st.dictionaries(st.sampled_from(PAIRS), exponents, max_size=3)),
    min_size=1,
    max_size=4,
)


def pair_sum(terms):
    out = PairSum(PTS)
    for c, exps in terms:
        out.add_scaled(PairSum.monomial(PTS, c, exps))
    return out


@given(pair_terms, pair_terms)
@settings(max_examples=40, deadline=None)
def test_pair_sum_verdicts_match_fraction_expansion(ta, tb):
    a, b = pair_sum(ta), pair_sum(tb)
    z = ptolemy_zero(a)
    assert z.is_zero_function() and naive_is_zero(z)
    for s in (a, b, z + b, a - b):
        assert s.is_zero_function() == naive_is_zero(s)
    # a multiple of a, hidden under a zero function
    assert (a + z).proportional_to(a.scale(F(3, 5))) == naive_ratio(a + z, a.scale(F(3, 5)))
    for x, y in ((a, b), (a + b, b), (z, a)):
        assert x.proportional_to(y) == naive_ratio(x, y)


def naive_two_chiral_is_zero(t):
    """Expand both chiral sides over their own bases into one polynomial in
    the plus and minus variables together."""
    items = list(t.terms.items())
    plus = naive_expansions(t.points, [kp for (kp, _), _ in items])
    minus = naive_expansions(t.points, [km for (_, km), _ in items])
    total = {}
    for (_, c), pp, pm in zip(items, plus, minus):
        for e1, c1 in pp.items():
            for e2, c2 in pm.items():
                total[e1 + e2] = total.get(e1 + e2, F(0)) + c * c1 * c2
    return not any(total.values())


int_exps = st.dictionaries(st.sampled_from(PAIRS), st.sampled_from([F(-1), F(1), F(2)]), max_size=2)
chiral_terms = st.lists(st.tuples(coeff_values, int_exps, int_exps), min_size=1, max_size=4)


def _ptolemy_on(t, side):
    """t times x13 - x12 - x23 on one chiral side: zero as a function."""
    items = []
    for (kp, km), c in coeffs(t).items():
        for pr, sign in (((1, 3), 1), ((1, 2), -1), ((2, 3), -1)):
            key = (bump(kp, {pr: 1}), km) if side == "plus" else (kp, bump(km, {pr: 1}))
            items.append((key, c * sign))
    return TwoChiralSum(t.points).set_values(items)


@given(chiral_terms, chiral_terms)
@settings(max_examples=40, deadline=None)
def test_two_chiral_verdicts_match_fraction_expansion(ta, tb):
    """The per-chirality outer products decide as the plain Fraction expansion
    and as one twelve-point PairSum (the minus sides on a copy of the points) do."""
    def build(terms):
        out = TwoChiralSum(PTS)
        for c, kp, km in terms:
            out.add_scaled(two_chiral_monomial(PTS, c, kp, km))
        return out

    a, b = build(ta), build(tb)
    zp, zm = _ptolemy_on(a, "plus"), _ptolemy_on(b, "minus")
    both = _ptolemy_on(zp, "minus")
    for t in (zp, zm, both, zp + zm, a - a):
        assert t.is_zero_function() and naive_two_chiral_is_zero(t)
        assert two_chiral_is_zero_twelve_point(t)
    for t in (a, b, zp + b, a - b, zm + a, both + a.scale(F(-1, 2))):
        assert t.is_zero_function() == naive_two_chiral_is_zero(t) == two_chiral_is_zero_twelve_point(t)
