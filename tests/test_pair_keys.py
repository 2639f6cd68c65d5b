"""Integer exponent keys of PairSum against a Fraction-key reference.

A PairSum stores each exponent as an int numerator over one denominator per
sum. The reference below is the earlier implementation, which kept every
exponent as a Fraction in the key: differentiate, merge_adjacent, relabel,
the class grouping and proportional_to, written the plain way. Sums mix
exponents with denominators 1, 2, 3 and 6, so the common denominator of a
sum grows as terms are added, and both sides must agree exactly, down to the
exception type and message.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.chiral_ops import reference_wave_pair_sum
from exactcft.errors import ConsistencyError, SingularDiagonalError
from exactcft.pairs import PairSum, cross_ratio
from exactcft.waves import WaveSpec, chiral_wave_series, wave_prefactor
from oracles import ptolemy_zero

F = Fraction
PTS = (1, 2, 3, 4)
PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


# -- the Fraction-key reference ------------------------------------------------


def frac_key(exps):
    return tuple(sorted((pr, F(e)) for pr, e in exps.items() if e))


def add_term(terms, key, c):
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def ref_differentiate(terms, point):
    out = {}
    for key, c in terms.items():
        exps = dict(key)
        for (i, j), e in key:
            if point == i:
                sign = 1
            elif point == j:
                sign = -1
            else:
                continue
            new = dict(exps)
            new[(i, j)] = e - 1
            add_term(out, frac_key(new), c * e * sign)
    return out


def ref_merge_adjacent(terms, i):
    j = i + 1
    out = {}
    for key, c in terms.items():
        exps = dict(key)
        e_diag = exps.pop((i, j), F(0))
        if e_diag > 0:
            continue
        if e_diag < 0:
            raise SingularDiagonalError(
                f"x_{i}{j}^{e_diag} survives the diagonal limit (pole bound violated)"
            )
        merged = {}
        for (a, b), e in exps.items():
            a2 = i if a == j else a
            b2 = i if b == j else b
            if a2 >= b2:
                raise ConsistencyError("adjacent merge collapsed or flipped a pair")
            merged[(a2, b2)] = merged.get((a2, b2), F(0)) + e
        add_term(out, frac_key(merged), c)
    return out


def ref_relabel(terms, mapping, antisym):
    out = {}
    for key, c in terms.items():
        sign = F(1)
        exps = {}
        for (a, b), e in key:
            a2, b2 = mapping[a], mapping[b]
            if a2 > b2:
                a2, b2 = b2, a2
                if antisym:
                    if e.denominator != 1:
                        raise ValueError("cannot flip a pair with non-integer exponent")
                    if e.numerator % 2:
                        sign = -sign
            exps[(a2, b2)] = exps.get((a2, b2), F(0)) + e
        add_term(out, frac_key(exps), c * sign)
    return out


def ref_classes(terms):
    groups = {}
    for key, c in terms.items():
        ck = tuple((pr, e - (e.numerator // e.denominator)) for pr, e in key if e.denominator != 1)
        groups.setdefault(ck, {})[key] = c
    return groups


def ref_expansions(points, keys):
    """Each key over the least exponent per pair, in adjacent differences."""
    nz = len(points) - 1
    pos = {p: k for k, p in enumerate(points)}
    dicts = [dict(k) for k in keys]
    base = {pr: min(d.get(pr, F(0)) for d in dicts) for d in dicts for pr in d}
    out = []
    for d in dicts:
        poly = {(0,) * nz: F(1)}
        for pr, b in base.items():
            rel = d.get(pr, F(0)) - b
            assert rel.denominator == 1
            for _ in range(int(rel)):
                nxt = {}
                for e, c in poly.items():
                    for m in range(pos[pr[0]], pos[pr[1]]):
                        e2 = e[:m] + (e[m] + 1,) + e[m + 1 :]
                        nxt[e2] = nxt.get(e2, F(0)) + c
                poly = nxt
        out.append(poly)
    return out


def ref_combination(expansions, weights):
    total = {}
    for key, w in weights.items():
        for e, c in expansions[key].items():
            total[e] = total.get(e, F(0)) + w * c
    return {e: c for e, c in total.items() if c}


def ref_proportional_to(points, terms1, terms2):
    g1, g2 = ref_classes(terms1), ref_classes(terms2)
    lam = None
    for ck in set(g1) | set(g2):
        t1, t2 = g1.get(ck, {}), g2.get(ck, {})
        union = list(set(t1) | set(t2))
        expansions = dict(zip(union, ref_expansions(points, union)))
        p1, p2 = ref_combination(expansions, t1), ref_combination(expansions, t2)
        if not p2:
            if p1:
                return None
            continue
        if not p1:
            return None
        lead = max(p2, key=lambda e: (sum(e), e))
        cand = p1.get(lead, F(0)) / p2[lead]
        if set(p1) != set(p2) or any(p1[e] != cand * c for e, c in p2.items()):
            return None
        if lam is None:
            lam = cand
        elif lam != cand:
            return None
    return lam or None


# -- reading a PairSum back in Fraction keys ------------------------------------


def frac_terms(ps):
    return {tuple((pr, F(e, ps.den)) for pr, e in key): c for key, c in ps.terms.items()}


def frac_classes(ps):
    return {
        tuple((pr, F(e, ps.den)) for pr, e in ck): frac_terms(PairSum(ps.points, g, ps.antisym, ps.den))
        for ck, g in ps._classes().items()
    }


def assert_integer_keys(ps):
    assert all(type(c) is Fraction for c in ps.terms.values())
    assert all(type(e) is int and e != 0 for key in ps.terms for _, e in key)
    for c, exps in ps:
        assert type(c) is Fraction and all(type(e) is Fraction for e in exps.values())


def same_outcome(new, ref):
    """Run both; the same exception type and message, or equal Fraction terms."""
    try:
        expected = ref()
    except Exception as exc:  # noqa: BLE001 - the type is compared below
        with pytest.raises(type(exc)) as got:
            new()
        assert str(got.value) == str(exc)
        return
    result = new()
    assert_integer_keys(result)
    assert frac_terms(result) == expected


# -- strategies -------------------------------------------------------------------

# denominators 1, 2, 3 and 6 in one sum; the sum's denominator grows with them
exponents = st.builds(F, st.integers(-7, 7), st.sampled_from([1, 2, 3, 6]))
coeffs = st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(5, 6), F(3)])
monomials = st.lists(
    st.tuples(coeffs, st.dictionaries(st.sampled_from(PAIRS), exponents, max_size=3)),
    min_size=1,
    max_size=5,
)


def build(monos, antisym=True):
    """(PairSum, reference terms), one monomial added at a time."""
    ps = PairSum.zero(PTS, antisym)
    ref = {}
    for c, exps in monos:
        before = ps.den
        ps.add_scaled(PairSum.monomial(PTS, c, exps, antisym))
        den = PairSum.monomial(PTS, 1, exps).den
        assert ps.den % before == 0 and ps.den % den == 0
        add_term(ref, frac_key(exps), c)
    return ps, ref


@given(monomials)
@settings(max_examples=60, deadline=None)
def test_keys_differentiate_and_merge_match_fraction_keys(monos):
    ps, ref = build(monos)
    assert_integer_keys(ps)
    assert frac_terms(ps) == ref
    for p in PTS:
        same_outcome(lambda: ps.differentiate(p), lambda: ref_differentiate(ref, p))
    for i in PTS[:-1]:
        same_outcome(lambda: ps.merge_adjacent(i), lambda: ref_merge_adjacent(ref, i))
    # a second-order derivative, so exponents move by two units of den
    d2 = ps.differentiate(1).differentiate(2)
    assert frac_terms(d2) == ref_differentiate(ref_differentiate(ref, 1), 2)


@given(monomials, st.sampled_from(list(permutations(PTS))), st.booleans())
@settings(max_examples=60, deadline=None)
def test_keys_relabel_matches_fraction_keys(monos, image, antisym):
    ps, ref = build(monos, antisym)
    mapping = dict(zip(PTS, image))
    same_outcome(lambda: ps.relabel(mapping), lambda: ref_relabel(ref, mapping, antisym))


@given(monomials)
@settings(max_examples=60, deadline=None)
def test_keys_classes_match_fraction_keys(monos):
    ps, ref = build(monos)
    assert frac_classes(ps) == ref_classes(ref)


@given(monomials, monomials, st.sampled_from([F(1, 3), F(-5, 2), F(7, 6)]))
@settings(max_examples=40, deadline=None)
def test_keys_proportional_to_matches_fraction_keys(ma, mb, c):
    a, ra = build(ma)
    b, rb = build(mb)
    z = ptolemy_zero(a)
    assert z.is_zero_function()
    hidden = a + z  # a multiple of a, hidden under a zero function
    for x, y in ((a, b), (a + b, b), (hidden, a.scale(c)), (a.scale(c), hidden), (z, a)):
        assert x.proportional_to(y) == ref_proportional_to(PTS, frac_terms(x), frac_terms(y))
    # over different denominators, the pole power of a reduction scales by 2/3
    shifted = a.mul_monomial(c, {(1, 2): F(2, 3)})
    assert_integer_keys(shifted)
    back = shifted.mul_monomial(1, {(1, 2): F(-2, 3)})
    assert frac_terms(back) == frac_terms(a.scale(c))
    assert back.proportional_to(a) == (c if not a.is_zero_function() else None)
    assert frac_terms(b.mul_monomial(1, {(2, 4): F(1, 6)})) == {
        frac_key({**dict(k), (2, 4): dict(k).get((2, 4), 0) + F(1, 6)}): v for k, v in rb.items()
    }


def test_singular_diagonal_message_matches():
    ps = PairSum.monomial(PTS, 1, {(1, 2): F(-1, 2), (2, 3): F(1, 3)})
    ref = {frac_key({(1, 2): F(-1, 2), (2, 3): F(1, 3)}): F(1)}
    with pytest.raises(SingularDiagonalError, match=r"x_12\^-1/2 survives"):
        ps.merge_adjacent(1)
    same_outcome(lambda: ps.merge_adjacent(1), lambda: ref_merge_adjacent(ref, 1))


def test_monomial_refuses_an_unordered_pair():
    with pytest.raises(ValueError, match=r"^pair must be ordered i < j, got \(2, 1\)$"):
        PairSum.monomial(PTS, 1, {(1, 3): 1, (2, 1): F(1, 2)})


def test_flip_with_non_integer_exponent_message_matches():
    exps = {(1, 2): F(1, 6), (3, 4): 2}
    ps = PairSum.monomial(PTS, 1, exps)
    swap = {1: 2, 2: 1, 3: 3, 4: 4}
    with pytest.raises(ValueError, match="cannot flip a pair with non-integer exponent"):
        ps.relabel(swap)
    same_outcome(lambda: ps.relabel(swap), lambda: ref_relabel({frac_key(exps): F(1)}, swap, True))
    # unsigned symbols flip freely, and an integer exponent on a sixth-denominator sum
    # still pulls out its sign
    same_outcome(
        lambda: PairSum.monomial(PTS, 1, exps, antisym=False).relabel(swap),
        lambda: ref_relabel({frac_key(exps): F(1)}, swap, False),
    )
    odd = {(1, 2): 3, (3, 4): F(1, 6)}
    same_outcome(
        lambda: PairSum.monomial(PTS, 1, odd).relabel(swap),
        lambda: ref_relabel({frac_key(odd): F(1)}, swap, True),
    )


def test_denominator_grows_and_keys_stay_sorted():
    s = PairSum.monomial(PTS, 1, {(1, 2): F(1, 2)})
    assert s.den == 2
    s.add_scaled(PairSum.monomial(PTS, 1, {(1, 2): F(1, 3), (3, 4): 1}))
    assert s.den == 6
    assert sorted(s.terms) == [(((1, 2), 2), ((3, 4), 6)), (((1, 2), 3),)]
    assert_integer_keys(s)
    assert [e for _, e in s] == [{(1, 2): F(1, 3), (3, 4): 1}, {(1, 2): F(1, 2)}]
    assert s.to_json() == [
        {"coeff": "1", "factors": {"1,2": "1/3", "3,4": "1"}},
        {"coeff": "1", "factors": {"1,2": "1/2"}},
    ]


def test_wave_term_keys_match_fraction_keys():
    # prefactor exponents with denominators 2, 3 and 6, times prod u_k^{l_k}
    spec = WaveSpec.from_middle((F(1, 3), F(2, 3), F(4, 3), F(5, 6), F(1, 6), F(1, 2)),
                                (2, F(7, 6), 3))
    wave = chiral_wave_series(spec, 4)
    expected = {}
    for ells, c in wave.series.terms.items():
        exps = wave_prefactor(spec)
        for k, lk in enumerate(ells, start=1):
            for pr, e in cross_ratio(k).items():
                exps[pr] = exps.get(pr, 0) + lk * e
        add_term(expected, frac_key(exps), c)
    got = reference_wave_pair_sum(spec, 4, tuple(range(1, 7)))
    assert got.den == 6
    assert_integer_keys(got)
    assert frac_terms(got) == expected
