import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft import chiral_ops
from exactcft.chiral_ops import (
    apply_operator_pair,
    chiral_intertwiner,
    chiral_intertwiner_normalized,
    match_reduction,
    reduce_correlator,
    reduce_wave,
    verify_chiral_pde,
)
from exactcft.errors import DegenerateParameterError, SingularDiagonalError
from exactcft.pairs import PairSum
from exactcft.waves import WaveSpec, casimir_residual, chiral_wave_series
from oracles import reduce_wave_termwise, three_point_structure, two_point_structure

F = Fraction


def test_identity_operator():
    op = chiral_intertwiner(0, F(3, 2), F(1, 2))
    assert op.coeffs == {(0, 0): F(1)}


def test_h2_equal_dims():
    op = chiral_intertwiner(2, 1, 1)
    assert op.coeffs == {(1, 1): F(-1)}


def test_h3_equal_dims():
    op = chiral_intertwiner(3, 2, 2)
    assert op.coeffs == {(2, 1): F(-2), (1, 2): F(2)}


def test_h1_equal_dims_is_zero():
    assert chiral_intertwiner(1, 1, 1).coeffs == {}


def test_normalized_tables():
    assert chiral_intertwiner_normalized(1).coeffs == {(0, 0): F(1)}
    assert chiral_intertwiner_normalized(2).coeffs == {(1, 0): F(1), (0, 1): F(-1)}
    assert chiral_intertwiner_normalized(3).coeffs == {
        (2, 0): F(1, 8),
        (1, 1): F(-1, 2),
        (0, 2): F(1, 8),
    }
    with pytest.raises(DegenerateParameterError):
        chiral_intertwiner_normalized(0)


def test_pde_closed_form_random_dims():
    rng = random.Random(11)
    for _ in range(3):
        d1 = F(rng.randint(-5, 9), rng.randint(1, 4))
        d2 = F(rng.randint(-5, 9), rng.randint(1, 4))
        for h in range(7):
            assert verify_chiral_pde(chiral_intertwiner(h, d1, d2)).is_zero()


def test_pde_detects_perturbation():
    op = chiral_intertwiner(2, 1, 1)
    broken = type(op)(2, F(1), F(1), "E", {(1, 1): F(-1), (2, 0): F(1)})
    assert not verify_chiral_pde(broken).is_zero()


def test_normalized_relation_to_difference_derivative():
    # for h >= 2 the kind-"D" residual vanishes exactly when the operator is a
    # multiple of (nab1 - nab2) E_h(0, 0); so with a nonzero operator the multiple is nonzero
    for h in (2, 3, 4):
        op = chiral_intertwiner_normalized(h)
        assert op.kind == "D" and not op.as_poly().is_zero()
        assert verify_chiral_pde(op).is_zero()
    # h = 1 is the constant operator
    assert verify_chiral_pde(chiral_intertwiner_normalized(1)).is_zero()


def test_apply_operator_pair_is_linearity_sanity():
    pts = (1, 2, 3)
    target = PairSum.monomial(pts, 1, {(1, 2): 2})
    op = chiral_intertwiner(2, 1, 1)  # -d1 d2
    out = apply_operator_pair(target, op, 1, 2)
    # -d1 d2 x12^2 = -d1 (-2 x12) = 2
    assert (out - PairSum.monomial(pts, 2, {})).is_zero_function()


# --- 3-point annihilation / collapse -------------------------------------


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_three_point_reduction_selects_channel(a, h):
    d1, d2 = F(2), F(2)
    target = three_point_structure(d1, d2, a)
    op = chiral_intertwiner(h, d1, d2)
    reduced = reduce_correlator(target, (1, 2), op, d1, d2)
    if h == a and h > 1:
        lam = reduced.proportional_to(two_point_structure(h, (1, 3)))
        assert lam is not None and lam != 0
    else:
        assert reduced.is_zero_function()


def test_three_point_reduction_unequal_dims():
    d1, d2 = F(3), F(1)
    for a in (1, 2, 3, 4):
        for h in (1, 2, 3, 4):
            target = three_point_structure(d1, d2, a)
            op = chiral_intertwiner(h, d1, d2)
            reduced = reduce_correlator(target, (1, 2), op, d1, d2)
            if h == a and h > 1:
                assert reduced.proportional_to(two_point_structure(h, (1, 3)))
            else:
                assert reduced.is_zero_function()


def test_unit_weight_reduction_degenerates():
    # the degree-1 operator is proportional to d1 + d2, so its matched-channel
    # constant vanishes for every dimension gap: the a = h = 1 reduction is 0
    for d1, d2 in ((F(3), F(1)), (F(5, 2), F(1, 2)), (F(2), F(2))):
        target = three_point_structure(d1, d2, 1)
        op = chiral_intertwiner(1, d1, d2)
        reduced = reduce_correlator(target, (1, 2), op, d1, d2)
        assert reduced.is_zero_function()


def test_spec_example_annihilation_h1():
    # dims (1,1), exchange a=2, h=1: operator is zero, reduction trivially zero
    target = three_point_structure(1, 1, 2)
    op = chiral_intertwiner(1, 1, 1)
    reduced = reduce_correlator(target, (1, 2), op, 1, 1)
    assert reduced.is_zero_function()


# --- wave reduction --------------------------------------------------------


def test_four_point_wave_reduction_matching_channel():
    spec = WaveSpec.from_middle((1, 1, 1, 1), (2,))
    wave = chiral_wave_series(spec, 6)
    op = chiral_intertwiner(2, 1, 1)
    red = reduce_wave(wave, (1, 2), op)
    lam = match_reduction(red, spec, (1, 2), 2)
    assert lam is not None and lam != 0


def test_four_point_wave_reduction_wrong_channel_is_zero():
    spec = WaveSpec.from_middle((1, 1, 1, 1), (2,))
    wave = chiral_wave_series(spec, 5)
    for h in (1, 3):
        op = chiral_intertwiner(h, 1, 1)
        red = reduce_wave(wave, (1, 2), op)
        assert red.terms.is_zero_function()


def test_five_point_wave_reduction():
    spec = WaveSpec.from_middle((1, 2, 1, 2, 1), (2, F(5, 2)))
    wave = chiral_wave_series(spec, 5)
    op = chiral_intertwiner(2, 1, 2)
    red = reduce_wave(wave, (1, 2), op)
    lam = match_reduction(red, spec, (1, 2), 2)
    assert lam is not None and lam != 0
    # wrong weight
    op3 = chiral_intertwiner(3, 1, 2)
    assert reduce_wave(wave, (1, 2), op3).terms.is_zero_function()


def test_wave_reduction_last_pair():
    spec = WaveSpec.from_middle((1, 1, 1, 1), (2,))
    wave = chiral_wave_series(spec, 5)
    op = chiral_intertwiner(2, 1, 1)
    red = reduce_wave(wave, (3, 4), op)
    lam = match_reduction(red, spec, (3, 4), 2)
    assert lam is not None and lam != 0


def test_wave_reduction_rejects_inner_pair():
    spec = WaveSpec.from_middle((1, 2, 1, 2, 1), (2, F(5, 2)))
    wave = chiral_wave_series(spec, 3)
    with pytest.raises(ValueError):
        reduce_wave(wave, (2, 3), chiral_intertwiner(2, 2, 1))


def test_wave_reduction_rational_dims():
    # non-integer field dimensions with an integer channel weight
    spec = WaveSpec.from_middle((F(1, 2), F(3, 2), 1, 1), (2,))
    wave = chiral_wave_series(spec, 5)
    op = chiral_intertwiner(2, F(1, 2), F(3, 2))
    red = reduce_wave(wave, (1, 2), op)
    lam = match_reduction(red, spec, (1, 2), 2)
    assert lam is not None and lam != 0
    assert reduce_wave(wave, (1, 2), chiral_intertwiner(3, F(1, 2), F(3, 2))).terms.is_zero_function()


def test_wave_reduction_fractional_channel_annihilates():
    # non-integer channel weight: every integer-order operator annihilates
    spec = WaveSpec.from_middle((1, 1, 1, 1), (F(5, 2),))
    wave = chiral_wave_series(spec, 4)
    for h in (1, 2):
        red = reduce_wave(wave, (1, 2), chiral_intertwiner(h, 1, 1))
        assert red.terms.is_zero_function()


def test_five_point_wave_reduction_last_pair():
    spec = WaveSpec.from_middle((1, 2, 1, 2, 1), (F(5, 2), 3))
    wave = chiral_wave_series(spec, 5)
    op = chiral_intertwiner(3, 2, 1)
    red = reduce_wave(wave, (4, 5), op)
    lam = match_reduction(red, spec, (4, 5), 3)
    assert lam is not None and lam != 0
    wrong = chiral_intertwiner(2, 2, 1)
    assert reduce_wave(wave, (4, 5), wrong).terms.is_zero_function()


def test_seven_point_wave_verified_by_reduction():
    # checked twice: by the invariant Casimir equations of all four cross
    # ratios, and by collapsing the first pair onto the six-point wave
    spec = WaveSpec.from_middle(
        (1, 2, 1, 1, 2, 1, 1), (F(5, 2), 2, F(3, 2), 2)
    )
    wave = chiral_wave_series(spec, 4)
    for k in range(1, 5):
        assert casimir_residual(spec, wave, k, 4).is_zero(), k
    # a2 = 5/2 is fractional: low integer weights annihilate, and weights
    # past the pole bound are genuinely singular on the diagonal
    red = reduce_wave(wave, (1, 2), chiral_intertwiner(2, 1, 2))
    assert red.terms.is_zero_function()
    with pytest.raises(SingularDiagonalError):
        reduce_wave(wave, (1, 2), chiral_intertwiner(3, 1, 2))

    spec = WaveSpec.from_middle((1, 1, 1, 1, 1, 1, 1), (2, 2, 3, 2))
    wave = chiral_wave_series(spec, 4)
    red = reduce_wave(wave, (1, 2), chiral_intertwiner(2, 1, 1))
    lam = match_reduction(red, spec, (1, 2), 2)
    assert lam is not None and lam != 0
    assert reduce_wave(wave, (1, 2), chiral_intertwiner(3, 1, 1)).terms.is_zero_function()


@pytest.mark.parametrize("n", [4, 5])
def test_wave_reduction_completeness_grid(n):
    # reduction selects the channel across the full (a2, h) grid; the matched
    # a2 = h = 1 corner is the documented degenerate one (constant vanishes)
    for a2 in range(1, 5):
        if n == 4:
            spec = WaveSpec.from_middle((1, 1, 1, 1), (F(a2),))
        else:
            spec = WaveSpec.from_middle((1, 2, 1, 2, 1), (F(a2), F(5, 2)))
        wave = chiral_wave_series(spec, 6)
        for h in range(1, 5):
            op = chiral_intertwiner(h, spec.d(1), spec.d(2))
            red = reduce_wave(wave, (1, 2), op)
            if h != a2 or (h == 1 and a2 == 1):
                assert red.terms.is_zero_function(), (a2, h)
            else:
                lam = match_reduction(red, spec, (1, 2), h)
                assert lam is not None and lam != 0, (a2, h)


def _reduced_or_singular(reduce, wave, pair, op):
    try:
        return reduce(wave, pair, op)
    except SingularDiagonalError:
        return "singular"


@given(n=st.integers(4, 6), cap=st.integers(0, 4), h=st.integers(1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_sum_reduction_matches_the_termwise_oracle(n, cap, h, data):
    first = data.draw(st.booleans(), label="first pair")
    pair = (1, 2) if first else (n - 1, n)
    # the channel projection: matched (= h), another integer, or fractional
    a = data.draw(st.sampled_from([F(h), F(h + 1), F(1), F(5, 2), F(7, 3), F(3, 2)]), label="a")
    others = st.sampled_from([F(2), F(5, 2), F(3, 2)])
    middle = data.draw(st.lists(others, min_size=n - 3, max_size=n - 3), label="middle")
    middle[0 if first else -1] = a
    dims = data.draw(st.lists(st.sampled_from([F(1), F(2), F(1, 2), F(3, 2)]),
                              min_size=n, max_size=n), label="dims")
    wave = chiral_wave_series(WaveSpec.from_middle(dims, middle), cap)
    i, j = pair
    if data.draw(st.booleans(), label="kind E"):
        op = chiral_intertwiner(h, dims[i - 1], dims[j - 1])
    else:
        op = chiral_intertwiner_normalized(h)
    got = _reduced_or_singular(reduce_wave, wave, pair, op)
    want = _reduced_or_singular(reduce_wave_termwise, wave, pair, op)
    if want == "singular":
        assert got == "singular"
        return
    assert (got.terms.points, got.reliable_cap) == (want.terms.points, want.reliable_cap)
    # term by term, with the exponents read as Fractions over each sum's den
    assert list(got.terms) == list(want.terms)
    assert (got.terms - want.terms).is_zero_function()


def test_diagonal_filter_on_the_benchmark_wave(monkeypatch):
    # the waves benchmark wave: a_2 = h = 2 matches the (1,2) channel, and
    # a_4 = 5/2 > h leaves no term of the (5,6) channel within reach
    h = 2
    spec = WaveSpec.from_middle((1, 1, 2, 2, 1, 1), (2, 2, F(5, 2)))
    wave = chiral_wave_series(spec, 8)
    seen = []

    def spy(target, op, slot1, slot2):
        seen.append(target)
        return apply_operator_pair(target, op, slot1, slot2)

    monkeypatch.setattr(chiral_ops, "apply_operator_pair", spy)
    red = reduce_wave(wave, (5, 6), chiral_intertwiner(h, 1, 1))
    assert len(seen) == 1 and not seen[0].terms and red.terms.is_zero()

    seen.clear()
    red = reduce_wave(wave, (1, 2), chiral_intertwiner(h, 1, 1))
    (kept,) = seen
    # the x_12 power of a term is a_2 + l_1: only l_1 = 0 is within reach
    assert len(kept.terms) == sum(1 for ells in wave.series.terms if spec.a(2) + ells[0] <= h)
    assert len(kept.terms) < len(wave.series.terms)
    for key in kept.terms:
        assert F(dict(key)[(1, 2)], kept.exp_den) == spec.a(2)
    assert match_reduction(red, spec, (1, 2), h) is not None
