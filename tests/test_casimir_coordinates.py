"""Coordinate-space oracle for the Casimir eigenvalue equations.

The library verifies waves through the cross-ratio (Euler-operator) system;
here the raw second-order operators act directly on the wave's pair-monomial
expansion, with the eigenvalue a_i - a_i^2 of the projection inserted after
point i. Truncated series leak across monomial sectors at the function level,
so the oracle runs on waves whose series terminate exactly (negative-integer
rising-factorial numerators); there the identity must hold with no caveats,
for both displayed operator forms and every insertion slot.
"""

from fractions import Fraction

from exactcft.chiral_ops import reference_wave_pair_sum
from exactcft.pairs import PairSum
from exactcft.waves import WaveSpec, casimir_residual, chiral_wave_series

F = Fraction


def left_operator(ps: PairSum, dims, i: int) -> PairSum:
    """Sum over points after i: x_jk^2 d_j d_k + 2 d_j (x_jk d_k) + c - c^2."""
    n = len(dims)
    total = PairSum(ps.points)
    for j in range(i + 1, n + 1):
        for k in range(j + 1, n + 1):
            total = total + ps.differentiate(j).differentiate(k).mul_monomial(
                1, {(j, k): 2}
            )
    for j in range(i + 1, n + 1):
        for k in range(i + 1, n + 1):
            if j == k:
                continue
            sign = 1 if j < k else -1
            pair = (min(j, k), max(j, k))
            total = total + ps.differentiate(k).mul_monomial(
                2 * sign * dims[j - 1], {pair: 1}
            )
    s = sum(dims[i:], F(0))
    return total + ps.scale(s - s * s)


def right_operator(ps: PairSum, dims, i: int) -> PairSum:
    """Same operator built from the points up to and including i."""
    total = PairSum(ps.points)
    for j in range(1, i + 1):
        for k in range(j + 1, i + 1):
            total = total + ps.differentiate(j).differentiate(k).mul_monomial(
                1, {(j, k): 2}
            )
    for j in range(1, i + 1):
        for k in range(1, i + 1):
            if j == k:
                continue
            sign = 1 if j < k else -1
            pair = (min(j, k), max(j, k))
            total = total + ps.differentiate(k).mul_monomial(
                2 * sign * dims[j - 1], {pair: 1}
            )
    s = sum(dims[:i], F(0))
    return total + ps.scale(s - s * s)


def assert_terminates(spec: WaveSpec, cap: int):
    wave = chiral_wave_series(spec, cap + 2)
    for exps in wave.series.terms:
        assert sum(exps) <= cap, "series does not terminate below the cap"


def eigen_residual(spec: WaveSpec, cap: int, i: int, side: str) -> PairSum:
    ps = reference_wave_pair_sum(spec, cap, tuple(range(1, spec.n + 1)))
    op = left_operator if side == "left" else right_operator
    lam = spec.a(i) - spec.a(i) ** 2
    return op(ps, spec.field_dims, i) - ps.scale(lam)


def test_three_point_eigenvalue_both_sides():
    spec = WaveSpec.from_middle((F(1), F(3, 2), F(2)), ())
    assert eigen_residual(spec, 0, 2, "right").is_zero_function()
    assert eigen_residual(spec, 0, 1, "left").is_zero_function()


def test_four_point_eigenvalue_both_sides():
    # a2 + d1 - d2 = -2: the series terminates at order 2, so the identity
    # holds exactly with no truncation caveat
    spec = WaveSpec.from_middle((1, 4, 1, 1), (1,))
    assert_terminates(spec, 2)
    for side in ("left", "right"):
        assert eigen_residual(spec, 2, 2, side).is_zero_function()


def test_four_point_wrong_eigenvalue_detected():
    spec = WaveSpec.from_middle((1, 4, 1, 1), (1,))
    ps = reference_wave_pair_sum(spec, 2, (1, 2, 3, 4))
    lam_wrong = F(2) - F(4)
    res = right_operator(ps, spec.field_dims, 2) - ps.scale(lam_wrong)
    assert not res.is_zero_function()


def test_five_point_eigenvalues_every_slot():
    # both rising-factorial numerators terminate at order 1
    spec = WaveSpec.from_middle((1, 4, 1, 4, 1), (2, 2))
    assert_terminates(spec, 2)
    for i, side in ((1, "left"), (2, "left"), (2, "right"), (3, "left"), (3, "right"), (4, "right")):
        assert eigen_residual(spec, 2, i, side).is_zero_function(), (i, side)


def test_seven_point_eigenvalues_every_slot_and_invariant_form():
    # every A_j but the two ends is 2 + 2 - 5 = -1, so the series is a
    # polynomial (8 terms) and both forms of the equations hold exactly
    spec = WaveSpec.from_middle((1, 5, 5, 5, 5, 5, 1), (2, 2, 2, 2))
    assert_terminates(spec, 2)
    slots = [(1, "left"), (6, "right")]
    slots += [(i, side) for i in range(2, 6) for side in ("left", "right")]
    for i, side in slots:
        assert eigen_residual(spec, 2, i, side).is_zero_function(), (i, side)
    wave = chiral_wave_series(spec, 6)
    for k in range(1, 5):
        assert casimir_residual(spec, wave, k, 6).is_zero(), k
