from fractions import Fraction

import pytest

from exactcft.channels import (
    channel_coefficients,
    reduce_sixpoint,
    reduction_coefficient,
    weighted_tail_at_one,
)
from exactcft.errors import DegenerateParameterError
from exactcft.gseries import completion_series_2d
from exactcft.sixpoint import build_structure, restrict_2d
from exactcft.special import gauss_2f1_coeff
from oracles import (
    channel_coefficients_direct,
    closed_form_channel,
    reduce_single_term,
    reduction_generating_poly,
    shifted_legendre,
    single_term_reduced,
    twist_two_exotic_coefficient,
)

F = Fraction


def test_reduction_coefficient_values():
    assert [reduction_coefficient(a, 3) for a in range(5)] == [1, -6, 6, 0, 0]
    assert reduction_coefficient(0, 1) == 1
    assert reduction_coefficient(1, 2) == -2


def test_reduction_coefficient_is_the_gauss_coefficient():
    """The binomial form is the 2F1(h, 1-h; 1) coefficient, on ints."""
    for h in range(1, 31):
        for a in range(41):
            c = reduction_coefficient(a, h)
            assert type(c) is int and c == gauss_2f1_coeff(h, 1 - h, 1, a)


def test_generating_poly_is_shifted_legendre():
    for h in range(1, 9):
        assert reduction_generating_poly(h) == shifted_legendre(h)


def test_generating_poly_at_one():
    for h in range(1, 9):
        val = sum(reduction_coefficient(a, h) for a in range(h))
        assert val == (-1) ** (h - 1)


def test_weighted_tail_example():
    # G_1(1) at h = 2
    assert weighted_tail_at_one(2, 1) == -1


def test_channel_coefficients_closed_forms():
    for hp in range(1, 7):
        for hm in range(1, 7):
            for structure in ("B", "H"):
                got = channel_coefficients(hp, hm, structure)
                assert got == closed_form_channel(hp, hm, structure)
                assert got == channel_coefficients_direct(hp, hm, structure)


def test_channel_examples():
    assert channel_coefficients(2, 1, "B") == 2
    assert channel_coefficients(2, 2, "B") == 0
    assert channel_coefficients(1, 2, "H") == -2
    assert channel_coefficients(2, 1, "H") == 2


def test_channel_rejects_low_weights():
    with pytest.raises(DegenerateParameterError):
        channel_coefficients(0, 1, "B")


@pytest.mark.parametrize("a", [0, 1, 2, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_per_term_identity_against_brute_force(a, h):
    from math import factorial

    got = reduce_single_term(a, h)
    want = single_term_reduced(a, h)
    if reduction_coefficient(a, h) == 0:
        assert got.is_zero_function()
    else:
        # the two displayed normalizations differ by exactly (h-1)!^2,
        # uniformly in a; everything else about the collapse matches
        assert got.proportional_to(want) == F(1, factorial(h - 1) ** 2)


def test_reduce_sixpoint_b():
    series = restrict_2d(build_structure("B")).series(8)
    coeff, ref = reduce_sixpoint(series, 2, 1, 2, 1)
    assert coeff == 4
    assert ref.h_plus == 2
    coeff, _ = reduce_sixpoint(series, 2, 2, 2, 1)
    assert coeff == 0
    coeff, _ = reduce_sixpoint(series, 2, 1, 1, 2)
    assert coeff == 4


def test_reduce_sixpoint_h():
    series = completion_series_2d(8)
    assert reduce_sixpoint(series, 2, 1, 1, 2)[0] == -4
    assert reduce_sixpoint(series, 2, 1, 2, 1)[0] == 4
    assert reduce_sixpoint(series, 1, 2, 1, 2)[0] == 4
    assert reduce_sixpoint(series, 2, 2, 2, 1)[0] == 0


def test_reduce_sixpoint_matches_channel_products():
    b_series = restrict_2d(build_structure("B")).series(10)
    h_series = completion_series_2d(10)
    for hs in ((2, 1, 3, 2), (3, 1, 2, 1), (1, 2, 2, 3)):
        hp, hm, hpp, hmp = hs
        got_b, _ = reduce_sixpoint(b_series, *hs)
        assert got_b == channel_coefficients(hp, hm, "B") * channel_coefficients(
            hpp, hmp, "B"
        )
        got_h, _ = reduce_sixpoint(h_series, *hs)
        assert got_h == channel_coefficients(hp, hm, "H") * channel_coefficients(
            hpp, hmp, "H"
        )


def test_twist_two_exotic_pattern():
    # equal-sign helicity pairs drop out; opposite-sign pairs carry 4x B
    assert twist_two_exotic_coefficient(2, 1, 2, 1) == 0
    assert twist_two_exotic_coefficient(2, 1, 1, 2) == 16
    cb = channel_coefficients(2, 1, "B") * channel_coefficients(1, 2, "B")
    assert twist_two_exotic_coefficient(2, 1, 1, 2) == 4 * cb


def test_reference_four_point_exponents():
    series = restrict_2d(build_structure("B")).series(6)
    _, ref = reduce_sixpoint(series, 2, 1, 3, 1)
    plus = ref.chiral_exponents()
    assert plus[(2, 3)] == 2 + 3 - 3
    assert plus[(1, 2)] == -2
    assert plus[(2, 4)] == -3
