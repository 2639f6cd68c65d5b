from fractions import Fraction

import pytest

from exactcft.amplitudes import fourpoint_amplitudes, reconstruction_residual
from exactcft.errors import DegenerateParameterError
from oracles import fourpoint_amplitudes_solved

F = Fraction


def test_first_amplitude_is_one():
    for h in (1, 2, 5):
        for hp in (1, 3):
            am = fourpoint_amplitudes(h, hp, 4)
            assert am.entries[0] == 1
            assert am.k_label(0) == F(3, 2)


def test_second_amplitude_closed_form():
    for h in (1, 2, 3):
        for hp in (1, 2, 4):
            am = fourpoint_amplitudes(h, hp, 2)
            assert am.entries[1] == -F(h * hp, 3)


def test_closed_form_matches_the_triangular_solve():
    for h in range(1, 13):
        for hp in range(h, 13):
            solved = fourpoint_amplitudes_solved(h, hp, 10)
            assert fourpoint_amplitudes(h, hp, 10).entries == solved
            assert fourpoint_amplitudes(hp, h, 10).entries == solved


def test_symmetry_in_weights():
    a = fourpoint_amplitudes(2, 5, 6)
    b = fourpoint_amplitudes(5, 2, 6)
    assert a.entries == b.entries


def test_reconstruction_residual_vanishes():
    for h, hp in ((1, 1), (2, 3), (3, 3)):
        am = fourpoint_amplitudes(h, hp, 10)
        assert not reconstruction_residual(am, 10)


def test_truncated_table_mismatch_is_visible():
    am = fourpoint_amplitudes(2, 2, 3)
    res = reconstruction_residual(am, 5)
    assert res[4] != 0


def test_json_shape():
    am = fourpoint_amplitudes(2, 2, 2)
    js = am.to_json()
    assert js["amplitudes"]["3/2"] == "1"
    assert js["amplitudes"]["5/2"] == "-4/3"


@pytest.mark.parametrize("h, hp", [(-1, 2), (0, 2), (2, 0), (0, 0)])
def test_weights_below_one_are_degenerate(h, hp):
    with pytest.raises(DegenerateParameterError, match="h >= 1"):
        fourpoint_amplitudes(h, hp, 2)
