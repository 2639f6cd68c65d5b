from fractions import Fraction

import pytest

from exactcft import sixpoint
from exactcft.cli import main
from exactcft.errors import ConsistencyError
from exactcft.gseries import completion_series_2d
from exactcft.pairs import PairSum
from exactcft.sixpoint import (
    POINTS,
    SERIES_VARS,
    SixPointStructure,
    build_structure,
    restrict_2d,
)
from oracles import restriction_series_geometric

F = Fraction


def swap(s: PairSum, i: int, j: int) -> PairSum:
    m = {p: p for p in POINTS}
    m[i], m[j] = j, i
    return s.relabel(m)


def test_e6_signed_monomial_expansion():
    # 3 base terms x 4 antisymmetrization images = 12 signed instances; the
    # X15 X26 X34 images coincide pairwise, leaving 10 distinct monomials
    e6 = build_structure("E6")
    assert len(e6.monomials) == 10
    assert sum(abs(c) for c, _ in e6.monomials) == 20
    doubled = [c for c, exps in e6.monomials if (3, 4) in exps and exps[(3, 4)] > 0]
    assert sorted(doubled) == [-2, 2]


def test_b_has_four_monomials():
    b = build_structure("B")
    assert len(b.monomials) == 4


def test_e6_antisymmetries():
    e6 = build_structure("E6").monomials
    assert (swap(e6, 1, 2) + e6).is_zero()
    assert (swap(e6, 5, 6) + e6).is_zero()


def test_b_antisymmetries():
    b = build_structure("B").monomials
    assert (swap(b, 1, 2) + b).is_zero()
    assert (swap(b, 5, 6) + b).is_zero()


def test_restriction_b():
    r = restrict_2d(build_structure("B"))
    # double geometric sum with a+b>0 on each side
    s = r.series(6)
    assert s.coefficient((0, 0, 0, 0)) == 0
    assert s.coefficient((1, 0, 0, 0)) == 0
    assert s.coefficient((1, 0, 1, 0)) == 1
    assert s.coefficient((2, 1, 0, 1)) == 1
    assert s.coefficient((1, 1, 2, 1)) == 1


def test_restriction_b_minus_half_e():
    r = restrict_2d(build_structure("BminusHalfE"))
    assert r.numerator == {
        (1, 0, 1, 0): F(1),
        (1, 0, 0, 1): F(-1),
        (0, 1, 1, 0): F(-1),
        (0, 1, 0, 1): F(1),
    }
    s = r.series(4)
    # (u+ - u-) geometric tails: coefficient of u+^2 u'+ is +1
    assert s.coefficient((2, 0, 1, 0)) == 1
    assert s.coefficient((0, 2, 1, 0)) == -1
    assert s.coefficient((1, 1, 1, 0)) == 0


def test_restriction_e6():
    r = restrict_2d(build_structure("E6"))
    series = r.series(4)
    b = restrict_2d(build_structure("B")).series(4)
    bme = restrict_2d(build_structure("BminusHalfE")).series(4)
    assert series == (b - bme) * 2


def test_restriction_detects_broken_structure():
    b = build_structure("B")
    broken = SixPointStructure(
        "B", b.monomials + PairSum.monomial(POINTS, 1, {(1, 5): 1}, antisym=False)
    )
    with pytest.raises(ConsistencyError):
        restrict_2d(broken)


def test_prefactor_is_the_common_one():
    r = restrict_2d(build_structure("B"))
    assert r.prefactor == {
        (1, 2): -2,
        (1, 3): -1,
        (2, 4): -1,
        (3, 4): -1,
        (3, 5): -1,
        (4, 6): -1,
        (5, 6): -2,
    }


def test_completion_series_2d_weights():
    s = completion_series_2d(5)
    assert s.variables == SERIES_VARS
    assert s.coefficient((1, 0, 1, 0)) == 1
    assert s.coefficient((0, 1, 1, 0)) == -1
    assert s.coefficient((2, 1, 1, 0)) == F(1, 3)
    assert s.coefficient((1, 1, 1, 0)) == 0


NAMES = ("E6", "B", "BminusHalfE")


@pytest.mark.parametrize("name", NAMES)
def test_series_matches_the_geometric_product(name):
    r = restrict_2d(build_structure(name))
    for cap in range(11):
        got = r.series(cap)
        assert got == restriction_series_geometric(r, cap)
        assert all(type(c) is F for c in got.terms.values())


def _bumped(terms: dict, key, delta: int) -> dict:
    out = dict(terms)
    out[key] = out[key] + delta
    return out


@pytest.mark.parametrize("name", NAMES)
def test_one_unit_off_any_coefficient_breaks_the_identity(name, monkeypatch, capsys):
    """The identity is (structure / prefactor) (1-u+)(1-u-)(1-u'+)(1-u'-) =
    numerator; a unit added to any one coefficient of either side is caught,
    and the CLI then exits 4."""
    s = build_structure(name)
    numerator = sixpoint._u_polynomial(name)
    for delta in (1, -1):
        for key in s.monomials.terms:
            broken = PairSum(POINTS, _bumped(s.monomials.terms, key, delta), antisym=False)
            with pytest.raises(ConsistencyError):
                restrict_2d(SixPointStructure(name, broken))
        for key in numerator:
            monkeypatch.setattr(sixpoint, "_u_polynomial", lambda _, k=key: _bumped(numerator, k, delta))
            with pytest.raises(ConsistencyError):
                restrict_2d(s)
    # the last broken numerator is still in place
    assert main(["exotic", "restrict", "--name", name]) == 4
    assert "does not factor" in capsys.readouterr().err
