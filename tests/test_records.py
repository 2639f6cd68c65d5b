"""The package's frozen records keep value semantics: validated and coerced
fields, equality and hash by value, no assignment to a field, and a
``Name(field=...)`` repr."""

from fractions import Fraction

import pytest

from exactcft.amplitudes import fourpoint_amplitudes
from exactcft.channels import ReferenceFourPoint
from exactcft.chiral_ops import ReducedWave
from exactcft.pairs import PairSum
from exactcft.positivity import positivity_report
from exactcft.sixpoint import POINTS, SixPointStructure, build_structure
from exactcft.waves import ChiralWave, WaveSpec

F = Fraction


def test_wave_spec_stores_fractions_and_compares_by_value():
    spec = WaveSpec((1, 2, 2), (1, 2))
    assert spec.field_dims == (F(1), F(2), F(2)) and spec.proj_dims == (F(1), F(2))
    assert all(type(d) is Fraction for d in spec.field_dims + spec.proj_dims)
    twin = WaveSpec([F(1), F(2), F(2)], [1, 2])
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != WaveSpec((1, 2, 3), (1, 3))
    assert len({spec, twin, WaveSpec.from_middle((1, 2, 2), ())}) == 1


def test_wave_records_hold_no_derived_field():
    # a wave's prefactor is wave_prefactor(spec), and a reduction's points are terms.points
    assert ChiralWave._fields == ("spec", "series")
    assert ReducedWave._fields == ("terms", "reliable_cap")


def test_signed_structure_is_refused():
    signed = PairSum.monomial(POINTS, 1, {(1, 5): 1}, antisym=True)
    with pytest.raises(ValueError, match=r"^squared-distance symbols must be unsigned$"):
        SixPointStructure("signed", signed)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: WaveSpec((1, 2, 2), (1, 2)), "field_dims"),
        (lambda: build_structure("B"), "monomials"),
        (lambda: ReferenceFourPoint(2, 3), "h_plus"),
        (lambda: fourpoint_amplitudes(2, 3, 2), "entries"),
        (lambda: positivity_report("B", 2, 0), "blocks"),
        (lambda: positivity_report("B", 2, 0).blocks[0], "inertia"),
    ],
)
def test_record_fields_cannot_be_assigned(build, field):
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_record_repr_names_its_fields():
    assert repr(ReferenceFourPoint(2, 3)) == "ReferenceFourPoint(h_plus=2, h_plus_prime=3)"
    assert repr(WaveSpec((1, 2, 2), (1, 2))) == (
        "WaveSpec(field_dims=(Fraction(1, 1), Fraction(2, 1), Fraction(2, 1)),"
        " proj_dims=(Fraction(1, 1), Fraction(2, 1)))"
    )
