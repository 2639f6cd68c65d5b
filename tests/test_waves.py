import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.errors import DegenerateParameterError
from exactcft.series import TruncatedSeries
from exactcft.special import gauss_2f1_coeff
from exactcft.waves import (
    ChiralWave,
    WaveSpec,
    casimir_residual,
    chiral_wave_series,
    wave_coefficient,
    wave_prefactor,
    wave_series_vars,
)
from oracles import (
    casimir_residual_series,
    coeffs,
    chiral_wave_series_by_ratios,
    fourpoint_reference,
    reversed_spec,
    scale_exponent,
)

F = Fraction


def test_spec_validation():
    with pytest.raises(ValueError):
        WaveSpec((1, 1, 1), (2, 1))  # a_1 != d_1
    with pytest.raises(ValueError):
        WaveSpec((1, 1, 1), (1,))
    spec = WaveSpec.from_middle((1, 1, 1, 1), (2,))
    assert spec.proj_dims == (1, 2, 1)
    assert spec.a(0) == 0 and spec.a(4) == 0
    assert spec.d(5) == 0


def test_three_point_wave_is_pure_prefactor():
    spec = WaveSpec.from_middle((F(1), F(3, 2), F(2)), ())
    wave = chiral_wave_series(spec, 5)
    assert coeffs(wave.series) == {(): F(1)}
    # x12 exponent: -(d1+d2-a0-a2) with a2 = d3
    pre = wave_prefactor(spec)
    assert pre.get((1, 2), 0) == -(F(1) + F(3, 2) - F(2))
    assert pre.get((1, 3), 0) == F(3, 2) - F(1) - F(2)
    assert pre.get((2, 3), 0) == -(F(3, 2) + F(2) - F(1))


def test_four_point_unit_dims_example():
    spec = WaveSpec.from_middle((1, 1, 1, 1), (2,))
    wave = chiral_wave_series(spec, 2)
    assert wave.series.coefficient((0,)) == 1
    assert wave.series.coefficient((1,)) == 1
    assert wave.series.coefficient((2,)) == F(9, 10)


def test_four_point_matches_hypergeometric_coefficients():
    rng = random.Random(7)
    for _ in range(4):
        d = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]
        a2 = F(rng.randint(2, 9), 2)
        spec = WaveSpec.from_middle(d, (a2,))
        wave = chiral_wave_series(spec, 8)
        for ell in range(9):
            assert wave.series.coefficient((ell,)) == gauss_2f1_coeff(
                a2 + d[0] - d[1], a2 + d[3] - d[2], 2 * a2, ell
            )


def test_prefactor_exponents_follow_the_closed_form():
    spec = WaveSpec.from_middle((1, 2, 3, 2, 1), (F(5, 2), F(3, 2)))
    pre = wave_prefactor(spec)
    n = spec.n
    for j in range(1, n - 1):
        assert pre.get((j, j + 2), 0) == spec.d(j + 1) - spec.a(j) - spec.a(j + 1)
    for i in range(1, n):
        assert pre.get((i, i + 1), 0) == -(
            spec.d(i) + spec.d(i + 1) - spec.a(i - 1) - spec.a(i + 1)
        )


def test_wave_prefactor_orders_pairs_and_drops_zero_exponents():
    # unit dims with a_2 = 2: every nearest-neighbour exponent vanishes
    spec = WaveSpec.from_middle((1, 1, 1, 1), (2,))
    assert list(wave_prefactor(spec).items()) == [((1, 3), -2), ((2, 4), -2)]
    # x23 carries -(d_2 + d_3 - a_1 - a_3) = 0 and is dropped
    spec = WaveSpec.from_middle((1, F(1, 2), 2, 2, 1), (F(5, 2), F(3, 2)))
    pre = wave_prefactor(spec)
    assert list(pre.items()) == [((1, 2), 1), ((1, 3), -3), ((2, 4), -2), ((3, 4), F(-1, 2)),
                                 ((3, 5), F(-1, 2)), ((4, 5), F(-3, 2))]
    assert all(type(e) is Fraction for e in pre.values())
    assert chiral_wave_series(spec, 0).to_json()["prefactor"] == {
        "numerator": "1",
        "factors": {"1,2": "1", "1,3": "-3", "2,4": "-2", "3,4": "-1/2", "3,5": "-1/2",
                    "4,5": "-3/2"},
    }


def test_degenerate_projection_rejected():
    spec = WaveSpec.from_middle((1, 1, 1, 1), (0,))
    with pytest.raises(DegenerateParameterError):
        chiral_wave_series(spec, 2)
    # cap 0 never touches the degenerate denominators
    assert chiral_wave_series(spec, 0).series.coefficient((0,)) == 1


def _closed_form_series(spec: WaveSpec, cap: int) -> TruncatedSeries:
    """The series term by term from the closed rising-factorial product."""
    return TruncatedSeries.from_coefficients(
        wave_series_vars(spec.n), cap, lambda ells: wave_coefficient(spec, ells)
    )


# positive dimensions whose projections keep every 2 a_k off the non-positive
# integers, so no denominator vanishes; numerators may still vanish
DIMS = st.sampled_from([F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 2), F(7, 3)])
PROJ = st.sampled_from([F(1), F(2), F(3), F(3, 2), F(5, 2), F(1, 3), F(-1, 3), F(-3, 4)])


@given(n=st.integers(4, 8), cap=st.integers(0, 6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_ratio_walk_matches_closed_form(n, cap, data):
    dims = data.draw(st.lists(DIMS, min_size=n, max_size=n), label="dims")
    middle = data.draw(st.lists(PROJ, min_size=n - 3, max_size=n - 3), label="middle")
    spec = WaveSpec.from_middle(dims, middle)
    series = chiral_wave_series(spec, cap).series
    assert series == _closed_form_series(spec, cap)
    for ells, c in coeffs(series).items():
        assert c == wave_coefficient(spec, ells)


@pytest.mark.parametrize("cap", [2, 3, 6, 10])
def test_terminating_wave_keeps_deriving_past_zero_terms(cap):
    # every A_j = 2 + 2 - 5 = -1 except the two ends, so (A_j)_m = 0 for m >= 2
    spec = WaveSpec.from_middle((1, 5, 5, 5, 5, 5, 1), (2, 2, 2, 2))
    series = chiral_wave_series(spec, cap).series
    assert len(series) == 8
    assert all(series.terms.values())
    assert series == _closed_form_series(spec, cap)


def test_interior_degenerate_projection():
    # 2 a_3 = -1: (2 a_3)_2 = (-1)(0) is the first vanishing denominator
    spec = WaveSpec.from_middle((1, 1, 1, 1, 1, 1), (2, F(-1, 2), 2))
    message = "(2 a_3)_2 vanishes: a_3 = -1/2 is degenerate"
    for cap in (2, 3, 5):
        with pytest.raises(DegenerateParameterError) as walk:
            chiral_wave_series(spec, cap)
        with pytest.raises(DegenerateParameterError) as closed:
            _closed_form_series(spec, cap)
        assert str(walk.value) == str(closed.value) == message
    assert chiral_wave_series(spec, 1).series == _closed_form_series(spec, 1)


def test_pole_after_a_zero_term_still_raises():
    # A_1 = d1 + a2 - d2 = 0 zeroes every term from u^1 on; (2 a_2)_3 = (-2)(-1)(0)
    spec = WaveSpec.from_middle((1, 0, 1, 1), (-1,))
    assert coeffs(chiral_wave_series(spec, 2).series) == {(0,): 1}
    with pytest.raises(DegenerateParameterError, match=r"^\(2 a_2\)_3 vanishes: a_2 = -1 is"):
        chiral_wave_series(spec, 3)
    with pytest.raises(DegenerateParameterError, match=r"^\(2 a_2\)_3 vanishes"):
        _closed_form_series(spec, 3)


def test_fourpoint_reference_values():
    s = fourpoint_reference(2, 0, 0, 3)
    assert s.coefficient((0,)) == 1
    assert s.coefficient((1,)) == 1
    trivial = fourpoint_reference(3, -3, 1, 6)
    assert coeffs(trivial) == {(0,): F(1)}
    with pytest.raises(DegenerateParameterError):
        fourpoint_reference(0, 1, 1, 2)  # (2a)_1 = 0


def test_fourpoint_reference_cross_checks_wave():
    rng = random.Random(3)
    for _ in range(3):
        d = [F(rng.randint(1, 7), rng.randint(1, 3)) for _ in range(4)]
        a2 = F(rng.randint(1, 7))
        spec = WaveSpec.from_middle(d, (a2,))
        wave = chiral_wave_series(spec, 7)
        ref = fourpoint_reference(a2, d[0] - d[1], d[3] - d[2], 7)
        assert coeffs(wave.series) == coeffs(ref)


SIX = WaveSpec.from_middle((1, 1, 2, 2, 1, 1), (F(3, 2), F(2), F(5, 2)))


def _six_point_residual(eq_spec: WaveSpec, wave, which: int, cap: int) -> TruncatedSeries:
    """Oracle: the three hand-written six-point equations in Euler-operator
    form, with the wave normalized by the shifts (a2 - d3, a3, a4 - d4)."""
    s, d, a = wave.spec, eq_spec.d, eq_spec.a
    alpha = (s.a(2) - s.d(3), s.a(3), s.a(4) - s.d(4))
    f = wave.series.truncate(min(cap, wave.series.cap))

    def euler(series, i, const):
        return series.map_coefficients(lambda e, c: c * (e[i] + alpha[i] + const))

    def euler_pair(series, i1, i2):
        return series.map_coefficients(lambda e, c: c * (e[i1] + e[i2] + alpha[i1] + alpha[i2]))

    if which == 1:
        lhs = euler(euler(f, 0, d(3) + a(2) - 1), 0, d(3) - a(2))
        rhs = euler(euler_pair(f, 0, 1), 0, d(1) - d(2) + d(3))
    elif which == 2:
        lhs = euler(euler(f, 1, a(3) - 1), 1, -a(3))
        rhs = euler_pair(euler_pair(f, 1, 2), 1, 0)
    else:
        lhs = euler(euler(f, 2, d(4) + a(4) - 1), 2, d(4) - a(4))
        rhs = euler(euler_pair(f, 2, 1), 2, d(6) - d(5) + d(4))
    return lhs - scale_exponent(rhs, f.variables[which - 1], 1)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_casimir_annihilates_six_point_wave(which):
    wave = chiral_wave_series(SIX, 6)
    res = casimir_residual(SIX, wave, which, 6)
    assert res.is_zero()


@pytest.mark.parametrize("which", [1, 2, 3])
def test_casimir_generic_dims(which):
    spec = WaveSpec.from_middle(
        (F(1, 2), F(4, 3), F(2), F(5, 4), F(3, 2), F(1)),
        (F(7, 4), F(5, 3), F(9, 5)),
    )
    wave = chiral_wave_series(spec, 5)
    assert casimir_residual(spec, wave, which, 5).is_zero()


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_six_point_residual_matches_the_three_branch_form(data):
    dims = data.draw(st.lists(DIMS, min_size=6, max_size=6), label="dims")
    middle = data.draw(st.lists(PROJ, min_size=3, max_size=3), label="middle")
    spec = WaveSpec.from_middle(dims, middle)
    wave = chiral_wave_series(spec, 4)
    # the equation's dimensions and projections: the wave's own, or wrong ones
    eq_dims = data.draw(st.just(dims) | st.lists(DIMS, min_size=6, max_size=6), label="eq_dims")
    eq_middle = data.draw(st.just(middle) | st.lists(PROJ, min_size=3, max_size=3),
                          label="eq_middle")
    eq_spec = WaveSpec.from_middle(eq_dims, eq_middle)
    for which in (1, 2, 3):
        res = casimir_residual(eq_spec, wave, which, 4)
        assert res == _six_point_residual(eq_spec, wave, which, 4), which
        assert res.is_zero() or eq_spec != spec


SHIFTS = st.sampled_from([F(1), F(-1), F(1, 2), F(2, 3), F(-5, 4)])


def _perturbed(data, values: list, label: str) -> list:
    """values unchanged, or with one entry moved by a nonzero shift."""
    if not values or not data.draw(st.booleans(), label=f"perturb {label}"):
        return values
    at = data.draw(st.integers(0, len(values) - 1), label=f"{label} index")
    out = list(values)
    out[at] += data.draw(SHIFTS, label=f"{label} shift")
    return out


@given(n=st.integers(4, 7), cap=st.integers(0, 6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_residual_matches_the_series_oracle(n, cap, data):
    dims = data.draw(st.lists(DIMS, min_size=n, max_size=n), label="dims")
    middle = data.draw(st.lists(PROJ, min_size=n - 3, max_size=n - 3), label="middle")
    spec = WaveSpec.from_middle(dims, middle)
    wave = chiral_wave_series(spec, data.draw(st.integers(cap, cap + 2), label="wave cap"))
    eq_spec = WaveSpec.from_middle(_perturbed(data, dims, "dims"), _perturbed(data, middle, "middle"))
    for which in range(1, n - 2):
        res = casimir_residual(eq_spec, wave, which, cap)
        assert res == casimir_residual_series(eq_spec, wave, which, cap), which
        assert res.is_zero() or eq_spec != spec, which


@pytest.mark.parametrize("n", [4, 5, 7])
def test_integer_residual_of_a_wrong_equation_matches_the_oracle(n):
    spec = WaveSpec.from_middle((F(1, 2),) + (2,) * (n - 2) + (F(3, 2),), (F(5, 2),) * (n - 3))
    wave = chiral_wave_series(spec, 5)
    for eq_spec in (
        WaveSpec.from_middle((1,) + spec.field_dims[1:], spec.proj_dims[1:-1]),
        WaveSpec.from_middle(spec.field_dims, (F(7, 3),) + spec.proj_dims[2:-1]),
    ):
        res = casimir_residual(eq_spec, wave, 1, 5)
        assert not res.is_zero()
        assert res == casimir_residual_series(eq_spec, wave, 1, 5)


@given(n=st.integers(4, 9), cap=st.integers(0, 4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_casimir_annihilates_every_wave(n, cap, data):
    dims = data.draw(st.lists(DIMS, min_size=n, max_size=n), label="dims")
    middle = data.draw(st.lists(PROJ, min_size=n - 3, max_size=n - 3), label="middle")
    spec = WaveSpec.from_middle(dims, middle)
    wave = chiral_wave_series(spec, cap)
    closed = ChiralWave(spec, _closed_form_series(spec, cap))
    for k in range(1, n - 2):
        assert casimir_residual(spec, wave, k, cap).is_zero(), k
        assert casimir_residual(spec, closed, k, cap).is_zero(), k


@pytest.mark.parametrize("n", [4, 5, 6, 7, 9])
def test_casimir_wrong_eigenvalue_fails_at_every_cross_ratio(n):
    spec = WaveSpec.from_middle((1, 1) + (2,) * (n - 4) + (1, 1), (F(5, 2),) * (n - 3))
    wave = chiral_wave_series(spec, 2)
    for k in range(1, n - 2):
        proj = list(spec.proj_dims)
        proj[k] += 1  # a'_{k+1} = a_{k+1} + 1
        res = casimir_residual(WaveSpec(spec.field_dims, tuple(proj)), wave, k, 2)
        # (a - (a + 1))(a + (a + 1) - 1) = -2 a on the constant term
        assert res.coefficient((0,) * (n - 3)) == -2 * spec.a(k + 1), k


def test_casimir_wrong_eigenvalue_fails_at_leading_order():
    wave = chiral_wave_series(SIX, 4)
    wrong = WaveSpec.from_middle(
        (1, 1, 2, 2, 1, 1), (F(3, 2), F(2) + 1, F(5, 2))
    )
    res = casimir_residual(wrong, wave, 2, 4)
    # (a3 - (a3+1)) (a3 + (a3+1) - 1) = -2 a3 on the constant term
    assert res.coefficient((0, 0, 0)) == -2 * F(2)


def test_casimir_embeds_four_points():
    spec = WaveSpec.from_middle((1, 1, 1, 1), (2,))
    wave = chiral_wave_series(spec, 6)
    for which in range(1, spec.n - 2):
        assert casimir_residual(spec, wave, which, 6).is_zero()


def test_casimir_embeds_five_points():
    spec = WaveSpec.from_middle((1, 2, 1, 2, 1), (2, F(5, 2)))
    wave = chiral_wave_series(spec, 5)
    for which in range(1, spec.n - 2):
        assert casimir_residual(spec, wave, which, 5).is_zero()


def test_conjugation_symmetry():
    rev = reversed_spec(SIX)
    wave = chiral_wave_series(rev, 5)
    for which in (1, 2, 3):
        assert casimir_residual(rev, wave, which, 5).is_zero()


def test_casimir_refusals():
    wave = chiral_wave_series(SIX, 2)
    for which in (0, 4):
        with pytest.raises(ValueError, match=rf"^which must be in 1\.\.3 for n = 6, got {which}$"):
            casimir_residual(SIX, wave, which, 2)
    with pytest.raises(ValueError, match="equation spec has 4 points"):
        casimir_residual(WaveSpec.from_middle((1, 1, 1, 1), (2,)), wave, 1, 2)
    three = WaveSpec.from_middle((1, 1, 1), ())
    with pytest.raises(DegenerateParameterError, match="needs n >= 4; a 3-point wave"):
        casimir_residual(three, chiral_wave_series(three, 2), 1, 2)


def test_wave_json_round_trip():
    spec = WaveSpec.from_middle((1, 1, 1, 1), (2,))
    wave = chiral_wave_series(spec, 3)
    back = ChiralWave.from_json(wave.to_json())
    assert back.spec == wave.spec
    assert back.series == wave.series
    assert back.to_json()["prefactor"] == wave.to_json()["prefactor"]


def _malformed(good: dict, **changes) -> dict:
    bad = dict(good)
    for key, value in changes.items():
        if value is None:
            bad.pop(key)
        else:
            bad[key] = value
    return bad


@pytest.mark.parametrize(
    "change",
    [
        {"cap": "x"},
        {"cap": -1},
        {"cap": 2.5},
        {"cap": True},
        {"spec": None},
        {"series": None},
        {"series": [{"exponents": [0, 0], "coeff": "1"}]},
        {"series": [{"exponents": [-1], "coeff": "1"}]},
        {"series": [{"exponents": 0, "coeff": "1"}]},
        {"series": [{"exponents": [0]}]},
        {"cap": 1, "series": [{"exponents": [5], "coeff": "7"}]},
        {"series": ["x"]},
        {"series": {}},
        {"spec": []},
        {"spec": {"n": 4, "dims": "1111", "proj": ["1", "2", "1"]}},
        {"spec": {"n": 4, "dims": ["1", "1", "1", "1"], "proj": "121"}},
        {"spec": {"n": 5, "dims": ["1", "1", "1", "1"], "proj": ["1", "2", "1"]}},
        {"spec": {"dims": ["1", "1", "1", "1"], "proj": ["1", "2", "1"]}},
        {"prefactor": []},
        {"prefactor": {"numerator": "1", "factors": []}},
        {"prefactor": {"numerator": "2", "factors": {"1,3": "-2", "2,4": "-2"}}},
        {"prefactor": {"numerator": "1", "factors": {"1,3": "-2"}}},
        {"prefactor": {"numerator": "1", "factors": {"3,1": "-2", "2,4": "-2"}}},
    ],
)
def test_wave_json_rejects_malformed_input(change):
    good = chiral_wave_series(WaveSpec.from_middle((1, 1, 1, 1), (2,)), 3).to_json()
    assert good["prefactor"] == {"numerator": "1", "factors": {"1,3": "-2", "2,4": "-2"}}
    with pytest.raises(ValueError):
        ChiralWave.from_json(_malformed(good, **change))


@pytest.mark.parametrize(
    "prefactor",
    [
        {"numerator": "2/2", "factors": {"1,3": "-2", "2,4": "-2"}},
        {"numerator": "1", "factors": {"1,2": "0", "1,3": "-4/2", "2,4": "-2", "3,4": "0/5"}},
    ],
)
def test_wave_json_reads_the_prefactor_by_value(prefactor):
    wave = chiral_wave_series(WaveSpec.from_middle((1, 1, 1, 1), (2,)), 3)
    back = ChiralWave.from_json(_malformed(wave.to_json(), prefactor=prefactor))
    assert back == wave


@pytest.mark.parametrize(
    "prefactor",
    [
        {"numerator": "2", "factors": {"1,3": "-2", "2,4": "-2"}},
        {"numerator": "1", "factors": {"3,1": "-2", "2,4": "-2"}},
        {"numerator": "1", "factors": {"1,3": "-2", "2,4": "-2", "3,1": "0"}},
        {"numerator": "1", "factors": {"1,3": "-2", "2,4": "-2", "1,4": "1"}},
    ],
)
def test_wave_json_rejects_a_prefactor_other_than_its_specs(prefactor):
    good = chiral_wave_series(WaveSpec.from_middle((1, 1, 1, 1), (2,)), 3).to_json()
    message = "^wave JSON prefactor is not the factored prefactor of its spec$"
    with pytest.raises(ValueError, match=message):
        ChiralWave.from_json(_malformed(good, prefactor=prefactor))


@pytest.mark.parametrize("key", ["01,3", " 1,3", "1,3 ", "1, 3", "+1,3", "1,03"])
def test_wave_json_rejects_a_second_spelling_of_a_factor_key(key):
    # int() reads each key as a pair the JSON already has; a second spelling
    # must not silently replace the first value
    good = chiral_wave_series(WaveSpec.from_middle((1, 1, 1, 1), (2,)), 3).to_json()
    factors = {"1,3": "-2", "2,4": "-2", key: "-2"}
    with pytest.raises(ValueError, match="prefactor.factors key " + re.escape(repr(key))):
        ChiralWave.from_json(_malformed(good, prefactor={"numerator": "1", "factors": factors}))


def test_wave_json_rejects_non_object():
    with pytest.raises(ValueError):
        ChiralWave.from_json([])


# a = 0, -1/2 and -1 make (2 a)_m vanish at m = 1, 2 and 3
walk_dims = st.sampled_from([F(-1, 2), F(-1), F(0), F(1), F(3, 2), F(2), F(5, 2), F(1, 3)])


def _walk_outcome(build):
    """The terms in insertion order, or the DegenerateParameterError message."""
    try:
        return list(coeffs(build()).items())
    except DegenerateParameterError as exc:
        return str(exc)


@given(st.integers(3, 8), st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_odometer_walk_matches_the_ratio_callback_walk(n, cap, data):
    spec = WaveSpec.from_middle(
        data.draw(st.lists(walk_dims, min_size=n, max_size=n)),
        data.draw(st.lists(walk_dims, min_size=n - 3, max_size=n - 3)),
    )
    got = _walk_outcome(lambda: chiral_wave_series(spec, cap).series)
    assert got == _walk_outcome(lambda: chiral_wave_series_by_ratios(spec, cap))


@pytest.mark.parametrize("a, order", [(F(0), 1), (F(-1, 2), 2), (F(-1), 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_odometer_walk_raises_where_the_ratio_walk_does(a, order, k):
    # a_{k+1} = a is degenerate once an exponent reaches order; below that cap
    # both walks return the same terms, at it the same first error
    middle = [F(2)] * 3
    middle[k - 1] = a
    spec = WaveSpec.from_middle((1, 1, 2, 2, 1, 1), middle)
    for cap in (order - 1, order, order + 2):
        got = _walk_outcome(lambda: chiral_wave_series(spec, cap).series)
        assert got == _walk_outcome(lambda: chiral_wave_series_by_ratios(spec, cap))
        assert isinstance(got, str) == (cap >= order)
