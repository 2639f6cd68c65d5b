import random
from fractions import Fraction
from math import factorial

import pytest

from exactcft import tensor_ops
from exactcft.cli import main
from exactcft.errors import ConsistencyError, DegenerateParameterError
from exactcft.poly import MultiPoly
from exactcft.tensor_ops import (
    IVARS,
    RVAR,
    _recursion_rows,
    assemble_tensor_intertwiner,
    coefficient_table,
    harmonic_project,
    legendre_poly,
    radial_poly,
    solve_intertwiner_space,
    tensor_pde_residual,
    verify_tensor_pde,
)
from oracles import (
    assemble_tensor_fractions,
    coeffs,
    is_canonical,
    power,
    harmonic_project_fractions,
    igen,
    ipoly,
    lapv,
    radial_poly_fractions,
    solve_intertwiner_space_fractions,
    coefficient_table_seeded,
    radial_poly_walk,
    raise_lower,
    rank_zero_closed_form,
    twist_table_display,
    twist_table_poly,
)

F = Fraction


def test_laplacian_rewrite_rules():
    V = igen("V")
    s1, s2 = igen("s1"), igen("s2")
    t12 = igen("t12")
    assert lapv(V) == MultiPoly.constant(IVARS, 8)
    assert lapv(s1 * s2) == 2 * t12
    assert lapv(s1 * s1) == 2 * igen("b1")


def test_harmonic_projection_basics():
    V = igen("V")
    s1, s2, t12 = igen("s1"), igen("s2"), igen("t12")
    assert harmonic_project(V).is_zero()
    assert harmonic_project(s1) == s1
    assert harmonic_project(s1 * s2) == s1 * s2 - V * t12 * F(1, 4)


def test_harmonic_projection_annihilates_v_multiples():
    rng = random.Random(5)
    gens = [igen(n) for n in IVARS]
    V = igen("V")
    for _ in range(6):
        q = ipoly()
        vdeg = rng.randint(0, 4)
        for _ in range(3):
            a = rng.randint(0, vdeg // 2)
            rest = vdeg - 2 * a
            d = rng.randint(0, rest)
            mono = power(gens[3], d) * power(gens[4], rest - d) * power(V, a)
            mono = mono * power(gens[0], rng.randint(0, 2)) * rng.randint(-4, 4)
            q = q + mono
        if q.is_zero():
            continue
        assert harmonic_project(V * q).is_zero()
        assert lapv(harmonic_project(q)).is_zero()


def test_harmonic_projection_requires_homogeneous():
    s1, V = igen("s1"), igen("V")
    with pytest.raises(ValueError):
        harmonic_project(s1 + V)


def test_radial_poly_examples():
    assert radial_poly(1, 1, 0) == MultiPoly.var(RVAR, "r")
    for L in range(7):
        assert radial_poly(1, L, 0) == legendre_poly(L) * factorial(L)


def test_radial_poly_symmetry():
    for kappa in range(4):
        for L in range(6):
            for delta in range(-kappa, kappa + 1):
                if kappa == 0:
                    continue
                f = radial_poly(kappa, L, delta)
                g = radial_poly(kappa, L, -delta)
                # r -> -r flips the sign of every odd power
                g = MultiPoly(RVAR, {(j,): -c if j % 2 else c for (j,), c in coeffs(g).items()})
                if L % 2:
                    g = -g
                assert f == g


def test_radial_poly_matches_walk():
    """The one pole-free sum equals the 2F1 sum or the raising/lowering walk
    wherever those run, and refuses exactly where they refuse."""
    refused = set()
    for kappa in range(7):
        for L in range(7):
            for delta in range(-kappa - L - 1, kappa + L + 2):
                try:
                    expected = radial_poly_walk(kappa, L, delta)
                except DegenerateParameterError:
                    refused.add((kappa, L, delta))
                    with pytest.raises(DegenerateParameterError):
                        radial_poly(kappa, L, delta)
                    continue
                assert radial_poly(kappa, L, delta) == expected
    assert refused == {(0, L, delta) for L in range(7) for delta in range(L)}


def test_raising_matches_direct_form():
    for L in range(1, 5):
        for delta in (-1, 0):
            f = radial_poly(2, L, delta)
            raised = raise_lower(f, 2, L, delta, 1)
            assert raised == radial_poly(2, L, delta + 1)


def test_raise_lower_round_trip():
    for kappa in (1, 2, 3):
        for L in (1, 2, 3, 4):
            f0 = radial_poly(kappa, L, 0)
            up = raise_lower(f0, kappa, L, 0, 1)
            back = raise_lower(up, kappa, L, 1, -1)
            assert back == f0


def test_radial_degenerate_rejected():
    with pytest.raises(DegenerateParameterError):
        radial_poly(0, 3, 0)


def test_coefficient_table_kappa0():
    t = coefficient_table(0, 4)
    assert coeffs(t.entries) == {(0, 0): F(1)}
    # no recursion row constrains c_00, and there is nothing else to fix
    assert _recursion_rows(0, 4) == ({(0, 0): 0}, [])


def test_coefficient_table_matches_seeded_solve():
    """One homogeneous solve gives the table the seeded solve gives, and the
    kernel sum where the recursions force c_00 = 0."""
    for kappa in range(11):
        for L in range(9):
            assert coeffs(coefficient_table(kappa, L).entries) == coefficient_table_seeded(kappa, L)


def test_coefficient_table_kappa1():
    for L in (1, 2, 3, 5):
        # the table is linear in c_00; the display takes c_00 = 1/L!
        t = coefficient_table(1, L)
        expected = F(1, 2 * factorial(L - 1)) * factorial(L)
        assert t.entries.coefficient((1, 0)) == expected
        assert t.entries.coefficient((0, 1)) == expected


def test_coefficient_table_kappa1_L0():
    t = coefficient_table(1, 0)
    assert t.entries.coefficient((1, 0)) == 0
    assert t.entries.coefficient((0, 1)) == 0


def test_twist_two_table_matches_display():
    for L in (1, 2, 3, 4):
        assert twist_table_poly(1, L, F(1, factorial(L))) == twist_table_display(L)


def test_assemble_rank_only():
    op = assemble_tensor_intertwiner(0, 2)
    s1, s2, V, t12 = igen("s1"), igen("s2"), igen("V"), igen("t12")
    # e(r) = 1 - r^2 brackets to 4 [s1 s2]_0
    assert op.poly == 4 * (s1 * s2 - V * t12 * F(1, 4))
    closed = rank_zero_closed_form(2)
    assert op.poly * closed.leading()[1] == closed * op.poly.leading()[1]


def test_assemble_zero_operator():
    assert assemble_tensor_intertwiner(0, 1).poly.is_zero()


def test_assemble_kappa1_L0():
    op = assemble_tensor_intertwiner(1, 0)
    assert op.poly == igen("t12")


@pytest.mark.parametrize("kappa", [0, 1, 2])
@pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
def test_assembled_operators_satisfy_pde(kappa, L):
    op = assemble_tensor_intertwiner(kappa, L)
    assert verify_tensor_pde(op).is_zero()
    # assembled operators are already harmonic
    if not op.poly.is_zero():
        assert harmonic_project(op.poly) == op.poly


def test_pde_detects_non_solution():
    op = assemble_tensor_intertwiner(0, 2)
    broken = type(op)(0, 2, op.poly + igen("s1") * igen("s1"))
    assert not verify_tensor_pde(broken).is_zero()


def test_rank_zero_closed_form_proportionality():
    for L in (2, 3, 4, 5, 6):
        closed = rank_zero_closed_form(L)
        op = assemble_tensor_intertwiner(0, L)
        ratio = None
        lead_c = closed.leading()[1]
        lead_o = op.poly.leading()[1]
        assert closed * lead_o == op.poly * lead_c


def test_solve_space_equal_dims_L2():
    basis = solve_intertwiner_space(0, 2, 1, 1)
    assert len(basis) == 1
    ref = assemble_tensor_intertwiner(0, 2).poly
    got = basis[0].poly
    assert got * ref.leading()[1] == ref * got.leading()[1]


def test_solve_space_equal_dims_L1():
    # the degree-(1,1) condition degenerates: v.d1 and v.d2 solve it outright
    # (checked against a component-wise brute force of the full intertwining
    # relation), so the kernel is 2-dimensional while the closed-form family
    # contributes only the zero operator there
    basis = solve_intertwiner_space(0, 1, 1, 1)
    assert len(basis) == 2
    for op in basis:
        assert tensor_pde_residual(op.poly).is_zero()
    assert assemble_tensor_intertwiner(0, 1).poly.is_zero()


def test_seedless_recursion_kappa2():
    # at kappa=2, L>=1 the recursions force c00 = 0; the table is then the sum
    # of the homogeneous solution space, as the seeded solve's fallback gives
    table = coefficient_table(2, 1)
    assert (0, 0) not in table.entries.terms
    assert table.entries and coeffs(table.entries) == coefficient_table_seeded(2, 1)
    op = assemble_tensor_intertwiner(2, 1)
    assert not op.poly.is_zero()
    assert verify_tensor_pde(op).is_zero()


def test_solve_space_unequal_dims():
    basis = solve_intertwiner_space(1, 0, 3, 1)
    assert len(basis) >= 1
    for op in basis:
        assert tensor_pde_residual(op.poly, F(2)).is_zero()


def test_solve_space_rejects_odd_gap():
    with pytest.raises(DegenerateParameterError):
        solve_intertwiner_space(1, 0, 2, 1)


def test_solve_space_contains_assembled():
    # kappa=1, L=2, equal dims: assembled operator must lie in the kernel
    op = assemble_tensor_intertwiner(1, 2)
    assert tensor_pde_residual(op.poly).is_zero()
    basis = solve_intertwiner_space(1, 2, 2, 2)
    assert len(basis) >= 1


def test_kernel_basis_check_catches_a_wrong_solve(monkeypatch, capsys):
    """A mutant solver adds 1 to the first entry of every basis vector; the
    run-time PDE check on each basis operator must refuse it, and the CLI must
    exit 4."""
    real = tensor_ops.linear_solve_exact

    def perturbed(rows, ncols):
        return [(den, {**x, 0: x.get(0, 0) + den}) for den, x in real(rows, ncols)]

    monkeypatch.setattr(tensor_ops, "linear_solve_exact", perturbed)
    with pytest.raises(ConsistencyError, match="basis operator 0 .* kappa=1, L=2, d1=3, d2=1"):
        solve_intertwiner_space(1, 2, 3, 1)
    argv = ["intertwiner", "tensor", "--kappa", "1", "--L", "2", "--d1", "3", "--d2", "1"]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("internal consistency failure: kernel basis operator 0")


# -- the integer routes against the Fraction routes ------------------------------------


@pytest.mark.parametrize("kappa", range(7))
def test_assembled_operators_match_the_fraction_route(kappa):
    """The int bracket, radial polynomials and assembly give the operator the
    Fraction route gives, for L <= 4; kappa = 0 takes the Legendre path."""
    for L in range(5):
        got = assemble_tensor_intertwiner(kappa, L).poly
        assert got == assemble_tensor_fractions(kappa, L), (kappa, L)
        assert is_canonical(got)


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 1), (1, 3), (5, 1), (1, 5), (F(7, 3), F(13, 3))])
def test_kernel_bases_match_the_fraction_route(d1, d2):
    """Int seeds over one denominator and int residual rows give the kernel
    basis of Fraction seeds and tensor_pde_residual rows, at gaps 0, +-2, +-4
    and at a fractional d1 with an even gap."""
    for kappa, L in [(0, 2), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]:
        got = [op.poly for op in solve_intertwiner_space(kappa, L, d1, d2)]
        assert got == solve_intertwiner_space_fractions(kappa, L, d1, d2), (kappa, L)
        assert all(is_canonical(p) for p in got)


def test_radial_poly_matches_the_fraction_route():
    for kappa in range(7):
        for L in range(7):
            for delta in range(-kappa - L - 1, kappa + L + 2):
                if kappa == 0 and 0 <= delta < L:
                    continue
                got = radial_poly(kappa, L, delta)
                assert got == radial_poly_fractions(kappa, L, delta), (kappa, L, delta)
                assert is_canonical(got)


def test_harmonic_projection_matches_the_fraction_route():
    rng = random.Random(11)
    gens = [igen(n) for n in IVARS]
    for _ in range(40):
        vdeg = rng.randint(0, 6)
        q = ipoly()
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(0, vdeg // 2)
            d = rng.randint(0, vdeg - 2 * a)
            mono = power(gens[3], d) * power(gens[4], vdeg - 2 * a - d) * power(gens[5], a)
            mono = mono * power(gens[rng.randint(0, 2)], rng.randint(0, 2))
            q = q + mono * F(rng.randint(-9, 9), rng.randint(1, 6))
        got = harmonic_project(q)
        assert got == harmonic_project_fractions(q)
        assert is_canonical(got)


def test_one_unit_off_a_table_entry_breaks_the_recursions(monkeypatch, capsys):
    """+-1 on one entry of a coefficient table makes the integer recursion
    check raise, for every entry that some recursion instance reads with a
    nonzero coefficient; the others are free of every instance. A table off
    by one from the solve makes `intertwiner tensor` exit 4."""
    for kappa in range(1, 7):
        for L in range(5):
            table = coefficient_table(kappa, L)
            pos, rows = _recursion_rows(kappa, L)
            read = {mn for mn, k in pos.items() if any(k in row for row in rows)}
            values = coeffs(table.entries)
            for mn in values:
                for step in (1, -1):
                    entries = MultiPoly(table.entries.variables, {**values, mn: values[mn] + step})
                    mutant = tensor_ops.CoefficientTable(kappa, L, entries)
                    if mn in read:
                        with pytest.raises(ConsistencyError, match=f"kappa={kappa}, L={L}"):
                            tensor_ops._check_recursions(mutant)
                    else:
                        tensor_ops._check_recursions(mutant)
    real = tensor_ops.linear_solve_exact

    def perturbed(rows, ncols):
        return [(den, {**x, 0: x.get(0, 0) + den}) for den, x in real(rows, ncols)]

    monkeypatch.setattr(tensor_ops, "linear_solve_exact", perturbed)
    assert main(["intertwiner", "tensor", "--kappa", "3", "--L", "2"]) == 4
    assert "recursion violated at (m,n)=" in capsys.readouterr().err
