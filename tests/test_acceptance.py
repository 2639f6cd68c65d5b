"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line so the suite reads as a checklist.
Criterion 4 contains one mathematically unattainable corner (the unit-weight
matched-channel reduction, whose constant vanishes identically); it is
asserted as stated and fails honestly there. See the project notes for the
analysis.
"""

import random
from fractions import Fraction
from math import factorial

from exactcft.amplitudes import fourpoint_amplitudes, reconstruction_residual
from exactcft.channels import channel_coefficients
from exactcft.chiral_ops import (
    chiral_intertwiner,
    match_reduction,
    reduce_correlator,
    reduce_wave,
    verify_chiral_pde,
)
from exactcft.gseries import closed_coefficient, completion_series, verify_biharmonic
from exactcft.positivity import positivity_report
from exactcft.sixpoint import build_structure, restrict_2d
from exactcft.special import gauss_2f1_coeff
from exactcft.tensor_ops import (
    IVARS,
    assemble_tensor_intertwiner,
    legendre_poly,
    radial_poly,
    solve_intertwiner_space,
    tensor_pde_residual,
    verify_tensor_pde,
)
from exactcft.waves import WaveSpec, casimir_residual, chiral_wave_series
from oracles import (
    coeffs,
    harmonic_project_poly,
    power,
    igen,
    ipoly,
    lapv,
    leading,
    closed_form_channel,
    rank_zero_closed_form,
    reduction_generating_poly,
    report_block,
    shifted_legendre,
    three_point_structure,
    twist_table_display,
    twist_table_poly,
    two_point_structure,
)

F = Fraction


def report(number: int, ok: bool, label: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {label}")
    assert ok, f"criterion {number}: {label}"


def rand_frac(rng, lo=-4, hi=8, den=4):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def test_criterion_01_wave_hypergeometric_agreement():
    rng = random.Random(101)
    ok = True
    for _ in range(5):
        dims = [rand_frac(rng, 1, 9) for _ in range(4)]
        a2 = F(rng.randint(2, 12), 2)
        spec = WaveSpec.from_middle(dims, (a2,))
        wave = chiral_wave_series(spec, 12)
        for ell in range(13):
            expected = gauss_2f1_coeff(
                a2 + dims[0] - dims[1], a2 + dims[3] - dims[2], 2 * a2, ell
            )
            ok = ok and wave.series.coefficient((ell,)) == expected
    report(1, ok, "n=4 wave coefficients equal the hypergeometric values, 5 random sets, l <= 12")


def test_criterion_02_casimir_residuals():
    specs = [
        WaveSpec.from_middle((1, 1, 2, 2, 1, 1), (F(3, 2), F(2), F(5, 2))),
        WaveSpec.from_middle(
            (F(1, 2), F(4, 3), F(2), F(5, 4), F(3, 2), F(1)),
            (F(7, 4), F(5, 3), F(9, 5)),
        ),
    ]
    ok = True
    for spec in specs:
        wave = chiral_wave_series(spec, 8)
        for which in (1, 2, 3):
            ok = ok and casimir_residual(spec, wave, which, 8).is_zero()
    spec = specs[0]
    wrong = WaveSpec(
        spec.field_dims,
        spec.proj_dims[:2] + (spec.proj_dims[2] + 1,) + spec.proj_dims[3:],
    )
    wave = chiral_wave_series(spec, 4)
    res = casimir_residual(wrong, wave, 2, 4)
    ok = ok and res.coefficient((0, 0, 0)) == -2 * spec.proj_dims[2]
    report(2, ok, "all three invariant Casimir equations annihilate the n=6 wave to order 8; wrong eigenvalue fails at leading order")


def test_criterion_03_intertwiner_pde_suite():
    rng = random.Random(33)
    ok = True
    for _ in range(3):
        d1, d2 = rand_frac(rng), rand_frac(rng)
        for h in range(7):
            ok = ok and not verify_chiral_pde(chiral_intertwiner(h, d1, d2))
    for kappa in range(3):
        for L in range(5):
            op = assemble_tensor_intertwiner(kappa, L)
            ok = ok and not verify_tensor_pde(op)
    params = [(0, 2, F(1), F(1)), (1, 0, F(3), F(1)), (1, 2, F(2), F(2))]
    for kappa, L, d1, d2 in params:
        basis = solve_intertwiner_space(kappa, L, d1, d2)
        for op in basis:
            ok = ok and not tensor_pde_residual(op.poly, d1 - d2)
    report(3, ok, "PDE residuals vanish: chiral h <= 6 random dims, assembled kappa <= 2 L <= 4, solver kernels on 3 parameter sets")


def test_criterion_04_annihilation_and_reduction():
    d1, d2 = F(3), F(1)
    failures = []
    for a in range(1, 6):
        target = three_point_structure(d1, d2, a)
        for h in range(1, 6):
            op = chiral_intertwiner(h, d1, d2)
            reduced = reduce_correlator(target, (1, 2), op, d1, d2)
            if h != a:
                if not reduced.is_zero_function():
                    failures.append(f"(a={a},h={h}) expected zero")
            else:
                lam = reduced.proportional_to(two_point_structure(h, (1, 3)))
                if lam is None or lam == 0:
                    failures.append(
                        f"(a={a},h={h}) expected nonzero multiple of the 2-point structure"
                    )
    for n, dims, mids in (
        (4, (1, 1, 1, 1), ((2,), (3,), (4,))),
        (5, (1, 2, 1, 2, 1), ((2, F(5, 2)), (3, F(5, 2)))),
    ):
        for mid in mids:
            spec = WaveSpec.from_middle(dims, mid)
            wave = chiral_wave_series(spec, 6)
            h = int(mid[0])
            op = chiral_intertwiner(h, spec.d(1), spec.d(2))
            red = reduce_wave(wave, (1, 2), op)
            lam = match_reduction(red, spec, (1, 2), h)
            if lam is None or lam == 0:
                failures.append(f"n={n} a2={mid[0]} wave reduction mismatch")
    report(
        4,
        not failures,
        "3-point reduction zero iff h != a and nonzero multiple iff h = a (a,h <= 5);"
        " n=4,5 matched-channel reductions reproduce the shorter wave to cap 6"
        + (f" [violations: {failures}]" if failures else ""),
    )


def test_criterion_05_closed_form_cross_checks():
    ok = True
    for L in range(7):
        closed = rank_zero_closed_form(L)
        op = assemble_tensor_intertwiner(0, L).poly
        if closed.is_zero() or op.is_zero():
            ok = ok and closed.is_zero() == op.is_zero()
        else:
            ok = ok and closed * leading(op)[1] == op * leading(closed)[1]
    for L in range(7):
        ok = ok and radial_poly(1, L, 0) == legendre_poly(L) * factorial(L)
    for L in range(1, 5):
        ok = ok and twist_table_poly(1, L, F(1, factorial(L))) == twist_table_display(L)
    report(5, ok, "rank-only closed form, Legendre radial identity (L <= 6), and the twist-2 table display all reproduced")


def test_criterion_06_harmonicity():
    rng = random.Random(66)
    gens = [igen(n) for n in IVARS]
    V = igen("V")
    checked = 0
    ok = True
    while checked < 20:
        vdeg = rng.randint(0, 6)
        poly = ipoly()
        for _ in range(rng.randint(1, 4)):
            nv = rng.randint(0, vdeg // 2)
            rest = vdeg - 2 * nv
            ds = rng.randint(0, rest)
            mono = power(gens[3], ds) * power(gens[4], rest - ds) * power(V, nv)
            for spect in gens[:3]:
                mono = mono * power(spect, rng.randint(0, 2))
            poly = poly + mono * rng.randint(-5, 5)
        if poly.is_zero():
            continue
        checked += 1
        ok = ok and lapv(harmonic_project_poly(poly)).is_zero()
        ok = ok and harmonic_project_poly(V * poly).is_zero()
    report(6, ok, "harmonic projections are annihilated by the v-Laplacian and kill V multiples, 20 random inputs")


def test_criterion_07_completion_series():
    rec = completion_series(12, "recursion")
    clo = completion_series(12, "closed")
    ok = rec == clo
    for (a, b), c in coeffs(clo).items():
        if a >= 1 and b >= 1:
            ok = ok and c == F(2 * a * b, (a + b) * ((a + b) ** 2 - 1))
        ok = ok and c == closed_coefficient(a, b)
    residual = verify_biharmonic(clo)
    ok = ok and residual.cap == 11 and residual.is_zero()
    report(7, ok, "recursion and closed series agree to cap 12 with the stated coefficients; biharmonic residual zero to order 11")


def test_criterion_08_channel_coefficients():
    ok = True
    for hp in range(1, 7):
        for hm in range(1, 7):
            ok = ok and channel_coefficients(hp, hm, "B") == closed_form_channel(hp, hm, "B")
            ok = ok and channel_coefficients(hp, hm, "H") == closed_form_channel(hp, hm, "H")
    for h in range(1, 9):
        poly = reduction_generating_poly(h)
        ok = ok and poly == shifted_legendre(h)
        ok = ok and sum(coeffs(poly).values()) == (-1) ** (h - 1)  # F(1)
    report(8, ok, "36 + 36 channel constants equal the parity closed forms; F(z) is the shifted Legendre polynomial for h <= 8")


def test_criterion_09_two_dimensional_restriction():
    bme = restrict_2d(build_structure("BminusHalfE"))
    ok = coeffs(bme.numerator) == {
        (1, 0, 1, 0): F(1),
        (1, 0, 0, 1): F(-1),
        (0, 1, 1, 0): F(-1),
        (0, 1, 0, 1): F(1),
    }
    ok = ok and bme.prefactor == {
        (1, 2): -2, (1, 3): -1, (2, 4): -1, (3, 4): -1,
        (3, 5): -1, (4, 6): -1, (5, 6): -2,
    }
    b = restrict_2d(build_structure("B"))
    series = b.series(10)
    for (a, bb, c, d), coeff in coeffs(series).items():
        ok = ok and coeff == 1 and a + bb > 0 and c + d > 0
    for key in ((1, 0, 1, 0), (3, 2, 1, 4), (0, 1, 0, 2)):
        ok = ok and series.coefficient(key) == (1 if sum(key) <= 10 else 0)
    ok = ok and series.coefficient((0, 0, 1, 1)) == 0
    ok = ok and series.coefficient((2, 0, 0, 0)) == 0
    report(9, ok, "B - E/2 restriction factors into the displayed closed form exactly; B restriction equals the double geometric sum to cap 10")


def test_criterion_10_fourpoint_amplitudes():
    ok = True
    for h in (1, 2, 3):
        for hp in (1, 2, 3):
            am = fourpoint_amplitudes(h, hp, 12)
            ok = ok and am.entries[0] == 1
            ok = ok and am.entries[1] == -F(h * hp, 3)
            ok = ok and not reconstruction_residual(am, 12)
    report(10, ok, "amplitude towers reconstruct 1 exactly through order 12 for all weights in {1,2,3}^2")


def test_criterion_11_positivity_report():
    ok = True
    small = positivity_report("B", 4, 2)
    for block in small.blocks:
        n = len(block.labels)
        for i in range(n):
            for j in range(n):
                ok = ok and block.entries[i][j] == block.entries[j][i]
        ok = ok and sum(block.inertia) == n
    large = positivity_report("B", 6, 4)
    for block in small.blocks:
        big = report_block(large, int(block.k_plus - F(3, 2)), int(block.k_minus - F(3, 2)), block.sign)
        pos = {lab: i for i, lab in enumerate(big.labels)}
        for i, ri in enumerate(block.labels):
            for j, rj in enumerate(block.labels):
                ok = ok and block.entries[i][j] == big.entries[pos[ri]][pos[rj]]
    exotic = positivity_report("E2", 4, 2)
    for block in exotic.blocks:
        for i in range(len(block.labels)):
            ok = ok and block.entries[i][i] == 0
            ok = ok and all(v == 0 for v in block.entries[i])
    for rep in (small, large, exotic):
        ok = ok and "verdict" not in rep.to_json()
    report(11, ok, "blocks symmetric with consistent exact inertia; truncations are principal submatrices; twist-2 exotic equal-sign blocks vanish; no verdict emitted")
