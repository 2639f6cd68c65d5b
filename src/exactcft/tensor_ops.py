"""Tensor intertwining operators in four dimensions.

Operators are scalar polynomials in the six rotation invariants built from
the two derivative vectors and the polarization vector:

    t12 = (d1.d2)   b1 = d1^2   b2 = d2^2   s1 = (v.d1)   s2 = (v.d2)   V = v^2

A vector-valued expression A d1 + B d2 + C v is held as its three invariant
coefficients (InvVector). The differential operators act in closed form.
Write f_x for the partial derivative in the invariant x, t = t12, and
E1 = 2 b1 d/db1 + t d/dt + s1 d/ds1 for the d1 Euler operator, which
multiplies a monomial by 2 e_b1 + e_t + e_s1 (E2: swap 1 and 2). In
spacetime dimension 4, the d1-Laplacian and the v-Laplacian are

    lap1 f = 2 E1 f_b1 + 8 f_b1 + 2t f_tb1 + b2 f_tt + 2 s2 f_ts1
             + 2 s1 f_s1b1 + V f_s1s1                       (lap2: swap 1 and 2)
    lapv f = b1 f_s1s1 + 2t f_s1s2 + b2 f_s2s2 + 4 s1 f_s1V + 4 s2 f_s2V
             + 4V f_VV + 8 f_V

and the intertwining residual sum_i [2 (d_i.grad_i) grad_i - d_i lap_i]
+ gap (grad_1 - grad_2) has the components

    a = 4 E1 f_b1 + 4 f_b1 - lap1 f + 2 E2 f_t + gap (2 f_b1 - f_t)
    b = 2 E1 f_t + 4 E2 f_b2 + 4 f_b2 - lap2 f + gap (f_t - 2 f_b2)
    c = 2 E1 f_s1 + 2 E2 f_s2 + gap (f_s1 - f_s2)

These are the chain rule with the Gram matrix of (d1, d2, v) and
div(d_i) = div(v) = 4, worked out once; the tests keep that composition as
the reference. Each operator maps a monomial to a few monomials with integer
coefficients, and the images are summed through poly._combination_poly,
so every output term is one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import ConsistencyError, DegenerateParameterError
from .linsolve import linear_solve_exact
from .poly import MultiPoly, _combination_poly
from .special import format_rational, legendre_coeffs, pochhammer

IVARS = ("t12", "b1", "b2", "s1", "s2", "V")
_T12, _B1, _B2, _S1, _S2, _V = range(6)


def ipoly() -> MultiPoly:
    return MultiPoly(IVARS)


def iconst(value) -> MultiPoly:
    return MultiPoly.constant(IVARS, value)


def igen(name: str) -> MultiPoly:
    return MultiPoly.var(IVARS, name)


def v_degree_of(exps: tuple[int, ...]) -> int:
    return exps[_S1] + exps[_S2] + 2 * exps[_V]


def d_degree_of(exps: tuple[int, ...]) -> int:
    return 2 * (exps[_T12] + exps[_B1] + exps[_B2]) + exps[_S1] + exps[_S2]


def homogeneous_degrees(poly: MultiPoly) -> tuple[int, int]:
    """(derivative degree, v degree); raises if the polynomial is mixed."""
    degs = {(d_degree_of(e), v_degree_of(e)) for e in poly.terms}
    if len(degs) > 1:
        raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
    if not degs:
        return (0, 0)
    return degs.pop()


class InvVector(NamedTuple):
    """A d1 + B d2 + C v with invariant-polynomial components."""

    a: MultiPoly
    b: MultiPoly
    c: MultiPoly

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero() and self.c.is_zero()


def _put(out: dict, coeff: int, exps: tuple[int, ...], *steps: tuple[int, int]) -> None:
    """out[exps moved by each (variable, change) step] += coeff, for coeff != 0.

    Every caller's coeff carries the lowered exponents as factors, so it
    vanishes before a step could go below zero.
    """
    if coeff:
        e = list(exps)
        for i, d in steps:
            e[i] += d
        key = tuple(e)
        out[key] = out.get(key, 0) + coeff


def _lapv_monomial(exps: tuple[int, ...]) -> dict:
    """lapv of the monomial with exponents exps, as an int dict; its
    4 s1 f_s1V + 4 s2 f_s2V + 4V f_VV + 8 f_V all land on one monomial."""
    _, _, _, s1, s2, v = exps
    out: dict = {}
    _put(out, s1 * (s1 - 1), exps, (_S1, -2), (_B1, 1))
    _put(out, 2 * s1 * s2, exps, (_S1, -1), (_S2, -1), (_T12, 1))
    _put(out, s2 * (s2 - 1), exps, (_S2, -2), (_B2, 1))
    _put(out, 4 * v * (s1 + s2 + v + 1), exps, (_V, -1))
    return out


def lapv(f: MultiPoly) -> MultiPoly:
    """Formal v-Laplacian; reproduces the rewrite rules lapv V = 8,
    lapv (s_i s_j) = 2 t_ij."""
    return _combination_poly(IVARS, {e: _lapv_monomial(e) for e in f.terms}, f.terms)


def harmonic_project(poly: MultiPoly, v_deg: int | None = None) -> MultiPoly:
    """Unique harmonic representative [P]_0 of a v-homogeneous polynomial.

    Subtracts V times lower harmonics through the closed coefficient chain
    alpha_{k+1} = -alpha_k / (4 (k+1) (N - k)) in spacetime dimension 4, so
    that lapv of the result vanishes identically and [V Q]_0 = 0.
    """
    if poly.is_zero():
        return poly
    degs = {v_degree_of(e) for e in poly.terms}
    if len(degs) > 1:
        raise ValueError(f"input is not v-homogeneous: v-degrees {sorted(degs)}")
    n = degs.pop()
    if v_deg is not None and v_deg != n:
        raise ValueError(f"declared v-degree {v_deg} but found {n}")
    out = ipoly()
    alpha = Fraction(1)
    vpow = iconst(1)
    current = poly
    vgen = igen("V")
    for k in range(n // 2 + 1):
        if k:
            alpha = -alpha / (4 * k * (n - k + 1))
            vpow = vpow * vgen
            current = lapv(current)
        out.add_scaled(vpow * current, alpha)
    return out


# ---------------------------------------------------------------------------
# radial polynomials and the coefficient recursion
# ---------------------------------------------------------------------------

RVAR = ("r",)


def _rpoly(terms) -> MultiPoly:
    return MultiPoly(RVAR, terms)


def legendre_poly(L: int) -> MultiPoly:
    return _rpoly({(p,): c for p, c in legendre_coeffs(L).items()})


def radial_poly(kappa: int, L: int, delta: int) -> MultiPoly:
    """Degree-L polynomial solving the single-term radial equation,

        sum_j (-L)_j (L + 2 kappa - 1)_j (kappa - delta + j)_{L-j} / j! ((1 - r)/2)^j,

    the terminating 2F1(-L, L + 2 kappa - 1; kappa - delta; (1 - r)/2) times
    (kappa - delta)_L: polynomial in kappa - delta, with no pole. At kappa = 0
    and 0 <= delta < L the family degenerates.
    """
    if kappa < 0 or L < 0:
        raise ValueError("kappa and L must be >= 0")
    if kappa == 0 and 0 <= delta < L:
        raise DegenerateParameterError(
            "radial polynomial is degenerate at kappa = 0; the rank-only closed"
            " form covers that case"
        )
    half = _rpoly({(0,): Fraction(1, 2), (1,): Fraction(-1, 2)})
    out = MultiPoly(RVAR)
    zpow = MultiPoly.constant(RVAR, 1)
    for j in range(L + 1):
        num = pochhammer(-L, j) * pochhammer(L + 2 * kappa - 1, j)
        if j:
            zpow = zpow * half
        if num == 0:
            continue
        coeff = num * pochhammer(kappa - delta + j, L - j) / factorial(j)
        out.add_scaled(zpow, coeff)
    return out


class CoefficientTable(NamedTuple):
    """Solution of the double recursion for the expansion coefficients c_{mn}."""

    kappa: int
    L: int
    entries: dict[tuple[int, int], Fraction]

    def entry(self, m: int, n: int) -> Fraction:
        return self.entries.get((m, n), Fraction(0))


def _recursion_rows(kappa: int, L: int):
    """All instances of the two recursions over m + n <= kappa, as sparse rows
    over the columns pos[(m, n)]; coefficients outside the triangle drop out."""
    index = [(m, n) for m in range(kappa + 1) for n in range(kappa + 1 - m)]
    pos = {mn: k for k, mn in enumerate(index)}
    rows = []

    def add_row(coeffs: dict[tuple[int, int], int]):
        row = {pos[mn]: c for mn, c in coeffs.items() if c and mn in pos}
        if row:
            rows.append(row)

    for m, n in index:
        k = kappa - m - n
        add_row(
            {
                (m + 1, n): 4 * (m * m - 1),
                (m, n): 2 * k * (L + kappa - 1 - m + n),
                (m, n - 1): -k * (k + 1),
            }
        )
        add_row(
            {
                (m, n + 1): 4 * (n * n - 1),
                (m, n): 2 * k * (L + kappa - 1 + m - n),
                (m - 1, n): -k * (k + 1),
            }
        )
    return pos, rows


def coefficient_table(kappa: int, L: int) -> CoefficientTable:
    """Solve the full recursion system exactly.

    A global solve is used instead of forward substitution because the
    prefactor 4(m^2 - 1) vanishes at m = 1. The table is the first kernel
    basis vector with c_00 != 0, scaled to c_00 = 1: the solution with
    c_00 = 1 and every other free coefficient 0. Where the recursions force
    c_00 = 0 (already kappa = 2 with L >= 1), it is the sum of the kernel
    basis, every free coefficient 1.
    """
    pos, rows = _recursion_rows(kappa, L)
    kernel = linear_solve_exact(rows, len(pos))
    if not kernel:
        raise ConsistencyError(
            f"recursion system admits only the zero solution at kappa={kappa}, L={L}"
        )
    c00 = pos[(0, 0)]
    seeded = next((vec for vec in kernel if vec[c00]), None)
    if seeded is not None:
        vec = [x / seeded[c00] for x in seeded]
    else:
        vec = [sum(col) for col in zip(*kernel)]
    table = CoefficientTable(kappa, L, {mn: vec[k] for mn, k in pos.items() if vec[k]})
    _check_recursions(table)
    return table


def _check_recursions(table: CoefficientTable):
    kappa, L = table.kappa, table.L
    c = table.entry
    for m in range(kappa + 1):
        for n in range(kappa + 1 - m):
            k = kappa - m - n
            r1 = (
                4 * (m * m - 1) * c(m + 1, n)
                + 2 * k * (L + kappa - 1 - m + n) * c(m, n)
                - k * (k + 1) * c(m, n - 1)
            )
            r2 = (
                4 * (n * n - 1) * c(m, n + 1)
                + 2 * k * (L + kappa - 1 + m - n) * c(m, n)
                - k * (k + 1) * c(m - 1, n)
            )
            if r1 != 0 or r2 != 0:
                raise ConsistencyError(
                    f"recursion violated at (m,n)=({m},{n}) for kappa={kappa}, L={L}"
                )


# ---------------------------------------------------------------------------
# operator assembly and verification
# ---------------------------------------------------------------------------


class TensorIntertwiner(NamedTuple):
    kappa: int
    L: int
    poly: MultiPoly

    def to_json(self) -> dict:
        out = {}
        for exps, c in self.poly.sorted_terms():
            key = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(IVARS, exps) if e
            )
            out[key or "1"] = format_rational(c)
        return out


def _bracket(L: int, rpoly_by_delta) -> dict[int, MultiPoly]:
    """[(s1+s2)^L f_delta((s1-s2)/(s1+s2))]_0 for each needed delta."""
    s1 = igen("s1")
    s2 = igen("s2")
    plus = s1 + s2
    minus = s1 - s2
    out = {}
    for delta, rp in rpoly_by_delta.items():
        total = ipoly()
        for (j,), fj in rp.terms.items():
            total.add_scaled((minus**j) * (plus ** (L - j)), fj)
        out[delta] = harmonic_project(total, L)
    return out


def assemble_tensor_intertwiner(kappa: int, L: int) -> TensorIntertwiner:
    """Iterate the closed construction: coefficient table times wave-operator
    powers times the harmonic bracket of the radial polynomial.

    kappa = 0 bypasses the degenerate radial family and uses the rank-only
    closed form (1 - r^2) P'_{L-1}(r).
    """
    if kappa < 0 or L < 0:
        raise ValueError("kappa and L must be >= 0")
    t12, b1, b2 = igen("t12"), igen("b1"), igen("b2")
    if kappa == 0:
        if L == 0:
            rp = MultiPoly.constant(RVAR, 1)
        else:
            one_minus_r2 = _rpoly({(0,): 1, (2,): -1})
            rp = one_minus_r2 * legendre_poly(L - 1).differentiate("r")
        bra = _bracket(L, {0: rp})
        return TensorIntertwiner(0, L, bra[0])
    table = coefficient_table(kappa, L)
    deltas = {m - n for (m, n) in table.entries}
    rps = {d: radial_poly(kappa, L, d) for d in deltas}
    bras = _bracket(L, rps)
    total = ipoly()
    for (m, n), c in table.entries.items():
        mono = (t12 ** (kappa - m - n)) * (b1**m) * (b2**n)
        total.add_scaled(mono * bras[m - n], c)
    return TensorIntertwiner(kappa, L, total)


def _residual_monomial(exps: tuple[int, ...], p: int, q: int) -> tuple[dict, dict, dict]:
    """q times the residual components (a, b, c) of the monomial with
    exponents exps at dimension gap p/q, as int dicts."""
    t, b1, b2, s1, s2, _ = exps
    w1 = 2 * b1 + t + s1  # E1 eigenvalue
    w2 = 2 * b2 + t + s2  # E2 eigenvalue
    a: dict = {}
    b: dict = {}
    c: dict = {}
    # the t and s1 parts of E1 in 4 E1 f_b1 - Delta1 f cancel 2t f_tb1 + 2 s1 f_s1b1
    _put(a, b1 * (q * (4 * b1 - 8) + 2 * p), exps, (_B1, -1))
    _put(a, t * (2 * q * (w2 - 1) - p), exps, (_T12, -1))
    _put(a, -q * t * (t - 1), exps, (_T12, -2), (_B2, 1))
    _put(a, -2 * q * t * s1, exps, (_T12, -1), (_S1, -1), (_S2, 1))
    _put(a, -q * s1 * (s1 - 1), exps, (_S1, -2), (_V, 1))
    _put(b, b2 * (q * (4 * b2 - 8) - 2 * p), exps, (_B2, -1))
    _put(b, t * (2 * q * (w1 - 1) + p), exps, (_T12, -1))
    _put(b, -q * t * (t - 1), exps, (_T12, -2), (_B1, 1))
    _put(b, -2 * q * t * s2, exps, (_T12, -1), (_S2, -1), (_S1, 1))
    _put(b, -q * s2 * (s2 - 1), exps, (_S2, -2), (_V, 1))
    _put(c, s1 * (2 * q * (w1 - 1) + p), exps, (_S1, -1))
    _put(c, s2 * (2 * q * (w2 - 1) - p), exps, (_S2, -1))
    return a, b, c


def tensor_pde_residual(poly: MultiPoly, dim_gap=Fraction(0)) -> InvVector:
    """Special-conformal intertwining condition in the invariant algebra:
    sum_i [2 (d_i.grad_i) grad_i - d_i lap_i] + gap (grad_1 - grad_2),
    summed monomial by monomial from the closed forms in the module docstring."""
    gap = Fraction(dim_gap)
    p, q = gap.numerator, gap.denominator
    parts = {e: _residual_monomial(e, p, q) for e in poly.terms}
    weights = {e: c / q for e, c in poly.terms.items()}
    return InvVector(
        *(_combination_poly(IVARS, {e: part[k] for e, part in parts.items()}, weights) for k in range(3))
    )


def verify_tensor_pde(op: TensorIntertwiner) -> InvVector:
    if not op.poly.is_zero():
        d_deg, v_deg = homogeneous_degrees(op.poly)
        if v_deg != op.L or d_deg != 2 * op.kappa + op.L:
            raise ValueError(
                f"homogeneity mismatch: expected ({2 * op.kappa + op.L}, {op.L}),"
                f" found ({d_deg}, {v_deg})"
            )
    return tensor_pde_residual(op.poly)


def solve_intertwiner_space(kappa: int, L: int, d1, d2) -> list[TensorIntertwiner]:
    """Kernel basis of the intertwining condition on the full ansatz space of
    harmonic scalar polynomials with the required homogeneities."""
    d1, d2 = Fraction(d1), Fraction(d2)
    gap = d1 - d2
    if gap.denominator != 1 or gap.numerator % 2:
        raise DegenerateParameterError(
            f"the polynomial ansatz requires an even integer dimension gap,"
            f" got d1 - d2 = {gap}"
        )
    if kappa < 0 or L < 0:
        raise ValueError("kappa and L must be >= 0")
    basis_polys: list[MultiPoly] = []
    t12, b1, b2, s1, s2 = (igen(n) for n in IVARS[:5])
    for delta in range(L + 1):
        s_mono = (s1**delta) * (s2 ** (L - delta))
        s_h = harmonic_project(s_mono, L)
        for alpha in range(kappa + 1):
            for beta in range(kappa + 1 - alpha):
                gamma = kappa - alpha - beta
                basis_polys.append(s_h * (t12**alpha) * (b1**beta) * (b2**gamma))
    # one row per (component, monomial) of the residual, one column per ansatz
    rows: dict[tuple[int, tuple[int, ...]], dict[int, Fraction]] = {}
    for col, p in enumerate(basis_polys):
        res = tensor_pde_residual(p, gap)
        for ci, comp in enumerate((res.a, res.b, res.c)):
            for exps, c in comp.terms.items():
                rows.setdefault((ci, exps), {})[col] = c
    out = []
    for vec in linear_solve_exact(list(rows.values()), len(basis_polys)):
        poly = ipoly()
        for x, bp in zip(vec, basis_polys):
            poly.add_scaled(bp, x)
        out.append(TensorIntertwiner(kappa, L, poly))
    return out
