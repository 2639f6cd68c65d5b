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
coefficients, so the operators run on int dicts keyed by exponent tuples: the
lapv chain of the harmonic projection (V^k is a shift of the V exponent), the
s1 +- s2 ladder of the bracket, the radial polynomials over 2^L, the
recursion check of the coefficient table, and the kernel rows of the
intertwining condition, which linsolve takes as they are. A polynomial the
module returns is one int combination over one denominator (set_ints).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .errors import ConsistencyError, DegenerateParameterError
from .linsolve import linear_solve_exact
from .poly import MultiPoly, _int_combination, _int_product
from .special import format_rational, legendre_coeffs, pochhammer

IVARS = ("t12", "b1", "b2", "s1", "s2", "V")
_T12, _B1, _B2, _S1, _S2, _V = range(6)


def _shift(terms: dict, t: int = 0, b1: int = 0, b2: int = 0, v: int = 0) -> dict:
    """The int dict terms times t12^t b1^b1 b2^b2 V^v, without its zeros."""
    return {(e0 + t, e1 + b1, e2 + b2, s1, s2, e5 + v): c
            for (e0, e1, e2, s1, s2, e5), c in terms.items() if c}


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


def _put(out: dict, coeff: int, key: tuple[int, ...]) -> None:
    """out[key] += coeff, for coeff != 0.

    Every caller's coeff carries the lowered exponents of its image key as
    factors, so it vanishes where a key would hold a negative exponent.
    """
    if coeff:
        out[key] = out.get(key, 0) + coeff


def _lapv_monomial(exps: tuple[int, ...]) -> dict:
    """lapv of the monomial with exponents exps, as an int dict; its
    4 s1 f_s1V + 4 s2 f_s2V + 4V f_VV + 8 f_V all land on one monomial."""
    t, b1, b2, s1, s2, v = exps
    out: dict = {}
    _put(out, s1 * (s1 - 1), (t, b1 + 1, b2, s1 - 2, s2, v))
    _put(out, 2 * s1 * s2, (t + 1, b1, b2, s1 - 1, s2 - 1, v))
    _put(out, s2 * (s2 - 1), (t, b1, b2 + 1, s1, s2 - 2, v))
    _put(out, 4 * v * (s1 + s2 + v + 1), (t, b1, b2, s1, s2, v - 1))
    return out


def _harmonic_ints(nums: dict, n: int) -> tuple[int, dict]:
    """(D, D [P]_0) for the int dict P of v-degree n, D = prod_{k <= n/2} 4 k (n - k + 1).

    [P]_0 = sum_k alpha_k V^k lapv^k P with alpha_0 = 1 and
    alpha_k = -alpha_{k-1} / (4 k (n - k + 1)) in spacetime dimension 4, so
    D alpha_k is an integer and the sum is one int combination.
    """
    parts, scales = {0: nums}, [1]
    for k in range(1, n // 2 + 1):
        prev = parts[k - 1]
        parts[k] = _int_combination({e: _lapv_monomial(e) for e in prev if prev[e]}, prev)
        scales.append(scales[-1] * 4 * k * (n - k + 1))
    den = scales[-1]
    return den, _int_combination(
        {k: _shift(part, v=k) for k, part in parts.items()},
        {k: (-1) ** k * (den // s) for k, s in enumerate(scales)},
    )


def harmonic_project(poly: MultiPoly) -> MultiPoly:
    """Unique harmonic representative [P]_0 of a v-homogeneous polynomial:
    V times lower harmonics subtracted, so that lapv of the result vanishes
    identically and [V Q]_0 = 0."""
    degs = {v_degree_of(e) for e in poly.terms}
    if len(degs) > 1:
        raise ValueError(f"input is not v-homogeneous: v-degrees {sorted(degs)}")
    hden, terms = _harmonic_ints(poly.terms, degs.pop() if degs else 0)
    return MultiPoly(IVARS).set_ints(terms, poly.den * hden)


# ---------------------------------------------------------------------------
# radial polynomials and the coefficient recursion
# ---------------------------------------------------------------------------

RVAR = ("r",)


def legendre_poly(L: int) -> MultiPoly:
    return MultiPoly(RVAR, {(p,): c for p, c in legendre_coeffs(L).items()})


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
    # (-L)_j / j! = (-1)^j C(L, j), and ((1 - r)/2)^j = sum_i (-1)^i C(j, i) r^i 2^(L-j) / 2^L
    # the rising factorials of integers are integers, so the weights are ints over 2^L
    parts = {j: {(i,): (-1) ** i * comb(j, i) << (L - j) for i in range(j + 1)} for j in range(L + 1)}
    weights = {
        j: (-1) ** j * comb(L, j) * int(pochhammer(L + 2 * kappa - 1, j) * pochhammer(kappa - delta + j, L - j))
        for j in range(L + 1)
    }
    return MultiPoly(RVAR).set_ints(_int_combination(parts, weights), 1 << L)


TVARS = ("p", "q")


class CoefficientTable(NamedTuple):
    """Solution of the double recursion for the expansion coefficients c_{mn},
    held as the polynomial sum c_{mn} p^m q^n."""

    kappa: int
    L: int
    entries: MultiPoly


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
    seeded = next((x for _, x in kernel if x.get(c00)), None)
    if seeded is not None:
        den, vec = seeded[c00], seeded
    else:
        den = lcm(*(d for d, _ in kernel))
        vec = _int_combination(dict(enumerate(x for _, x in kernel)),
                               {i: den // d for i, (d, _) in enumerate(kernel)})
    entries = MultiPoly(TVARS).set_ints({mn: vec.get(k, 0) for mn, k in pos.items()}, den)
    table = CoefficientTable(kappa, L, entries)
    _check_recursions(table)
    return table


def _check_recursions(table: CoefficientTable):
    """Both recursions at every (m, n), on the int numerators of the table."""
    kappa, L = table.kappa, table.L
    c = table.entries.terms.get
    for m in range(kappa + 1):
        for n in range(kappa + 1 - m):
            k = kappa - m - n
            r1 = (
                4 * (m * m - 1) * c((m + 1, n), 0)
                + 2 * k * (L + kappa - 1 - m + n) * c((m, n), 0)
                - k * (k + 1) * c((m, n - 1), 0)
            )
            r2 = (
                4 * (n * n - 1) * c((m, n + 1), 0)
                + 2 * k * (L + kappa - 1 + m - n) * c((m, n), 0)
                - k * (k + 1) * c((m - 1, n), 0)
            )
            if r1 or r2:
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


def _bracket(L: int, rpoly_by_delta) -> dict[int, tuple[int, dict]]:
    """[(s1+s2)^L f_delta((s1-s2)/(s1+s2))]_0 for each needed delta, as (D, int dict
    D times it): the ladder products (s1-s2)^j (s1+s2)^(L-j) are projected once
    each, then combined with the coefficients of f_delta."""
    plus, minus = [{(0,) * 6: 1}], [{(0,) * 6: 1}]  # powers 0..L of s1 + s2 and of s1 - s2
    for ladder, sign in ((plus, 1), (minus, -1)):
        for _ in range(L):
            ladder.append(_int_product(ladder[-1], {(0, 0, 0, 1, 0, 0): 1, (0, 0, 0, 0, 1, 0): sign}))
    projected = [_harmonic_ints(_int_product(minus[j], plus[L - j]), L) for j in range(L + 1)]
    hden, parts = projected[0][0], [terms for _, terms in projected]
    out = {}
    for delta, rp in rpoly_by_delta.items():
        out[delta] = (hden * rp.den, _int_combination(parts, {j: c for (j,), c in rp.terms.items()}))
    return out


def assemble_tensor_intertwiner(kappa: int, L: int) -> TensorIntertwiner:
    """Iterate the closed construction: coefficient table times wave-operator
    powers times the harmonic bracket of the radial polynomial, summed as one
    combination of the shifted int brackets.

    kappa = 0 bypasses the degenerate radial family and uses the rank-only
    closed form (1 - r^2) P'_{L-1}(r), with the one table entry c_00 = 1.
    """
    if kappa < 0 or L < 0:
        raise ValueError("kappa and L must be >= 0")
    if kappa == 0:
        entries = MultiPoly.constant(TVARS, 1)
        if L == 0:
            rps = {0: MultiPoly.constant(RVAR, 1)}
        else:
            rps = {0: MultiPoly(RVAR, {(0,): 1, (2,): -1}) * legendre_poly(L - 1).differentiate("r")}
    else:
        entries = coefficient_table(kappa, L).entries
        rps = {d: radial_poly(kappa, L, d) for d in {m - n for (m, n) in entries.terms}}
    bras = _bracket(L, rps)
    # the entries' numerators over entries.den, each bracket over its own
    # denominator: one combination over the lcm D of the bracket denominators
    den = lcm(*(bden for bden, _ in bras.values()))
    parts = {(m, n): _shift(bras[m - n][1], kappa - m - n, m, n) for (m, n) in entries.terms}
    weights = {(m, n): c * (den // bras[m - n][0]) for (m, n), c in entries.terms.items()}
    poly = MultiPoly(IVARS).set_ints(_int_combination(parts, weights), entries.den * den)
    return TensorIntertwiner(kappa, L, poly)


def _residual_monomial(exps: tuple[int, ...], p: int, q: int) -> tuple[dict, dict, dict]:
    """q times the residual components (a, b, c) of the monomial with
    exponents exps at dimension gap p/q, as int dicts."""
    t, b1, b2, s1, s2, v = exps
    w1 = 2 * b1 + t + s1  # E1 eigenvalue
    w2 = 2 * b2 + t + s2  # E2 eigenvalue
    a: dict = {}
    b: dict = {}
    c: dict = {}
    # the t and s1 parts of E1 in 4 E1 f_b1 - Delta1 f cancel 2t f_tb1 + 2 s1 f_s1b1
    _put(a, b1 * (q * (4 * b1 - 8) + 2 * p), (t, b1 - 1, b2, s1, s2, v))
    _put(a, t * (2 * q * (w2 - 1) - p), (t - 1, b1, b2, s1, s2, v))
    _put(a, -q * t * (t - 1), (t - 2, b1, b2 + 1, s1, s2, v))
    _put(a, -2 * q * t * s1, (t - 1, b1, b2, s1 - 1, s2 + 1, v))
    _put(a, -q * s1 * (s1 - 1), (t, b1, b2, s1 - 2, s2, v + 1))
    _put(b, b2 * (q * (4 * b2 - 8) - 2 * p), (t, b1, b2 - 1, s1, s2, v))
    _put(b, t * (2 * q * (w1 - 1) + p), (t - 1, b1, b2, s1, s2, v))
    _put(b, -q * t * (t - 1), (t - 2, b1 + 1, b2, s1, s2, v))
    _put(b, -2 * q * t * s2, (t - 1, b1, b2, s1 + 1, s2 - 1, v))
    _put(b, -q * s2 * (s2 - 1), (t, b1, b2, s1, s2 - 2, v + 1))
    _put(c, s1 * (2 * q * (w1 - 1) + p), (t, b1, b2, s1 - 1, s2, v))
    _put(c, s2 * (2 * q * (w2 - 1) - p), (t, b1, b2, s1, s2 - 1, v))
    return a, b, c


def tensor_pde_residual(poly: MultiPoly, dim_gap=Fraction(0)) -> InvVector:
    """Special-conformal intertwining condition in the invariant algebra:
    sum_i [2 (d_i.grad_i) grad_i - d_i lap_i] + gap (grad_1 - grad_2),
    summed monomial by monomial from the closed forms in the module docstring."""
    gap = Fraction(dim_gap)
    p, q = gap.numerator, gap.denominator
    parts = {e: _residual_monomial(e, p, q) for e in poly.terms}
    return InvVector(*(
        MultiPoly(IVARS).set_ints(_int_combination({e: part[k] for e, part in parts.items()}, poly.terms),
                                  poly.den * q)
        for k in range(3)
    ))


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
    harmonic scalar polynomials with the required homogeneities. Each basis
    operator's residual at the gap d1 - d2 must vanish, or ConsistencyError."""
    d1, d2 = Fraction(d1), Fraction(d2)
    gap = d1 - d2
    if gap.denominator != 1 or gap.numerator % 2:
        raise DegenerateParameterError(
            f"the polynomial ansatz requires an even integer dimension gap,"
            f" got d1 - d2 = {gap}"
        )
    if kappa < 0 or L < 0:
        raise ValueError("kappa and L must be >= 0")
    # the ansatz columns: D times the harmonic seeds [s1^delta s2^(L-delta)]_0, one
    # common D, times t12^alpha b1^beta b2^(kappa-alpha-beta); scaling every column
    # by D leaves the kernel as it is
    columns = []
    for delta in range(L + 1):
        den, seed = _harmonic_ints({(0, 0, 0, delta, L - delta, 0): 1}, L)
        for alpha in range(kappa + 1):
            for beta in range(kappa + 1 - alpha):
                columns.append(_shift(seed, alpha, beta, kappa - alpha - beta))
    # one row per (component, monomial) of the residual, one column per ansatz
    p, q = gap.numerator, gap.denominator
    residuals = {e: _residual_monomial(e, p, q) for terms in columns for e in terms}
    rows: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
    for col, terms in enumerate(columns):
        for ci in range(3):
            for exps, c in _int_combination({e: residuals[e][ci] for e in terms}, terms).items():
                if c:
                    rows.setdefault((ci, exps), {})[col] = c
    out = []
    for index, (xden, x) in enumerate(linear_solve_exact(list(rows.values()), len(columns))):
        poly = MultiPoly(IVARS).set_ints(_int_combination(columns, x), xden * den)
        if not tensor_pde_residual(poly, gap).is_zero():
            raise ConsistencyError(f"kernel basis operator {index} fails the intertwining"
                                   f" condition at kappa={kappa}, L={L}, d1={d1}, d2={d2}")
        out.append(TensorIntertwiner(kappa, L, poly))
    return out
