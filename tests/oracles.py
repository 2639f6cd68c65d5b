"""Reference oracles the tests compare exactcft against.

Each is an independent route to something the package computes, or a closed
form it must reproduce; none of them is on a path the CLI runs, so they live
here and not in src/exactcft. The small helpers at the end stand in for
conveniences the tests need and the package does not.
"""

from fractions import Fraction
from math import factorial, gcd, lcm

from exactcft import gseries
from exactcft.channels import channel_coefficients, reduction_coefficient
from exactcft.chiral_ops import ReducedWave, apply_operator_pair, chiral_intertwiner_normalized
from exactcft.errors import ConsistencyError, DegenerateParameterError, SingularDiagonalError
from exactcft.linsolve import linear_solve_exact
from exactcft.pairs import PairSum, TwoChiralSum, _adjacent_expansions, cross_ratio, norm_exps
from exactcft.poly import MultiPoly, _int_combination, _int_product
from exactcft.series import TruncatedSeries
from exactcft.sixpoint import SERIES_VARS
from exactcft.special import gauss_2f1_coeff, pochhammer
from exactcft.tensor_ops import (
    IVARS,
    RVAR,
    _lapv_monomial,
    _recursion_rows,
    coefficient_table,
    harmonic_project,
    legendre_poly,
    radial_poly,
    tensor_pde_residual,
    v_degree_of,
)
from exactcft.waves import WaveSpec, wave_prefactor

# -- reading sums -----------------------------------------------------------------


def coeffs(s) -> dict:
    """{key: Fraction} of a sparse sum: each int numerator over its den."""
    return {k: Fraction(n, s.den) for k, n in s.terms.items()}


def is_canonical(s) -> bool:
    """The one form of a sparse sum: int numerators, none zero, over an int
    den >= 1 with gcd(den, *numerators) == 1, and den == 1 when empty."""
    nums = list(s.terms.values())
    return (type(s.den) is int and s.den >= 1 and all(type(n) is int and n for n in nums)
            and gcd(s.den, *nums) == 1)


def power(p: MultiPoly, n: int) -> MultiPoly:
    """p ** n for n >= 0, by repeated multiplication."""
    out = p._coerce(1)
    for _ in range(n):
        out = out * p
    return out


def int_rows(rows) -> list[dict[int, int]]:
    """Sparse rational rows {column: value}, each scaled to ints by the least
    common denominator of its entries."""
    out = []
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items()}
        d = lcm(*(v.denominator for v in row.values()))
        out.append({c: int(v * d) for c, v in row.items()})
    return out


def kernel_fractions(rows, ncols: int) -> list[list[Fraction]]:
    """linear_solve_exact on rational rows (see int_rows), each kernel vector
    (D, x) read back as the Fractions x / D, zeros included."""
    return [[Fraction(x.get(k, 0), den) for k in range(ncols)] for den, x in linear_solve_exact(int_rows(rows), ncols)]


# -- channel constants ---------------------------------------------------------


def reduction_generating_poly(h: int) -> MultiPoly:
    """F(z) = sum_a c_{a,h} z^a, a polynomial of degree h - 1."""
    terms = {}
    for a in range(h):
        c = reduction_coefficient(a, h)
        if c != 0:
            terms[(a,)] = c
    return MultiPoly(("z",), terms)


def legendre_by_recurrence(L: int) -> MultiPoly:
    """The Legendre polynomial P_L(r) from P_0 = 1, P_1 = r and the three-term
    recurrence (n + 1) P_{n+1} = (2n + 1) r P_n - n P_{n-1}."""
    r = MultiPoly.var(RVAR, "r")
    prev, cur = MultiPoly(RVAR), MultiPoly.constant(RVAR, 1)  # P_{-1} = 0 and P_0
    for n in range(L):
        prev, cur = cur, (r * cur * (2 * n + 1) - prev * n) * Fraction(1, n + 1)
    return cur


def shifted_legendre(h: int) -> MultiPoly:
    """P_{h-1}(1 - 2z) as a polynomial in z."""
    z = MultiPoly.var(("z",), "z")
    arg = MultiPoly.constant(("z",), 1) - 2 * z
    out = MultiPoly(("z",))
    for (p,), c in coeffs(legendre_by_recurrence(h - 1)).items():
        out.add_scaled(power(arg, p), c)
    return out


def structure_weight(structure: str, a: int, b: int) -> Fraction:
    """Double-sum weight of the named structure at (a, b), a + b > 0."""
    if a + b <= 0:
        raise ValueError("weights are defined for a + b > 0")
    if structure == "B":
        return Fraction(1)
    if structure == "H":
        return Fraction(a - b, a + b)
    raise ValueError(f"unknown weighting {structure!r}")


def channel_coefficients_direct(h_plus: int, h_minus: int, weighting: str) -> Fraction:
    """Same constant as channels.channel_coefficients, by the raw double sum."""
    sign = Fraction(-1) ** (h_plus + h_minus)
    total = Fraction(0)
    for a in range(h_plus):
        for b in range(h_minus):
            if a + b == 0:
                continue
            total += (
                structure_weight(weighting, a, b)
                * reduction_coefficient(a, h_plus)
                * reduction_coefficient(b, h_minus)
            )
    return sign * total


def closed_form_channel(h_plus: int, h_minus: int, weighting: str) -> Fraction:
    """Parity closed forms the computation must reproduce."""
    h = h_plus - h_minus
    odd = 2 if h % 2 else 0
    if weighting == "B":
        return Fraction(odd)
    if weighting == "H":
        if h > 0:
            return Fraction(odd)
        if h < 0:
            return Fraction(-odd)
        return Fraction(0)
    raise ValueError(f"unknown weighting {weighting!r}")


def twist_two_exotic_coefficient(
    h_plus: int, h_minus: int, h_plus_prime: int, h_minus_prime: int
) -> Fraction:
    """Reduction coefficient of the twist-2 part of the exotic structure:
    twice the difference of the B and completion channel products."""
    cb = channel_coefficients(h_plus, h_minus, "B") * channel_coefficients(
        h_plus_prime, h_minus_prime, "B"
    )
    ch = channel_coefficients(h_plus, h_minus, "H") * channel_coefficients(
        h_plus_prime, h_minus_prime, "H"
    )
    return 2 * (cb - ch)


# -- the per-term identity ---------------------------------------------------


def single_term_target(a: int, points=(1, 2, 3, 4)) -> PairSum:
    """u^a / (x13 x24) = x12^a x34^a / (x13 x24)^{a+1} on four labeled points."""
    p1, p2, p3, p4 = points
    exps = {
        (p1, p2): Fraction(a),
        (p3, p4): Fraction(a),
        (p1, p3): Fraction(-a - 1),
        (p2, p4): Fraction(-a - 1),
    }
    return PairSum.monomial(sorted(points), 1, exps)


def single_term_reduced(a: int, h: int, points=(1, 3, 4)) -> PairSum:
    """(-1)^{h-1} c_{a,h} x34^{h-1} / ((x - x3)^h (x - x4)^h)."""
    x, p3, p4 = points
    coeff = reduction_coefficient(a, h) * (-1) ** (h - 1)
    exps = {
        (min(p3, p4), max(p3, p4)): Fraction(h - 1),
        (min(x, p3), max(x, p3)): Fraction(-h),
        (min(x, p4), max(x, p4)): Fraction(-h),
    }
    return PairSum.monomial(sorted(points), coeff, exps)


def reduce_single_term(a: int, h: int) -> PairSum:
    """Collapse of one double-sum term in the (1,2) channel: the operator
    acts on the already pole-cancelled factor, then points merge.

    Applying the factorially weighted degree-h table yields exactly
    single_term_reduced(a, h) / (h-1)!^2: the a-dependence, sign, and
    universal x-structure of the collapse identity are reproduced, with one
    h-dependent overall constant between the two displayed normalizations.
    The channel sums fix their normalization to the identity form (the one
    whose resummation gives the parity closed forms), so the constant cancels
    from every reported coefficient.
    """
    target = single_term_target(a)
    op = chiral_intertwiner_normalized(h)
    return apply_operator_pair(target, op, 1, 2).merge_adjacent(1)


# -- chiral 3- and 2-point structures -----------------------------------------


def three_point_structure(d1, d2, a) -> PairSum:
    """Chiral 3-point function with exchange dimension a in the (1,2) channel."""
    d1, d2, a = Fraction(d1), Fraction(d2), Fraction(a)
    spec = WaveSpec((d1, d2, a), (d1, a))
    return PairSum.monomial((1, 2, 3), 1, wave_prefactor(spec))


def two_point_structure(h, points=(1, 3)) -> PairSum:
    i, j = points
    return PairSum.monomial(sorted({i, j}), 1, {(min(i, j), max(i, j)): -2 * Fraction(h)})


# -- six-point series -----------------------------------------------------------


def restriction_series_geometric(restriction, cap: int) -> TruncatedSeries:
    """ChiralRestriction.series as the numerator times the product of the four
    geometric series, whose every coefficient is 1."""
    geo = TruncatedSeries.from_coefficients(SERIES_VARS, cap, lambda e: 1)
    return TruncatedSeries(SERIES_VARS, cap, coeffs(restriction.numerator)) * geo


def _sw_series_chained(weights: dict, cap: int) -> TruncatedSeries:
    """gseries._sw_series with the powers of w = u+ + u- - u+ u- built by
    chained products, truncated at the cap."""
    used = [k for k, v in weights.items() if v]
    w = {(1, 0): 1, (0, 1): 1, (1, 1): -1}
    wpow = [{(0, 0): 1}]
    for _ in range(max((j for _, j in used), default=0)):
        wpow.append({e: c for e, c in _int_product(wpow[-1], w).items() if sum(e) <= cap})
    parts = {
        (n, j): {(a + n, b + n): c for (a, b), c in wpow[j].items() if a + b + 2 * n <= cap}
        for n, j in used
    }
    items = ((e, w * c) for k, w in weights.items() if w for e, c in parts[k].items())
    return TruncatedSeries(gseries.GVARS, cap).set_values(items)


def verify_biharmonic_fractions(g: TruncatedSeries) -> TruncatedSeries:
    """gseries.verify_biharmonic on Fractions: the profiles are Fractions, each
    instance is taken on n! and (n-1)! times them and divided back by (n-1)!,
    and the residual is assembled from chained powers of w."""
    cap = g.cap
    den, comp = gseries._to_sw_components(g)
    comp = [[Fraction(c, den) for c in profile] for profile in comp]
    weights = {}
    for n in range(1, (cap - 1) // 2 + 1):
        lhs = gseries._lhs_op([c * factorial(n) for c in comp[n]], n)
        rhs = gseries._recursion_rhs([c * factorial(n - 1) for c in comp[n - 1]], n)
        for j, (x, y) in enumerate(zip(lhs, rhs)):
            weights[n, j] = (x - y) / factorial(n - 1)
    return _sw_series_chained(weights, cap - 1)


# -- tensor operators -----------------------------------------------------------


def ipoly() -> MultiPoly:
    """The zero polynomial in the six rotation invariants."""
    return MultiPoly(IVARS)


def igen(name: str) -> MultiPoly:
    """One rotation invariant as a polynomial."""
    return MultiPoly.var(IVARS, name)


def _imono(*exps: int) -> MultiPoly:
    """The monomial t12^e0 b1^e1 ... with exponents exps, padded with zeros."""
    return MultiPoly(IVARS, {(*exps, *(0,) * (6 - len(exps))): 1})


def lapv(f: MultiPoly) -> MultiPoly:
    """Formal v-Laplacian, summed from the closed monomial images; reproduces
    the rewrite rules lapv V = 8, lapv (s_i s_j) = 2 t_ij."""
    return MultiPoly(IVARS).set_ints(_int_combination({e: _lapv_monomial(e) for e in f.terms}, f.terms), f.den)


def harmonic_project_poly(poly: MultiPoly) -> MultiPoly:
    """tensor_ops.harmonic_project on a polynomial in IVARS, which must be
    v-homogeneous: [P]_0 over the polynomial's den times D."""
    degs = {v_degree_of(e) for e in poly.terms}
    if len(degs) > 1:
        raise ValueError(f"input is not v-homogeneous: v-degrees {sorted(degs)}")
    hden, terms = harmonic_project(poly.terms, degs.pop() if degs else 0)
    return MultiPoly(IVARS).set_ints(terms, poly.den * hden)


def harmonic_project_fractions(poly: MultiPoly) -> MultiPoly:
    """tensor_ops.harmonic_project in Fractions: alpha_k = -alpha_{k-1} /
    (4 k (N - k + 1)) times V^k lapv^k P, accumulated term by term."""
    n = max((e[3] + e[4] + 2 * e[5] for e in poly.terms), default=0)
    out = ipoly()
    alpha = Fraction(1)
    current = poly
    for k in range(n // 2 + 1):
        if k:
            alpha = -alpha / (4 * k * (n - k + 1))
            current = lapv(current)
        out.add_scaled(_imono(0, 0, 0, 0, 0, k) * current, alpha)
    return out


def radial_poly_fractions(kappa: int, L: int, delta: int) -> MultiPoly:
    """tensor_ops.radial_poly by chained products of (1 - r)/2 in Fractions."""
    half = MultiPoly(RVAR, {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)})
    out = MultiPoly(RVAR)
    zpow = MultiPoly.constant(RVAR, 1)
    for j in range(L + 1):
        if j:
            zpow = zpow * half
        coeff = pochhammer(-L, j) * pochhammer(L + 2 * kappa - 1, j) * pochhammer(kappa - delta + j, L - j)
        out.add_scaled(zpow, coeff / factorial(j))
    return out


def assemble_tensor_fractions(kappa: int, L: int) -> MultiPoly:
    """tensor_ops.assemble_tensor_intertwiner in Fractions: the bracket of each
    radial polynomial from MultiPoly powers of s1 +- s2, projected by
    harmonic_project_fractions, then the table entries times the shifted
    brackets, accumulated term by term."""
    if kappa == 0:
        entries = {(0, 0): Fraction(1)}
        rp = MultiPoly.constant(RVAR, 1)
        if L:
            rp = MultiPoly(RVAR, {(0,): 1, (2,): -1}) * legendre_poly(L - 1).differentiate("r")
        rps = {0: rp}
    else:
        entries = coeffs(coefficient_table(kappa, L))
        rps = {d: radial_poly_fractions(kappa, L, d) for d in {m - n for m, n in entries}}
    plus, minus = igen("s1") + igen("s2"), igen("s1") - igen("s2")
    bras = {}
    for delta, rp in rps.items():
        total = ipoly()
        for (j,), fj in coeffs(rp).items():
            total.add_scaled(power(minus, j) * power(plus, L - j), fj)
        bras[delta] = harmonic_project_fractions(total)
    out = ipoly()
    for (m, n), c in entries.items():
        out.add_scaled(_imono(kappa - m - n, m, n) * bras[m - n], c)
    return out


def solve_intertwiner_space_fractions(kappa: int, L: int, d1, d2) -> list[MultiPoly]:
    """The kernel basis of tensor_ops.solve_intertwiner_space in Fractions: the
    projected seeds times the ansatz monomials, one row per (component,
    monomial) of each column's tensor_pde_residual, and each basis polynomial
    accumulated column by column."""
    gap = Fraction(d1) - Fraction(d2)
    columns = []
    for delta in range(L + 1):
        seed = harmonic_project_fractions(_imono(0, 0, 0, delta, L - delta))
        for alpha in range(kappa + 1):
            for beta in range(kappa + 1 - alpha):
                columns.append(seed * _imono(alpha, beta, kappa - alpha - beta))
    rows = {}
    for col, p in enumerate(columns):
        res = tensor_pde_residual(p, gap)
        for ci, comp in enumerate((res.a, res.b, res.c)):
            for exps, c in coeffs(comp).items():
                rows.setdefault((ci, exps), {})[col] = c
    out = []
    for vec in kernel_fractions(list(rows.values()), len(columns)):
        poly = ipoly()
        for x, col in zip(vec, columns):
            poly.add_scaled(col, x)
        out.append(poly)
    return out


def rank_zero_closed_form(L: int) -> MultiPoly:
    """Sum over p+q=L of (q)_p (p)_q / (p! q!) [s1^p (-s2)^q]_0."""
    s1 = igen("s1")
    s2 = igen("s2")
    total = ipoly()
    for p in range(L + 1):
        q = L - p
        c = pochhammer(q, p) * pochhammer(p, q) / (factorial(p) * factorial(q))
        if q % 2:
            c = -c
        if c == 0:
            continue
        total.add_scaled(harmonic_project_poly(power(s1, p) * power(s2, q)), c)
    return total


def twist_table_poly(kappa: int, L: int, seed=Fraction(1)) -> MultiPoly:
    """e(p, q, r) = sum c_{mn} p^m q^n f_{kappa L; m-n}(r) as a polynomial, with
    c_00 = seed (the coefficient table is linear in c_00)."""
    items = []
    for (m, n), c in coeffs(coefficient_table(kappa, L)).items():
        rp = radial_poly(kappa, L, m - n)
        items += [((m, n, j), seed * c * fj) for (j,), fj in coeffs(rp).items()]
    return MultiPoly(("p", "q", "r")).set_values(items)


def raise_lower(poly: MultiPoly, kappa: int, L: int, delta: int, step: int) -> MultiPoly:
    """Apply the raising (step=+1) or lowering (step=-1) operator at delta."""
    r = MultiPoly.var(RVAR, "r")
    denom = L + kappa - 1 - step * delta
    if denom == 0:
        raise DegenerateParameterError(
            f"raising/lowering undefined at kappa={kappa}, L={L}, delta={delta}"
        )
    dp = poly.differentiate("r")
    num = (r - step) * dp + (kappa - 1 - step * delta) * poly
    return num * Fraction(1, denom)


def radial_poly_walk(kappa: int, L: int, delta: int) -> MultiPoly:
    """The radial polynomial by the terminating 2F1 sum where its lower
    parameter kappa - delta stays off the non-positive integers of the sum,
    and otherwise by raising/lowering from delta = 0."""
    if kappa < 0 or L < 0:
        raise ValueError("kappa and L must be >= 0")
    kd = kappa - delta
    if L == 0 or kd >= 1 or kd <= -L:
        # (kd)_L * 2F1(-L, L + 2 kappa - 1; kd; (1 - r)/2)
        half = MultiPoly(RVAR, {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)})
        out = MultiPoly(RVAR)
        for j in range(L + 1):
            coeff = pochhammer(-L, j) * pochhammer(L + 2 * kappa - 1, j) * pochhammer(kd + j, L - j)
            out.add_scaled(power(half, j), coeff / factorial(j))
        return out
    if kappa == 0 and delta == 0:
        raise DegenerateParameterError("radial polynomial is degenerate at kappa = 0")
    poly = radial_poly_walk(kappa, L, 0)
    step = 1 if delta > 0 else -1
    d = 0
    while d != delta:
        poly = raise_lower(poly, kappa, L, d, step)
        d += step
    return poly


def coefficient_table_seeded(kappa: int, L: int) -> dict:
    """The coefficient table entries by a seeded solve with c_00 = 1 and the
    other free coefficients 0; where the recursions force c_00 = 0, the sum of
    the homogeneous kernel basis (every free coefficient 1).

    The seed c_00 = 1 is the row c_00 - x = 0 over one extra column x. Where
    x is free, the last kernel vector has x = 1 and every other free
    coefficient 0: the seeded solution."""
    pos, rows = _recursion_rows(kappa, L)
    x = len(pos)
    seeded = kernel_fractions(rows + [{pos[(0, 0)]: 1, x: -1}], x + 1)
    if seeded and seeded[-1][x]:
        vec = seeded[-1]
    else:
        kernel = kernel_fractions(rows, x)
        if not kernel:
            raise ConsistencyError(f"no nonzero solution at kappa={kappa}, L={L}")
        vec = [sum(col) for col in zip(*kernel)]
    return {mn: vec[k] for mn, k in pos.items() if vec[k] != 0}


def twist_table_display(L: int) -> MultiPoly:
    """(1 + p/2 (r-1) d_r + q/2 (1+r) d_r) P_L(r): the kappa = 1 table with
    c_00 = 1/L!."""
    pqr = ("p", "q", "r")
    pl = MultiPoly(pqr, {(0, 0, j): c for (j,), c in coeffs(legendre_by_recurrence(L)).items()})
    dpl = pl.differentiate("r")
    p, q, r = (MultiPoly.var(pqr, v) for v in pqr)
    return pl + p * (r - 1) * dpl * Fraction(1, 2) + q * (1 + r) * dpl * Fraction(1, 2)


# -- waves ----------------------------------------------------------------------


def fourpoint_reference(a, b, c, cap: int) -> TruncatedSeries:
    """Hypergeometric oracle: sum_l (a+b)_l (a+c)_l u^l / (l! (2a)_l)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return TruncatedSeries.from_coefficients(
        ("u",), cap, lambda e: gauss_2f1_coeff(a + b, a + c, 2 * a, e[0])
    )


def series_from_ratios(variables, cap: int, ratio) -> TruncatedSeries:
    """The series with constant term 1 and c(e + 1_k) = c(e) * p / q, where
    (p, q) = ratio(e, k) are ints: every tuple of the lex stars-and-bars
    order takes its coefficient from the tuple whose last nonzero exponent is
    one lower, which that order meets earlier, through the ratio callback.
    ratio is called for every tuple, also after a zero coefficient, so it can
    raise on a vanishing denominator; zero terms are dropped at the end."""
    terms = {}
    walk = iter(TruncatedSeries.from_coefficients(variables, cap, lambda e: 1).terms)
    terms[next(walk)] = Fraction(1)
    for exps in walk:
        k = len(exps) - 1
        while not exps[k]:
            k -= 1
        prev = exps[:k] + (exps[k] - 1,) + exps[k + 1 :]
        c = terms[prev]
        p, q = ratio(prev, k)
        terms[exps] = Fraction(c.numerator * p, c.denominator * q)
    return TruncatedSeries(variables, cap, terms)


def chiral_wave_series_by_ratios(spec: WaveSpec, cap: int) -> TruncatedSeries:
    """The series of waves.chiral_wave_series through series_from_ratios: the
    term ratio (A_k + l_{k-1} + l_k)(A_{k+1} + l_k + l_{k+1}) / ((l_k + 1)(B_k + l_k))
    as a callback on each predecessor tuple, in Fractions."""
    n = spec.n
    A = [None] + [spec.a(j) + spec.a(j + 1) - spec.d(j + 1) for j in range(1, n - 1)]

    def ratio(ells, i):
        k = i + 1
        before, lk, after = ((0,) + ells + (0,))[k - 1 : k + 2]
        den = (lk + 1) * (2 * spec.a(k + 1) + lk)
        if den == 0:
            raise DegenerateParameterError(
                f"(2 a_{k + 1})_{lk + 1} vanishes: a_{k + 1} = {spec.a(k + 1)} is degenerate"
            )
        r = (A[k] + before + lk) * (A[k + 1] + lk + after) / den
        return r.numerator, r.denominator

    return series_from_ratios(tuple(f"u{k}" for k in range(1, n - 2)), cap, ratio)


def scale_exponent(series: TruncatedSeries, name: str, shift: int) -> TruncatedSeries:
    """series times var^shift (shift >= 0), dropping terms past the cap."""
    idx = series.variables.index(name)
    terms = {e[:idx] + (e[idx] + shift,) + e[idx + 1 :]: c for e, c in coeffs(series).items()}
    return TruncatedSeries(series.variables, series.cap, terms)


def casimir_residual_series(eq_spec: WaveSpec, wave, which: int, cap: int) -> TruncatedSeries:
    """The invariant Casimir residual of waves.casimir_residual, built in
    Fraction series arithmetic: the c(e) part and the c(e - 1_k) part as two
    coefficient maps, the second shifted up by u_k, then subtracted."""
    s, q = wave.spec, eq_spec
    n, k = s.n, which
    moved = {i: q.d(i) - s.d(i) for i in (1, 2, 3, n - 2, n - 1, n)}  # D_i
    shift = s.a(k + 1)
    left = s.a(k) + s.a(k + 1) - s.d(k + 1)
    right = s.a(k + 1) + s.a(k + 2) - s.d(k + 2)
    if k == 1:
        shift += moved[3]
        left += moved[1] - moved[2] + moved[3]
    if k == n - 3:
        shift += moved[n - 2]
        right += moved[n] - moved[n - 1] + moved[n - 2]
    up, down = shift + q.a(k + 1) - 1, shift - q.a(k + 1)

    def raised(e: tuple[int, ...], c: Fraction) -> Fraction:
        # the coefficient that c(e) contributes at e + 1_k
        before, ek, after = ((0,) + e + (0,))[k - 1 : k + 2]
        return c * (before + ek + left) * (ek + after + right)

    f = wave.series.truncate(min(cap, wave.series.cap))
    lhs = f.map_coefficients(lambda e, c: c * (e[k - 1] + up) * (e[k - 1] + down))
    rhs = scale_exponent(f.map_coefficients(raised), f.variables[k - 1], 1)
    return lhs - rhs


def reduce_correlator_unfiltered(target: PairSum, pair: tuple[int, int], op, d1, d2) -> PairSum:
    """chiral_ops.reduce_correlator with every term differentiated: no term
    is dropped before the operator acts."""
    i, j = pair
    power = Fraction(d1) + Fraction(d2) - (op.kind == "D")
    work = apply_operator_pair(target.mul_monomial(1, {(i, j): power}), op, i, j)
    return work.merge_adjacent(i)


def wave_term_exps(spec: WaveSpec, ells: tuple[int, ...]) -> dict:
    """Fraction pair exponents of wave_prefactor(spec) * prod u_k^{l_k}, added
    up pair by pair; zero exponents may stay."""
    exps = wave_prefactor(spec)
    for k, lk in enumerate(ells, start=1):
        for pr, e in cross_ratio(k).items():
            exps[pr] = exps.get(pr, 0) + lk * e
    return exps


def reduce_wave_termwise(wave, pair: tuple[int, int], op) -> ReducedWave:
    """chiral_ops.reduce_wave one series term at a time: each reliable term
    is its own one-term PairSum, built from its Fraction exponents, reduced by
    reduce_correlator_unfiltered and added up."""
    n = wave.spec.n
    i, j = pair
    first = (i, j) == (1, 2)
    a_channel = wave.spec.a(2) if first else wave.spec.a(n - 2)
    spill = op.h - a_channel
    spill = int(spill) if spill == int(spill) and spill > 0 else 0
    reliable = wave.series.cap - spill
    points = tuple(range(1, n + 1))
    out = PairSum(tuple(p for p in points if p != j))
    for ells, c in coeffs(wave.series).items():
        tail_order = sum(ells[1:]) if first else sum(ells[:-1])
        if tail_order > reliable:
            continue
        mono = PairSum.monomial(points, c, wave_term_exps(wave.spec, ells))
        out.add_scaled(reduce_correlator_unfiltered(mono, pair, op, wave.spec.d(i), wave.spec.d(j)))
    return ReducedWave(out, reliable)


# -- sparse sums ------------------------------------------------------------------


def two_chiral_monomial(points, coeff, exps_plus, exps_minus) -> TwoChiralSum:
    """coeff * M_plus * M_minus as a one-term TwoChiralSum (integer exponents)."""
    (dp, kp), (dm, km) = norm_exps(exps_plus), norm_exps(exps_minus)
    assert dp == dm == 1, "TwoChiralSum holds integer exponents only"
    return TwoChiralSum(points).set_values((((kp, km), coeff),))


def two_chiral_is_zero_twelve_point(t: TwoChiralSum) -> bool:
    """TwoChiralSum.is_zero_function by one PairSum: the minus sides move to a
    disjoint copy of the points, so the chiralities are independent
    coordinates of one twelve-point sum."""
    shift = max(t.points) - min(t.points) + 1
    moved = {
        kp + tuple(((i + shift, j + shift), e) for (i, j), e in km): c
        for (kp, km), c in t.terms.items()
    }
    return PairSum(t.points + tuple(p + shift for p in t.points), moved).is_zero_function()


def ptolemy_zero(p: PairSum) -> PairSum:
    """p * (x13 - x12 - x23): zero as a function, not term by term."""
    out = p.mul_monomial(1, {(1, 3): 1})
    out.add_scaled(p.mul_monomial(1, {(1, 2): 1}), -1)
    out.add_scaled(p.mul_monomial(1, {(2, 3): 1}), -1)
    return out


def reversed_spec(spec: WaveSpec) -> WaveSpec:
    """Hermitean conjugation relabeling i -> n+1-i."""
    return WaveSpec(spec.field_dims[::-1], spec.proj_dims[::-1])


def z_poly_expanded(ps: PairSum, terms) -> MultiPoly:
    """One exponent class of ps (int numerators over ps.den) expanded in
    adjacent differences z_k, up to the class's common base monomial."""
    zvars = tuple(f"z{k}" for k in range(1, len(ps.points)))
    expansions = dict(zip(terms, _adjacent_expansions(ps.points, terms, ps.exp_den)))
    return MultiPoly(zvars).set_ints(_int_combination(expansions, terms), ps.den)


def is_zero_function_expanded(ps: PairSum) -> bool:
    """PairSum.is_zero_function with no certificate: every class expanded."""
    return all(z_poly_expanded(ps, g).is_zero() for g in ps._classes().values())


def proportional_to_expanded(a: PairSum, b: PairSum):
    """PairSum.proportional_to by three expansions: lam off the first class
    where b is not the zero function (both sides over one base), then
    a - lam * b decided by is_zero_function_expanded."""
    den = lcm(a.exp_den, b.exp_den)
    zvars = tuple(f"z{k}" for k in range(1, len(a.points)))
    g1 = a._rescaled(den)._classes()
    for ck, t2 in b._rescaled(den)._classes().items():
        t1 = g1.get(ck, {})
        union = list(set(t1) | set(t2))
        expansions = dict(zip(union, _adjacent_expansions(a.points, union, den)))
        p2 = MultiPoly(zvars).set_ints(_int_combination(expansions, t2), b.den)
        if p2:
            exps, c2 = p2.leading()
            lam = MultiPoly(zvars).set_ints(_int_combination(expansions, t1), a.den).coefficient(exps) / c2
            return lam if lam and is_zero_function_expanded(a - b.scale(lam)) else None
    return None


# -- Fraction oracles of the sparse sums ----------------------------------------------
# Plain Fraction dicts, the representation the sums held before they kept int
# numerators over one denominator: {exponents: Fraction} for polynomials and
# series, {Fraction-exponent key: Fraction} for pair sums (the earlier
# PairSum, which kept every exponent as a Fraction in the key).


def fraction_sum(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def fraction_product(a: dict, b: dict, cap=None) -> dict:
    """Fraction double loop over two {exponents: Fraction} dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if cap is None or sum(e) <= cap:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def fraction_derivative(a: dict, idx: int) -> dict:
    return {e[:idx] + (e[idx] - 1,) + e[idx + 1 :]: c * e[idx] for e, c in a.items() if e[idx]}


def fraction_truncation(a: dict, cap: int) -> dict:
    return {e: c for e, c in a.items() if sum(e) <= cap}


def frac_terms(ps: PairSum) -> dict:
    """A PairSum read back in Fraction keys and Fraction coefficients."""
    return {tuple((pr, Fraction(e, ps.exp_den)) for pr, e in key): c for key, c in coeffs(ps).items()}


def frac_key(exps):
    return tuple(sorted((pr, Fraction(e)) for pr, e in exps.items() if e))


def add_fraction_term(terms, key, c):
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def ref_differentiate(terms, point):
    out = {}
    for key, c in terms.items():
        exps = dict(key)
        for (i, j), e in key:
            if point == i:
                sign = 1
            elif point == j:
                sign = -1
            else:
                continue
            new = dict(exps)
            new[(i, j)] = e - 1
            add_fraction_term(out, frac_key(new), c * e * sign)
    return out


def ref_merge_adjacent(terms, i):
    j = i + 1
    out = {}
    for key, c in terms.items():
        exps = dict(key)
        e_diag = exps.pop((i, j), Fraction(0))
        if e_diag > 0:
            continue
        if e_diag < 0:
            raise SingularDiagonalError(
                f"x_{i}{j}^{e_diag} survives the diagonal limit (pole bound violated)"
            )
        merged = {}
        for (a, b), e in exps.items():
            a2 = i if a == j else a
            b2 = i if b == j else b
            if a2 >= b2:
                raise ConsistencyError("adjacent merge collapsed or flipped a pair")
            merged[(a2, b2)] = merged.get((a2, b2), Fraction(0)) + e
        add_fraction_term(out, frac_key(merged), c)
    return out


def ref_relabel(terms, mapping, antisym):
    out = {}
    for key, c in terms.items():
        sign = Fraction(1)
        exps = {}
        for (a, b), e in key:
            a2, b2 = mapping[a], mapping[b]
            if a2 > b2:
                a2, b2 = b2, a2
                if antisym:
                    if e.denominator != 1:
                        raise ValueError("cannot flip a pair with non-integer exponent")
                    if e.numerator % 2:
                        sign = -sign
            exps[(a2, b2)] = exps.get((a2, b2), Fraction(0)) + e
        add_fraction_term(out, frac_key(exps), c * sign)
    return out


# -- positivity -------------------------------------------------------------------


def fourpoint_amplitudes_solved(h: int, h_prime: int, cap_n: int) -> dict[int, Fraction]:
    """{n: B^{3/2 + n}} by solving 1 = sum_n B^{3/2 + n} u^n 2F1(n+h, n+h';
    2n+3; u) order by order: the system is triangular with unit diagonal."""
    entries = {0: Fraction(1)}
    for m in range(1, cap_n + 1):
        acc = Fraction(0)
        for n in range(m):
            acc += entries[n] * gauss_2f1_coeff(n + h, n + h_prime, 2 * n + 3, m - n)
        entries[m] = -acc
    return entries


def symmetric_inertia_eliminated(matrix) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of any symmetric rational matrix.

    Symmetric elimination with diagonal pivots, falling back to 2x2 blocks
    [[0, a], [a, 0]] (inertia (1, 1)) when every remaining diagonal vanishes.
    """
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix is not square")
        for j in range(i + 1, n):
            if row[j] != a[j][i]:
                raise ValueError("matrix is not symmetric")

    idx = list(range(n))
    n_pos = n_neg = n_zero = 0
    while idx:
        piv = next((k for k in idx if a[k][k] != 0), None)
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                n_pos += 1
            else:
                n_neg += 1
            idx.remove(piv)
            for i in idx:
                f = a[i][piv] / d
                if f == 0:
                    continue
                for j in idx:
                    a[i][j] -= f * a[piv][j]
            continue
        pair = None
        for i in idx:
            for j in idx:
                if i < j and a[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            n_zero += len(idx)
            break
        i0, j0 = pair
        c = a[i0][j0]
        n_pos += 1
        n_neg += 1
        idx.remove(i0)
        idx.remove(j0)
        for k in idx:
            vi, vj = a[k][i0], a[k][j0]
            if vi == 0 and vj == 0:
                continue
            for l in idx:
                a[k][l] -= (vi * a[j0][l] + vj * a[i0][l]) / c
    return n_pos, n_neg, n_zero


def report_block(report, n_plus: int, n_minus: int, sign: int):
    """The block of a positivity report at (k+, k-) = (3/2 + n+, 3/2 + n-)
    and the given helicity sign."""
    for b in report.blocks:
        if (
            b.k_plus == Fraction(3, 2) + n_plus
            and b.k_minus == Fraction(3, 2) + n_minus
            and b.sign == sign
        ):
            return b
    raise KeyError((n_plus, n_minus, sign))
