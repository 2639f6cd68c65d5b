"""The transcendental completion function g, as an exact double series.

Two independent routes: the closed coefficient formula in the chiral
variables, and the order-by-order ODE recursion in s with t-profiles carried
as truncated power series in w = 1 - t (they are hypergeometric, not
polynomial, so only truncations are available). A profile g_n(w) of a
cap-C series is the list of its coefficients g_n[j] of w^j, j <= C - 2n. The
ODE operators act on these coefficients directly: each is a two-term map
(t d/dt sends g_j to j g_j - (j+1) g_{j+1}), and since it reads g_{j+1} the
result is one order shorter, so it carries exactly the orders its input
determines. A family of profiles becomes a double series as one integer
combination of the powers s^n w^j in the chiral variables. The
biharmonicity check works on the s-graded recursion instances; its order-n
component couples the profiles of orders n-1 and n, so order 0 carries no
condition.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .poly import _int_combination, _int_product
from .series import TruncatedSeries

GVARS = ("u_plus", "u_minus")
# the four chiral cross ratios of the six-point structures, as sixpoint.SERIES_VARS
SERIES_VARS = GVARS + ("uprime_plus", "uprime_minus")


def closed_coefficient(a: int, b: int) -> Fraction:
    if a == 0 and b == 0:
        return Fraction(1)
    if a == 0 or b == 0:
        return Fraction(0)
    s = a + b
    return Fraction(2 * a * b, s * (s * s - 1))


def _closed_series(cap: int) -> TruncatedSeries:
    return TruncatedSeries.from_coefficients(GVARS, cap, lambda e: closed_coefficient(*e))


# -- w-profile machinery -----------------------------------------------------
# A profile is a list of coefficients [g_0, g_1, ...] of powers of w.


def _t_euler(g: list) -> list:
    """t d/dt = -(1-w) d/dw: g_j -> j g_j - (j+1) g_{j+1}."""
    return [j * g[j] - (j + 1) * g[j + 1] for j in range(len(g) - 1)]


def _recursion_rhs(prev: list, n: int) -> list:
    """(1 - t d/dt)(n + t d/dt) g_{n-1}, two orders shorter than g_{n-1}."""
    inner = [n * c + d for c, d in zip(prev, _t_euler(prev))]
    return [c - d for c, d in zip(inner, _t_euler(inner))]


def _lhs_op(g: list, n: int) -> list:
    """(1 + (n+1)(1-w) + w(1-w) d/dw) g_n: g_j -> (n+2+j) g_j - (n+j) g_{j-1},
    one order shorter than g_n."""
    return [(n + 2 + j) * g[j] - (n + j) * (g[j - 1] if j else 0) for j in range(len(g) - 1)]


def _solve_profile(rhs: list[int], den: int, n: int) -> tuple[int, list[int]]:
    """Solve _lhs_op(g, n) = rhs / den at the length of rhs, as (D, D g) on ints.

    Coefficient matching is triangular: (n+2+j) gamma_j = (n+j) gamma_{j-1} + rhs_j.
    D is a running denominator: a step multiplies it, and the numerators so
    far, by the part of n+2+j that does not divide its numerator.
    """
    gamma: list[int] = []
    prev, scale = 0, 1  # scale = D / den
    for j, r in enumerate(rhs):
        s, p = (n + j) * prev + r * scale, n + 2 + j
        g = gcd(s, p)
        if p != g:
            gamma = [x * (p // g) for x in gamma]
            scale *= p // g
        prev = s // g
        gamma.append(prev)
    return den * scale, gamma


def _recursion_profiles(cap: int) -> list[tuple[int, list[int]]]:
    """(D_n, D_n g_n) for each order n of the recursion, on ints."""
    profiles = [(1, [1] + [0] * cap)]
    for n in range(1, cap // 2 + 1):
        den, prev = profiles[-1]
        profiles.append(_solve_profile(_recursion_rhs(prev, n), den, n))
    return profiles


def _sw_series(weights: dict, den: int, cap: int) -> TruncatedSeries:
    """sum weights[n, j] s^n w^j / den in the chiral variables, for int
    weights, truncated at the cap, with s = u+ u- and w = u+ + u- - u+ u-.

    By the trinomial theorem w^j = sum (-1)^c C(j, c) C(j - c, a) u+^(a+c)
    u-^(j-a), of total order j + c; its terms are listed once per j, and s^n
    shifts both exponents by n. The weighted sum is one integer combination.
    """
    used = [(n, j) for (n, j), v in weights.items() if v]
    wpow = {
        j: [(a + c, j - a, (-1) ** c * comb(j, c) * comb(j - c, a))
            for c in range(min(j, cap - j) + 1) for a in range(j - c + 1)]
        for j in {j for _, j in used}
    }
    parts = {
        (n, j): {(n + x, n + y): c for x, y, c in wpow[j] if x + y <= cap - 2 * n}
        for n, j in used
    }
    return TruncatedSeries(GVARS, cap).set_ints(_int_combination(parts, weights), den)


def _assemble_from_profiles(profiles: list[tuple[int, list[int]]], cap: int) -> TruncatedSeries:
    """sum_n s^n g_n(w) / n! for profiles (D_n, D_n g_n) on ints, over the
    lcm D of the D_n n!."""
    scales = [den * factorial(n) for n, (den, _) in enumerate(profiles)]
    lcd = lcm(*scales)
    weights = {(n, j): c * (lcd // scales[n]) for n, (_, g) in enumerate(profiles) for j, c in enumerate(g)}
    return _sw_series(weights, lcd, cap)


def completion_series_2d(cap: int) -> TruncatedSeries:
    """Series of the tetraharmonic completion: the odd-weighted double sum
    sum (a-b)/(a+b) u+^a u-^b times the primed copy."""

    def weight(e: tuple[int, int, int, int]) -> Fraction:
        a, b, c, d = e
        if a + b == 0 or c + d == 0:
            return Fraction(0)
        return Fraction(a - b, a + b) * Fraction(c - d, c + d)

    return TruncatedSeries.from_coefficients(SERIES_VARS, cap, weight)


def completion_series(cap: int, method: str = "closed") -> TruncatedSeries:
    """The function g as an exact truncated double series.

    method="closed" evaluates the coefficient formula; method="recursion"
    solves the s-graded ODE chain in w = 1 - t and converts back.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if method == "closed":
        return _closed_series(cap)
    if method == "recursion":
        return _assemble_from_profiles(_recursion_profiles(cap), cap)
    raise ValueError(f"unknown method {method!r}")


# -- biharmonicity check ------------------------------------------------------


def _power_sums(kmax: int, cap: int) -> list[dict]:
    """p_k = u+^k + u-^k for k <= kmax as int dicts keyed by (n, j) of s^n w^j,
    without the terms of 2n + j > cap.

    e1 = u+ + u- = w + s and e2 = s, and p_k = e1 p_{k-1} - e2 p_{k-2}. s^n w^j
    starts at u-degree 2n + j and e1, e2 never lower it, so each power sum
    drops its terms past the cap as it is formed.
    """
    e1 = {(1, 0): 1, (0, 1): 1}
    sums = [{(0, 0): 2}, e1]
    for _ in range(2, kmax + 1):
        p = _int_product(e1, sums[-1])
        for (n, j), c in sums[-2].items():
            p[n + 1, j] = p.get((n + 1, j), 0) - c
        sums.append({(n, j): c for (n, j), c in p.items() if c and 2 * n + j <= cap})
    return sums


def _to_sw_components(series: TruncatedSeries) -> tuple[int, list[list[int]]]:
    """(D, profiles): D times the profiles g_n(w) (with the n! removed) of a
    symmetric double series, as ints; g_n is known through w^(cap - 2n).

    Each monomial symmetric function u+^hi u-^lo + u+^lo u-^hi is s^lo p_{hi-lo}
    (s^lo alone on the diagonal), with s = u+ u- and the power sums p_k in s
    and w; the sum over the series is one integer combination of them, over
    the series' denominator D.
    """
    cap = series.cap
    terms = series.terms
    for (a, b), c in terms.items():
        if terms.get((b, a)) != c:
            raise ValueError("series is not symmetric under chirality swap")

    weights = {(a, b): c for (a, b), c in terms.items() if a >= b}
    sums = _power_sums(max((a - b for a, b in weights), default=0), cap)
    parts = {
        (a, b): (
            {(n + b, j): d for (n, j), d in sums[a - b].items() if 2 * (n + b) + j <= cap}
            if a > b
            else {(b, 0): 1}
        )
        for a, b in weights
    }
    profiles = [[0] * (cap - 2 * n + 1) for n in range(cap // 2 + 1)]
    for (n, j), c in _int_combination(parts, weights).items():
        profiles[n][j] = c
    return series.den, profiles


def verify_biharmonic(g: TruncatedSeries) -> TruncatedSeries:
    """Exact residual of the biharmonicity equation, reliable to cap - 1.

    The order-s^n component is the n-th recursion instance
    (1 + (n+1)t - t(1-t) d_t) g_n - (1 - t d_t)(n + t d_t) g_{n-1},
    so the n = 0 sector is vacuous; a perturbed series shows up at the s-order
    of the lowest broken instance.
    """
    cap = g.cap
    if cap < 2:
        raise ValueError("needs cap >= 2 to carry any content")
    den, comp = _to_sw_components(g)
    out_cap = cap - 1
    weights = {}
    for n in range(1, out_cap // 2 + 1):
        # g_n = n! comp[n] / D: the instance over (n-1)!/D, on ints
        lhs = _lhs_op(comp[n], n)
        rhs = _recursion_rhs(comp[n - 1], n)
        for j, (x, y) in enumerate(zip(lhs, rhs)):
            if n * x != y:
                weights[n, j] = n * x - y
    return _sw_series(weights, den, out_cap)
