"""The transcendental completion function g, as an exact double series.

Two independent routes: the closed coefficient formula in the chiral
variables, and the order-by-order ODE recursion in s with t-profiles carried
as truncated power series in w = 1 - t (they are hypergeometric, not
polynomial, so only truncations are available). A profile g_n(w) of a
cap-C series is a TruncatedSeries in ("w",) with cap C - 2n; the ODE
operators are compositions of series products and derivatives, and since a
derivative lowers the cap by one, each result carries exactly the orders its
input determines. The biharmonicity check works on the s-graded recursion
instances; its order-n component couples the profiles of orders n-1 and n,
so order 0 carries no condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .poly import MultiPoly
from .series import TruncatedSeries

GVARS = ("u_plus", "u_minus")
SW = ("s", "w")
W = ("w",)


@dataclass(frozen=True)
class BiharmonicSeries:
    """Double series in the chiral variables, truncated by total order."""

    series: TruncatedSeries

    @property
    def cap(self) -> int:
        return self.series.cap

    def coefficient(self, a: int, b: int) -> Fraction:
        return self.series.coefficient((a, b))


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


def _one_minus_w(cap: int) -> TruncatedSeries:
    return TruncatedSeries(W, cap, {(0,): Fraction(1), (1,): Fraction(-1)})


def _t_euler(profile: TruncatedSeries) -> TruncatedSeries:
    """t d/dt = -(1-w) d/dw."""
    return -(_one_minus_w(profile.cap) * profile.differentiate("w"))


def _recursion_rhs(prev: TruncatedSeries, n: int) -> TruncatedSeries:
    """(1 - t d/dt)(n + t d/dt) g_{n-1}, two orders below the cap of g_{n-1}."""
    inner = prev.scale(n) + _t_euler(prev)
    return inner - _t_euler(inner)


def _lhs_op(profile: TruncatedSeries, n: int) -> TruncatedSeries:
    """(1 + (n+1)(1-w) + w(1-w) d/dw) g_n, one order below the cap of g_n."""
    one_minus_w = _one_minus_w(profile.cap)
    w_one_minus_w = (1 - one_minus_w) * one_minus_w
    return profile * (one_minus_w.scale(n + 1) + 1) + w_one_minus_w * profile.differentiate("w")


def _solve_profile(rhs: TruncatedSeries, n: int) -> TruncatedSeries:
    """Solve (1 + (n+1)(1-w) + w(1-w) d/dw) g_n = rhs at the cap of rhs.

    Coefficient matching is triangular: (n+2+j) gamma_j = (n+j) gamma_{j-1} + rhs_j.
    """
    gamma = TruncatedSeries(W, rhs.cap)
    prev = Fraction(0)
    for j in range(rhs.cap + 1):
        prev = ((n + j) * prev + rhs.coefficient((j,))) / (n + 2 + j)
        gamma.add_term((j,), prev)
    return gamma


def _recursion_profiles(cap: int) -> list[TruncatedSeries]:
    profiles = [TruncatedSeries.constant(W, cap, 1)]
    for n in range(1, cap // 2 + 1):
        profiles.append(_solve_profile(_recursion_rhs(profiles[n - 1], n), n))
    return profiles


def _s_and_w(cap: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """s = u+ u- and w = u+ + u- - u+ u- as series in the chiral variables."""
    s = TruncatedSeries(GVARS, cap, {(1, 1): Fraction(1)})
    w = TruncatedSeries(
        GVARS, cap, {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(-1)}
    )
    return s, w


def _profile_series(
    n: int, profile: TruncatedSeries, s: TruncatedSeries, w: TruncatedSeries
) -> TruncatedSeries:
    """s^n g(w) for the w-profile g, with s and w from _s_and_w."""
    w_poly = TruncatedSeries(GVARS, w.cap)
    wpow = TruncatedSeries.constant(GVARS, w.cap, 1)
    for j in range(profile.total_degree() + 1):
        if j:
            wpow = wpow * w
        c = profile.coefficient((j,))
        if c:
            w_poly.add_scaled(wpow, c)
    return (s**n) * w_poly


def _assemble_from_profiles(profiles: list[TruncatedSeries], cap: int) -> TruncatedSeries:
    s, w = _s_and_w(cap)
    total = TruncatedSeries(GVARS, cap)
    for n, profile in enumerate(profiles):
        total.add_scaled(_profile_series(n, profile, s, w), Fraction(1, factorial(n)))
    return total


def completion_series(cap: int, method: str = "closed") -> BiharmonicSeries:
    """The function g as an exact truncated double series.

    method="closed" evaluates the coefficient formula; method="recursion"
    solves the s-graded ODE chain in w = 1 - t and converts back.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if method == "closed":
        return BiharmonicSeries(_closed_series(cap))
    if method == "recursion":
        return BiharmonicSeries(_assemble_from_profiles(_recursion_profiles(cap), cap))
    raise ValueError(f"unknown method {method!r}")


# -- biharmonicity check ------------------------------------------------------


def _to_sw_components(series: TruncatedSeries) -> list[TruncatedSeries]:
    """Profiles g_n(w) (with the n! removed) of a symmetric double series;
    g_n is known through w^(cap - 2n).

    Uses s = u+ u-, e1 = u+ + u- = w + s and the power-sum recursion to
    rewrite monomial symmetric functions exactly.
    """
    cap = series.cap
    for (a, b), c in series.terms.items():
        if series.coefficient((b, a)) != c:
            raise ValueError("series is not symmetric under chirality swap")

    # s^n w^j starts at u-degree 2n + j and e1, e2 never lower it, so each
    # power sum drops its terms past the cap as it is formed
    e1 = MultiPoly(SW, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    e2 = MultiPoly(SW, {(1, 0): Fraction(1)})
    pcache = [MultiPoly.constant(SW, 2), e1]

    def psum(k: int) -> MultiPoly:
        while len(pcache) <= k:
            p = e1 * pcache[-1] - e2 * pcache[-2]
            pcache.append(
                MultiPoly(SW, {(n, j): c for (n, j), c in p.terms.items() if 2 * n + j <= cap})
            )
        return pcache[k]

    total = MultiPoly(SW)
    seen = set()
    for (a, b), c in series.terms.items():
        hi, lo = max(a, b), min(a, b)
        if (hi, lo) in seen:
            continue
        seen.add((hi, lo))
        # e2^lo times p_{hi-lo}, or times 1 on the diagonal
        p = psum(hi - lo) if hi > lo else MultiPoly.constant(SW, 1)
        for (n, j), d in p.terms.items():
            total.add_term((n + lo, j), c * d)
    return [
        TruncatedSeries(W, cap - 2 * n, {(j,): c for (m, j), c in total.terms.items() if m == n})
        for n in range(cap // 2 + 1)
    ]


def verify_biharmonic(g: BiharmonicSeries) -> TruncatedSeries:
    """Exact residual of the biharmonicity equation, reliable to cap - 1.

    The order-s^n component is the n-th recursion instance
    (1 + (n+1)t - t(1-t) d_t) g_n - (1 - t d_t)(n + t d_t) g_{n-1},
    so the n = 0 sector is vacuous; a perturbed series shows up at the s-order
    of the lowest broken instance.
    """
    cap = g.cap
    if cap < 2:
        raise ValueError("needs cap >= 2 to carry any content")
    comp = _to_sw_components(g.series)
    out_cap = cap - 1
    s, w = _s_and_w(out_cap)
    residual = TruncatedSeries(GVARS, out_cap)
    for n in range(1, out_cap // 2 + 1):
        # profiles carry 1/n!; the recursion relates g_n = n! [s^n] to g_{n-1}
        res_n = _lhs_op(comp[n].scale(factorial(n)), n) - _recursion_rhs(
            comp[n - 1].scale(factorial(n - 1)), n
        )
        if res_n:
            residual.add_scaled(
                _profile_series(n, res_n, s, w), Fraction(1, factorial(n - 1))
            )
    return residual
