"""The transcendental completion function g, as an exact double series.

Two independent routes: the closed coefficient formula in the chiral
variables, and the order-by-order ODE recursion in s with t-profiles carried
as truncated power series in w = 1 - t (they are hypergeometric, not
polynomial, so only truncations are available). The biharmonicity check works
on the s-graded recursion instances; its order-n component couples the
profiles of orders n-1 and n, so order 0 carries no condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from .poly import MultiPoly
from .series import TruncatedSeries

GVARS = ("u_plus", "u_minus")
SW = ("s", "w")


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
    terms = {}
    for a, b in iproduct(range(cap + 1), repeat=2):
        if a + b > cap:
            continue
        c = closed_coefficient(a, b)
        if c != 0:
            terms[(a, b)] = c
    return TruncatedSeries(GVARS, cap, terms)


# -- w-profile machinery -----------------------------------------------------
# profiles g_n(w) are truncated power series in w, stored as {j: coeff}


def _t_euler(profile: dict[int, Fraction], order: int) -> dict[int, Fraction]:
    """t d/dt = -(1-w) d/dw on truncated w-series, exact to `order`."""
    out: dict[int, Fraction] = {}
    for j, c in profile.items():
        # -(d/dw): -(j+1) c_{j+1} w^j ; +w d/dw: j c_j w^j
        if j - 1 >= 0:
            out[j - 1] = out.get(j - 1, Fraction(0)) - j * c
        out[j] = out.get(j, Fraction(0)) + j * c
    return {j: c for j, c in out.items() if j <= order and c != 0}


def _recursion_rhs(prev: dict[int, Fraction], n: int, order: int) -> dict[int, Fraction]:
    """(1 - t d/dt)(n + t d/dt) g_{n-1}, exact to `order`."""
    inner = {j: n * c for j, c in prev.items()}
    te = _t_euler(prev, order + 1)
    for j, c in te.items():
        inner[j] = inner.get(j, Fraction(0)) + c
    out = dict(inner)
    te2 = _t_euler(inner, order)
    for j, c in te2.items():
        out[j] = out.get(j, Fraction(0)) - c
    return {j: c for j, c in out.items() if j <= order and c != 0}


def _solve_profile(rhs: dict[int, Fraction], n: int, order: int) -> dict[int, Fraction]:
    """Solve (1 + (n+1)(1-w) + w(1-w) d/dw) g_n = rhs up to w^order.

    Coefficient matching is triangular: (n+2+j) gamma_j = (n+j) gamma_{j-1} + rhs_j.
    """
    gamma: dict[int, Fraction] = {}
    prev = Fraction(0)
    for j in range(order + 1):
        val = ((n + j) * prev + rhs.get(j, Fraction(0))) / (n + 2 + j)
        if val != 0:
            gamma[j] = val
        prev = val
    return gamma


def _recursion_profiles(cap: int) -> list[dict[int, Fraction]]:
    profiles = [{0: Fraction(1)}]
    for n in range(1, cap // 2 + 1):
        order = cap - 2 * n
        rhs = _recursion_rhs(profiles[n - 1], n, order)
        profiles.append(_solve_profile(rhs, n, order))
    return profiles


def _s_and_w(cap: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """s = u+ u- and w = u+ + u- - u+ u- as series in the chiral variables."""
    s = TruncatedSeries(GVARS, cap, {(1, 1): Fraction(1)})
    w = TruncatedSeries(
        GVARS, cap, {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(-1)}
    )
    return s, w


def _profile_series(
    n: int, profile: dict[int, Fraction], s: TruncatedSeries, w: TruncatedSeries
) -> TruncatedSeries:
    """s^n g(w) for the w-profile g, with s and w from _s_and_w."""
    w_poly = TruncatedSeries(GVARS, w.cap)
    wpow = TruncatedSeries.constant(GVARS, w.cap, 1)
    for j in range(max(profile, default=0) + 1):
        if j:
            wpow = wpow * w
        c = profile.get(j)
        if c:
            w_poly.add_scaled(wpow, c)
    return (s**n) * w_poly


def _assemble_from_profiles(profiles: list[dict[int, Fraction]], cap: int) -> TruncatedSeries:
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


def _to_sw_components(series: TruncatedSeries) -> dict[int, dict[int, Fraction]]:
    """Profiles g_n(w) (with the n! removed) of a symmetric double series.

    Uses s = u+ u-, e1 = u+ + u- = w + s and the power-sum recursion to
    rewrite monomial symmetric functions exactly.
    """
    cap = series.cap
    for (a, b), c in series.terms.items():
        if series.coefficient((b, a)) != c:
            raise ValueError("series is not symmetric under chirality swap")

    e1 = MultiPoly(SW, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    e2 = MultiPoly(SW, {(1, 0): Fraction(1)})
    pcache = [MultiPoly.constant(SW, 2), e1]

    def psum(k: int) -> MultiPoly:
        while len(pcache) <= k:
            m = len(pcache)
            pcache.append(e1 * pcache[m - 1] - e2 * pcache[m - 2])
        return pcache[k]

    total = MultiPoly(SW)
    seen = set()
    for (a, b), c in series.terms.items():
        hi, lo = max(a, b), min(a, b)
        if (hi, lo) in seen:
            continue
        seen.add((hi, lo))
        if hi == lo:
            mono = e2**lo
        else:
            mono = (e2**lo) * psum(hi - lo)
        total.add_scaled(mono, c)
    out: dict[int, dict[int, Fraction]] = {}
    for (n, j), c in total.terms.items():
        if 2 * n + j > cap:
            continue
        out.setdefault(n, {})[j] = c
    return out


def _lhs_op(profile: dict[int, Fraction], n: int, order: int) -> dict[int, Fraction]:
    """(1 + (n+1)(1-w) + w(1-w) d/dw) g_n, exact to `order`."""
    out: dict[int, Fraction] = {}
    for j, c in profile.items():
        out[j] = out.get(j, Fraction(0)) + (n + 2) * c
        out[j + 1] = out.get(j + 1, Fraction(0)) - (n + 1) * c
        # w(1-w) d/dw: j c_j w^j - j c_j w^{j+1}
        if j:
            out[j] = out.get(j, Fraction(0)) + j * c
            out[j + 1] = out.get(j + 1, Fraction(0)) - j * c
    return {j: c for j, c in out.items() if j <= order and c != 0}


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
    n = 1
    while 2 * n <= out_cap:
        order = cap - 2 * n - 1
        # profiles carry 1/n!; the recursion relates g_n = n! [s^n] to g_{n-1}
        gn = {j: c * factorial(n) for j, c in comp.get(n, {}).items()}
        gprev = {j: c * factorial(n - 1) for j, c in comp.get(n - 1, {}).items()}
        res_n = _lhs_op(gn, n, order)
        rhs = _recursion_rhs(gprev, n, order)
        for j, c in rhs.items():
            res_n[j] = res_n.get(j, Fraction(0)) - c
        res_n = {j: c for j, c in res_n.items() if c != 0}
        if res_n:
            residual.add_scaled(
                _profile_series(n, res_n, s, w), Fraction(1, factorial(n - 1))
            )
        n += 1
    return residual
