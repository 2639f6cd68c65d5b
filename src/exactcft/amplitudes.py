"""Partial wave amplitudes of the reference 4-point functions.

The chiral coefficients of 1 = sum_{k = 3/2 + n} B^k u^n 2F1(n+h, n+h';
2n+3; u) have the closed form B^{3/2 + n} = g_n (h)_n (h')_n with
g_n = (-1)^n / (n! (n+2)_n), the standard expansion of 1 in this
hypergeometric tower (Fields and Wimp, Math. Comp. 15 (1961)). The
reconstruction residual, which sums the tower back up, checks it: it vanishes
identically through the truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .errors import DegenerateParameterError
from .special import format_rational, gauss_2f1_coeff, pochhammer


class AmplitudeMatrix(NamedTuple):
    """Chiral expansion coefficients B^{3/2 + n} for one weight pair."""

    h: int
    h_prime: int
    entries: dict[int, Fraction]  # n -> B^{3/2 + n}

    def k_label(self, n: int) -> Fraction:
        return Fraction(3, 2) + n

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "h_prime": self.h_prime,
            "amplitudes": {
                format_rational(self.k_label(n)): format_rational(v)
                for n, v in sorted(self.entries.items())
            },
        }


def amplitude_scale(n: int) -> Fraction:
    """g_n = (-1)^n / (n! (n+2)_n) = (-1)^n (n+1) / (2n+1)!, the factor of
    B^{3/2 + n} that does not depend on the weights."""
    return Fraction((-1) ** n * (n + 1), factorial(2 * n + 1))


def fourpoint_amplitudes(h: int, h_prime: int, cap_n: int) -> AmplitudeMatrix:
    """The expansion of 1 into the hypergeometric tower, in closed form."""
    if cap_n < 0:
        raise ValueError("cap_n must be >= 0")
    if h < 1 or h_prime < 1:
        raise DegenerateParameterError("only chiral dimensions h >= 1 occur")
    return AmplitudeMatrix(h, h_prime, {
        n: amplitude_scale(n) * pochhammer(h, n) * pochhammer(h_prime, n)
        for n in range(cap_n + 1)
    })


def reconstruction_residual(am: AmplitudeMatrix, cap: int) -> dict[int, Fraction]:
    """sum_k B^k u^n 2F1(n+h, n+h'; 2n+3; u) - 1 through order cap, as its
    nonzero coefficients {order: c}: empty when the tower sums back to 1."""
    res = {0: Fraction(-1)}
    for n, bk in am.entries.items():
        for ell in range(cap - n + 1):
            term = bk * gauss_2f1_coeff(n + am.h, n + am.h_prime, 2 * n + 3, ell)
            res[n + ell] = res.get(n + ell, 0) + term
    return {order: c for order, c in res.items() if c}
