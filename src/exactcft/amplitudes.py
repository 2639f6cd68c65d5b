"""Partial wave amplitudes of the reference 4-point functions.

The chiral coefficients solve 1 = sum_{k = 3/2 + n} B^k u^n 2F1(n+h, n+h';
2n+3; u) order by order; the system is triangular with unit diagonal, so the
table is exact and the reconstruction residual vanishes identically through
the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateParameterError
from .series import TruncatedSeries
from .special import format_rational, gauss_2f1_coeff


@dataclass(frozen=True)
class AmplitudeMatrix:
    """Chiral expansion coefficients B^{3/2 + n} for one weight pair."""

    h: int
    h_prime: int
    entries: dict[int, Fraction]  # n -> B^{3/2 + n}

    def value(self, n: int) -> Fraction:
        return self.entries.get(n, Fraction(0))

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


def fourpoint_amplitudes(h: int, h_prime: int, cap_n: int) -> AmplitudeMatrix:
    """Solve the expansion of 1 into the hypergeometric tower, exactly."""
    if cap_n < 0:
        raise ValueError("cap_n must be >= 0")
    if h < 1 or h_prime < 1:
        raise DegenerateParameterError("only chiral dimensions h >= 1 occur")
    entries: dict[int, Fraction] = {0: Fraction(1)}
    for m in range(1, cap_n + 1):
        acc = Fraction(0)
        for n in range(m):
            acc += entries[n] * gauss_2f1_coeff(n + h, n + h_prime, 2 * n + 3, m - n)
        entries[m] = -acc
    return AmplitudeMatrix(h, h_prime, entries)


def reconstruction_residual(am: AmplitudeMatrix, cap: int) -> TruncatedSeries:
    """sum_k B^k u^n 2F1(n+h, n+h'; 2n+3; u) - 1, truncated at the cap."""
    total = TruncatedSeries.constant(("u",), cap, -1)
    for n, bk in am.entries.items():
        for ell in range(cap - n + 1):
            c = gauss_2f1_coeff(n + am.h, n + am.h_prime, 2 * n + 3, ell)
            total.add_term((n + ell,), bk * c)
    return total
