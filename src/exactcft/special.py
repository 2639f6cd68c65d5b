"""Exact special values: rising factorials, Legendre polynomials, hypergeometric
series coefficients, and the "num/den" string form used by every serializer.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from .errors import DegenerateParameterError


def format_rational(q: Fraction) -> str:
    """Render q as "num/den", or "num" when the denominator is 1, as
    Fraction.__str__ does. A Fraction is not rebuilt: Fraction(q) of a
    Fraction would double the cost."""
    return str(q if isinstance(q, Fraction) else Fraction(q))


def format_ratio(n: int, d: int) -> str:
    """format_rational of n/d for ints n and d > 0, without building a Fraction."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational; raises ValueError on anything else."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational as a string, got {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def pochhammer(x, n: int) -> Fraction:
    """Rising factorial (x)_n = x(x+1)...(x+n-1); (x)_0 = 1.

    For x = p/q this is (p)(p+q)...(p+(n-1)q) / q^n: the product runs on
    integers and the result is one Fraction.
    """
    if n < 0:
        raise ValueError(f"pochhammer order must be >= 0, got {n}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    out = 1
    for k in range(n):
        out *= p + k * q
    return Fraction(out, q**n)


def gauss_2f1_coeff(a, b, c, ell: int) -> Fraction:
    """Taylor coefficient (a)_l (b)_l / (l! (c)_l) of the Gauss series 2F1(a,b;c;z)."""
    denom = pochhammer(c, ell)
    if denom == 0:
        raise DegenerateParameterError(
            f"2F1 coefficient pole: ({c})_{ell} = 0"
        )
    pa, pb = pochhammer(a, ell), pochhammer(b, ell)
    # one reduction for the whole quotient
    return Fraction(
        pa.numerator * pb.numerator * denom.denominator,
        pa.denominator * pb.denominator * denom.numerator * factorial(ell),
    )


def legendre_coeffs(L: int) -> dict[int, Fraction]:
    """Coefficients {power: value} of the Legendre polynomial P_L, P_L(1) = 1.

    Built from the three-term recurrence (L+1) P_{L+1} = (2L+1) r P_L - L P_{L-1}.
    """
    if L < 0:
        raise ValueError(f"Legendre degree must be >= 0, got {L}")
    prev = {0: Fraction(1)}
    if L == 0:
        return prev
    cur = {1: Fraction(1)}
    for n in range(1, L):
        nxt: dict[int, Fraction] = {}
        for p, c in cur.items():
            nxt[p + 1] = nxt.get(p + 1, Fraction(0)) + Fraction(2 * n + 1, n + 1) * c
        for p, c in prev.items():
            nxt[p] = nxt.get(p, Fraction(0)) - Fraction(n, n + 1) * c
        prev, cur = cur, {p: c for p, c in nxt.items() if c != 0}
    return cur
