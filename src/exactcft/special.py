"""Exact special values: rising factorials, hypergeometric series coefficients,
and the "num/den" string form used by every serializer.
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

