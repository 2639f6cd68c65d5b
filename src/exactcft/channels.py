"""Channel reduction of the restricted six-point structures.

Per chirality, applying the renormalized degree-h operator to one term of the
double geometric sum collapses it to a universal function of the surviving
points with an explicit integer coefficient c_{a,h} = (h)_a (1-h)_a / a!^2
(finite support: zero for a >= h). Resumming the structure's weights then
yields one number per channel; for both structures of interest the result has
a closed parity form, which the tests compare against the first-principles
finite sums computed here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from typing import NamedTuple

from .errors import DegenerateParameterError


def reduction_coefficient(a: int, h: int) -> int:
    """c_{a,h} = (h)_a (1-h)_a / a!^2 = (-1)^a C(h+a-1, a) C(h-1, a), an integer."""
    if a < 0 or h < 1:
        raise ValueError("need a >= 0 and h >= 1")
    return (-1) ** a * comb(h + a - 1, a) * comb(h - 1, a)


def weighted_tail_at_one(h: int, b: int) -> Fraction:
    """G_b(1) = F(1) - 2b sum_a c_{a,h} / (a + b), by term-wise integration."""
    if b < 1:
        raise ValueError("b must be >= 1")
    total = Fraction(0)
    f_at_one = 0
    for a in range(h):
        c = reduction_coefficient(a, h)
        f_at_one += c
        total += Fraction(c, a + b)
    return f_at_one - 2 * b * total


@cache
def channel_coefficients(h_plus: int, h_minus: int, weighting: str) -> Fraction:
    """One channel's reduction constant, from the finite first-principles sums.

    (-1)^{h+ + h-} sum_{a+b>0} w(a,b) c_{a,h+} c_{b,h-}, organized through the
    generating polynomial F and, for the odd weighting, the exactly integrated
    tails G_b(1). Cached: every caller asks for a few small weight pairs many
    times, and the Fraction result is immutable.
    """
    if h_plus < 1 or h_minus < 1:
        raise DegenerateParameterError("only chiral dimensions h >= 1 occur")
    sign = Fraction(-1) ** (h_plus + h_minus)
    f_plus_one = sum(reduction_coefficient(a, h_plus) for a in range(h_plus))
    f_minus_one = sum(reduction_coefficient(b, h_minus) for b in range(h_minus))
    if weighting == "B":
        return sign * (f_plus_one * f_minus_one - 1)
    if weighting == "H":
        total = f_plus_one - 1  # the b = 0, a >= 1 row has weight 1
        for b in range(1, h_minus):
            cb = reduction_coefficient(b, h_minus)
            if cb != 0:
                total += cb * weighted_tail_at_one(h_plus, b)
        return sign * total
    raise ValueError(f"unknown weighting {weighting!r}")


class ReferenceFourPoint(NamedTuple):
    """The universal 4-point function every two-channel reduction lands on,
    by its plus chirality; the minus one has the same form in h- and h'-."""

    h_plus: int
    h_plus_prime: int

    def chiral_exponents(self) -> dict:
        h, hp = self.h_plus, self.h_plus_prime
        # x34^{h + h' - 3} / ((x-x3)^h (x-x4)^h (x3-x')^{h'} (x4-x')^{h'})
        # on points (x, x3, x4, x') labeled 1 < 2 < 3 < 4
        return {
            (2, 3): Fraction(h + hp - 3),
            (1, 2): Fraction(-h),
            (1, 3): Fraction(-h),
            (2, 4): Fraction(-hp),
            (3, 4): Fraction(-hp),
        }


def reduction_order(h_plus: int, h_minus: int, h_plus_prime: int, h_minus_prime: int) -> int:
    """The highest series order reduce_sixpoint reads: c_{a,h} vanishes for
    a >= h, so only terms with a < h+, b < h-, c < h'+, d < h'- count."""
    return h_plus + h_minus + h_plus_prime + h_minus_prime - 4


def reduce_sixpoint(
    structure2d, h_plus: int, h_minus: int, h_plus_prime: int, h_minus_prime: int
) -> tuple[Fraction, ReferenceFourPoint]:
    """Reduce a restricted structure in both outer channels, term by term.

    structure2d is the structure's double-chiral series (exponents of
    u+, u-, u'+, u'-). Each term collapses through the per-term identity with
    coefficient (-1)^{h-1} c_{a,h} per chirality and channel, always onto the
    same reference 4-point function; the finite resummation is the returned
    scalar. The series cap must cover the support a < h+, b < h-, etc., up to
    reduction_order.
    """
    for hh in (h_plus, h_minus, h_plus_prime, h_minus_prime):
        if hh < 1:
            raise DegenerateParameterError("only chiral dimensions h >= 1 occur")
    needed = reduction_order(h_plus, h_minus, h_plus_prime, h_minus_prime)
    if structure2d.cap < needed:
        raise ValueError(
            f"series cap {structure2d.cap} too small; need at least {needed}"
        )
    sign = (-1) ** (h_plus + h_minus + h_plus_prime + h_minus_prime)
    total = 0  # on the series' int numerators, over its denominator
    for (a, b, c, d), w in structure2d.terms.items():
        if a >= h_plus or b >= h_minus or c >= h_plus_prime or d >= h_minus_prime:
            continue
        total += w * (
            reduction_coefficient(a, h_plus)
            * reduction_coefficient(b, h_minus)
            * reduction_coefficient(c, h_plus_prime)
            * reduction_coefficient(d, h_minus_prime)
        )
    ref = ReferenceFourPoint(h_plus, h_plus_prime)
    return Fraction(sign * total, structure2d.den), ref

