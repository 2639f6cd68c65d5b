"""Channel reduction of the restricted six-point structures.

Per chirality, applying the renormalized degree-h operator to one term of the
double geometric sum collapses it to a universal function of the surviving
points with an explicit rational coefficient c_{a,h} = (h)_a (1-h)_a / a!^2
(finite support: zero for a >= h). Resumming the structure's weights then
yields one number per channel; for both structures of interest the result has
a closed parity form, which the tests compare against the first-principles
finite sums computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .chiral_ops import chiral_intertwiner_normalized, reduce_correlator
from .errors import DegenerateParameterError
from .pairs import PairSum
from .poly import MultiPoly
from .special import gauss_2f1_coeff, legendre_coeffs


def reduction_coefficient(a: int, h: int) -> Fraction:
    """c_{a,h} = (h)_a (1-h)_a / a!^2."""
    if a < 0 or h < 1:
        raise ValueError("need a >= 0 and h >= 1")
    return gauss_2f1_coeff(h, 1 - h, 1, a)


def reduction_generating_poly(h: int) -> MultiPoly:
    """F(z) = sum_a c_{a,h} z^a, a polynomial of degree h - 1."""
    terms = {}
    for a in range(h):
        c = reduction_coefficient(a, h)
        if c != 0:
            terms[(a,)] = c
    return MultiPoly(("z",), terms)


def shifted_legendre(h: int) -> MultiPoly:
    """P_{h-1}(1 - 2z) as a polynomial in z."""
    z = MultiPoly.var(("z",), "z")
    arg = MultiPoly.constant(("z",), 1) - 2 * z
    out = MultiPoly(("z",))
    for p, c in legendre_coeffs(h - 1).items():
        out.add_scaled(arg**p, c)
    return out


def weighted_tail_at_one(h: int, b: int) -> Fraction:
    """G_b(1) = F(1) - 2b sum_a c_{a,h} / (a + b), by term-wise integration."""
    if b < 1:
        raise ValueError("b must be >= 1")
    total = Fraction(0)
    f_at_one = Fraction(0)
    for a in range(h):
        c = reduction_coefficient(a, h)
        f_at_one += c
        total += c / (a + b)
    return f_at_one - 2 * b * total


def structure_weight(structure: str, a: int, b: int) -> Fraction:
    """Double-sum weight of the named structure at (a, b), a + b > 0."""
    if a + b <= 0:
        raise ValueError("weights are defined for a + b > 0")
    if structure == "B":
        return Fraction(1)
    if structure == "H":
        return Fraction(a - b, a + b)
    raise ValueError(f"unknown weighting {structure!r}")


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


def channel_coefficients_direct(h_plus: int, h_minus: int, weighting: str) -> Fraction:
    """Same constant by the raw double sum; cross-check oracle."""
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


# -- the per-term identity and the reference 4-point function ----------------


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
    return reduce_correlator(target, (1, 2), op, 0, 0, premultiplied=True)


@dataclass(frozen=True)
class ReferenceFourPoint:
    """The universal 4-point function every two-channel reduction lands on."""

    h_plus: int
    h_minus: int
    h_plus_prime: int
    h_minus_prime: int

    def chiral_exponents(self, minus: bool) -> dict:
        hp = self.h_minus_prime if minus else self.h_plus_prime
        hu = self.h_minus if minus else self.h_plus
        # x34^{h + h' - 3} / ((x-x3)^h (x-x4)^h (x3-x')^{h'} (x4-x')^{h'})
        # on points (x, x3, x4, x') labeled 1 < 2 < 3 < 4
        return {
            (2, 3): Fraction(hu + hp - 3),
            (1, 2): Fraction(-hu),
            (1, 3): Fraction(-hu),
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
    sign = Fraction(-1) ** (h_plus + h_minus + h_plus_prime + h_minus_prime)
    total = Fraction(0)
    for (a, b, c, d), w in structure2d.terms.items():
        if a >= h_plus or b >= h_minus or c >= h_plus_prime or d >= h_minus_prime:
            continue
        total += (
            w
            * reduction_coefficient(a, h_plus)
            * reduction_coefficient(b, h_minus)
            * reduction_coefficient(c, h_plus_prime)
            * reduction_coefficient(d, h_minus_prime)
        )
    ref = ReferenceFourPoint(h_plus, h_minus, h_plus_prime, h_minus_prime)
    return sign * total, ref


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
