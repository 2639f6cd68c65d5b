"""The six-point twist-2 structures and their two-dimensional restriction.

The 4D forms are finite signed sums of Laurent monomials in the fifteen
squared distances X_ij. Restricting to 2D substitutes X_ij by the product of
the two chiral differences; the result factors over a common prefactor into
a rational function of the four chiral cross ratios, and that factorization
is verified exactly (per-chirality expansion with the Ptolemy relation
x13 x24 = x12 x34 + x14 x23) before any series is emitted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ConsistencyError
from .pairs import PairSum, TwoChiralSum, bump, cross_ratio
from .poly import MultiPoly, _int_numerators, _over
from .series import TruncatedSeries
from .special import format_rational

POINTS = (1, 2, 3, 4, 5, 6)

# (1 - u_1)(1 - u_3) of one chirality as a pair-exponent map, each factor
# in its Ptolemy form x14 x23 / (x13 x24) and x36 x45 / (x35 x46); the two
# factors share no pair
PTOLEMY_DENOMINATOR = {
    (1, 4): 1, (2, 3): 1, (1, 3): -1, (2, 4): -1,
    (3, 6): 1, (4, 5): 1, (3, 5): -1, (4, 6): -1,
}

# common prefactor of the restricted structures:
# 1/(X12^2 X13 X24 X34 X35 X46 X56^2)
PREFACTOR_2D = {
    (1, 2): Fraction(-2),
    (1, 3): Fraction(-1),
    (2, 4): Fraction(-1),
    (3, 4): Fraction(-1),
    (3, 5): Fraction(-1),
    (4, 6): Fraction(-1),
    (5, 6): Fraction(-2),
}

SERIES_VARS = ("u_plus", "u_minus", "uprime_plus", "uprime_minus")


def _xmono(coeff, exps) -> PairSum:
    return PairSum.monomial(POINTS, coeff, exps, antisym=False)


def _antisymmetrize(s: PairSum, i: int, j: int) -> PairSum:
    swap = {p: p for p in POINTS}
    swap[i], swap[j] = j, i
    return s - s.relabel(swap)


class _SixPointStructure(NamedTuple):
    name: str
    monomials: PairSum


class SixPointStructure(_SixPointStructure):
    """A named structure in its 4D signed-monomial form (dims d = d' = 3)."""

    __slots__ = ()

    def __new__(cls, name: str, monomials: PairSum):
        if monomials.antisym:
            raise ValueError("squared-distance symbols must be unsigned")
        return super().__new__(cls, name, monomials)


def build_structure(name: str) -> SixPointStructure:
    """Fully expanded signed-monomial form of the named structure."""
    if name == "E6":
        base = (
            _xmono(1, {(1, 5): 1, (2, 6): 1, (3, 4): 1})
            + _xmono(-2, {(1, 5): 1, (2, 3): 1, (4, 6): 1})
            + _xmono(-2, {(1, 5): 1, (2, 4): 1, (3, 6): 1})
        )
        numer = _antisymmetrize(_antisymmetrize(base, 1, 2), 5, 6)
        denom = {
            (1, 2): -2,
            (1, 3): -1,
            (1, 4): -1,
            (2, 3): -1,
            (2, 4): -1,
            (3, 5): -1,
            (4, 5): -1,
            (3, 6): -1,
            (4, 6): -1,
            (5, 6): -2,
        }
        return SixPointStructure("E6", numer.mul_monomial(1, denom))
    if name == "B":
        left = _xmono(1, {(1, 4): -1, (2, 3): -1}) - _xmono(1, {(2, 4): -1, (1, 3): -1})
        right = _xmono(1, {(3, 6): -1, (4, 5): -1}) - _xmono(1, {(4, 6): -1, (3, 5): -1})
        pre = {(1, 2): -2, (3, 4): -1, (5, 6): -2}
        return SixPointStructure("B", (left * right).mul_monomial(1, pre))
    if name == "BminusHalfE":
        b = build_structure("B").monomials
        e = build_structure("E6").monomials
        return SixPointStructure("BminusHalfE", b + e.scale(Fraction(-1, 2)))
    raise ValueError(f"unknown structure {name!r}")


def _u_polynomial(name: str) -> dict[tuple[int, int, int, int], Fraction]:
    """Numerator over the denominator (1-u+)(1-u-)(1-u'+)(1-u'-), keyed by
    exponents of (u+, u-, u'+, u'-)."""
    up, um, upp, upm = (MultiPoly.var(SERIES_VARS, v) for v in SERIES_VARS)
    sums = (up + um - up * um) * (upp + upm - upp * upm)
    diffs = (up - um) * (upp - upm)
    if name == "B":
        return sums.terms
    if name == "BminusHalfE":
        return diffs.terms
    if name == "E6":
        return (sums - diffs).scale(2).terms
    raise ValueError(f"no 2D closed form registered for {name!r}")


class ChiralRestriction(NamedTuple):
    """Verified 2D form: prefactor * numerator / product of (1 - u) factors."""

    name: str
    prefactor: dict[tuple[int, int], Fraction]
    numerator: dict[tuple[int, int, int, int], Fraction]

    def series(self, cap: int) -> TruncatedSeries:
        """Expand numerator / ((1-u+)(1-u-)(1-u'+)(1-u'-)) to the cap: dividing
        by 1 - u is a running sum along u, on int numerators over one denominator,
        in lex order, which puts e - u before e."""
        den, acc = _int_numerators(self.numerator)
        acc = {e: n for e, n in acc.items() if sum(e) <= cap}
        exps = [(a, b, c, d) for a in range(cap + 1) for b in range(cap + 1 - a)
                for c in range(cap + 1 - a - b) for d in range(cap + 1 - a - b - c)]
        for i in range(4):
            for e in exps:
                if e[i] and (c := acc.get(e[:i] + (e[i] - 1,) + e[i + 1 :])):
                    acc[e] = acc.get(e, 0) + c
        out = TruncatedSeries(SERIES_VARS, cap)
        out.terms = _over(acc, den)
        return out

    def to_json(self) -> dict:
        return {
            "prefactor": {
                f"{i},{j}": format_rational(e)
                for (i, j), e in sorted(self.prefactor.items())
            },
            "numerator": [
                {"exponents": list(e), "coeff": format_rational(c)}
                for e, c in sorted(self.numerator.items())
            ],
            "denominator": "(1-u+)(1-u-)(1-u'+)(1-u'-)",
        }


def restrict_2d(structure: SixPointStructure) -> ChiralRestriction:
    """Restrict the 4D monomials to 2D and verify the closed factored form.

    The identity checked exactly, per term and across both chiralities, is

        (structure / prefactor) * (1-u+)(1-u-)(1-u'+)(1-u'-) = numerator,

    with every (1-u) written as its Ptolemy monomial x14 x23/(x13 x24).
    A nonzero remainder means the expansion went wrong somewhere.
    """
    numerator = _u_polynomial(structure.name)

    # left side minus right side, one term at a time; a 4D monomial restricts
    # to the same monomial in both chiralities
    if structure.monomials.den != 1:
        raise ValueError(f"2D restriction of {structure.name} needs integer exponents")
    shift = dict(bump(bump((), {pr: int(e) for pr, e in PREFACTOR_2D.items()}, -1),
                      PTOLEMY_DENOMINATOR))
    diff = TwoChiralSum(POINTS)
    for key, coeff in structure.monomials.terms.items():
        both = bump(key, shift)
        diff.add_term((both, both), coeff)
    u1, u3 = cross_ratio(1), cross_ratio(3)
    for (a, b, c, d), coeff in numerator.items():
        plus = bump(bump((), u1, a), u3, c)
        minus = bump(bump((), u1, b), u3, d)
        diff.add_term((plus, minus), -coeff)

    if not diff.is_zero_function():
        raise ConsistencyError(
            f"2D restriction of {structure.name} does not factor over the"
            f" common prefactor (non-factorizable remainder)"
        )
    return ChiralRestriction(structure.name, dict(PREFACTOR_2D), numerator)

