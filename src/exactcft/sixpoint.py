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
from .pairs import PairSum, TwoChiralSum, cross_ratio, monomial_keys
from .poly import MultiPoly
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
PREFACTOR_2D = {(1, 2): -2, (1, 3): -1, (2, 4): -1, (3, 4): -1, (3, 5): -1, (4, 6): -1, (5, 6): -2}

SERIES_VARS = ("u_plus", "u_minus", "uprime_plus", "uprime_minus")


def _xmono(coeff, exps) -> PairSum:
    return PairSum.monomial(POINTS, coeff, exps, antisym=False)


def _swap(i: int, j: int) -> dict[int, int]:
    swap = {p: p for p in POINTS}
    swap[i], swap[j] = j, i
    return swap


def _antisymmetrize(s: PairSum, i: int, j: int) -> PairSum:
    return s - s.relabel(_swap(i, j))


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


def verify_structure(structure: SixPointStructure) -> None:
    """Conformal covariance and antisymmetry of a built structure, or
    ConsistencyError: in every monomial the X exponents at each point sum to
    -3 (field dimension d = 3), and the structure changes sign under the swaps
    1 <-> 2 and 5 <-> 6, term by term."""
    s = structure.monomials
    for _, exps in s:
        for p in POINTS:
            if (w := sum(e for pr, e in exps.items() if p in pr)) != -3:
                raise ConsistencyError(f"{structure.name}: a monomial has point weight {w} at point {p}, not -3")
    for i, j in ((1, 2), (5, 6)):
        if s + s.relabel(_swap(i, j)):
            raise ConsistencyError(f"{structure.name} is not antisymmetric under {i} <-> {j}")


def _u_polynomial(name: str) -> MultiPoly:
    """Numerator over the denominator (1-u+)(1-u-)(1-u'+)(1-u'-), in the
    variables (u+, u-, u'+, u'-)."""
    up, um, upp, upm = (MultiPoly.var(SERIES_VARS, v) for v in SERIES_VARS)
    sums = (up + um - up * um) * (upp + upm - upp * upm)
    diffs = (up - um) * (upp - upm)
    if name == "B":
        return sums
    if name == "BminusHalfE":
        return diffs
    if name == "E6":
        return (sums - diffs).scale(2)
    raise ValueError(f"no 2D closed form registered for {name!r}")


class ChiralRestriction(NamedTuple):
    """Verified 2D form: prefactor * numerator / product of (1 - u) factors."""

    name: str
    prefactor: dict[tuple[int, int], int]
    numerator: MultiPoly

    def series(self, cap: int) -> TruncatedSeries:
        """Expand numerator / ((1-u+)(1-u-)(1-u'+)(1-u'-)) to the cap: dividing
        by 1 - u is a running sum along u, on the numerator's ints over its
        denominator, in lex order, which puts e - u before e."""
        acc = {e: n for e, n in self.numerator.terms.items() if sum(e) <= cap}
        exps = [(a, b, c, d) for a in range(cap + 1) for b in range(cap + 1 - a)
                for c in range(cap + 1 - a - b) for d in range(cap + 1 - a - b - c)]
        for i in range(4):
            for e in exps:
                if e[i] and (c := acc.get(e[:i] + (e[i] - 1,) + e[i + 1 :])):
                    acc[e] = acc.get(e, 0) + c
        return TruncatedSeries(SERIES_VARS, cap).set_ints(acc, self.numerator.den)

    def to_json(self) -> dict:
        return {
            "prefactor": {
                f"{i},{j}": format_rational(e)
                for (i, j), e in sorted(self.prefactor.items())
            },
            "numerator": [
                {"exponents": list(e), "coeff": format_rational(self.numerator.coefficient(e))}
                for e in sorted(self.numerator.terms)
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

    # left side minus right side, each side's ints over its own denominator;
    # a 4D monomial restricts to the same monomial in both chiralities
    monomials = structure.monomials
    if monomials.exp_den != 1:
        raise ValueError(f"2D restriction of {structure.name} needs integer exponents")
    shifted = monomials.mul_monomial(1, {pr: PTOLEMY_DENOMINATOR.get(pr, 0) - PREFACTOR_2D.get(pr, 0)
                                         for pr in PTOLEMY_DENOMINATOR.keys() | PREFACTOR_2D.keys()})
    lhs = {(k, k): n for k, n in shifted.terms.items()}
    _, key = monomial_keys({}, (cross_ratio(1), cross_ratio(3)))
    rhs = {(key((a, c)), key((b, d))): n for (a, b, c, d), n in numerator.terms.items()}
    diff = TwoChiralSum(POINTS).set_ints(lhs, shifted.den) - TwoChiralSum(POINTS).set_ints(rhs, numerator.den)

    if not diff.is_zero_function():
        raise ConsistencyError(
            f"2D restriction of {structure.name} does not factor over the"
            f" common prefactor (non-factorizable remainder)"
        )
    return ChiralRestriction(structure.name, dict(PREFACTOR_2D), numerator)

