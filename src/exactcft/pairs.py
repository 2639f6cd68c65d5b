"""Sums of monomials in point-pair differences, with exact function-level
equality testing.

A term is coeff * prod x_{ij}^{e_ij} over normalized pairs i < j of integer
point labels. Exponents may be non-integer rationals (kept symbolic, never
expanded). Products of pair powers are linearly dependent as functions
(x13 = x12 + x23): one exact int value per integer-exponent class can prove a
sum nonzero, and identities expand the classes in adjacent differences exactly.

Exponent keys are integers. A PairSum holds one positive denominator ``den``
for all its terms, and the key of a term is the sorted tuple of
((i, j), n) with n/den the exponent of x_ij, zero exponents dropped, so dict
access hashes only ints. ``den`` is a common denominator, not always the
least one: adding a sum over another denominator moves both to their lcm.
Over one positive denominator numerators sort as the exponents do, so sorted
keys, iteration, ``to_json`` and ``repr`` follow the order of the rational
exponents, which they read back as Fractions. Every ``.terms`` value is a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import lcm, prod
from typing import Iterable, Iterator, Mapping

from .errors import ConsistencyError, SingularDiagonalError
from .poly import SparseSum, _combination_terms, _int_numerators, _int_product
from .special import format_rational

Pair = tuple[int, int]
# ((i, j), numerator) per pair with a nonzero exponent, sorted; the
# denominator is the owning sum's
ExpKey = tuple[tuple[Pair, int], ...]


def norm_exps(exps: Mapping[Pair, Fraction]) -> tuple[int, ExpKey]:
    """(den, key) of prod x_pr^exps[pr]: den is the least common denominator
    of the exponents and key their numerators over den, sorted, zero
    exponents dropped."""
    fracs = {}
    for (i, j), e in exps.items():
        if i >= j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        fracs[(i, j)] = Fraction(e)
    den = lcm(*(e.denominator for e in fracs.values()))
    return den, tuple(
        sorted((pr, e.numerator * (den // e.denominator)) for pr, e in fracs.items() if e)
    )


def bump(key: ExpKey, add: Mapping[Pair, int], times: int = 1) -> ExpKey:
    """Key of the monomial key times (prod x_pr^add[pr])^times, with add's
    numerators over the same denominator as key's."""
    cur = dict(key)
    for pr, e in add.items():
        e = cur.get(pr, 0) + e * times
        if e:
            cur[pr] = e
        else:
            cur.pop(pr, None)
    return tuple(sorted(cur.items()))


def _offsets(keys: Iterable[ExpKey], den: int) -> list[dict[Pair, int]]:
    """Per key (numerators over den), its integer exponent on each pair above
    one shared base, zero offsets dropped.

    The base takes per pair the least exponent across keys, absence counting
    as 0, and every monomial is divided by it: a common factor changes
    neither zeroness nor any linear relation among the monomials. Keys that
    agree modulo integers on every pair (a pair with a fractional exponent
    then appears in every key) leave non-negative integer offsets.
    """
    dicts = [dict(key) for key in keys]
    base = {pr: min(d.get(pr, 0) for d in dicts) for pr in {pr for d in dicts for pr in d}}
    out = []
    for d in dicts:
        rel = {}
        for pr, b in base.items():
            e = d.get(pr, 0)
            r, frac = divmod(e - b, den)
            if frac:
                raise ConsistencyError(f"pair {pr}: exponent {e}/{den} is not an integer away "
                                       f"from the class base {b}/{den}")
            if r:
                rel[pr] = r
        out.append(rel)
    return out


def _pair_values(points: tuple[int, ...]) -> dict[Pair, int]:
    """x_{p_a p_b} = z_a + ... + z_{b-1} at the fixed point z_k = k^2 + k + 41
    (k = 0, 1, ...): positive and distinct, so no pair difference vanishes."""
    at = list(accumulate((k * k + k + 41 for k in range(len(points) - 1)), initial=0))
    return {(p, q): at[b] - at[a] for a, p in enumerate(points) for b, q in enumerate(points) if a < b}


def _adjacent_expansions(points: tuple[int, ...], keys: Iterable[ExpKey], den: int = 1) -> list[dict]:
    """Each monomial of keys (numerators over den) over one shared base (see
    _offsets), in adjacent differences: each offset expanded through
    x_{p_a} - x_{p_b} = z_a + ... + z_{b-1} over the sorted points. Returns
    one integer-coefficient dict {z exponents: int} per key, in order.
    """
    nz = len(points) - 1
    one = {(0,) * nz: 1}
    idx = {p: k for k, p in enumerate(points)}
    powers: dict[tuple[Pair, int], dict] = {}

    def power(pr: Pair, n: int) -> dict:
        if (pr, n) not in powers:
            chain = {tuple(int(k == m) for k in range(nz)): 1 for m in range(idx[pr[0]], idx[pr[1]])}
            powers[pr, n] = one if n == 0 else _int_product(power(pr, n - 1), chain)
        return powers[pr, n]

    return [reduce(_int_product, (power(pr, r) for pr, r in rel.items()), one) for rel in _offsets(keys, den)]


def _class_polys(points: tuple[int, ...], t1: dict, t2: dict, den: int) -> tuple[dict, dict]:
    """Two term dicts of one class (numerators over den) as polynomials in
    adjacent differences, {z exponents: Fraction}, over the base of their union."""
    union = list(t1.keys() | t2.keys())
    parts = dict(zip(union, _adjacent_expansions(points, union, den)))
    return _combination_terms(parts, t1), _combination_terms(parts, t2)


class PairSum(SparseSum):
    """Finite sum of pair-difference monomials over a fixed point set, with
    exponent numerators over the common denominator den."""

    __slots__ = ("points", "antisym", "den")

    def __init__(
        self,
        points: Iterable[int],
        terms: Mapping[ExpKey, Fraction] | None = None,
        antisym: bool = True,
        den: int = 1,
    ):
        self.points: tuple[int, ...] = tuple(sorted(points))
        self.antisym = antisym
        self.den = den
        self.terms: dict[ExpKey, Fraction] = {}
        if terms:
            pts = set(self.points)
            for key, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                for (i, j), _ in key:
                    if i not in pts or j not in pts:
                        raise ValueError(f"pair ({i},{j}) outside points {self.points}")
                self.add_term(key, c)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, points: Iterable[int], antisym: bool = True) -> "PairSum":
        return cls(points, None, antisym)

    @classmethod
    def monomial(
        cls,
        points: Iterable[int],
        coeff,
        exps: Mapping[Pair, Fraction],
        antisym: bool = True,
    ) -> "PairSum":
        den, key = norm_exps(exps)
        return cls(points, {key: Fraction(coeff)}, antisym, den)

    # -- iteration ------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[Fraction, dict[Pair, Fraction]]]:
        den = self.den
        for key in sorted(self.terms):
            yield self.terms[key], {pr: Fraction(e, den) for pr, e in key}

    # -- arithmetic -------------------------------------------------------

    def _empty(self) -> "PairSum":
        return PairSum(self.points, None, self.antisym, self.den)

    def _coerce(self, other: "PairSum") -> "PairSum":
        if self.points != other.points or self.antisym != other.antisym:
            raise ValueError("PairSum operands live on different point sets")
        return other

    def _rescaled(self, den: int) -> "PairSum":
        """self with its numerators over den, a multiple of self.den."""
        if den == self.den:
            return self
        m = den // self.den
        out = PairSum(self.points, None, self.antisym, den)
        out.terms = {tuple([(pr, e * m) for pr, e in key]): c for key, c in self.terms.items()}
        return out

    def add_scaled(self, other: "PairSum", factor=1) -> "PairSum":
        """In place: self += other * factor, over the lcm of both denominators."""
        other = self._coerce(other)
        if other.den != self.den:
            den = lcm(self.den, other.den)
            self.terms, self.den = self._rescaled(den).terms, den
            other = other._rescaled(den)
        return super().add_scaled(other, factor)

    def mul_monomial(self, coeff, exps: Mapping[Pair, Fraction]) -> "PairSum":
        coeff = Fraction(coeff)
        d, add = norm_exps(exps)
        den = lcm(self.den, d)
        add = {pr: e * (den // d) for pr, e in add}
        base = self._rescaled(den)
        res = base._empty()
        for key, c in base.terms.items():
            res.add_term(bump(key, add), c * coeff)
        return res

    def __mul__(self, other: "PairSum") -> "PairSum":
        self._coerce(other)
        res = self._empty()
        for c, exps in other:
            res.add_scaled(self.mul_monomial(c, exps))
        return res

    # -- calculus ---------------------------------------------------------

    def differentiate(self, point: int) -> "PairSum":
        """d/dx_point, with x_ij = x_i - x_j. The factor +-e/den of a term
        stays an int over den until it joins the coefficient in one Fraction."""
        den = self.den
        res = self._empty()
        for key, c in self.terms.items():
            for at, ((i, j), e) in enumerate(key):
                if point == i:
                    factor = e
                elif point == j:
                    factor = -e
                else:
                    continue
                # the pair keeps its place in the sorted key
                lowered = (((i, j), e - den),) if e != den else ()
                res.add_term(key[:at] + lowered + key[at + 1 :],
                             Fraction(c.numerator * factor, c.denominator * den))
        return res

    def merge_adjacent(self, i: int) -> "PairSum":
        """Evaluate x_{i+1} -> x_i; point i+1 leaves the point set.

        Terms carrying a positive power of x_{i,i+1} vanish; a surviving
        negative power means the diagonal limit is singular. No pair flips
        order: a pair (a, i+1) has a < i, and a pair (i+1, b) has b > i.
        """
        j = i + 1
        if i not in self.points or j not in self.points:
            raise ValueError(f"points {i},{j} not both present")
        res = PairSum([p for p in self.points if p != j], None, self.antisym, self.den)
        for key, c in self.terms.items():
            merged: dict[Pair, int] = {}
            e_diag = 0
            for (a, b), e in key:
                if (a, b) == (i, j):
                    e_diag = e
                else:
                    pr = (i if a == j else a, i if b == j else b)
                    merged[pr] = merged.get(pr, 0) + e
            if e_diag > 0:
                continue
            if e_diag < 0:
                raise SingularDiagonalError(
                    f"x_{i}{j}^{Fraction(e_diag, self.den)} survives the diagonal limit"
                    " (pole bound violated)"
                )
            res.add_term(tuple(sorted((p, e) for p, e in merged.items() if e)), c)
        return res

    def relabel(self, mapping: Mapping[int, int]) -> "PairSum":
        """Rename points. Order flips pull out (-1)^e for antisymmetric pairs,
        which requires integer exponents there."""
        new_points = sorted(mapping[p] for p in self.points)
        if len(set(new_points)) != len(self.points):
            raise ValueError("relabeling must be injective")
        den = self.den
        res = PairSum(new_points, None, self.antisym, den)
        for key, c in self.terms.items():
            flips = 0
            exps: dict[Pair, int] = {}
            for (a, b), e in key:
                a2, b2 = mapping[a], mapping[b]
                if a2 > b2:
                    a2, b2 = b2, a2
                    if self.antisym:
                        if e % den:
                            raise ValueError(
                                "cannot flip a pair with non-integer exponent"
                            )
                        flips += e // den
                exps[(a2, b2)] = exps.get((a2, b2), 0) + e
            res.add_term(
                tuple(sorted((p, e) for p, e in exps.items() if e)), -c if flips % 2 else c
            )
        return res

    # -- exact function-level comparisons ----------------------------------

    def _classes(self) -> dict[tuple, dict[ExpKey, Fraction]]:
        """Group terms whose exponents agree modulo integers on every pair;
        a class is named by the fractional parts' numerators over den."""
        den = self.den
        groups: dict[tuple, dict[ExpKey, Fraction]] = {}
        for key, c in self.terms.items():
            ck = tuple((pr, e % den) for pr, e in key if e % den)
            groups.setdefault(ck, {})[key] = c
        return groups

    def is_zero_function(self) -> bool:
        """Exact. Each class is first evaluated on ints at the point of
        _pair_values, and a nonzero value proves the sum nonzero; only when
        every value vanishes are the classes expanded."""
        classes = list(self._classes().values())
        x = _pair_values(self.points)
        if any(sum(c * prod(x[pr] ** r for pr, r in rel.items())
                   for rel, c in zip(_offsets(g, self.den), _int_numerators(g)[1].values()))
               for g in classes):
            return False
        return not any(_class_polys(self.points, g, {}, self.den)[0] for g in classes)

    def proportional_to(self, other: "PairSum") -> Fraction | None:
        """Return nonzero lam with self = lam * other as functions, or None.

        Over one denominator, equal keys with one coefficient ratio decide at
        once. Otherwise each class of either sum is expanded once: lam is read
        off the first class where other's polynomial p2 is nonzero, and
        self's p1 = lam * p2 must hold in every class."""
        self._coerce(other)
        den = lcm(self.den, other.den)
        s1, s2 = self._rescaled(den), other._rescaled(den)
        if s1.terms.keys() == s2.terms.keys():
            ratios = {c / s2.terms[key] for key, c in s1.terms.items()}
            if len(ratios) == 1:
                return None if other.is_zero_function() else ratios.pop()
        g1, g2 = s1._classes(), s2._classes()
        lam = None
        for k in g2.keys() | g1.keys():
            p1, p2 = _class_polys(self.points, g1.get(k, {}), g2.get(k, {}), den)
            if lam is None and p2:
                e = next(iter(p2))
                if not (lam := p1.get(e, 0) / p2[e]):
                    return None
            if p1 != {e: lam * c for e, c in p2.items()}:
                return None
        return lam

    # -- presentation -------------------------------------------------------

    def to_json(self) -> list[dict]:
        den = self.den
        out = []
        for key in sorted(self.terms):
            out.append(
                {
                    "coeff": format_rational(self.terms[key]),
                    "factors": {f"{i},{j}": format_rational(Fraction(e, den)) for (i, j), e in key},
                }
            )
        return out

    def __repr__(self) -> str:
        sym = "x" if self.antisym else "X"
        bits = []
        for c, exps in self:
            mono = " ".join(f"{sym}{i}{j}^{format_rational(e)}" for (i, j), e in exps.items())
            bits.append(f"{format_rational(c)}*[{mono or '1'}]")
        return " + ".join(bits) if bits else "0"


class FactoredLaurent:
    """A single factored monomial: numerator * prod x_{ij}^{e_ij}.

    Pair exponents may be rational; they stay symbolic. The numerator is a
    rational constant.
    """

    __slots__ = ("numerator", "pair_factors")

    def __init__(self, pair_factors: Mapping[Pair, Fraction], numerator: Fraction | int = 1):
        den, key = norm_exps(pair_factors)
        self.pair_factors: dict[Pair, Fraction] = {pr: Fraction(e, den) for pr, e in key}
        self.numerator = Fraction(numerator)

    def to_json(self) -> dict:
        return {
            "numerator": format_rational(self.numerator),
            "factors": {
                f"{i},{j}": format_rational(e)
                for (i, j), e in sorted(self.pair_factors.items())
            },
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredLaurent):
            return NotImplemented
        return self.pair_factors == other.pair_factors and self.numerator == other.numerator

    def __repr__(self) -> str:
        mono = " ".join(
            f"x{i}{j}^{format_rational(e)}"
            for (i, j), e in sorted(self.pair_factors.items())
        )
        return f"{format_rational(self.numerator)}*[{mono or '1'}]"


class TwoChiralSum(SparseSum):
    """Finite sum c * M_plus(x_{ij,+}) * M_minus(x_{ij,-}) over one point set.

    Integer exponents only, so each side's key holds the exponents
    themselves (numerators over 1); supports the exact bilinear zero test
    used to verify 2D factorizations.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable[int]):
        self.points = tuple(sorted(points))
        self.terms: dict[tuple[ExpKey, ExpKey], Fraction] = {}

    def _empty(self) -> "TwoChiralSum":
        return TwoChiralSum(self.points)

    def _coerce(self, other: "TwoChiralSum") -> "TwoChiralSum":
        if self.points != other.points:
            raise ValueError("point sets differ")
        return other

    def is_zero_function(self) -> bool:
        """Exact test of sum_t c_t A_t(z+) B_t(z-) = 0. The chiralities are
        independent coordinates, so the minus sides move to a disjoint copy
        of the points and one PairSum is tested. Complete proof, no sampling."""
        shift = max(self.points) - min(self.points) + 1
        moved = {
            kp + tuple(((i + shift, j + shift), e) for (i, j), e in km): c
            for (kp, km), c in self.terms.items()
        }
        return PairSum(self.points + tuple(p + shift for p in self.points), moved).is_zero_function()

    def __repr__(self) -> str:
        bits = []
        for (kp, km), c in sorted(self.terms.items()):
            p = " ".join(f"x{i}{j}+^{e}" for (i, j), e in kp) or "1"
            m = " ".join(f"x{i}{j}-^{e}" for (i, j), e in km) or "1"
            bits.append(f"{format_rational(c)}*[{p}][{m}]")
        return " + ".join(bits) if bits else "0"
