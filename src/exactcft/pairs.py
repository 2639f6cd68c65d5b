"""Sums of monomials in point-pair differences, with exact function-level
equality testing.

A term is coeff * prod x_{ij}^{e_ij} over normalized pairs i < j of integer
point labels. Exponents may be non-integer rationals (kept symbolic, never
expanded). Products of pair powers are linearly dependent as functions
(x13 = x12 + x23), so zero/equality checks expand integer-exponent classes in
adjacent-difference coordinates and compare polynomials exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import ConsistencyError, SingularDiagonalError
from .linsolve import row_basis
from .poly import MultiPoly, SparseSum, _combination_terms, _int_product
from .special import format_rational

Pair = tuple[int, int]
ExpKey = tuple[tuple[Pair, Fraction], ...]


def norm_exps(exps: Mapping[Pair, Fraction]) -> ExpKey:
    """Exponent key of prod x_pr^exps[pr]: sorted, zero exponents dropped."""
    out = []
    for (i, j), e in exps.items():
        if i >= j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        e = Fraction(e)
        if e != 0:
            out.append(((i, j), e))
    return tuple(sorted(out))


def bump(key: ExpKey, add: Mapping[Pair, Fraction], times=1) -> ExpKey:
    """Exponent key of the monomial key times (prod x_pr^add[pr])^times."""
    cur = dict(key)
    for pr, e in add.items():
        pr = tuple(pr)
        e = cur.get(pr, Fraction(0)) + Fraction(e) * times
        if e:
            cur[pr] = e
        else:
            cur.pop(pr, None)
    return tuple(sorted(cur.items()))


def _zvars(points: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(f"z{k}" for k in range(1, len(points)))


def _adjacent_expansions(points: tuple[int, ...], keys: Iterable[ExpKey]) -> list[dict]:
    """Each monomial of keys over one shared base, in adjacent differences.

    The base takes per pair the least exponent across keys, absence counting
    as 0, and every monomial is divided by it: a common factor changes
    neither zeroness nor any linear relation among the expansions. Keys that
    agree modulo integers on every pair (a pair with a fractional exponent
    then appears in every key) leave non-negative integer relative exponents,
    each expanded through x_{p_a} - x_{p_b} = z_a + ... + z_{b-1} over the
    sorted points. Returns one integer-coefficient dict {z exponents: int}
    per key, in order.
    """
    dicts = [dict(key) for key in keys]
    pairs = {pr for d in dicts for pr in d}
    base = {pr: min(d.get(pr, Fraction(0)) for d in dicts) for pr in pairs}
    nz = len(points) - 1
    one = {(0,) * nz: 1}
    idx = {p: k for k, p in enumerate(points)}
    chain_cache: dict[tuple[Pair, int], dict] = {}

    def chain_power(pr: Pair, n: int) -> dict:
        got = chain_cache.get((pr, n))
        if got is None:
            if n == 0:
                got = one
            else:
                lin = {
                    tuple(int(k == m) for k in range(nz)): 1
                    for m in range(idx[pr[0]], idx[pr[1]])
                }
                got = _int_product(chain_power(pr, n - 1), lin)
            chain_cache[(pr, n)] = got
        return got

    out = []
    for d in dicts:
        poly = one
        for pr, b in base.items():
            rel = d.get(pr, Fraction(0)) - b
            if rel.denominator != 1:
                raise ConsistencyError("relative exponent within a class must be an integer")
            if rel:
                poly = _int_product(poly, chain_power(pr, int(rel)))
        out.append(poly)
    return out


def _combination(points: tuple[int, ...], expansions, weights: Mapping) -> MultiPoly:
    """sum weights[k] * expansions[k] as a polynomial in the z variables."""
    out = MultiPoly(_zvars(points))
    out.terms = _combination_terms(expansions, weights)
    return out


def _frac_part(e: Fraction) -> Fraction:
    return e - (e.numerator // e.denominator)


class PairSum(SparseSum):
    """Finite sum of pair-difference monomials over a fixed point set."""

    __slots__ = ("points", "antisym")

    def __init__(
        self,
        points: Iterable[int],
        terms: Mapping[ExpKey, Fraction] | None = None,
        antisym: bool = True,
    ):
        self.points: tuple[int, ...] = tuple(sorted(points))
        self.antisym = antisym
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
        return cls(points, {norm_exps(exps): Fraction(coeff)}, antisym)

    # -- iteration ------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[Fraction, dict[Pair, Fraction]]]:
        for key in sorted(self.terms):
            yield self.terms[key], dict(key)

    def is_structurally_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -------------------------------------------------------

    def _empty(self) -> "PairSum":
        return PairSum(self.points, None, self.antisym)

    def _coerce(self, other: "PairSum") -> "PairSum":
        if self.points != other.points or self.antisym != other.antisym:
            raise ValueError("PairSum operands live on different point sets")
        return other

    def mul_monomial(self, coeff, exps: Mapping[Pair, Fraction]) -> "PairSum":
        coeff = Fraction(coeff)
        res = self._empty()
        for key, c in self.terms.items():
            res.add_term(bump(key, exps), c * coeff)
        return res

    def __mul__(self, other: "PairSum") -> "PairSum":
        self._coerce(other)
        res = self._empty()
        for c, exps in other:
            res.add_scaled(self.mul_monomial(c, exps))
        return res

    # -- calculus ---------------------------------------------------------

    def differentiate(self, point: int) -> "PairSum":
        """d/dx_point, with x_ij = x_i - x_j."""
        res = self._empty()
        for key, c in self.terms.items():
            exps = dict(key)
            for (i, j), e in key:
                if point == i:
                    sign = 1
                elif point == j:
                    sign = -1
                else:
                    continue
                new = dict(exps)
                new[(i, j)] = e - 1
                if new[(i, j)] == 0:
                    del new[(i, j)]
                res.add_term(tuple(sorted(new.items())), c * e * sign)
        return res

    def merge_adjacent(self, i: int) -> "PairSum":
        """Evaluate x_{i+1} -> x_i; point i+1 leaves the point set.

        Terms carrying a positive power of x_{i,i+1} vanish; a surviving
        negative power means the diagonal limit is singular.
        """
        j = i + 1
        if i not in self.points or j not in self.points:
            raise ValueError(f"points {i},{j} not both present")
        res = PairSum([p for p in self.points if p != j], None, self.antisym)
        for key, c in self.terms.items():
            exps = dict(key)
            e_diag = exps.pop((i, j), Fraction(0))
            if e_diag > 0:
                continue
            if e_diag < 0:
                raise SingularDiagonalError(
                    f"x_{i}{j}^{e_diag} survives the diagonal limit (pole bound violated)"
                )
            merged: dict[Pair, Fraction] = {}
            for (a, b), e in exps.items():
                a2 = i if a == j else a
                b2 = i if b == j else b
                if a2 == b2:
                    raise ConsistencyError("merge collapsed a non-diagonal pair")
                if a2 > b2:
                    # order flips cannot happen for adjacent merges
                    raise ConsistencyError("adjacent merge flipped a pair ordering")
                merged[(a2, b2)] = merged.get((a2, b2), Fraction(0)) + e
            res.add_term(tuple(sorted((p, e) for p, e in merged.items() if e != 0)), c)
        return res

    def relabel(self, mapping: Mapping[int, int]) -> "PairSum":
        """Rename points. Order flips pull out (-1)^e for antisymmetric pairs,
        which requires integer exponents there."""
        new_points = sorted(mapping[p] for p in self.points)
        if len(set(new_points)) != len(self.points):
            raise ValueError("relabeling must be injective")
        res = PairSum(new_points, None, self.antisym)
        for key, c in self.terms.items():
            sign = Fraction(1)
            exps: dict[Pair, Fraction] = {}
            for (a, b), e in key:
                a2, b2 = mapping[a], mapping[b]
                if a2 > b2:
                    a2, b2 = b2, a2
                    if self.antisym:
                        if e.denominator != 1:
                            raise ValueError(
                                "cannot flip a pair with non-integer exponent"
                            )
                        if e.numerator % 2:
                            sign = -sign
                exps[(a2, b2)] = exps.get((a2, b2), Fraction(0)) + e
            res.add_term(tuple(sorted((p, e) for p, e in exps.items() if e != 0)), c * sign)
        return res

    # -- exact function-level comparisons ----------------------------------

    def _classes(self) -> dict[tuple, dict[ExpKey, Fraction]]:
        """Group terms whose exponents agree modulo integers on every pair."""
        groups: dict[tuple, dict[ExpKey, Fraction]] = {}
        for key, c in self.terms.items():
            ck = tuple(
                sorted((pr, _frac_part(e)) for pr, e in key if _frac_part(e) != 0)
            )
            groups.setdefault(ck, {})[key] = c
        return groups

    def _z_poly(self, terms: Mapping[ExpKey, Fraction]) -> MultiPoly:
        """Expand an integer-class group in adjacent-difference coordinates,
        up to the common base monomial of _adjacent_expansions."""
        expansions = dict(zip(terms, _adjacent_expansions(self.points, terms)))
        return _combination(self.points, expansions, terms)

    def is_zero_function(self) -> bool:
        return all(self._z_poly(g).is_zero() for g in self._classes().values())

    def equals_function(self, other: "PairSum") -> bool:
        self._coerce(other)
        return (self - other).is_zero_function()

    def proportional_to(self, other: "PairSum") -> Fraction | None:
        """Return nonzero lam with self = lam * other as functions, or None."""
        self._coerce(other)
        g1, g2 = self._classes(), other._classes()
        lam: Fraction | None = None
        for ck in set(g1) | set(g2):
            t1 = g1.get(ck, {})
            t2 = g2.get(ck, {})
            # one expansion of the union support, weighted by each side
            union = list(set(t1) | set(t2))
            expansions = dict(zip(union, _adjacent_expansions(self.points, union)))
            p1 = _combination(self.points, expansions, t1)
            p2 = _combination(self.points, expansions, t2)
            if p2.is_zero():
                if not p1.is_zero():
                    return None
                continue
            if p1.is_zero():
                return None
            _, lc1 = p1.leading()
            _, lc2 = p2.leading()
            cand = lc1 / lc2
            if not (p1 - p2 * cand).is_zero():
                return None
            if lam is None:
                lam = cand
            elif lam != cand:
                return None
        if lam is None or lam == 0:
            return None
        return lam

    # -- presentation -------------------------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for key in sorted(self.terms):
            out.append(
                {
                    "coeff": format_rational(self.terms[key]),
                    "factors": {f"{i},{j}": format_rational(e) for (i, j), e in key},
                }
            )
        return out

    def __repr__(self) -> str:
        sym = "x" if self.antisym else "X"
        bits = []
        for key in sorted(self.terms):
            mono = " ".join(f"{sym}{i}{j}^{format_rational(e)}" for (i, j), e in key)
            bits.append(f"{format_rational(self.terms[key])}*[{mono or '1'}]")
        return " + ".join(bits) if bits else "0"


class FactoredLaurent:
    """A single factored monomial: numerator * prod x_{ij}^{e_ij}.

    Pair exponents may be rational; they stay symbolic. The numerator is a
    rational constant.
    """

    __slots__ = ("numerator", "pair_factors")

    def __init__(self, pair_factors: Mapping[Pair, Fraction], numerator: Fraction | int = 1):
        self.pair_factors: dict[Pair, Fraction] = dict(norm_exps(pair_factors))
        self.numerator = Fraction(numerator)

    def exponent(self, pair: Pair) -> Fraction:
        return self.pair_factors.get(tuple(pair), Fraction(0))

    def to_pair_sum(self, points: Iterable[int], antisym: bool = True) -> PairSum:
        return PairSum.monomial(points, self.numerator, self.pair_factors, antisym)

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

    Integer exponents only; supports the exact bilinear zero test used to
    verify 2D factorizations.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable[int], terms: Mapping[tuple[ExpKey, ExpKey], Fraction] | None = None):
        self.points = tuple(sorted(points))
        self.terms: dict[tuple[ExpKey, ExpKey], Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                for side in key:
                    for _, e in side:
                        if e.denominator != 1:
                            raise ValueError("TwoChiralSum requires integer exponents")
                self.add_term(key, c)

    @classmethod
    def monomial(cls, points, coeff, exps_plus: Mapping[Pair, Fraction], exps_minus: Mapping[Pair, Fraction]) -> "TwoChiralSum":
        return cls(points, {(norm_exps(exps_plus), norm_exps(exps_minus)): Fraction(coeff)})

    def _empty(self) -> "TwoChiralSum":
        return TwoChiralSum(self.points)

    def _coerce(self, other: "TwoChiralSum") -> "TwoChiralSum":
        if self.points != other.points:
            raise ValueError("point sets differ")
        return other

    def is_zero_function(self) -> bool:
        """Exact test of sum_t c_t A_t(z+) B_t(z-) = 0.

        Expand the minus side per term, take a basis of the span of its
        coefficient vectors over the term index, then require each basis
        combination of plus sides to be the zero polynomial. Complete proof,
        no sampling.
        """
        items = sorted(self.terms.items())
        # rows: for each minus-monomial, the vector of its coefficients per term
        rows: dict[tuple[int, ...], dict[int, int]] = {}
        minus = _adjacent_expansions(self.points, [km for (_, km), _ in items])
        for t, poly in enumerate(minus):
            for exps, c in poly.items():
                rows.setdefault(exps, {})[t] = c
        plus = _adjacent_expansions(self.points, [kp for (kp, _), _ in items])
        for lam in row_basis(list(rows.values()), len(items)):
            if _combination_terms(plus, {t: items[t][1] * w for t, w in lam.items()}):
                return False
        return True

    def __repr__(self) -> str:
        bits = []
        for (kp, km), c in sorted(self.terms.items()):
            p = " ".join(f"x{i}{j}+^{e}" for (i, j), e in kp) or "1"
            m = " ".join(f"x{i}{j}-^{e}" for (i, j), e in km) or "1"
            bits.append(f"{format_rational(c)}*[{p}][{m}]")
        return " + ".join(bits) if bits else "0"
