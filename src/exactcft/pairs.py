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
from .poly import MultiPoly, SparseSum
from .special import format_rational

Pair = tuple[int, int]
ExpKey = tuple[tuple[Pair, Fraction], ...]


def _norm_exps(exps: Mapping[Pair, Fraction]) -> ExpKey:
    out = []
    for (i, j), e in exps.items():
        if i >= j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        e = Fraction(e)
        if e != 0:
            out.append(((i, j), e))
    return tuple(sorted(out))


def _bump(key: ExpKey, add: Mapping[Pair, Fraction]) -> ExpKey:
    """Exponent key of the monomial key times prod x_pr^add[pr]."""
    cur = dict(key)
    for pr, e in add.items():
        pr = tuple(pr)
        e = cur.get(pr, Fraction(0)) + Fraction(e)
        if e:
            cur[pr] = e
        else:
            cur.pop(pr, None)
    return tuple(sorted(cur.items()))


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
        return cls(points, {_norm_exps(exps): Fraction(coeff)}, antisym)

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
            res.add_term(_bump(key, exps), c * coeff)
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

    def _z_poly(self, terms: Mapping[ExpKey, Fraction], rebase: bool = True) -> MultiPoly:
        """Expand an integer-class group in adjacent-difference coordinates.

        With rebase=True a common monomial is cleared first so all relative
        exponents are non-negative; zeroness and ratios are unaffected. With
        rebase=False the exponents must already be non-negative integers.
        """
        pts = self.points
        zvars = tuple(f"z{k}" for k in range(1, len(pts)))
        idx = {p: k for k, p in enumerate(pts)}

        # Per pair: min exponent across terms, treating absence as 0. A pair
        # with fractional exponents appears in every term of the class, so the
        # relative exponents below always come out as non-negative integers.
        dicts = [dict(key) for key in terms]
        base: dict[Pair, Fraction] = {}
        if rebase:
            for d in dicts:
                for pr in d:
                    base.setdefault(pr, None)
            for pr in base:
                present = [d[pr] for d in dicts if pr in d]
                m = min(present)
                if len(present) < len(dicts):
                    m = min(m, Fraction(0))
                base[pr] = m

        chain_cache: dict[tuple[Pair, int], MultiPoly] = {}

        def chain_power(pr: Pair, n: int) -> MultiPoly:
            got = chain_cache.get((pr, n))
            if got is not None:
                return got
            a, b = idx[pr[0]], idx[pr[1]]
            # x_{p_a} - x_{p_b} = z_a + z_{a+1} + ... + z_{b-1}
            lin = MultiPoly(
                zvars,
                {
                    tuple(1 if k == m else 0 for k in range(len(zvars))): Fraction(1)
                    for m in range(a, b)
                },
            )
            val = lin**n
            chain_cache[(pr, n)] = val
            return val

        one = MultiPoly.constant(zvars, 1)
        total = MultiPoly(zvars)
        for key, c in terms.items():
            exps = dict(key)
            term_poly = one
            for pr in set(exps) | set(base):
                rel = exps.get(pr, Fraction(0)) - base.get(pr, Fraction(0))
                if rel.denominator != 1 or rel < 0:
                    raise ConsistencyError(
                        "relative exponent within a class must be a non-negative integer"
                    )
                if rel:
                    term_poly = term_poly * chain_power(pr, int(rel))
            total.add_scaled(term_poly, c)
        return total

    def _z_poly_literal(self, exps: Mapping[Pair, Fraction]) -> MultiPoly:
        """Expand one monomial with non-negative integer exponents, as given."""
        group = {tuple(sorted((pr, Fraction(e)) for pr, e in exps.items() if e != 0)): Fraction(1)}
        return self._z_poly(group, rebase=False)

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
            # expand with a shared base by building both polys over the union support
            union: dict[ExpKey, Fraction] = {k: Fraction(0) for k in set(t1) | set(t2)}
            p1 = self._z_poly({**union, **t1})
            p2 = self._z_poly({**union, **t2})
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
    polynomial in the point coordinates themselves (usually a constant).
    """

    __slots__ = ("numerator", "pair_factors")

    def __init__(
        self,
        pair_factors: Mapping[Pair, Fraction],
        numerator: MultiPoly | Fraction | int = 1,
    ):
        self.pair_factors: dict[Pair, Fraction] = {}
        for (i, j), e in pair_factors.items():
            if i >= j:
                raise ValueError(f"pair must be ordered, got ({i},{j})")
            e = Fraction(e)
            if e != 0:
                self.pair_factors[(i, j)] = e
        if isinstance(numerator, MultiPoly):
            self.numerator = numerator
        else:
            self.numerator = MultiPoly.constant((), Fraction(numerator))

    def constant_numerator(self) -> Fraction:
        if self.numerator.variables == ():
            return self.numerator.coefficient(())
        if self.numerator.total_degree() <= 0:
            exps = (0,) * len(self.numerator.variables)
            return self.numerator.coefficient(exps)
        raise ValueError("numerator is not constant")

    def exponent(self, pair: Pair) -> Fraction:
        return self.pair_factors.get(tuple(pair), Fraction(0))

    def to_pair_sum(self, points: Iterable[int], antisym: bool = True) -> PairSum:
        return PairSum.monomial(points, self.constant_numerator(), self.pair_factors, antisym)

    def to_json(self) -> dict:
        return {
            "numerator": format_rational(self.constant_numerator()),
            "factors": {
                f"{i},{j}": format_rational(e)
                for (i, j), e in sorted(self.pair_factors.items())
            },
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredLaurent):
            return NotImplemented
        return (
            self.pair_factors == other.pair_factors
            and self.constant_numerator() == other.constant_numerator()
        )

    def __repr__(self) -> str:
        mono = " ".join(
            f"x{i}{j}^{format_rational(e)}"
            for (i, j), e in sorted(self.pair_factors.items())
        )
        return f"{format_rational(self.constant_numerator())}*[{mono or '1'}]"


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
        return cls(points, {(_norm_exps(exps_plus), _norm_exps(exps_minus)): Fraction(coeff)})

    def _empty(self) -> "TwoChiralSum":
        return TwoChiralSum(self.points)

    def _coerce(self, other: "TwoChiralSum") -> "TwoChiralSum":
        if self.points != other.points:
            raise ValueError("point sets differ")
        return other

    def mul_monomial(self, coeff, exps_plus: Mapping[Pair, Fraction], exps_minus: Mapping[Pair, Fraction]) -> "TwoChiralSum":
        coeff = Fraction(coeff)
        res = self._empty()
        for (kp, km), c in self.terms.items():
            res.add_term((_bump(kp, exps_plus), _bump(km, exps_minus)), c * coeff)
        return res

    def is_zero_function(self) -> bool:
        """Exact test of sum_t c_t A_t(z+) B_t(z-) = 0.

        Expand the minus side per term, take a basis of the span of its
        coefficient vectors over the term index, then require each basis
        combination of plus sides to be the zero polynomial. Complete proof,
        no sampling.
        """
        if not self.terms:
            return True
        items = sorted(self.terms.items())
        coeffs = [c for _, c in items]
        keysP = [k[0] for k, _ in items]
        keysM = [k[1] for k, _ in items]
        helper = PairSum(self.points)

        def expand(keys: list[ExpKey]) -> list[MultiPoly]:
            base: dict[Pair, Fraction] = {}
            for key in keys:
                seen = dict(key)
                for pr in set(base) | set(seen):
                    base[pr] = min(base.get(pr, Fraction(0)), seen.get(pr, Fraction(0)))
            polys = []
            for key in keys:
                shifted = {k: Fraction(0) for k in base}
                shifted.update(dict(key))
                rel = {pr: shifted.get(pr, Fraction(0)) - base[pr] for pr in base}
                polys.append(helper._z_poly_literal(rel))
            return polys

        polysM = expand(keysM)
        polysP = expand(keysP)

        # rows: for each minus-monomial, the vector of its coefficients per term
        rows: dict[tuple[int, ...], list[Fraction]] = {}
        for t, poly in enumerate(polysM):
            for exps, c in poly.terms.items():
                rows.setdefault(exps, [Fraction(0)] * len(items))[t] = c
        zvars = tuple(f"z{k}" for k in range(1, len(self.points)))
        for lam in row_basis(list(rows.values())):
            acc = MultiPoly(zvars)
            for c, w, poly in zip(coeffs, lam, polysP):
                acc.add_scaled(poly, c * w)
            if not acc.is_zero():
                return False
        return True

    def __repr__(self) -> str:
        bits = []
        for (kp, km), c in sorted(self.terms.items()):
            p = " ".join(f"x{i}{j}+^{e}" for (i, j), e in kp) or "1"
            m = " ".join(f"x{i}{j}-^{e}" for (i, j), e in km) or "1"
            bits.append(f"{format_rational(c)}*[{p}][{m}]")
        return " + ".join(bits) if bits else "0"
