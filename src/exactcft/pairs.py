"""Sums of monomials in point-pair differences, with exact function-level
equality testing.

A term is coeff * prod x_{ij}^{e_ij} over normalized pairs i < j of integer
point labels. Exponents may be non-integer rationals (kept symbolic, never
expanded). Products of pair powers are linearly dependent as functions
(x13 = x12 + x23): one exact int value per integer-exponent class can prove a
sum nonzero, and identities expand the classes in adjacent differences exactly.

Exponent keys are integers. A PairSum holds one positive exponent
denominator ``exp_den`` for all its terms, and the key of a term is the
sorted tuple of ((i, j), n) with n/exp_den the exponent of x_ij, zero
exponents dropped, so dict access hashes only ints. ``exp_den`` is a common
denominator, not always the least one: adding a sum over another exponent
denominator moves both to their lcm. Over one positive denominator
numerators sort as the exponents do, so sorted keys, iteration, ``to_json``
and ``repr`` follow the order of the rational exponents, which they read back
as Fractions. The coefficients are int numerators over ``den``, as in every
poly.SparseSum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ConsistencyError, SingularDiagonalError
from .poly import SparseSum, _int_combination, _int_product
from .special import format_ratio, format_rational

Pair = tuple[int, int]
# ((i, j), numerator) per pair with a nonzero exponent, sorted; the
# exponent denominator is the owning sum's
ExpKey = tuple[tuple[Pair, int], ...]


def norm_exps(exps: Mapping[Pair, Fraction]) -> tuple[int, ExpKey]:
    """(exp_den, key) of prod x_pr^exps[pr]: exp_den is the least common
    denominator of the exponents and key their numerators over it, sorted,
    zero exponents dropped."""
    fracs = {}
    for (i, j), e in exps.items():
        if i >= j:
            raise ValueError(f"pair must be ordered i < j, got ({i}, {j})")
        fracs[(i, j)] = Fraction(e)
    den = lcm(*(e.denominator for e in fracs.values()))
    return den, tuple(
        sorted((pr, e.numerator * (den // e.denominator)) for pr, e in fracs.items() if e)
    )


def cross_ratio(k: int) -> dict[Pair, int]:
    """Pair exponents of u_k = x_{k,k+1} x_{k+2,k+3} / (x_{k,k+2} x_{k+1,k+3})."""
    return {(k, k + 1): 1, (k + 2, k + 3): 1, (k, k + 2): -1, (k + 1, k + 3): -1}


def monomial_keys(
    prefactor: Mapping[Pair, Fraction], generators: Sequence[Mapping[Pair, int]]
) -> tuple[int, Callable[[tuple[int, ...]], ExpKey]]:
    """(exp_den, key): key(e) is the exponent key, over exp_den, of
    prefactor * prod generators[k]^e[k] (integer generator exponents). Both are
    laid out once on the pairs they touch, in key order, so a key is a few int
    additions."""
    den, base = norm_exps(prefactor)
    base = dict(base)
    pairs = sorted(base.keys() | set().union(*generators))
    start = [base.get(pr, 0) for pr in pairs]
    offsets = [[(s, g[pr] * den) for s, pr in enumerate(pairs) if pr in g] for g in generators]

    def key(powers: tuple[int, ...]) -> ExpKey:
        exps = start.copy()
        for p, offset in zip(powers, offsets):
            if p:
                for s, e in offset:
                    exps[s] += p * e
        return tuple([(pr, e) for pr, e in zip(pairs, exps) if e])

    return den, key


def bump(key: ExpKey, add: Mapping[Pair, int]) -> ExpKey:
    """Key of the monomial key times prod x_pr^add[pr], with add's numerators
    over the same denominator as key's."""
    cur = dict(key)
    for pr, e in add.items():
        e = cur.get(pr, 0) + e
        if e:
            cur[pr] = e
        else:
            cur.pop(pr, None)
    return tuple(sorted(cur.items()))


def _offsets(keys: Iterable[ExpKey], exp_den: int) -> list[dict[Pair, int]]:
    """Per key (numerators over exp_den), its integer exponent on each pair
    above one shared base, zero offsets dropped.

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
            r, frac = divmod(e - b, exp_den)
            if frac:
                raise ConsistencyError(f"pair {pr}: exponent {e}/{exp_den} is not an integer away "
                                       f"from the class base {b}/{exp_den}")
            if r:
                rel[pr] = r
        out.append(rel)
    return out


def _pair_values(points: tuple[int, ...]) -> dict[Pair, int]:
    """x_{p_a p_b} = z_a + ... + z_{b-1} at the fixed point z_k = k^2 + k + 41
    (k = 0, 1, ...): positive and distinct, so no pair difference vanishes."""
    at = list(accumulate((k * k + k + 41 for k in range(len(points) - 1)), initial=0))
    return {(p, q): at[b] - at[a] for a, p in enumerate(points) for b, q in enumerate(points) if a < b}


def _adjacent_expansions(points: tuple[int, ...], keys: Iterable[ExpKey], exp_den: int = 1) -> list[dict]:
    """Each monomial of keys (numerators over exp_den) over one shared base
    (see _offsets), in adjacent differences: each offset expanded through
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

    return [reduce(_int_product, (power(pr, r) for pr, r in rel.items()), one) for rel in _offsets(keys, exp_den)]


def _class_polys(points: tuple[int, ...], t1: dict, t2: dict, exp_den: int) -> tuple[dict, dict]:
    """Two int dicts of one class (exponent numerators over exp_den) as
    polynomials in adjacent differences, {z exponents: int}, over the base of
    their union; cancelled keys may hold 0."""
    union = list(t1.keys() | t2.keys())
    parts = dict(zip(union, _adjacent_expansions(points, union, exp_den)))
    return _int_combination(parts, t1), _int_combination(parts, t2)


class PairSum(SparseSum):
    """Finite sum of pair-difference monomials over a fixed point set, with
    exponent numerators over the common exponent denominator exp_den."""

    __slots__ = ("points", "antisym", "exp_den")

    def __init__(
        self,
        points: Iterable[int],
        terms: Mapping[ExpKey, Fraction] | None = None,
        antisym: bool = True,
        exp_den: int = 1,
    ):
        self.points: tuple[int, ...] = tuple(sorted(points))
        self.antisym = antisym
        self.exp_den = exp_den
        terms = terms or {}
        pts = set(self.points)
        for key in terms:
            for (i, j), _ in key:
                if i not in pts or j not in pts:
                    raise ValueError(f"pair ({i},{j}) outside points {self.points}")
        self.set_values(terms.items())

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(
        cls,
        points: Iterable[int],
        coeff,
        exps: Mapping[Pair, Fraction],
        antisym: bool = True,
    ) -> "PairSum":
        exp_den, key = norm_exps(exps)
        return cls(points, {key: coeff}, antisym, exp_den)

    # -- iteration ------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[Fraction, dict[Pair, Fraction]]]:
        den, exp_den = self.den, self.exp_den
        for key in sorted(self.terms):
            yield Fraction(self.terms[key], den), {pr: Fraction(e, exp_den) for pr, e in key}

    # -- arithmetic -------------------------------------------------------

    def _empty(self) -> "PairSum":
        return PairSum(self.points, None, self.antisym, self.exp_den)

    def _like(self, nums: Mapping, den: int, points: Iterable[int] | None = None) -> "PairSum":
        """nums / den as a sum like self (on points, if given), normalised once."""
        out = PairSum(self.points if points is None else points, None, self.antisym, self.exp_den)
        return out.set_ints(nums, den)

    def _coerce(self, other: "PairSum") -> "PairSum":
        if self.points != other.points or self.antisym != other.antisym:
            raise ValueError("PairSum operands live on different point sets")
        return other

    def _rescaled(self, exp_den: int) -> "PairSum":
        """self with its exponent numerators over exp_den, a multiple of self.exp_den."""
        if exp_den == self.exp_den:
            return self
        m = exp_den // self.exp_den
        out = PairSum(self.points, None, self.antisym, exp_den)
        return out.set_ints({tuple([(pr, e * m) for pr, e in key]): n for key, n in self.terms.items()},
                            self.den)

    def add_scaled(self, other: "PairSum", factor=1) -> "PairSum":
        """In place: self += other * factor, over the lcm of both exponent denominators."""
        other = self._coerce(other)
        if other.exp_den != self.exp_den:
            exp_den = lcm(self.exp_den, other.exp_den)
            rescaled = self._rescaled(exp_den)
            self.set_ints(rescaled.terms, rescaled.den)
            self.exp_den = exp_den
            other = other._rescaled(exp_den)
        return super().add_scaled(other, factor)

    def mul_monomial(self, coeff, exps: Mapping[Pair, Fraction]) -> "PairSum":
        """self times coeff * prod x_pr^exps[pr]; the bump is injective on keys."""
        coeff = Fraction(coeff)
        d, add = norm_exps(exps)
        exp_den = lcm(self.exp_den, d)
        add = {pr: e * (exp_den // d) for pr, e in add}
        base = self._rescaled(exp_den)
        return base._like({bump(key, add): n * coeff.numerator for key, n in base.terms.items()},
                          base.den * coeff.denominator)

    def capped(self, pair: Pair, power) -> "PairSum":
        """self without the terms whose exponent on x_pair exceeds power."""
        top = power * self.exp_den
        return self._like({key: n for key, n in self.terms.items()
                           if next((e for pr, e in key if pr == pair), 0) <= top}, self.den)

    def __mul__(self, other: "PairSum") -> "PairSum":
        """The product, on ints over the lcm of both exponent denominators."""
        self._coerce(other)
        exp_den = lcm(self.exp_den, other.exp_den)
        s1, s2 = self._rescaled(exp_den), other._rescaled(exp_den)
        parts = {k2: {bump(k1, dict(k2)): n1 for k1, n1 in s1.terms.items()} for k2 in s2.terms}
        return s1._like(_int_combination(parts, s2.terms), s1.den * s2.den)

    # -- calculus ---------------------------------------------------------

    def differentiate(self, point: int) -> "PairSum":
        """d/dx_point, with x_ij = x_i - x_j. The factor +-e/exp_den of a term
        stays an int: the result is over den * exp_den."""
        exp_den = self.exp_den
        acc: dict = {}
        get = acc.get
        for key, n in self.terms.items():
            for at, ((i, j), e) in enumerate(key):
                if point == i:
                    factor = e
                elif point == j:
                    factor = -e
                else:
                    continue
                # the pair keeps its place in the sorted key
                lowered = (((i, j), e - exp_den),) if e != exp_den else ()
                new = key[:at] + lowered + key[at + 1 :]
                acc[new] = get(new, 0) + n * factor
        return self._like(acc, self.den * exp_den)

    def merge_adjacent(self, i: int) -> "PairSum":
        """Evaluate x_{i+1} -> x_i; point i+1 leaves the point set.

        Terms carrying a positive power of x_{i,i+1} vanish; a surviving
        negative power means the diagonal limit is singular. No pair flips
        order: a pair (a, i+1) has a < i, and a pair (i+1, b) has b > i.
        """
        j = i + 1
        if i not in self.points or j not in self.points:
            raise ValueError(f"points {i},{j} not both present")
        acc: dict = {}
        get = acc.get
        for key, n in self.terms.items():
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
                    f"x_{i}{j}^{Fraction(e_diag, self.exp_den)} survives the diagonal limit"
                    " (pole bound violated)"
                )
            new = tuple(sorted((p, e) for p, e in merged.items() if e))
            acc[new] = get(new, 0) + n
        return self._like(acc, self.den, [p for p in self.points if p != j])

    def relabel(self, mapping: Mapping[int, int]) -> "PairSum":
        """Rename points. Order flips pull out (-1)^e for antisymmetric pairs,
        which requires integer exponents there."""
        new_points = sorted(mapping[p] for p in self.points)
        if len(set(new_points)) != len(self.points):
            raise ValueError("relabeling must be injective")
        exp_den = self.exp_den
        acc: dict = {}
        get = acc.get
        for key, n in self.terms.items():
            flips = 0
            exps: dict[Pair, int] = {}
            for (a, b), e in key:
                a2, b2 = mapping[a], mapping[b]
                if a2 > b2:
                    a2, b2 = b2, a2
                    if self.antisym:
                        if e % exp_den:
                            raise ValueError(
                                "cannot flip a pair with non-integer exponent"
                            )
                        flips += e // exp_den
                exps[(a2, b2)] = exps.get((a2, b2), 0) + e
            new = tuple(sorted((p, e) for p, e in exps.items() if e))
            acc[new] = get(new, 0) + (-n if flips % 2 else n)
        return self._like(acc, self.den, new_points)

    # -- exact function-level comparisons ----------------------------------

    def _classes(self) -> dict[tuple, dict[ExpKey, int]]:
        """Group the int numerators of terms whose exponents agree modulo
        integers on every pair; a class is named by the fractional parts'
        numerators over exp_den."""
        exp_den = self.exp_den
        groups: dict[tuple, dict[ExpKey, int]] = {}
        for key, n in self.terms.items():
            ck = tuple((pr, e % exp_den) for pr, e in key if e % exp_den)
            groups.setdefault(ck, {})[key] = n
        return groups

    def is_zero_function(self) -> bool:
        """Exact. Each class is first evaluated on ints at the point of
        _pair_values, and a nonzero value proves the sum nonzero; only when
        every value vanishes are the classes expanded."""
        classes = list(self._classes().values())
        x = _pair_values(self.points)
        if any(sum(n * prod(x[pr] ** r for pr, r in rel.items())
                   for rel, n in zip(_offsets(g, self.exp_den), g.values()))
               for g in classes):
            return False
        return not any(any(_class_polys(self.points, g, {}, self.exp_den)[0].values()) for g in classes)

    def proportional_to(self, other: "PairSum") -> Fraction | None:
        """Return nonzero lam with self = lam * other as functions, or None.

        Over one exponent denominator, equal keys with one numerator ratio
        decide at once. Otherwise each class of either sum is expanded once:
        the int ratio p / q is read off the first class where other's
        polynomial p2 is nonzero, and q p1 = p p2 must hold in every class
        (self's p1). lam is p / q times other.den / self.den."""
        self._coerce(other)
        exp_den = lcm(self.exp_den, other.exp_den)
        s1, s2 = self._rescaled(exp_den), other._rescaled(exp_den)
        if s1.terms.keys() == s2.terms.keys() and s1.terms:
            key = next(iter(s1.terms))
            p, q = s1.terms[key], s2.terms[key]
            if all(n1 * q == p * s2.terms[k] for k, n1 in s1.terms.items()):
                return None if other.is_zero_function() else Fraction(p * s2.den, q * s1.den)
        g1, g2 = s1._classes(), s2._classes()
        ratio = None
        for k in g2.keys() | g1.keys():
            p1, p2 = _class_polys(self.points, g1.get(k, {}), g2.get(k, {}), exp_den)
            if ratio is None and any(p2.values()):
                e = next(e for e, c in p2.items() if c)
                if not p1.get(e):
                    return None
                ratio = p1[e], p2[e]
            p, q = ratio or (0, 1)
            if any(p1.get(e, 0) * q != p * p2.get(e, 0) for e in p1.keys() | p2.keys()):
                return None
        return None if ratio is None else Fraction(ratio[0] * s2.den, ratio[1] * s1.den)

    # -- presentation -------------------------------------------------------

    def to_json(self) -> list[dict]:
        den, exp_den = self.den, self.exp_den
        return [
            {
                "coeff": format_ratio(self.terms[key], den),
                "factors": {f"{i},{j}": format_ratio(e, exp_den) for (i, j), e in key},
            }
            for key in sorted(self.terms)
        ]

    def __repr__(self) -> str:
        sym = "x" if self.antisym else "X"
        bits = []
        for c, exps in self:
            mono = " ".join(f"{sym}{i}{j}^{format_rational(e)}" for (i, j), e in exps.items())
            bits.append(f"{format_rational(c)}*[{mono or '1'}]")
        return " + ".join(bits) if bits else "0"


class TwoChiralSum(SparseSum):
    """Finite sum c * M_plus(x_{ij,+}) * M_minus(x_{ij,-}) over one point set.

    Integer exponents only, so each side's key holds the exponents
    themselves (numerators over 1); supports the exact bilinear zero test
    used to verify 2D factorizations.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable[int]):
        self.points = tuple(sorted(points))
        self.set_ints({})

    def _empty(self) -> "TwoChiralSum":
        return TwoChiralSum(self.points)

    def _coerce(self, other: "TwoChiralSum") -> "TwoChiralSum":
        if self.points != other.points:
            raise ValueError("point sets differ")
        return other

    def is_zero_function(self) -> bool:
        """Exact test of sum_t c_t A_t(z+) B_t(z-) = 0. The chiralities are
        independent coordinates: each distinct A and B is expanded once, each
        side over its own base (see _offsets), and each A's polynomial times its
        int combination of B's is added on ints. Complete proof, no sampling."""
        by_plus: dict[ExpKey, dict[ExpKey, int]] = {}
        for (kp, km), n in self.terms.items():
            by_plus.setdefault(kp, {})[km] = n
        minus_keys = list({km for row in by_plus.values() for km in row})
        minus = dict(zip(minus_keys, _adjacent_expansions(self.points, minus_keys)))
        acc: dict = {}
        get = acc.get
        for pa, row in zip(_adjacent_expansions(self.points, by_plus), by_plus.values()):
            pb = [(eb, b) for eb, b in _int_combination(minus, row).items() if b]
            for ea, a in pa.items():
                for eb, b in pb:
                    acc[ea + eb] = get(ea + eb, 0) + a * b
        return not any(acc.values())
