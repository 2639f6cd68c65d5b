"""Sparse sums over exact rationals, and multivariate polynomials on top.

One number representation: a sum holds int numerators in ``terms`` over one
positive int ``den``, canonical (no zero numerator, gcd(den, *numerators) = 1,
den = 1 when empty) through the one normaliser ``SparseSum.set_ints``, which
every write to ``terms`` goes through. Fractions meet the ints in two places
only: values handed in (the constructors and ``set_values`` scale them once
to their least common denominator) and one value read out (``coefficient``,
iteration, ``sorted_terms`` and ``repr``; ``to_json`` formats each numerator
over den directly). In between, products and combinations are int
multiply-accumulate loops (_int_product, _int_combination), and a loop that
adds term by term fixes its denominator first and normalises once.

Polynomial terms are keyed by exponent tuples; iteration and serialization
follow graded-lexicographic order so output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import NegativeExponentError, VariableMismatchError
from .special import format_ratio, format_rational


def _rational(x):
    """x as an int or a Fraction, the two types with .numerator and .denominator."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _int_product(left: Mapping, right: Mapping) -> dict:
    """The product of two int dicts keyed by exponent tuples, as an int dict;
    cancelled keys may hold 0."""
    out: dict = {}
    get = out.get
    rows = list(right.items())
    for e1, a in left.items():
        for e2, b in rows:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + a * b
    return out


def _int_combination(parts, nums: Mapping) -> dict:
    """sum nums[k] * parts[k] over ints, as an int dict; cancelled keys may hold 0."""
    acc: dict = {}
    get = acc.get
    for k, n in nums.items():
        if n:
            for e, c in parts[k].items():
                acc[e] = get(e, 0) + n * c
    return acc


class SparseSum:
    """A finite sum of coefficient * basis element over exact rationals, as
    int numerators ``terms`` over ``den`` (see the module docstring).

    Only call the in-place methods (``set_*``, ``add_*``) on a sum the caller
    has just built, never on an argument or a cached object. Each subclass
    gives the keys a meaning through ``_empty`` (a zero in the same space)
    and ``_coerce`` (the compatibility check on the other operand).
    """

    __slots__ = ("terms", "den")

    def set_ints(self, nums: Mapping, den: int = 1):
        """In place: self = nums / den, for int numerators and a nonzero int
        den. The one normaliser: zeros drop, and den and the numerators are
        divided by their gcd, taken with the sign of den. Returns self."""
        nums = {k: n for k, n in nums.items() if n}
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
        self.terms, self.den = nums, den
        return self

    def set_values(self, items: Iterable):
        """In place: self = the sum of the (key, rational) pairs, each scaled
        to their least common denominator once. Returns self."""
        items = [(k, _rational(v)) for k, v in items]
        den = lcm(*(v.denominator for _, v in items))
        nums: dict = {}
        for k, v in items:
            nums[k] = nums.get(k, 0) + v.numerator * (den // v.denominator)
        return self.set_ints(nums, den)

    def add_scaled(self, other, factor=1):
        """In place: self += other * factor (other is not self), over the lcm of
        the two denominators. Returns self."""
        other = self._coerce(other)
        f = _rational(factor)
        if not (f and other.terms):
            return self
        oden = other.den * f.denominator
        den = lcm(self.den, oden)
        m, k = den // self.den, den // oden * f.numerator
        nums = {key: n * m for key, n in self.terms.items()}
        get = nums.get
        for key, n in other.terms.items():
            nums[key] = get(key, 0) + n * k
        return self.set_ints(nums, den)

    def add_combination(self, parts: Mapping, weights: Mapping):
        """In place: self += sum weights[k] * parts[k] over sums parts[k] in
        self's space (keys alike: a PairSum part over self's exp_den), on ints
        over one denominator fixed first. Returns self."""
        weights = {k: _rational(w) for k, w in weights.items() if w}
        scale = {k: parts[k].den * w.denominator for k, w in weights.items()}
        den = lcm(self.den, *scale.values())
        nums = {k: w.numerator * (den // scale[k]) for k, w in weights.items()}
        acc = _int_combination({k: self._coerce(parts[k]).terms for k in nums}, nums)
        get = acc.get
        m = den // self.den
        for key, n in self.terms.items():
            acc[key] = get(key, 0) + n * m
        return self.set_ints(acc, den)

    def __add__(self, other):
        return self._empty().set_ints(self.terms, self.den).add_scaled(other)

    def __sub__(self, other):
        return self._empty().set_ints(self.terms, self.den).add_scaled(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        f = _rational(factor)
        return self._empty().set_ints({k: n * f.numerator for k, n in self.terms.items()},
                                      self.den * f.denominator)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


class MultiPoly(SparseSum):
    """Polynomial in named variables with rational coefficients."""

    __slots__ = ("variables",)

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise VariableMismatchError(f"duplicate variable names in {self.variables}")
        nv = len(self.variables)
        items = []
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nv:
                raise VariableMismatchError(
                    f"exponent tuple {exps} does not match {nv} variables"
                )
            if any(e < 0 for e in exps):
                raise NegativeExponentError(f"negative exponent in {exps}")
            items.append((exps, coeff))
        self.set_values(items)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables: Iterable[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: 1})

    # -- basics -------------------------------------------------------

    def _empty(self) -> "MultiPoly":
        return MultiPoly(self.variables)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return (
                type(self) is type(other)
                and self.variables == other.variables
                and self.den == other.den
                and self.terms == other.terms
            )
        if isinstance(other, (int, Fraction)):
            return self == self._coerce(other)
        return NotImplemented

    def _grlex(self) -> list[tuple[int, ...]]:
        # graded lex as two sorts with C-level keys: lex order, then stably by degree
        return sorted(sorted(self.terms), key=sum)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        den = self.den
        return [(exps, Fraction(self.terms[exps], den)) for exps in self._grlex()]

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self.sorted_terms())

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return Fraction(self.terms.get(tuple(exps), 0), self.den)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        """other as an element of self's ring: same variables, or a constant."""
        if isinstance(other, MultiPoly):
            if type(other) is not type(self):
                raise VariableMismatchError(
                    f"cannot combine {type(self).__name__} with {type(other).__name__}"
                )
            if other.variables != self.variables:
                raise VariableMismatchError(
                    f"variable sets differ: {self.variables} vs {other.variables}"
                )
            return other
        return self._empty().set_values((((0,) * len(self.variables), other),))

    __add__ = __radd__ = SparseSum.__add__

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        return self._empty().set_ints(_int_product(self.terms, other.terms), self.den * other.den)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------

    def differentiate(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to one variable; lowering one
        exponent is injective on the surviving terms, so no two meet."""
        idx = self.variables.index(name)
        return self._empty().set_ints(
            {e[:idx] + (k - 1,) + e[idx + 1 :]: n * k for e, n in self.terms.items() if (k := e[idx])},
            self.den,
        )

    # -- presentation ---------------------------------------------------

    def to_json(self) -> list[dict]:
        terms, den = self.terms, self.den
        return [{"exponents": list(e), "coeff": format_ratio(terms[e], den)} for e in self._grlex()]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            )
            if mono:
                bits.append(f"{format_rational(c)}*{mono}" if c != 1 else mono)
            else:
                bits.append(format_rational(c))
        return " + ".join(bits)
