"""Sparse sums over exact rationals, and multivariate polynomials on top.

Polynomial terms live in a dict keyed by exponent tuples; zero coefficients
are never stored, and iteration/serialization follows graded-lexicographic
order so output is deterministic.

Products and linear combinations run on integers: each operand (or the
weights) is scaled once to integer numerators over the least common
denominator of its coefficients, the multiply-accumulate loop works on Python
ints, and each output term becomes one Fraction. Exact rationals are
canonical, so the result is the one Fraction arithmetic gives. The int dicts
are private to the kernel: every ``.terms`` value of a public object is a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import NegativeExponentError, VariableMismatchError
from .special import format_rational


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _int_numerators(terms: Mapping) -> tuple[int, dict]:
    """(D, {key: n}) with terms[key] == n / D and D the least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _over(numerators: Mapping, den: int) -> dict:
    """{key: Fraction(n, den)} for every nonzero integer numerator n."""
    return {k: Fraction(n, den) for k, n in numerators.items() if n}


def _int_product(left: Mapping, right: Mapping, cap: int | None = None) -> dict:
    """The product of two int dicts keyed by exponent tuples, as an int dict.

    With a cap, only pairs of total degree <= cap contribute. Cancelled keys
    may hold 0.
    """
    out: dict = {}
    get = out.get
    rows = [(e, sum(e), c) for e, c in right.items()]
    for e1, a in left.items():
        room = inf if cap is None else cap - sum(e1)
        for e2, d2, b in rows:
            if d2 <= room:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + a * b
    return out


def _product_terms(left: Mapping, right: Mapping, cap: int | None = None) -> dict:
    """The Fraction terms of the product of two Fraction term dicts."""
    d1, a = _int_numerators(left)
    d2, b = _int_numerators(right)
    return _over(_int_product(a, b, cap), d1 * d2)


def _int_combination(parts, nums: Mapping) -> dict:
    """sum nums[k] * parts[k] over ints, as an int dict; cancelled keys may hold 0."""
    acc: dict = {}
    get = acc.get
    for k, n in nums.items():
        if n:
            for e, c in parts[k].items():
                acc[e] = get(e, 0) + n * c
    return acc


def _combination_terms(parts, weights: Mapping) -> dict:
    """The Fraction terms of sum weights[k] * parts[k] over int dicts parts[k].

    The weights are scaled once to integers over their least common
    denominator, the sum runs on ints, and each output key is divided once.
    """
    den, nums = _int_numerators(weights)
    return _over(_int_combination(parts, nums), den)


class SparseSum:
    """A finite sum of coefficient * basis element over exact rationals.

    Terms live in a dict keyed by whatever names the basis element; zero
    coefficients are never stored. ``add_term`` is the one place that prunes
    them, and ``add_scaled`` accumulates in place, so a sum built up in a loop
    costs one pass per addend instead of one copy of the whole dict. Only call
    the in-place methods on a sum the caller has just built, never on an
    argument or a cached object. Each subclass gives the keys a meaning
    through ``_empty`` (a zero in the same space) and ``_coerce`` (the
    compatibility check on the other operand).
    """

    __slots__ = ("terms",)

    def _start(self, other):
        """A fresh copy of self to accumulate other into."""
        out = self._empty()
        out.terms = dict(self.terms)
        return out

    def add_term(self, key, coeff: Fraction) -> None:
        """In place: add coeff to the coefficient of key."""
        s = self.terms.get(key, 0) + coeff
        if s:
            self.terms[key] = s
        else:
            self.terms.pop(key, None)

    def add_scaled(self, other, factor=1):
        """In place: self += other * factor (other is not self). Returns self."""
        other = self._coerce(other)
        f = Fraction(factor)
        if f:
            for key, c in other.terms.items():
                self.add_term(key, c * f)
        return self

    def __add__(self, other):
        return self._start(other).add_scaled(other)

    def __sub__(self, other):
        return self._start(other).add_scaled(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        f = Fraction(factor)
        out = self._empty()
        if f:
            out.terms = {k: c * f for k, c in self.terms.items()}
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


class MultiPoly(SparseSum):
    """Polynomial in named variables with Fraction coefficients."""

    __slots__ = ("variables",)

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise VariableMismatchError(f"duplicate variable names in {self.variables}")
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            nv = len(self.variables)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nv:
                    raise VariableMismatchError(
                        f"exponent tuple {exps} does not match {nv} variables"
                    )
                if any(e < 0 for e in exps):
                    raise NegativeExponentError(f"negative exponent in {exps}")
                self.add_term(exps, Fraction(coeff))

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
        return cls(variables, {exps: Fraction(1)})

    # -- basics -------------------------------------------------------

    def _empty(self) -> "MultiPoly":
        return MultiPoly(self.variables)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return (
                type(self) is type(other)
                and self.variables == other.variables
                and self.terms == other.terms
            )
        if isinstance(other, (int, Fraction)):
            return self == self._coerce(other)
        return NotImplemented

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        # graded lex as two sorts with C-level keys: lex order, then stably by degree
        return [(exps, self.terms[exps]) for exps in sorted(sorted(self.terms), key=sum)]

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self.sorted_terms())

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Highest term in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

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
        out = self._empty()
        out.add_term((0,) * len(self.variables), Fraction(other))
        return out

    __add__ = __radd__ = SparseSum.__add__

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = self._empty()
        out.terms = _product_terms(self.terms, self._coerce(other).terms)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise NegativeExponentError("negative power of a polynomial")
        out = self._coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus -----------------------------------------------------

    def differentiate(self, name: str) -> "MultiPoly":
        """Formal partial derivative with respect to one variable."""
        idx = self.variables.index(name)
        out = self._empty()
        for exps, c in self.terms.items():
            k = exps[idx]
            if k:
                out.add_term(exps[:idx] + (k - 1,) + exps[idx + 1 :], c * k)
        return out

    # -- presentation ---------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"exponents": list(e), "coeff": format_rational(c)}
            for e, c in self.sorted_terms()
        ]

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


def _combination_poly(variables: Iterable[str], parts, weights: Mapping) -> MultiPoly:
    """sum weights[k] * parts[k] over int dicts parts[k], as a polynomial in variables."""
    out = MultiPoly(variables)
    out.terms = _combination_terms(parts, weights)
    return out
