"""Multivariate formal power series truncated at a total-degree cap.

The cap is a hard ceiling across all series variables: sums and products
take the smaller cap of the two operands and drop every term past it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .poly import MultiPoly, _product_terms


class TruncatedSeries(MultiPoly):
    """A MultiPoly that never holds a term of total order above its cap."""

    __slots__ = ("cap",)

    def __init__(
        self,
        variables: Iterable[str],
        cap: int,
        terms: Mapping[tuple[int, ...], Fraction] | None = None,
    ):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        self.cap = cap
        super().__init__(variables, terms)
        if terms:
            self.terms = {e: c for e, c in self.terms.items() if sum(e) <= cap}

    @classmethod
    def constant(cls, variables: Iterable[str], cap: int, value) -> "TruncatedSeries":
        variables = tuple(variables)
        return cls(variables, cap, {(0,) * len(variables): value})

    @classmethod
    def from_coefficients(
        cls, variables: Iterable[str], cap: int, coeff: Callable[[tuple[int, ...]], Fraction]
    ) -> "TruncatedSeries":
        """sum coeff(e) * x^e over every exponent tuple e of total order <= cap,
        each met once, in lex order. Stars and bars: nv bars among cap + nv
        slots, the gaps between them read off as the exponents."""
        out = cls(variables, cap)
        nv = len(out.variables)
        for bars in combinations(range(cap + nv), nv):
            exps = tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))
            c = coeff(exps)
            if c:
                out.terms[exps] = Fraction(c)
        return out

    def _empty(self) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, self.cap)

    def _start(self, other) -> "TruncatedSeries":
        return self.truncate(min(self.cap, self._coerce(other).cap))

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.cap == other.cap and super().__eq__(other)
        return NotImplemented

    def add_scaled(self, other, factor=1) -> "TruncatedSeries":
        """In place: self += other * factor, at the smaller of the two caps."""
        other = self._coerce(other)
        if other.cap < self.cap:
            self.cap = other.cap
            self.terms = {e: c for e, c in self.terms.items() if sum(e) <= self.cap}
        elif other.cap > self.cap:
            other = other.truncate(self.cap)
        return super().add_scaled(other, factor)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        out = TruncatedSeries(self.variables, min(self.cap, other.cap))
        out.terms = _product_terms(self.terms, other.terms, out.cap)
        return out

    __rmul__ = __mul__

    def truncate(self, cap: int) -> "TruncatedSeries":
        out = TruncatedSeries(self.variables, cap)
        out.terms = {e: c for e, c in self.terms.items() if sum(e) <= cap}
        return out

    def differentiate(self, name: str) -> "TruncatedSeries":
        """Partial derivative in one variable. The unknown terms past the cap
        reach order cap in it, so it is exact only through cap - 1, its cap."""
        return TruncatedSeries(self.variables, self.cap - 1, super().differentiate(name).terms)

    def map_coefficients(self, fn) -> "TruncatedSeries":
        out = self._empty()
        for e, c in self.terms.items():
            v = fn(e, c)
            if v != 0:
                out.terms[e] = v
        return out

    def __repr__(self) -> str:
        tail = f"O(^{self.cap + 1})"
        return tail if not self.terms else f"{super().__repr__()} + {tail}"
