"""Multivariate formal power series truncated at a total-degree cap.

The cap is a hard ceiling across all series variables: sums and products
take the smaller cap of the two operands and drop every term past it. A
series holds int numerators over one denominator, as every poly.SparseSum
does; dropping terms can leave a common factor, so each truncation
renormalises through set_ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .poly import MultiPoly, _int_product


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
        if any(sum(e) > cap for e in self.terms):
            self._drop_past(cap)

    def _drop_past(self, cap: int) -> None:
        """In place: drop every term of total order above cap."""
        self.set_ints({e: n for e, n in self.terms.items() if sum(e) <= cap}, self.den)

    @classmethod
    def from_coefficients(
        cls, variables: Iterable[str], cap: int, coeff: Callable[[tuple[int, ...]], Fraction]
    ) -> "TruncatedSeries":
        """sum coeff(e) * x^e over every exponent tuple e of total order <= cap,
        each met once, in lex order. Stars and bars: nv bars among cap + nv
        slots, the gaps between them read off as the exponents."""
        out = cls(variables, cap)
        nv = len(out.variables)
        exps = (tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))
                for bars in combinations(range(cap + nv), nv))
        return out.set_values((e, coeff(e)) for e in exps)

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
            self._drop_past(other.cap)
        elif other.cap > self.cap:
            other = other.truncate(self.cap)
        return super().add_scaled(other, factor)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        cap = min(self.cap, other.cap)
        return TruncatedSeries(self.variables, cap).set_ints(
            {e: n for e, n in _int_product(self.terms, other.terms).items() if sum(e) <= cap},
            self.den * other.den,
        )

    __rmul__ = __mul__

    def truncate(self, cap: int) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, cap).set_ints(
            {e: n for e, n in self.terms.items() if sum(e) <= cap}, self.den
        )

    def differentiate(self, name: str) -> "TruncatedSeries":
        """Partial derivative in one variable. The unknown terms past the cap
        reach order cap in it, so it is exact only through cap - 1, its cap."""
        return super().differentiate(name).truncate(self.cap - 1)

    def map_coefficients(self, fn) -> "TruncatedSeries":
        """The series of fn(e, c) at each term c * x^e, with c a Fraction."""
        den = self.den
        return self._empty().set_values((e, fn(e, Fraction(n, den))) for e, n in self.terms.items())

    def __repr__(self) -> str:
        tail = f"O(^{self.cap + 1})"
        return tail if not self.terms else f"{super().__repr__()} + {tail}"
