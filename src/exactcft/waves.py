"""Chiral n-point partial waves.

A wave is a factored prefactor in nearest- and next-nearest-neighbour
coordinate differences times a power series in the chain of cross ratios
u_k = x_{k,k+1} x_{k+2,k+3} / (x_{k,k+2} x_{k+1,k+3}). Every coefficient is
an explicit product of rising factorials (wave_coefficient); the series is
built from its term ratio, each coefficient from a neighbour that differs by
one in a single exponent (chiral_wave_series). The quadratic Casimir equations
in invariant (Euler-operator) form, one per cross ratio, verify the wave for
every n >= 4 (casimir_residual).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from .errors import DegenerateParameterError
from .series import TruncatedSeries
from .special import format_rational, parse_rational, pochhammer


def _expect(value, kind: type, what: str):
    """value, if it is a kind (dict or list); else ValueError naming what."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {shape}, got {type(value).__name__}")
    return value


def _pair_key(key: str) -> tuple[int, int]:
    """The pair (i, j) named by a prefactor.factors key 'i,j', written as to_json
    writes it; int() alone would read '01,3' and ' 1,3' as the pair of '1,3'."""
    try:
        i, j = (int(v) for v in key.split(","))
        if key != f"{i},{j}":
            raise ValueError
    except ValueError:
        raise ValueError(
            f"prefactor.factors key {key!r} is not 'i,j' with integers i and j in plain form"
        ) from None
    return i, j


# a NamedTuple body may not define __new__, so the validating class subclasses its fields
class _WaveSpec(NamedTuple):
    field_dims: tuple[Fraction, ...]
    proj_dims: tuple[Fraction, ...]


class WaveSpec(_WaveSpec):
    """Field dimensions d_1..d_n and projection dimensions a_1..a_{n-1}.

    Boundary conventions: a_0 = a_n = 0, and a_1 = d_1, a_{n-1} = d_n are
    forced by the first and last field.
    """

    __slots__ = ()

    def __new__(cls, field_dims, proj_dims):
        n = len(field_dims)
        if n < 3:
            raise ValueError(f"need at least 3 points, got {n}")
        field_dims = tuple(Fraction(d) for d in field_dims)
        proj_dims = tuple(Fraction(a) for a in proj_dims)
        if len(proj_dims) != n - 1:
            raise ValueError(
                f"need {n - 1} projection dimensions for {n} points, got {len(proj_dims)}"
            )
        if proj_dims[0] != field_dims[0]:
            raise ValueError("a_1 must equal d_1")
        if proj_dims[-1] != field_dims[-1]:
            raise ValueError("a_{n-1} must equal d_n")
        return super().__new__(cls, field_dims, proj_dims)

    @classmethod
    def from_middle(cls, dims, middle) -> "WaveSpec":
        """Build from d_1..d_n plus only the free projections a_2..a_{n-2}."""
        dims = tuple(Fraction(d) for d in dims)
        middle = tuple(Fraction(a) for a in middle)
        if len(dims) < 3:
            raise ValueError(f"need at least 3 points, got {len(dims)}")
        if len(middle) != len(dims) - 3:
            raise ValueError(
                f"need {len(dims) - 3} middle projections for {len(dims)} points"
            )
        return cls(dims, (dims[0],) + middle + (dims[-1],))

    @property
    def n(self) -> int:
        return len(self.field_dims)

    def d(self, i: int) -> Fraction:
        """d_i with 1-based index; 0 outside 1..n."""
        if 1 <= i <= self.n:
            return self.field_dims[i - 1]
        return Fraction(0)

    def a(self, i: int) -> Fraction:
        """a_i with 1-based index; boundary a_0 = a_n = 0."""
        if 1 <= i <= self.n - 1:
            return self.proj_dims[i - 1]
        return Fraction(0)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dims": [format_rational(d) for d in self.field_dims],
            "proj": [format_rational(a) for a in self.proj_dims],
        }

    @classmethod
    def from_json(cls, data: dict) -> "WaveSpec":
        """Inverse of to_json; malformed input raises ValueError."""
        data = _expect(data, dict, "spec")
        spec = cls(
            tuple(parse_rational(d) for d in _expect(data.get("dims"), list, "spec.dims")),
            tuple(parse_rational(a) for a in _expect(data.get("proj"), list, "spec.proj")),
        )
        n = data.get("n")
        if type(n) is not int or n != spec.n:
            raise ValueError(f"spec.n = {n!r} disagrees with {spec.n} dims")
        return spec


def wave_series_vars(n: int) -> tuple[str, ...]:
    return tuple(f"u{k}" for k in range(1, n - 2))


def wave_prefactor(spec: WaveSpec) -> dict[tuple[int, int], Fraction]:
    """Pair powers {(i, j): e} of the factored wave prefactor, numerator 1,
    in sorted pair order with zero exponents dropped.

    x_{j,j+2} carries d_{j+1} - a_j - a_{j+1}; x_{i,i+1} carries
    -(d_i + d_{i+1} - a_{i-1} - a_{i+1}).
    """
    n = spec.n
    exps: dict[tuple[int, int], Fraction] = {}
    for j in range(1, n - 1):
        exps[(j, j + 2)] = spec.d(j + 1) - spec.a(j) - spec.a(j + 1)
    for i in range(1, n):
        exps[(i, i + 1)] = -(spec.d(i) + spec.d(i + 1) - spec.a(i - 1) - spec.a(i + 1))
    return {pr: e for pr, e in sorted(exps.items()) if e}


class ChiralWave(NamedTuple):
    """A wave is wave_prefactor(spec) times its series."""

    spec: WaveSpec
    series: TruncatedSeries

    def to_json(self) -> dict:
        pre = wave_prefactor(self.spec)
        factors = {f"{i},{j}": format_rational(e) for (i, j), e in pre.items()}
        return {
            "spec": self.spec.to_json(),
            "cap": self.series.cap,
            "prefactor": {"numerator": "1", "factors": factors},
            "series": self.series.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChiralWave":
        """Inverse of to_json; malformed input raises ValueError."""
        data = _expect(data, dict, "wave JSON")
        missing = [k for k in ("spec", "cap", "prefactor", "series") if k not in data]
        if missing:
            raise ValueError(f"wave JSON lacks {', '.join(missing)}")
        cap = data["cap"]
        if type(cap) is not int or cap < 0:
            raise ValueError(f"wave JSON cap must be a non-negative integer, got {cap!r}")
        spec = WaveSpec.from_json(data["spec"])
        nvars = spec.n - 3
        terms = {}
        for item in _expect(data["series"], list, "series"):
            exps = _expect(item, dict, "series item").get("exponents")
            if (
                not isinstance(exps, list)
                or len(exps) != nvars
                or any(type(e) is not int or e < 0 for e in exps)
            ):
                raise ValueError(
                    f"series exponents {exps!r} are not {nvars} non-negative integers"
                )
            if tuple(exps) in terms:
                raise ValueError(f"series lists the exponent tuple {tuple(exps)} twice")
            if sum(exps) > cap:
                raise ValueError(f"series exponent tuple {tuple(exps)} lies above the cap {cap}")
            terms[tuple(exps)] = parse_rational(item.get("coeff"))
        series = TruncatedSeries(wave_series_vars(spec.n), cap, terms)
        pre_data = _expect(data["prefactor"], dict, "prefactor")
        factors = {
            _pair_key(key): parse_rational(val)
            for key, val in _expect(pre_data.get("factors"), dict, "prefactor.factors").items()
        }
        # zero exponents drop out, but an unordered pair never matches
        factors = {(i, j): e for (i, j), e in factors.items() if e or i >= j}
        if parse_rational(pre_data.get("numerator")) != 1 or factors != wave_prefactor(spec):
            raise ValueError("wave JSON prefactor is not the factored prefactor of its spec")
        return cls(spec, series)


def wave_coefficient(spec: WaveSpec, ells: tuple[int, ...]) -> Fraction:
    """Series coefficient of prod u_k^{l_k}: the double Pochhammer product."""
    n = spec.n

    def ell(k: int) -> int:
        # boundary l_0 = l_{n-2} = 0
        if 1 <= k <= n - 3:
            return ells[k - 1]
        return 0

    coeff = Fraction(1)
    for j in range(1, n - 1):
        coeff *= pochhammer(spec.a(j) + spec.a(j + 1) - spec.d(j + 1), ell(j - 1) + ell(j))
    for k in range(1, n - 2):
        lk = ell(k)
        denom = pochhammer(2 * spec.a(k + 1), lk)
        if denom == 0:
            raise DegenerateParameterError(
                f"(2 a_{k + 1})_{lk} vanishes: a_{k + 1} = {spec.a(k + 1)} is degenerate"
            )
        coeff /= factorial(lk) * denom
    return coeff


def chiral_wave_series(spec: WaveSpec, cap: int) -> ChiralWave:
    """The general chiral n-point partial wave, exactly truncated.

    The coefficient of prod u_k^{l_k} is
    prod_j (A_j)_{l_{j-1}+l_j} / prod_k l_k! (B_k)_{l_k}, with
    A_j = a_j + a_{j+1} - d_{j+1} and B_k = 2 a_{k+1} (see wave_coefficient).
    The series is built by its term ratio: raising l_k by one multiplies the
    coefficient by
    (A_k + l_{k-1} + l_k)(A_{k+1} + l_k + l_{k+1}) / ((l_k + 1)(B_k + l_k)),
    a few multiplications per term instead of 2n - 5 rising factorials.
    For n = 3 there are no cross ratios and the series is identically 1.
    """
    n = spec.n
    orders = range(cap + 1)
    A = [spec.a(j) + spec.a(j + 1) - spec.d(j + 1) for j in range(1, n - 1)]
    B = [2 * spec.a(k + 1) for k in range(1, n - 2)]
    # both tables scaled once by the LCD L of every A_j and B_k, so the ratio
    # is the int pair (L(A_k + ..) L(A_{k+1} + ..), L^2 (l_k + 1)(B_k + l_k));
    # 1-based: numer[j][m] = L(A_j + m) for j = 1..n-2 and
    # denom[k][m] = L^2 (m + 1)(B_k + m) for k = 1..n-3; the order m a ratio
    # reads stays below cap
    L = lcm(*(x.denominator for x in A + B))
    numer = [None] + [[int(L * x) + L * m for m in orders] for x in A]
    denom = [None] + [[L * (m + 1) * (int(L * x) + L * m) for m in orders] for x in B]

    # An odometer over the lex order: raise the last l below the cap, else zero
    # the last nonzero l_j and raise l_{j-1}. A raised l_k has l_{k+1} = 0, so its
    # coefficient is its prefix's (l_1..l_k, 0..0) times one ratio; prefix holds
    # unreduced (k, num, den) per nonzero l_k over a sentinel k = 0; ells[0] = l_0.
    # A term is kept as (num, den) reduced by one gcd, and the series puts every
    # term over the lcm of their denominators once.
    nv = n - 3
    ells = [0] * (nv + 1)
    prefix = [(0, 1, 1)]
    terms = {tuple(ells[1:]): (1, 1)}
    total = 0
    while True:
        if total < cap and nv:
            k = nv
        else:
            j = prefix.pop()[0]
            if j <= 1:
                break
            total -= ells[j]
            ells[j], k = 0, j - 1
        lk = ells[k]
        if denom[k][lk] == 0:
            raise DegenerateParameterError(
                f"(2 a_{k + 1})_{lk + 1} vanishes: a_{k + 1} = {spec.a(k + 1)} is degenerate"
            )
        _, num, den = prefix.pop() if prefix[-1][0] == k else prefix[-1]
        num, den = num * numer[k][ells[k - 1] + lk] * numer[k + 1][lk], den * denom[k][lk]
        prefix.append((k, num, den))
        ells[k], total = lk + 1, total + 1
        if num:
            g = gcd(num, den)
            terms[tuple(ells[1:])] = (num // g, den // g)
    lcd = lcm(*(d for _, d in terms.values()))
    series = TruncatedSeries(wave_series_vars(n), cap)
    series.set_ints({e: num * (lcd // d) for e, (num, d) in terms.items()}, lcd)
    return ChiralWave(spec, series)


def casimir_residual(
    eq_spec: WaveSpec, wave: ChiralWave, which: int, cap: int
) -> TruncatedSeries:
    """Exact residual of the invariant Casimir equation of the cross ratio u_k,
    k = which in 1..n-3 (Rosenhaus, arXiv:1810.03244). With c(e) the
    coefficient of prod u^e (e_0 = e_{n-2} = 0), its coefficient at e is

        (e_k + s_k + a'_{k+1} - 1)(e_k + s_k - a'_{k+1}) c(e)
          - (e_{k-1} + e_k - 1 + H_k)(e_k - 1 + e_{k+1} + H_{k+1}) c(e - 1_k).

    Primed parameters come from eq_spec (so a wrong eigenvalue can be probed),
    the rest from the wave's spec: s_k = a_{k+1} and H_j = A_j, with
    A_j = a_j + a_{j+1} - d_{j+1}, except at the ends, where the equation's
    outer dimensions enter through D_i = d'_i - d_i: s_1 gains D_3, H_1 gains
    D_1 - D_2 + D_3, s_{n-3} gains D_{n-2} and H_{n-2} gains
    D_n - D_{n-1} + D_{n-2}. The equation acts term by term, so the residual
    of an exactly truncated wave is exact through the requested cap. It is
    summed on ints over one denominator.
    """
    s, q = wave.spec, eq_spec
    n = s.n
    if n < 4:
        raise DegenerateParameterError(
            f"casimir check needs n >= 4; a {n}-point wave has no cross ratio"
        )
    if q.n != n:
        raise ValueError(f"equation spec has {q.n} points, the wave {n}")
    if not 1 <= which <= n - 3:
        raise ValueError(f"which must be in 1..{n - 3} for n = {n}, got {which}")

    k = which
    moved = {i: q.d(i) - s.d(i) for i in (1, 2, 3, n - 2, n - 1, n)}  # D_i
    shift = s.a(k + 1)
    left = s.a(k) + s.a(k + 1) - s.d(k + 1)
    right = s.a(k + 1) + s.a(k + 2) - s.d(k + 2)
    if k == 1:
        shift += moved[3]
        left += moved[1] - moved[2] + moved[3]
    if k == n - 3:
        shift += moved[n - 2]
        right += moved[n] - moved[n - 1] + moved[n - 2]
    up, down = shift + q.a(k + 1) - 1, shift - q.a(k + 1)

    # one int pass: the series' numerators over its denominator D, the four
    # parameters scaled by their LCD L, so each factor is an int L (e_k + x)
    # and the residual is R(e) / (D L^2)
    L = lcm(*(x.denominator for x in (up, down, left, right)))
    up, down, left, right = (int(L * x) for x in (up, down, left, right))
    top = min(cap, wave.series.cap)
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for e, c in wave.series.terms.items():
        order = sum(e)
        if order > top:
            continue
        before, ek, after = ((0,) + e + (0,))[k - 1 : k + 2]
        acc[e] = get(e, 0) + c * (L * ek + up) * (L * ek + down)
        if order < top:
            # c(e) is the c(e - 1_k) of the equation at e + 1_k
            raised = e[: k - 1] + (ek + 1,) + e[k:]
            acc[raised] = get(raised, 0) - c * (L * (before + ek) + left) * (L * (ek + after) + right)
    return TruncatedSeries(wave.series.variables, top).set_ints(acc, wave.series.den * L * L)
