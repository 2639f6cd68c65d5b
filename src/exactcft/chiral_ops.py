"""Chiral intertwining differential operators and channel reduction.

An operator is a finite table over derivative monomials d1^p d2^q. Applied
after multiplying a correlator by the pair power that cancels its diagonal
pole, followed by evaluation at coincident points, it projects onto a single
exchanged chiral dimension: the reduction annihilates every wave whose
projection differs from the operator's weight and collapses the matching one
to a wave with one point fewer.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import DegenerateParameterError
from .poly import MultiPoly
from .special import format_rational, pochhammer

# the reduction imports pairs and waves inside its functions, so the operator tables
# load neither; the benchmark tracer names its functions chiral_ops.*, so it stays here
if TYPE_CHECKING:
    from .pairs import PairSum
    from .waves import ChiralWave, WaveSpec

DVARS = ("D1", "D2")


class ChiralIntertwiner(NamedTuple):
    """Coefficient table {(p, q): c} for sum c * d1^p d2^q.

    kind "E": degree h, the closed-form solution of the chiral intertwining
    condition for a field pair with dimensions (d1, d2).
    kind "D": degree h-1, the factorially renormalized variant used for
    channel reductions.
    """

    h: int
    d1: Fraction
    d2: Fraction
    kind: str
    coeffs: dict[tuple[int, int], Fraction]

    def degree(self) -> int:
        return self.h if self.kind == "E" else self.h - 1

    def as_poly(self) -> MultiPoly:
        return MultiPoly(DVARS, {pq: c for pq, c in self.coeffs.items()})

    def to_json(self) -> dict:
        return {
            f"({p},{q})": format_rational(c)
            for (p, q), c in sorted(self.coeffs.items())
        }


def chiral_intertwiner(h: int, d1, d2) -> ChiralIntertwiner:
    """Closed-form table: (q - d1 + d2)_p (p + d1 - d2)_q / (p! q!) with the
    sign (-1)^q folded into the d2^q coefficient."""
    if h < 0:
        raise ValueError("h must be >= 0")
    d1, d2 = Fraction(d1), Fraction(d2)
    b = d1 - d2
    coeffs: dict[tuple[int, int], Fraction] = {}
    for p in range(h + 1):
        q = h - p
        c = pochhammer(q - b, p) * pochhammer(p + b, q) / (factorial(p) * factorial(q))
        if q % 2:
            c = -c
        if c != 0:
            coeffs[(p, q)] = c
    return ChiralIntertwiner(h, d1, d2, "E", coeffs)


def chiral_intertwiner_normalized(h: int) -> ChiralIntertwiner:
    """Renormalized variant (-1)^q / ((h-1)! p!^2 q!^2) on p + q = h - 1."""
    if h < 1:
        raise DegenerateParameterError("normalized operator needs h >= 1")
    coeffs: dict[tuple[int, int], Fraction] = {}
    for p in range(h):
        q = h - 1 - p
        c = Fraction(1, factorial(h - 1) * factorial(p) ** 2 * factorial(q) ** 2)
        if q % 2:
            c = -c
        coeffs[(p, q)] = c
    return ChiralIntertwiner(h, Fraction(0), Fraction(0), "D", coeffs)


def nabla(poly: MultiPoly, slot: int) -> MultiPoly:
    """Derivative with respect to the formal symbol d<slot>."""
    return poly.differentiate(DVARS[slot - 1])


def verify_chiral_pde(op: ChiralIntertwiner) -> MultiPoly:
    """Residual of the chiral intertwining condition on the operator symbol.

    For kind E: (d1 nab1^2 + d2 nab2^2 + (dim1 - dim2)(nab1 - nab2)) E.
    For kind D the E-condition does not apply; the residual checked is the
    cross-multiplied defect of D_h being proportional to
    (nab1 - nab2) E_h(d, d), its defining relation.
    """
    poly = op.as_poly()
    if op.kind == "E":
        p1 = MultiPoly.var(DVARS, "D1")
        p2 = MultiPoly.var(DVARS, "D2")
        res = p1 * nabla(nabla(poly, 1), 1) + p2 * nabla(nabla(poly, 2), 2)
        return res.add_scaled(nabla(poly, 1) - nabla(poly, 2), op.d1 - op.d2)
    if op.h == 1:
        # constant operator: the relation degenerates (E_1 vanishes at equal dims)
        return poly - MultiPoly.constant(DVARS, op.coeffs.get((0, 0), Fraction(0)))
    ref = chiral_intertwiner(op.h, 0, 0).as_poly()
    ref = nabla(ref, 1) - nabla(ref, 2)
    if ref.is_zero() or poly.is_zero():
        return poly
    _, lc_ref = ref.leading()
    _, lc_op = poly.leading()
    return poly * lc_ref - ref * lc_op


# ---------------------------------------------------------------------------
# reduction of explicit correlators
# ---------------------------------------------------------------------------


def apply_operator_pair(
    target: PairSum, op: ChiralIntertwiner, slot1: int, slot2: int
) -> PairSum:
    """Apply sum c_pq d_{slot1}^p d_{slot2}^q to a pair-monomial sum."""
    from .pairs import PairSum
    degree = op.degree()
    # cache repeated derivatives: d1 applied i times, then d2 applied j times
    rows: list[PairSum] = [target]
    for _ in range(degree):
        rows.append(rows[-1].differentiate(slot1))
    parts = {}
    for p, q in op.coeffs:
        cur = rows[p]
        for _ in range(q):
            cur = cur.differentiate(slot2)
        parts[p, q] = cur
    # every derivative keeps the target's exponent denominator
    out = PairSum(target.points, None, target.antisym, target.exp_den)
    return out.add_combination(parts, op.coeffs)


def reduce_correlator(
    target: PairSum, pair: tuple[int, int], op: ChiralIntertwiner, d1, d2
) -> PairSum:
    """iota after the operator: multiply by the diagonal pole power, apply the
    derivative table in the two points of the adjacent pair, then evaluate at
    coincident points. The surviving point keeps the lower label.
    """
    i, j = pair
    if j != i + 1:
        raise ValueError("reduction pair must be adjacent")
    power = Fraction(d1) + Fraction(d2) - (op.kind == "D")
    # a derivative lowers the power of x_ij by at most one, and merge_adjacent
    # drops every positive power: a term above the degree never reaches the
    # diagonal, so it is dropped before any derivative is taken
    work = target.mul_monomial(1, {(i, j): power}).capped((i, j), op.degree())
    return apply_operator_pair(work, op, i, j).merge_adjacent(i)


# ---------------------------------------------------------------------------
# reduction of truncated waves
# ---------------------------------------------------------------------------


class ReducedWave(NamedTuple):
    """Outcome of reducing an n-point wave in an outer channel.

    terms: the reduced correlator on the surviving points, complete through
    total order `reliable_cap` in the surviving cross-ratio indices.
    """

    terms: PairSum
    reliable_cap: int


def _wave_pair_sum(spec: WaveSpec, terms: Mapping[tuple[int, ...], int], den: int) -> PairSum:
    """wave_prefactor(spec) * sum terms[l] / den * prod u_k^{l_k} as a PairSum
    over points 1..n."""
    from .pairs import PairSum, cross_ratio, monomial_keys
    from .waves import wave_prefactor
    exp_den, key = monomial_keys(wave_prefactor(spec), [cross_ratio(k) for k in range(1, spec.n - 2)])
    return PairSum(range(1, spec.n + 1), None, exp_den=exp_den).set_ints(
        {key(ells): n for ells, n in terms.items()}, den)


def reduce_wave(
    wave: ChiralWave, pair: tuple[int, int], op: ChiralIntertwiner
) -> ReducedWave:
    """Channel reduction of a truncated wave at the first or last adjacent pair.

    The reliable series terms are reduced as one sum. Truncation is tracked
    honestly: tails of the dropped series orders can contaminate surviving
    orders above cap - max(0, h - a), so the result is only reported through
    that order.
    """
    n = wave.spec.n
    i, j = pair
    if (i, j) not in ((1, 2), (n - 1, n)):
        raise ValueError("wave reduction supports the first or last pair only")
    first = (i, j) == (1, 2)
    d1 = wave.spec.d(i)
    d2 = wave.spec.d(j)
    a_channel = wave.spec.a(2) if first else wave.spec.a(n - 2)
    cap = wave.series.cap

    # series orders in the collapsing cross ratio beyond h - a cannot survive
    spill = op.h - a_channel
    spill = int(spill) if spill == int(spill) and spill > 0 else 0
    reliable = cap - spill

    target = _wave_pair_sum(wave.spec, {
        ells: c
        for ells, c in wave.series.terms.items()
        if (sum(ells[1:]) if first else sum(ells[:-1])) <= reliable
    }, wave.series.den)
    out = reduce_correlator(target, pair, op, d1, d2)
    return ReducedWave(out, reliable)


def reduced_reference_spec(spec: WaveSpec, pair: tuple[int, int], h: int) -> WaveSpec:
    """Spec of the (n-1)-point wave a matching reduction must reproduce."""
    from .waves import WaveSpec
    n = spec.n
    if pair == (1, 2):
        dims = (Fraction(h),) + spec.field_dims[2:]
        projs = spec.proj_dims[1:]
        return WaveSpec(dims, projs)
    if pair == (n - 1, n):
        dims = spec.field_dims[: n - 2] + (Fraction(h),)
        projs = spec.proj_dims[: n - 2]
        return WaveSpec(dims, projs)
    raise ValueError("pair must be first or last")


def reference_wave_pair_sum(spec: WaveSpec, cap: int, points: tuple[int, ...]) -> PairSum:
    """Expand a wave as a finite pair-monomial sum on the given point labels."""
    from .waves import chiral_wave_series
    if len(points) != spec.n:
        raise ValueError("label count mismatch")
    series = chiral_wave_series(spec, cap).series
    return _wave_pair_sum(spec, series.terms, series.den).relabel({k + 1: p for k, p in enumerate(points)})


def match_reduction(reduced: ReducedWave, spec: WaveSpec, pair: tuple[int, int], h: int) -> Fraction | None:
    """Constant lam with reduced = lam * (n-1)-point wave, or None.

    The comparison is a function-level identity on the surviving points,
    restricted to the reduction's reliable truncation order.
    """
    ref_spec = reduced_reference_spec(spec, pair, h)
    ref = reference_wave_pair_sum(ref_spec, reduced.reliable_cap, reduced.terms.points)
    return reduced.terms.proportional_to(ref)
