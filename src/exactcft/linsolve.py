"""Exact null spaces and the inertia of low-rank symmetric forms over the rationals.

Linear systems are eliminated fraction-free, in one routine, _rref: each
sparse rational row is scaled once to integers over its least common
denominator, the elimination runs on Python ints, and each entry of a reduced
row becomes one Fraction at the end. Exact rationals are canonical, so the
reduced rows are the ones Fraction elimination gives. Symmetric forms come as
a sum of at most two scaled outer products, and their inertia is read from a
2 x 2 Gram form, with no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .poly import _int_numerators


def _int_row(entries: Mapping[int, object], ncols: int) -> dict[int, int]:
    """A sparse rational row {column: value} as a primitive integer row:
    scaled to its least common denominator, then divided by the gcd of its
    numerators. Zeros are dropped."""
    row = {}
    for col, v in entries.items():
        if not 0 <= col < ncols:
            raise ValueError(f"column {col} is outside 0..{ncols - 1}")
        row[col] = v if type(v) is int else Fraction(v)
    _, nums = _int_numerators(row)
    return _primitive({col: n for col, n in nums.items() if n})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g < 2 else {col: v // g for col, v in row.items()}


def linear_solve_exact(rows: Sequence[Mapping[int, object]], ncols: int) -> list[list[Fraction]]:
    """A basis of the null space of A over Q, by Gaussian elimination.

    A has ncols columns and is given as sparse rows {column: value}; absent
    columns are zero. There is one basis vector per free column, in column
    order: 1 there, 0 at every other free column.
    """
    reduced = [_int_row(row, ncols) for row in rows]
    pivots = _rref(reduced, ncols)
    kernel = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, col in zip(reduced, pivots):
            if fc in row:
                vec[col] = -row[fc]
        kernel.append(vec)
    return kernel


def _rref(rows: list[dict], ncols: int) -> list[int]:
    """Bring primitive integer rows {column: int} to reduced row echelon form
    in place, with columns 0..ncols-1. The pivot of each column is the first
    row at or after the current one with a nonzero there. Returns the pivot
    columns; row k holds the pivot of column pivots[k].

    Elimination is fraction-free: a row loses its entry in the pivot column
    by cross-multiplication with the pivot row, and then the gcd of its
    entries is divided out. Each row stays a nonzero multiple of the row that
    Fraction elimination would hold, so the pivots are the same. At the end
    each pivot row is divided by its pivot, one Fraction per entry, which
    gives the unique reduced rows. The rows after the pivot rows end up empty.
    """
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if col in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(m):
            row = rows[i]
            a = row.get(col)
            if a is None or i == r:
                continue
            g = gcd(p, a)
            mp, ma = p // g, a // g
            new = row if mp == 1 else {k: v * mp for k, v in row.items()}
            get = new.get
            for k, v in prow.items():
                s = get(k, 0) - ma * v
                if s:
                    new[k] = s
                else:
                    del new[k]
            rows[i] = _primitive(new)
        pivots.append(col)
        r += 1
    for k, col in enumerate(pivots):
        p = rows[k][col]
        rows[k] = {c: Fraction(v, p) for c, v in rows[k].items()}
    return pivots


def symmetric_inertia(factor: Sequence[Sequence], scales: Sequence) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of the N x N form W S W^T.

    W = factor is N x k, one row per index, and S = diag(scales), for k <= 2.
    Let G = W^T W and W = Q R, with Q of orthonormal columns and R of full
    row rank. Then W S W^T = Q (R S R^T) Q^T and G S G = R^T (R S R^T) R, so
    by Sylvester's law both have the nonzero inertia of R S R^T. The signs
    thus come from the determinant and trace of the k x k form G S G, padded
    with zeros to 2 x 2.
    """
    k = len(scales)
    if k > 2 or any(len(row) != k for row in factor):
        raise ValueError("factor needs one entry per scale, and at most two scales")
    pad = (0,) * (2 - k)
    s0, s1 = *scales, *pad
    rows = [(*row, *pad) for row in factor]
    g00 = sum(x * x for x, _ in rows)
    g01 = sum(x * y for x, y in rows)
    g11 = sum(y * y for _, y in rows)
    # G S G = [[a, b], [b, c]]
    a = s0 * g00 * g00 + s1 * g01 * g01
    b = (s0 * g00 + s1 * g11) * g01
    c = s0 * g01 * g01 + s1 * g11 * g11
    det, trace = a * c - b * b, a + c
    if det > 0:
        pos, neg = (2, 0) if trace > 0 else (0, 2)
    elif det < 0:
        pos, neg = 1, 1
    else:
        pos, neg = int(trace > 0), int(trace < 0)
    return pos, neg, len(factor) - pos - neg
