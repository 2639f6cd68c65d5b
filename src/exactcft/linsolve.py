"""Exact linear solving and symmetric inertia over the rationals.

Linear systems are eliminated fraction-free: each sparse rational row is
scaled once to integers over its least common denominator, the elimination
runs on Python ints, and each entry of a reduced row becomes one Fraction at
the end. Exact rationals are canonical, so the reduced rows are the ones
Fraction elimination gives.
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


def symmetric_inertia(matrix: Sequence[Sequence]) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Symmetric elimination with diagonal pivots, falling back to 2x2 blocks
    [[0, a], [a, 0]] (inertia (1, 1)) when every remaining diagonal vanishes.
    """
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix is not square")
        for j in range(i + 1, n):
            if row[j] != a[j][i]:
                raise ValueError("matrix is not symmetric")

    idx = list(range(n))
    n_pos = n_neg = n_zero = 0
    while idx:
        piv = next((k for k in idx if a[k][k] != 0), None)
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                n_pos += 1
            else:
                n_neg += 1
            idx.remove(piv)
            for i in idx:
                f = a[i][piv] / d
                if f == 0:
                    continue
                for j in idx:
                    a[i][j] -= f * a[piv][j]
            continue
        pair = None
        for i in idx:
            for j in idx:
                if i < j and a[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            n_zero += len(idx)
            break
        i0, j0 = pair
        c = a[i0][j0]
        n_pos += 1
        n_neg += 1
        idx.remove(i0)
        idx.remove(j0)
        for k in idx:
            vi, vj = a[k][i0], a[k][j0]
            if vi == 0 and vj == 0:
                continue
            for l in idx:
                a[k][l] -= (vi * a[j0][l] + vj * a[i0][l]) / c
    return n_pos, n_neg, n_zero
