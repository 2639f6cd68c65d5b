"""Exact null spaces and the inertia of low-rank symmetric forms over the rationals.

Linear systems are eliminated fraction-free, in one routine, _echelon: each
sparse rational row is scaled once to a primitive integer row, the rows are
brought to an echelon form on Python ints, shortest first, and each kernel
vector is read by back-substitution, one Fraction per entry at the end.
Symmetric forms come as a sum of at most two scaled outer products, and their
inertia is read from a 2 x 2 Gram form, with no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence


def _int_row(entries: Mapping[int, object], ncols: int) -> dict[int, int]:
    """A sparse rational row {column: value} as a primitive integer row:
    scaled to its least common denominator, then divided by the gcd of its
    numerators. Zeros are dropped."""
    row = {}
    for col, v in entries.items():
        if not 0 <= col < ncols:
            raise ValueError(f"column {col} is outside 0..{ncols - 1}")
        row[col] = v if type(v) is int else Fraction(v)
    den = lcm(*(v.denominator for v in row.values()))
    return _primitive({col: v.numerator * (den // v.denominator) for col, v in row.items() if v})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g < 2 else {col: v // g for col, v in row.items()}


def linear_solve_exact(rows: Sequence[Mapping[int, object]], ncols: int) -> list[list[Fraction]]:
    """A basis of the null space of A over Q, by Gaussian elimination.

    A has ncols columns and is given as sparse rows {column: value}; absent
    columns are zero. There is one basis vector per free column, in column
    order: 1 there, 0 at every other free column. Being unique, it is read off
    the echelon rows by back-substitution, last pivot first, as int numerators
    x over one denominator: the RREF that Fraction elimination gives has the
    same pivot columns, so it gives the same vector.
    """
    pivots = _echelon([_int_row(row, ncols) for row in rows])
    kernel = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        x, den = {fc: 1}, 1
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            s = sum([v * x[k] for k, v in row.items() if k in x])
            if s:  # x[col] / den = -s / (p den), with den scaled by p / g
                p = row[col]
                g = gcd(s, p)
                if p != g:
                    x = {k: v * (p // g) for k, v in x.items()}
                    den *= p // g
                x[col] = -s // g
        kernel.append([Fraction(x[k], den) if k in x else Fraction(0) for k in range(ncols)])
    return kernel


def _echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """An echelon form {pivot column: row} of primitive integer rows
    {column: int}: a row's pivot is its least column, and no two rows share one.

    Rows are taken shortest first (a stable sort by nonzero count), which keeps
    the pivot rows sparse and limits fill-in, as Markowitz (1957) proposed.
    Each row loses its leading entry to the pivot row of that column, if there
    is one, by cross-multiplication and division by the gcd of its entries
    (fraction-free, as in Bareiss 1968, but kept primitive), until its leading
    column is new: then it is a pivot row. A row that reduces to zero is dropped.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = row
                break
            g = gcd(prow[col], row[col])
            mp, ma = prow[col] // g, row[col] // g
            new = dict(row) if mp == 1 else {k: v * mp for k, v in row.items()}
            get = new.get
            for k, v in prow.items():
                s = get(k, 0) - ma * v
                if s:
                    new[k] = s
                else:
                    del new[k]
            row = _primitive(new)
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
