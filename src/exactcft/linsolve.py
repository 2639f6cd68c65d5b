"""Exact linear solving and symmetric inertia over the rationals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import SparseSum


@dataclass(frozen=True)
class LinearSolution:
    solvable: bool
    particular: list[Fraction] | None
    kernel: list[list[Fraction]]

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def _sparse_rows(rows: Sequence[Mapping[int, object]], ncols: int) -> list[SparseSum]:
    out = []
    for entries in rows:
        row = SparseSum()
        for col, v in entries.items():
            if not 0 <= col < ncols:
                raise ValueError(f"column {col} is outside 0..{ncols - 1}")
            row.add_term(col, Fraction(v))
        out.append(row)
    return out


def linear_solve_exact(rows: Sequence[Mapping[int, object]], ncols: int, rhs: Sequence) -> LinearSolution:
    """Solve A x = b over Q by Gaussian elimination.

    A has ncols columns and is given as sparse rows {column: value}; absent
    columns are zero. Returns a solvability flag, one particular solution
    (free variables set to zero), and a deterministic basis of the null space.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"rhs length {len(rhs)} does not match {len(rows)} rows")
    aug = _sparse_rows(rows, ncols)
    for row, b in zip(aug, rhs):
        row.add_term(ncols, Fraction(b))  # the right-hand side rides along
    pivots = _rref(aug, ncols)

    kernel = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, col in zip(aug, pivots):
            if fc in row.terms:
                vec[col] = -row.terms[fc]
        kernel.append(vec)

    if any(row.terms for row in aug[len(pivots):]):
        return LinearSolution(False, None, kernel)
    particular = [Fraction(0)] * ncols
    for row, col in zip(aug, pivots):
        particular[col] = row.terms.get(ncols, Fraction(0))
    return LinearSolution(True, particular, kernel)


def _rref(rows: list[SparseSum], ncols: int) -> list[int]:
    """Bring sparse rows to reduced row echelon form in place, pivoting only
    in columns 0..ncols-1 (later columns ride along, e.g. a right-hand side).
    The pivot of each column is the first row at or after the current one
    with a nonzero there. Returns the pivot columns; row k holds the pivot of
    column pivots[k].
    """
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if col in rows[i].terms), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = rows[r].scale(1 / rows[r].terms[col])
        for i in range(m):
            if i != r and col in rows[i].terms:
                rows[i].add_scaled(rows[r], -rows[i].terms[col])
        pivots.append(col)
        r += 1
    return pivots


def row_basis(rows: Sequence[Mapping[int, object]], ncols: int) -> list[dict[int, Fraction]]:
    """A basis of the row space of a rational matrix given as sparse rows
    over ncols columns: its nonzero RREF rows, again as {column: value}."""
    reduced = _sparse_rows(rows, ncols)
    rank = len(_rref(reduced, ncols))
    return [row.terms for row in reduced[:rank]]


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
