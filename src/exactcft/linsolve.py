"""Exact linear solving and symmetric inertia over the rationals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class LinearSolution:
    solvable: bool
    particular: list[Fraction] | None
    kernel: list[list[Fraction]]

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def linear_solve_exact(matrix: Sequence[Sequence], rhs: Sequence) -> LinearSolution:
    """Solve A x = b over Q by Gaussian elimination.

    Returns a solvability flag, one particular solution (free variables set to
    zero), and a deterministic basis of the null space.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    b = [Fraction(v) for v in rhs]
    m = len(rows)
    if len(b) != m:
        raise ValueError(f"rhs length {len(b)} does not match {m} rows")
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not rectangular")

    aug = [row + [b[i]] for i, row in enumerate(rows)]
    pivots = _rref(aug, n)
    r = len(pivots)

    for i in range(r, m):
        if aug[i][n] != 0:
            return LinearSolution(False, None, _kernel_basis(aug, pivots, n, r))

    particular = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        particular[col] = aug[i][n]
    return LinearSolution(True, particular, _kernel_basis(aug, pivots, n, r))


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Bring rows to reduced row echelon form in place, pivoting only in the
    first ncols columns (later columns ride along, e.g. a right-hand side).
    Returns the pivot columns; row k holds the pivot of column pivots[k].
    """
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return pivots


def row_basis(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """A basis of the row space of a rational matrix (its nonzero RREF rows)."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = len(_rref(rows, len(rows[0]) if rows else 0))
    return rows[:rank]


def _kernel_basis(aug, pivots, n, rank) -> list[list[Fraction]]:
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][fc]
        basis.append(vec)
    return basis


def mat_vec(matrix: Sequence[Sequence], vec: Sequence) -> list[Fraction]:
    return [
        sum((Fraction(a) * Fraction(x) for a, x in zip(row, vec)), Fraction(0))
        for row in matrix
    ]


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
