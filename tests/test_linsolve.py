from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.linsolve import linear_solve_exact, mat_vec, row_basis, symmetric_inertia


def test_identity_system():
    sol = linear_solve_exact([[1, 0], [0, 1]], [3, 4])
    assert sol.solvable
    assert sol.particular == [3, 4]
    assert sol.kernel == []


def test_rank_deficient():
    sol = linear_solve_exact([[1, 1], [2, 2]], [1, 2])
    assert sol.solvable
    assert sol.kernel_dim == 1
    assert mat_vec([[1, 1], [2, 2]], sol.particular) == [1, 2]
    k = sol.kernel[0]
    assert mat_vec([[1, 1], [2, 2]], k) == [0, 0]


def test_two_by_two():
    sol = linear_solve_exact([[2, 1], [1, 3]], [5, 10])
    assert sol.solvable
    assert sol.particular == [1, 3]
    assert sol.kernel == []


def test_inconsistent():
    sol = linear_solve_exact([[1, 1], [1, 1]], [0, 1])
    assert not sol.solvable
    assert sol.particular is None


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        linear_solve_exact([[1, 2], [3]], [1, 2])
    with pytest.raises(ValueError):
        linear_solve_exact([[1, 2]], [1, 2])


matrix_entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@given(st.lists(st.lists(matrix_entries, min_size=3, max_size=3), min_size=2, max_size=4), st.lists(matrix_entries, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solution_and_kernel_are_exact(rows, x):
    rhs = mat_vec(rows, x)
    sol = linear_solve_exact(rows, rhs)
    assert sol.solvable
    assert mat_vec(rows, sol.particular) == rhs
    for k in sol.kernel:
        assert mat_vec(rows, k) == [Fraction(0)] * len(rows)


def test_inertia_diagonal():
    assert symmetric_inertia([[2, 0], [0, -3]]) == (1, 1, 0)
    assert symmetric_inertia([[0, 0], [0, 0]]) == (0, 0, 2)


def test_inertia_offdiagonal_block():
    # [[0,1],[1,0]] has eigenvalues +1, -1
    assert symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)


def test_inertia_mixed():
    m = [
        [1, 2, 0],
        [2, 4, 0],
        [0, 0, -5],
    ]
    # rank 2: one positive (the psd rank-1 block), one negative
    assert symmetric_inertia(m) == (1, 1, 1)


def test_inertia_requires_symmetry():
    with pytest.raises(ValueError):
        symmetric_inertia([[0, 1], [2, 0]])


@given(st.lists(st.lists(matrix_entries, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_inertia_counts_sum_to_dimension(rows):
    sym = [[rows[i][j] + rows[j][i] for j in range(3)] for i in range(3)]
    p, n, z = symmetric_inertia(sym)
    assert p + n + z == 3


sparse_entries = st.one_of(st.just(Fraction(0)), matrix_entries)
matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(sparse_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=5
    )
)


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_rank_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    rank = sympy.Matrix(rows).rank()
    basis = row_basis(rows)
    assert len(basis) == rank
    assert linear_solve_exact(rows, [0] * len(rows)).kernel_dim == len(rows[0]) - rank
    # the basis spans the same space: stacking it on the rows adds no rank
    assert sympy.Matrix(rows + basis).rank() == rank
