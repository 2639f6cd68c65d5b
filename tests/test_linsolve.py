from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.linsolve import linear_solve_exact, row_basis, symmetric_inertia
from exactcft.tensor_ops import coefficient_table_kernel


def mat_vec(matrix, vec):
    """Dense matrix times vector: the oracle the solver's answers are checked by."""
    return [
        sum((Fraction(a) * Fraction(x) for a, x in zip(row, vec)), Fraction(0))
        for row in matrix
    ]


def sparse(matrix):
    """The sparse rows {column: value} of a dense test matrix."""
    return [{c: v for c, v in enumerate(row) if v != 0} for row in matrix]


def dense(rows, ncols):
    return [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]


def solve(matrix, rhs):
    return linear_solve_exact(sparse(matrix), len(matrix[0]), rhs)


def test_identity_system():
    sol = solve([[1, 0], [0, 1]], [3, 4])
    assert sol.solvable
    assert sol.particular == [3, 4]
    assert sol.kernel == []


def test_rank_deficient():
    sol = solve([[1, 1], [2, 2]], [1, 2])
    assert sol.solvable
    assert sol.kernel_dim == 1
    assert mat_vec([[1, 1], [2, 2]], sol.particular) == [1, 2]
    k = sol.kernel[0]
    assert mat_vec([[1, 1], [2, 2]], k) == [0, 0]


def test_two_by_two():
    sol = solve([[2, 1], [1, 3]], [5, 10])
    assert sol.solvable
    assert sol.particular == [1, 3]
    assert sol.kernel == []


def test_inconsistent():
    sol = solve([[1, 1], [1, 1]], [0, 1])
    assert not sol.solvable
    assert sol.particular is None


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        linear_solve_exact(sparse([[1, 2]]), 2, [1, 2])
    for col in (-1, 2):
        with pytest.raises(ValueError):
            linear_solve_exact([{0: 1, col: 2}], 2, [1])
        with pytest.raises(ValueError):
            row_basis([{col: 1}], 2)


def test_no_rows_has_the_identity_kernel():
    sol = linear_solve_exact([], 3, [])
    assert sol.solvable
    assert sol.particular == [0, 0, 0]
    assert sol.kernel == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert row_basis([], 3) == []
    # kappa = 0 gives no recursion row at all: c_00 alone is free
    for L in range(3):
        [table] = coefficient_table_kernel(0, L)
        assert table.entries == {(0, 0): 1}


matrix_entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@given(st.lists(st.lists(matrix_entries, min_size=3, max_size=3), min_size=2, max_size=4), st.lists(matrix_entries, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solution_and_kernel_are_exact(rows, x):
    rhs = mat_vec(rows, x)
    sol = solve(rows, rhs)
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
    # zero diagonal throughout: the Schur complement of the 2x2 pivot decides
    # the signs (eigenvalues about -2.43, -1.41, 0.078, 3.76)
    m = [[0, -1, 0, -2], [-1, 0, -1, 2], [0, -1, 0, -1], [-2, 2, -1, 0]]
    assert symmetric_inertia(m) == (2, 2, 0)


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
    ncols = len(rows[0])
    rank = sympy.Matrix(rows).rank()
    basis = dense(row_basis(sparse(rows), ncols), ncols)
    assert len(basis) == rank
    assert solve(rows, [0] * len(rows)).kernel_dim == ncols - rank
    # the basis spans the same space: stacking it on the rows adds no rank
    assert sympy.Matrix(rows + basis).rank() == rank


nonzero_entries = matrix_entries.filter(bool)
sparse_systems = st.integers(1, 6).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.dictionaries(st.integers(0, ncols - 1), nonzero_entries, max_size=3), max_size=6),
    )
)


@given(sparse_systems, st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_systems_match_sympy(system, data):
    sympy = pytest.importorskip("sympy")
    ncols, rows = system
    a = sympy.Matrix(len(rows), ncols, lambda i, j: rows[i].get(j, 0))
    rank = a.rank()

    basis = row_basis(rows, ncols)
    assert len(basis) == rank
    assert all(row and all(v != 0 for v in row.values()) for row in basis)
    if basis:
        assert a.col_join(sympy.Matrix(dense(basis, ncols))).rank() == rank

    x = data.draw(st.lists(matrix_entries, min_size=ncols, max_size=ncols))
    rhs = mat_vec(dense(rows, ncols), x)
    sol = linear_solve_exact(rows, ncols, rhs)
    assert sol.solvable
    assert mat_vec(dense(rows, ncols), sol.particular) == rhs
    assert sol.kernel_dim == ncols - rank
    for k in sol.kernel:
        assert mat_vec(dense(rows, ncols), k) == [0] * len(rows)
    if sol.kernel:
        assert sympy.Matrix(sol.kernel).rank() == sol.kernel_dim

    b = data.draw(st.lists(matrix_entries, min_size=len(rows), max_size=len(rows)))
    solvable = a.row_join(sympy.Matrix(len(rows), 1, b)).rank() == rank
    other = linear_solve_exact(rows, ncols, b)
    assert other.solvable == solvable
    assert (other.particular is None) == (not solvable)
    assert other.kernel == sol.kernel


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _inertia_by_descartes(matrix):
    """Count the eigenvalues of a real symmetric matrix by sign from its
    characteristic polynomial. All its roots are real, so Descartes' rule of
    signs counts the positive roots (and, on p(-x), the negative ones) exactly
    once the root x = 0 is divided out."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = sympy.Matrix(matrix).charpoly(x).all_coeffs()  # highest degree first
    n_zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    degree = len(coeffs) - 1
    mirrored = [c * (-1) ** (degree - i) for i, c in enumerate(coeffs)]
    return _sign_changes(coeffs), _sign_changes(mirrored), n_zero


sparse_symmetric = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(sparse_entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2),
        st.booleans(),
    ).map(lambda drawn: _symmetric(n, *drawn))
)


def _symmetric(n, upper, zero_diagonal):
    m = [[Fraction(0)] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(it)
    if zero_diagonal:  # forces the 2x2-pivot branch whenever an off-diagonal is left
        for i in range(n):
            m[i][i] = Fraction(0)
    return m


@given(sparse_symmetric)
@settings(max_examples=150, deadline=None)
def test_inertia_matches_characteristic_polynomial(matrix):
    assert symmetric_inertia(matrix) == _inertia_by_descartes(matrix)
