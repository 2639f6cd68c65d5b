from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft import tensor_ops
from exactcft.linsolve import _echelon, _primitive, linear_solve_exact, symmetric_inertia
from exactcft.tensor_ops import coefficient_table, solve_intertwiner_space
from oracles import coeffs, int_rows, kernel_fractions, symmetric_inertia_eliminated


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


def kernel(matrix):
    return kernel_fractions(sparse(matrix), len(matrix[0]))


def solve(matrix, rhs):
    """A solution of A x = b read off the kernel of [A | -b]. Where the extra
    column is free, its basis vector comes last, with 1 there and 0 at every
    other free column, so its first entries solve the system. None where the
    extra column is a pivot, i.e. b is outside the column space of A."""
    n = len(matrix[0])
    vecs = kernel_fractions(sparse([list(row) + [-b] for row, b in zip(matrix, rhs)]), n + 1)
    return vecs[-1][:n] if vecs and vecs[-1][n] else None


def test_identity_system():
    assert kernel([[1, 0], [0, 1]]) == []
    assert solve([[1, 0], [0, 1]], [3, 4]) == [3, 4]


def test_rank_deficient():
    matrix = [[1, 1], [2, 2]]
    (k,) = kernel(matrix)
    assert mat_vec(matrix, k) == [0, 0]
    assert mat_vec(matrix, solve(matrix, [1, 2])) == [1, 2]


def test_two_by_two():
    assert kernel([[2, 1], [1, 3]]) == []
    assert solve([[2, 1], [1, 3]], [5, 10]) == [1, 3]


def test_inconsistent():
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_dimension_mismatch():
    for col in (-1, 2):
        with pytest.raises(ValueError):
            linear_solve_exact([{0: 1, col: 2}], 2)


def test_no_rows_has_the_identity_kernel():
    assert linear_solve_exact([], 3) == [(1, {0: 1}), (1, {1: 1}), (1, {2: 1})]
    # kappa = 0 gives no recursion row at all: c_00 alone is free
    for L in range(3):
        assert coeffs(coefficient_table(0, L).entries) == {(0, 0): 1}


matrix_entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@given(st.lists(st.lists(matrix_entries, min_size=3, max_size=3), min_size=2, max_size=4), st.lists(matrix_entries, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solution_and_kernel_are_exact(rows, x):
    rhs = mat_vec(rows, x)
    assert mat_vec(rows, solve(rows, rhs)) == rhs
    for k in kernel(rows):
        assert mat_vec(rows, k) == [Fraction(0)] * len(rows)


def test_inertia_diagonal():
    assert symmetric_inertia_eliminated([[2, 0], [0, -3]]) == (1, 1, 0)
    assert symmetric_inertia_eliminated([[0, 0], [0, 0]]) == (0, 0, 2)


def test_inertia_offdiagonal_block():
    # [[0,1],[1,0]] has eigenvalues +1, -1
    assert symmetric_inertia_eliminated([[0, 1], [1, 0]]) == (1, 1, 0)
    # zero diagonal throughout: the Schur complement of the 2x2 pivot decides
    # the signs (eigenvalues about -2.43, -1.41, 0.078, 3.76)
    m = [[0, -1, 0, -2], [-1, 0, -1, 2], [0, -1, 0, -1], [-2, 2, -1, 0]]
    assert symmetric_inertia_eliminated(m) == (2, 2, 0)


def test_inertia_mixed():
    m = [
        [1, 2, 0],
        [2, 4, 0],
        [0, 0, -5],
    ]
    # rank 2: one positive (the psd rank-1 block), one negative
    assert symmetric_inertia_eliminated(m) == (1, 1, 1)


def test_inertia_requires_symmetry():
    with pytest.raises(ValueError):
        symmetric_inertia_eliminated([[0, 1], [2, 0]])


@given(st.lists(st.lists(matrix_entries, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_inertia_counts_sum_to_dimension(rows):
    sym = [[rows[i][j] + rows[j][i] for j in range(3)] for i in range(3)]
    p, n, z = symmetric_inertia_eliminated(sym)
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
    basis = kernel(rows)
    assert len(basis) == ncols - rank
    # the basis spans sympy's null space: stacking both adds no rank
    null = [list(v) for v in sympy.Matrix(rows).nullspace()]
    if basis:
        assert sympy.Matrix(basis + null).rank() == len(basis)


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

    basis = kernel_fractions(rows, ncols)
    assert len(basis) == ncols - rank
    for k in basis:
        assert mat_vec(dense(rows, ncols), k) == [0] * len(rows)
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)

    if rows:
        b = data.draw(st.lists(matrix_entries, min_size=len(rows), max_size=len(rows)))
        solvable = a.row_join(sympy.Matrix(len(rows), 1, b)).rank() == rank
        assert (solve(dense(rows, ncols), b) is not None) == solvable


def gauss_jordan(matrix, ncols):
    """Plain Fraction Gauss-Jordan on dense rows, in place, pivoting in
    columns 0..ncols-1 only: the pivot of a column is the first row at or after
    the current one with a nonzero there. Returns the pivot columns. Zero
    entries of the pivot row are passed over, which keeps the tall sparse
    operator systems affordable."""
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
        if piv is None:
            continue
        matrix[r], matrix[piv] = matrix[piv], matrix[r]
        p = matrix[r][col]
        matrix[r] = [v / p if v else v for v in matrix[r]]
        for i, row in enumerate(matrix):
            if i != r and row[col] != 0:
                f = row[col]
                matrix[i] = [v - f * w if w else v for v, w in zip(row, matrix[r])]
        pivots.append(col)
        r += 1
    return pivots


def oracle_kernel(matrix, ncols):
    """The null space basis read off the Fraction Gauss-Jordan form."""
    reduced = [[Fraction(v) for v in row] for row in matrix]
    pivots = gauss_jordan(reduced, ncols)
    kernel = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for row, col in zip(reduced, pivots):
                vec[col] = -row[fc]
            kernel.append(vec)
    return kernel


# rows with mixed denominators and plain ints, then zero rows and multiples of
# earlier rows mixed in
mixed_entries = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-5, max_value=5, max_denominator=12)
)
integer_kernel_systems = st.integers(1, 7).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.dictionaries(st.integers(0, ncols - 1), mixed_entries, max_size=4), max_size=7),
        st.lists(st.tuples(st.integers(0, 9), st.fractions(min_value=-3, max_value=3, max_denominator=5)), max_size=4),
    )
)


def _with_copies(rows, copies):
    """rows followed by a scaled copy of rows[index] for each (index, factor):
    a zero row when the factor is 0 or there is nothing to copy."""
    rows = list(rows)
    for index, factor in copies:
        source = rows[index % len(rows)] if rows else {}
        rows.append({c: factor * v for c, v in source.items()})
    return rows


@given(integer_kernel_systems)
@settings(max_examples=200, deadline=None)
def test_integer_echelon_matches_fraction_gauss_jordan(system):
    ncols, rows, copies = system
    rows = _with_copies(rows, copies)
    matrix = dense(rows, ncols)

    pivots = _echelon([_primitive({c: v for c, v in row.items() if v}) for row in int_rows(rows)])
    assert sorted(pivots) == gauss_jordan([list(row) for row in matrix], ncols)
    for col, row in pivots.items():  # primitive integer rows, each led by its pivot
        assert min(row) == col
        assert all(type(v) is int for v in row.values()) and gcd(*row.values()) == 1

    assert kernel_fractions(rows, ncols) == oracle_kernel(matrix, ncols)


@given(integer_kernel_systems, st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_ignores_row_order_duplicates_and_zero_rows(system, data):
    ncols, rows, copies = system
    basis = kernel_fractions(rows, ncols)
    extended = _with_copies(rows, copies) + list(rows) + [{}, {c: 0 for c in range(ncols)}]
    assert kernel_fractions(data.draw(st.permutations(extended)), ncols) == basis


def _captured_systems(build):
    """The (rows, ncols) of every kernel solve that build() makes in tensor_ops."""
    systems = []

    def spy(rows, ncols):
        systems.append((rows, ncols))
        return linear_solve_exact(rows, ncols)

    patch = pytest.MonkeyPatch()
    patch.setattr(tensor_ops, "linear_solve_exact", spy)
    try:
        build()
    finally:
        patch.undo()
    return systems


@pytest.mark.parametrize(
    "build",
    [
        lambda: solve_intertwiner_space(4, 3, 3, 1),
        lambda: solve_intertwiner_space(4, 3, 2, 2),
        lambda: solve_intertwiner_space(6, 4, 3, 1),
        lambda: coefficient_table(8, 4),
    ],
    ids=["kernel-4-3-gap2", "kernel-4-3-equal", "kernel-6-4-gap2", "table-8-4"],
)
def test_operator_systems_match_the_fraction_oracle(build):
    """The tall, sparse systems of the operator commands (206 x 60, 634 x 140
    and 72 x 45), solved shortest row first, against dense Gauss-Jordan."""
    ((rows, ncols),) = _captured_systems(build)
    assert kernel_fractions(rows, ncols) == oracle_kernel(dense(rows, ncols), ncols)


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
    assert symmetric_inertia_eliminated(matrix) == _inertia_by_descartes(matrix)


def _outer_sum(factor, scales):
    """The dense form sum_l scales[l] w_l w_l^T of the columns w_l of factor."""
    return [
        [sum((s * x * y for s, x, y in zip(scales, wr, wc)), Fraction(0)) for wc in factor]
        for wr in factor
    ]


def _low_rank(n, k, columns, scales, copy, zero_column, zero_scale):
    """An n x k factor and k scales from drawn columns: copy makes the last
    column a multiple of the first, zero_column empties one column and
    zero_scale zeroes one scale."""
    cols = [list(c[:n]) for c in columns[:k]]
    scales = list(scales[:k])
    if k == 2 and copy is not None:
        cols[1] = [copy * x for x in cols[0]]
    if zero_column is not None:
        cols[zero_column % k] = [Fraction(0)] * n
    if zero_scale is not None:
        scales[zero_scale % k] = Fraction(0)
    return [list(row) for row in zip(*cols)], scales


optional_index = st.one_of(st.none(), st.integers(0, 1))
small_fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
low_rank_forms = st.tuples(
    st.integers(0, 6),
    st.sampled_from([1, 2]),
    st.lists(st.lists(small_fractions, min_size=6, max_size=6), min_size=2, max_size=2),
    st.lists(small_fractions, min_size=2, max_size=2),
    st.one_of(st.none(), small_fractions),
    optional_index,
    optional_index,
).map(lambda drawn: _low_rank(*drawn))


@given(low_rank_forms)
@settings(max_examples=300, deadline=None)
def test_gram_inertia_matches_elimination(form):
    factor, scales = form
    assert symmetric_inertia(factor, scales) == symmetric_inertia_eliminated(
        _outer_sum(factor, scales)
    )


def test_gram_inertia_examples():
    w = [[1, 0], [1, 1], [0, 2]]
    assert symmetric_inertia(w, [1, -1]) == (1, 1, 1)
    assert symmetric_inertia(w, [-3, -1]) == (0, 2, 1)
    assert symmetric_inertia(w, [0, 5]) == (1, 0, 2)
    # equal columns with opposite scales cancel: the form is zero
    assert symmetric_inertia([[2, 2], [3, 3]], [Fraction(1, 2), Fraction(-1, 2)]) == (0, 0, 2)
    assert symmetric_inertia([[Fraction(1, 3)], [0]], [-1]) == (0, 1, 1)
    assert symmetric_inertia([[0], [0]], [1]) == (0, 0, 2)
    assert symmetric_inertia([], [1, 1]) == (0, 0, 0)


def test_gram_inertia_shape_errors():
    with pytest.raises(ValueError):
        symmetric_inertia([[1, 2]], [1])
    with pytest.raises(ValueError):
        symmetric_inertia([[1, 2, 3]], [1, 1, 1])
