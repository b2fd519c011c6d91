from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2chow.exactlin import (
    InconsistentSystem,
    RatMatrix,
    format_rat,
    gram,
    kernel_basis,
    negative_semidefinite_rank,
    rank,
    rat,
    rref,
    solve_affine,
)

from support import leading_principal_minors, naive_det, naive_kernel_basis, naive_rref

# the 4-cycle intersection matrix of the loop fibre E-X1-X2-X3-E
CASE_II_MATRIX = RatMatrix(
    [[-2, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 1], [1, 0, 1, -2]]
)


def frac_vec(*xs):
    return tuple(Fraction(x) for x in xs)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("3/2") == Fraction(3, 2)


def test_format_rat():
    assert format_rat(Fraction(-4)) == "-4"
    assert format_rat(Fraction(3, 2)) == "3/2"


def test_solve_identity():
    sol = solve_affine(RatMatrix.identity(3), [1, 2, 3])
    assert sol.particular == frac_vec(1, 2, 3)
    assert sol.kernel_basis == ()


def test_solve_all_ones_rank_one():
    m = RatMatrix([[1, 1], [1, 1]])
    sol = solve_affine(m, [1, 1])
    assert sol.particular == frac_vec(1, 0)
    # deterministic convention: single 1 in the free position (column 1)
    assert sol.kernel_basis == (frac_vec(-1, 1),)
    assert m.matvec(sol.kernel_basis[0]) == frac_vec(0, 0)


def test_solve_case_ii_system():
    b = [-2, 0, 2, 0]  # -(2, 0, -2, 0)
    sol = solve_affine(CASE_II_MATRIX, b)
    assert sol.kernel_basis == (frac_vec(1, 1, 1, 1),)
    # particular solution congruent to (0, -1, -2, -1) modulo the kernel
    diff = {x - y for x, y in zip(sol.particular, frac_vec(0, -1, -2, -1))}
    assert len(diff) == 1
    assert CASE_II_MATRIX.matvec(sol.particular) == tuple(Fraction(x) for x in b)


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystem):
        solve_affine(RatMatrix([[1, 1], [1, 1]]), [1, 2])


def test_rank_examples():
    assert rank(RatMatrix.zeros(3, 3)) == 0
    assert rank(RatMatrix.identity(4)) == 4
    fibre = frac_vec(1, 1, 1, 1)
    bd = frac_vec(0, -2, -4, -2)
    g = gram([fibre, bd], CASE_II_MATRIX)
    assert rank(g) == 1  # the fibre vector lies in the radical


def test_gram_examples():
    zero = gram([frac_vec(0, 0)], RatMatrix([[-2, 0], [0, -2]]))
    assert zero == RatMatrix([[0]])
    e1 = gram([frac_vec(1, 0)], RatMatrix([[-2, 0], [0, -2]]))
    assert e1 == RatMatrix([[-2]])
    fibre = gram([frac_vec(1, 1, 1, 1)], CASE_II_MATRIX)
    assert fibre == RatMatrix([[0]])


def test_gram_requires_symmetric_pairing():
    with pytest.raises(ValueError):
        gram([frac_vec(1, 0)], RatMatrix([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        gram([frac_vec(1, 0, 0)], RatMatrix.identity(2))


def test_empty_shapes():
    empty_cols = RatMatrix.zeros(3, 0)
    assert empty_cols.transpose().nrows == 0
    assert rank(empty_cols) == 0
    assert kernel_basis(empty_cols) == ()
    empty_rows = RatMatrix.zeros(0, 3)
    assert len(kernel_basis(empty_rows)) == 3
    product = empty_cols.matmul(RatMatrix.zeros(0, 2))
    assert product == RatMatrix.zeros(3, 2)


def test_leading_principal_minors():
    m = RatMatrix([[-2, 1], [1, -2]])
    assert leading_principal_minors(m) == (Fraction(-2), Fraction(3))
    singular = RatMatrix([[0, 1], [1, 0]])
    assert leading_principal_minors(singular) == (Fraction(0),)


def test_negative_semidefinite_examples():
    rep = negative_semidefinite_rank(CASE_II_MATRIX)
    assert rep.is_semidefinite and rep.rank == 3
    assert negative_semidefinite_rank(RatMatrix.zeros(2, 2)).is_semidefinite
    assert negative_semidefinite_rank(RatMatrix.zeros(2, 2)).rank == 0
    assert not negative_semidefinite_rank(RatMatrix.identity(2)).is_semidefinite
    neg = negative_semidefinite_rank(RatMatrix.identity(3).scale(-1))
    assert neg.is_semidefinite and neg.rank == 3
    indefinite = negative_semidefinite_rank(RatMatrix([[1, 0], [0, -1]]))
    assert not indefinite.is_semidefinite
    off_diag = negative_semidefinite_rank(RatMatrix([[0, 1], [1, 0]]))
    assert not off_diag.is_semidefinite and off_diag.witness is not None


def test_negative_semidefinite_witnesses():
    def report(rows):
        rep = negative_semidefinite_rank(RatMatrix(rows))
        return rep.is_semidefinite, rep.rank, rep.witness

    assert report([[1, 0], [0, 1]]) == (False, 0, "direction with positive self-pairing at index 0")
    # the pivot search swaps index 1 to the front before its sign is seen
    assert report([[0, 0], [0, 1]]) == (False, 0, "direction with positive self-pairing at index 1")
    assert report([[-2, 1, 0], [1, -2, 0], [0, 0, 1]]) == (
        False, 2, "direction with positive self-pairing at index 2"
    )
    assert report([[0, 1], [1, 0]]) == (False, 0, "indefinite 2x2 principal block at indices (0, 1)")
    # indices are reported in the original order, after the symmetric swap
    assert report([[0, 1, 0], [1, 0, 0], [0, 0, -1]]) == (
        False, 1, "indefinite 2x2 principal block at indices (1, 0)"
    )
    assert report([[-1, 0, 0], [0, 0, 1], [0, 1, 0]]) == (
        False, 1, "indefinite 2x2 principal block at indices (1, 2)"
    )


small_fraction = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)
matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(small_fraction, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(rows):
    m = RatMatrix(rows)
    assert rank(m) + len(kernel_basis(m)) == m.ncols
    # the integer kernel agrees with an independent Fraction Gauss-Jordan
    reduced, pivots = naive_rref(m)
    assert rank(m) == len(pivots)
    assert rref(m) == (reduced, pivots)
    assert kernel_basis(m) == naive_kernel_basis(m)


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_solvable_systems_solve_exactly(rows, data):
    m = RatMatrix(rows)
    x = data.draw(st.lists(small_fraction, min_size=m.ncols, max_size=m.ncols))
    b = m.matvec(tuple(Fraction(v) for v in x))
    sol = solve_affine(m, b)
    assert m.matvec(sol.particular) == b
    for k in sol.kernel_basis:
        assert m.matvec(k) == tuple(Fraction(0) for _ in range(m.nrows))
    # free variables are zero in the particular solution of the reduced form
    reduced, pivots = naive_rref(RatMatrix([list(row) + [bv] for row, bv in zip(m.rows, b)]))
    expected = [Fraction(0)] * m.ncols
    for i, p in enumerate(pivots):
        expected[p] = reduced[i, m.ncols]
    assert sol.particular == tuple(expected)
    assert sol.kernel_basis == naive_kernel_basis(m)


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_inconsistency_iff_rank_gap(rows, data):
    m = RatMatrix(rows)
    b = data.draw(st.lists(small_fraction, min_size=m.nrows, max_size=m.nrows))
    augmented = RatMatrix([list(row) + [bv] for row, bv in zip(m.rows, b)], ncols=m.ncols + 1)
    gap = rank(augmented) > rank(m)
    try:
        solve_affine(m, b)
        assert not gap
    except InconsistentSystem:
        assert gap


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_gram_symmetric(n, data):
    pairing_rows = data.draw(
        st.lists(st.lists(small_fraction, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    sym = [[Fraction(pairing_rows[i][j]) + Fraction(pairing_rows[j][i]) for j in range(n)] for i in range(n)]
    pairing = RatMatrix(sym)
    k = data.draw(st.integers(min_value=1, max_value=3))
    vectors = data.draw(
        st.lists(st.lists(small_fraction, min_size=n, max_size=n), min_size=k, max_size=k)
    )
    g = gram(vectors, pairing)
    assert g.is_symmetric()


symmetric_int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.integers(min_value=-2, max_value=2), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
    ).map(lambda upper: _symmetric(n, upper))
)


def _symmetric(n, upper):
    rows = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(entries)
    return rows


@settings(max_examples=200, deadline=None)
@given(symmetric_int_matrices)
@example([[0, 1], [1, 0]])
@example([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
def test_negative_semidefinite_matches_principal_minors(rows):
    n = len(rows)
    negated = [[-Fraction(x) for x in row] for row in rows]
    minors_nonnegative = all(
        naive_det([[negated[i][j] for j in subset] for i in subset]) >= 0
        for k in range(1, n + 1)
        for subset in combinations(range(n), k)
    )
    m = RatMatrix(rows)
    rep = negative_semidefinite_rank(m)
    assert rep.is_semidefinite == minors_nonnegative
    assert (rep.witness is None) == rep.is_semidefinite
    if rep.is_semidefinite:
        assert rep.rank == rank(m) == len(naive_rref(m)[1])
