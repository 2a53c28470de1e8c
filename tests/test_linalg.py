import random
from fractions import Fraction

import pytest

import dense_reference as dense
from sialg.errors import SingularMatrix
from sialg.fields import Field, QQ
from sialg.linalg import Matrix, Span, sparse_kernel, sparse_rank, sparse_solve


def q(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rank_examples():
    for rows, rank in (
        (dense.identity(QQ, 2), 2),
        ([[QQ.zero] * 2] * 2, 0),
        (q([[1, 2], [2, 4]]), 1),
    ):
        assert Matrix(QQ, rows).rank() == dense.rank(QQ, rows) == rank
        assert sparse_rank(QQ, _dense_to_rows(rows)) == rank


def test_solve_examples():
    for rows, rhs, expect, nullity in (
        (dense.identity(QQ, 3), [1, 2, 3], [1, 2, 3], 0),
        ([[QQ.zero]], [1], None, 1),
        (q([[1, 1]]), [1], [1, 0], 1),
    ):
        ncols = len(rows[0])
        assert dense.solve(QQ, rows, rhs, ncols) == expect
        sol, got_nullity = sparse_solve(QQ, _dense_to_rows(rows), rhs, ncols)
        assert got_nullity == nullity == len(dense.kernel(QQ, rows, ncols))
        if expect is None:
            assert sol is None
        else:
            assert [sol.get(j, 0) for j in range(ncols)] == expect
    # the kernel of (1 1) spans (1, -1)
    assert dense.kernel(QQ, q([[1, 1]]), 2) == [[-1, 1]]
    assert sparse_kernel(QQ, [{0: 1, 1: 1}], 2) == [{1: 1, 0: -1}]


def test_invert_examples():
    eye = dense.identity(QQ, 3)
    assert Matrix(QQ, eye).inverse().rows == eye == dense.inverse(QQ, eye)
    swap = q([[0, 1], [1, 0]])
    assert Matrix(QQ, swap).inverse().rows == swap
    shear = q([[1, 1], [0, 1]])
    assert Matrix(QQ, shear).inverse().rows == q([[1, -1], [0, 1]]) == dense.inverse(QQ, shear)
    singular = q([[1, 2], [2, 4]])
    assert dense.inverse(QQ, singular) is None
    with pytest.raises(SingularMatrix):
        Matrix(QQ, singular).inverse()


def random_rows(field, rng, nrows, ncols):
    return [[field.random(rng, -4, 4) for _ in range(ncols)] for _ in range(nrows)]


def low_rank_rows(field, rng, nrows, ncols):
    """A product through an inner dimension below min(nrows, ncols), or of
    dimension at most 1 when that minimum is 1; inner dimension 0 gives the
    zero matrix."""
    inner = rng.randint(0, max(min(nrows, ncols) - 1, 1))
    if not inner:
        return [[field.zero] * ncols for _ in range(nrows)]
    return dense.matmul(
        field, random_rows(field, rng, nrows, inner), random_rows(field, rng, inner, ncols)
    )


def test_rank_nullity_random():
    rng = random.Random(7)
    for field in (QQ, Field(5)):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            rows = random_rows(field, rng, nrows, ncols)
            kern = dense.kernel(field, rows, ncols)
            assert Matrix(field, rows).rank() + len(kern) == ncols
            assert len(sparse_kernel(field, _dense_to_rows(rows), ncols)) == len(kern)
            for v in kern:
                assert all(not e for e in dense.apply(field, rows, v))


def test_inverse_random():
    rng = random.Random(8)
    for field in (QQ, Field(7)):
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = random_rows(field, rng, n, n)
            if dense.rank(field, rows) < n:
                continue
            inv = Matrix(field, rows).inverse().rows
            assert dense.matmul(field, inv, rows) == dense.identity(field, n)
            assert dense.matmul(field, rows, inv) == dense.identity(field, n)


def test_matrix_view_matches_dense_reference():
    # Matrix.rref and Matrix.inverse run through Span; reduced echelon form
    # is unique, so both must equal the textbook elimination exactly
    rng = random.Random(12)
    shapes = 0
    for field in (QQ, Field(5)):
        for trial in range(60):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            if trial % 3 == 0:
                nrows = ncols  # square, so the inverse is tested often
            make = low_rank_rows if trial % 2 else random_rows
            rows = make(field, rng, nrows, ncols)
            reduced, pivots = Matrix(field, rows).rref()
            want_rows, want_pivots = dense.rref(field, rows, ncols)
            assert (reduced.rows, list(pivots)) == (want_rows, want_pivots)
            assert (reduced.nrows, reduced.ncols) == (nrows, ncols)
            want_inv = dense.inverse(field, rows)
            if want_inv is None:
                with pytest.raises(SingularMatrix):
                    Matrix(field, rows).inverse()
            else:
                assert Matrix(field, rows).inverse().rows == want_inv
            shapes += 1
        zero = [[field.zero] * 3 for _ in range(2)]
        assert Matrix(field, zero).rref()[0].rows == zero
        with pytest.raises(SingularMatrix):
            Matrix(field, [[field.zero] * 2 for _ in range(2)]).inverse()
    assert shapes == 120


def _dense_to_rows(rows):
    return [{j: c for j, c in enumerate(row) if c} for row in rows]


def test_sparse_agrees_with_dense():
    rng = random.Random(9)
    for field in (QQ, Field(3)):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = random_rows(field, rng, nrows, ncols)
            sparse = _dense_to_rows(rows)
            assert sparse_rank(field, sparse) == dense.rank(field, rows)
            kern = sparse_kernel(field, sparse, ncols)
            assert len(kern) == len(dense.kernel(field, rows, ncols))
            rhs = [field.random(rng, -3, 3) for _ in range(nrows)]
            sol, nullity = sparse_solve(field, sparse, rhs, ncols)
            assert nullity == len(kern)
            dsol = dense.solve(field, rows, rhs, ncols)
            assert (sol is None) == (dsol is None)
            if sol is not None:
                # both set the free unknowns to 0, so the solutions coincide
                assert [sol.get(j, field.zero) for j in range(ncols)] == dsol
                assert dense.apply(field, rows, dsol) == rhs


def test_sparse_integer_rows_give_field_scalars():
    # rows written with Python ints: every division goes through the field,
    # so results are exact scalars (ints or Fractions over QQ, ints in
    # range(3) over GF(3)), never floats
    assert sparse_solve(QQ, [{0: 2}], [1], 1) == ({0: Fraction(1, 2)}, 0)
    assert sparse_kernel(QQ, [{0: 2, 1: 1}], 2) == [{1: 1, 0: Fraction(-1, 2)}]
    # over GF(3) the second row is twice the first
    assert sparse_rank(Field(3), [{0: 1, 1: 2}, {0: 2, 1: 1}]) == 1
    rows = [{0: 2, 1: 1}, {1: 2, 2: 1}]

    def is_gf3_scalar(c):
        return type(c) is int and 0 <= c < 3

    for field, scalar in ((QQ, lambda c: type(c) in (int, Fraction)), (Field(3), is_gf3_scalar)):
        assert sparse_rank(field, rows) == 2
        (kern,) = sparse_kernel(field, rows, 3)
        sol, nullity = sparse_solve(field, rows, [1, 2], 3)
        assert nullity == 1
        for vec, rhs in ((kern, [0, 0]), (sol, [1, 2])):
            assert all(scalar(c) for c in vec.values())
            for row, b in zip(rows, rhs):
                dot = sum((c * vec.get(k, 0) for k, c in row.items()), field.zero)
                assert field.normal(dot) == b
        assert sparse_solve(field, rows + [{0: 2, 1: 1}], [1, 2, 2], 3) == (None, 1)
    # unreduced and negative entries over GF(3) are reduced on insert: 5 = 2
    # and -1 = 2, a multiple of 3 is a zero, and the stored rows hold residues
    gf3 = Field(3)
    span = Span(gf3, [{0: 5, 1: -1, 2: 3}, {0: -4, 1: 7}])
    assert span.dim == 2
    assert span.basis_vectors() == [{0: 1}, {1: 1}]
    assert span.contains({0: 4, 1: -2, 2: 6})
    assert Span(gf3, [{0: 3, 1: -3}]).dim == 0
    assert sparse_kernel(gf3, [{0: 5, 1: -1}], 2) == [{1: 1, 0: 2}]
    assert sparse_solve(gf3, [{0: -1}], [5], 1) == ({0: 1}, 0)
    for row in Span(gf3, [{0: 5, 1: -1}, {1: -2, 2: 4}]).rows.values():
        assert all(is_gf3_scalar(c) and c for c in row.values())
