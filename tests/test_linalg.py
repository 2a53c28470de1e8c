import random
from fractions import Fraction

import pytest

from sialg.errors import Infeasible, SingularMatrix
from sialg.fields import Field, Fp, QQ
from sialg.linalg import Matrix, sparse_kernel, sparse_rank, sparse_solve


def qmat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


def test_rank_examples():
    assert Matrix.identity(QQ, 2).rank() == 2
    assert Matrix.zeros(QQ, 2, 2).rank() == 0
    assert qmat([[1, 2], [2, 4]]).rank() == 1


def test_solve_examples():
    sol, kern = Matrix.identity(QQ, 3).solve(qmat([[1], [2], [3]]))
    assert sol == qmat([[1], [2], [3]]) and kern == []
    with pytest.raises(Infeasible):
        Matrix.zeros(QQ, 1, 1).solve(qmat([[1]]))
    sol, kern = qmat([[1, 1]]).solve(qmat([[1]]))
    assert sol.column_vector(0) == [Fraction(1), Fraction(0)]
    assert len(kern) == 1
    # kernel spans (1, -1)
    v = kern[0]
    assert v[0] == -v[1] and v[0] != 0


def test_invert_examples():
    assert Matrix.identity(QQ, 3).inverse() == Matrix.identity(QQ, 3)
    swap = qmat([[0, 1], [1, 0]])
    assert swap.inverse() == swap
    shear = qmat([[1, 1], [0, 1]])
    assert shear.inverse() == qmat([[1, -1], [0, 1]])
    with pytest.raises(SingularMatrix):
        qmat([[1, 2], [2, 4]]).inverse()


def random_matrix(field, rng, nrows, ncols):
    return Matrix(
        field, [[field.random(rng, -4, 4) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_rank_nullity_random():
    rng = random.Random(7)
    for field in (QQ, Field(5)):
        for _ in range(40):
            m = random_matrix(field, rng, rng.randint(1, 5), rng.randint(1, 5))
            assert m.rank() + len(m.kernel()) == m.ncols
            for v in m.kernel():
                prod = [
                    sum((c * x for c, x in zip(row, v)), field.zero) for row in m.rows
                ]
                assert all(not e for e in prod)


def test_inverse_random():
    rng = random.Random(8)
    for field in (QQ, Field(7)):
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_matrix(field, rng, n, n)
            if m.rank() < n:
                continue
            assert m.inverse() * m == Matrix.identity(field, n)


def _dense_to_rows(m):
    return [
        {j: c for j, c in enumerate(row) if c} for row in m.rows
    ]


def test_sparse_agrees_with_dense():
    rng = random.Random(9)
    for field in (QQ, Field(3)):
        for _ in range(40):
            m = random_matrix(field, rng, rng.randint(1, 6), rng.randint(1, 6))
            assert sparse_rank(field, _dense_to_rows(m)) == m.rank()
            kern = sparse_kernel(field, _dense_to_rows(m), m.ncols)
            assert len(kern) == len(m.kernel())
            rhs = [field.random(rng, -3, 3) for _ in range(m.nrows)]
            sol, nullity = sparse_solve(field, _dense_to_rows(m), rhs, m.ncols)
            assert nullity == len(m.kernel())
            try:
                dsol, _ = m.solve(Matrix.column(field, rhs))
                dense_feasible = True
            except Infeasible:
                dense_feasible = False
            assert (sol is not None) == dense_feasible
            if sol is not None:
                full = [sol.get(j, field.zero) for j in range(m.ncols)]
                for row, b in zip(m.rows, rhs):
                    acc = sum((c * x for c, x in zip(row, full)), field.zero)
                    assert acc == b


def test_sparse_integer_rows_give_field_scalars():
    # rows written with Python ints: every division goes through the field,
    # so results are Fractions over QQ and residues over GF(3), never floats
    assert sparse_solve(QQ, [{0: 2}], [1], 1) == ({0: Fraction(1, 2)}, 0)
    assert sparse_kernel(QQ, [{0: 2, 1: 1}], 2) == [{1: 1, 0: Fraction(-1, 2)}]
    # over GF(3) the second row is twice the first
    assert sparse_rank(Field(3), [{0: 1, 1: 2}, {0: 2, 1: 1}]) == 1
    rows = [{0: 2, 1: 1}, {1: 2, 2: 1}]
    for field, scalar in ((QQ, Fraction), (Field(3), Fp)):
        assert sparse_rank(field, rows) == 2
        (kern,) = sparse_kernel(field, rows, 3)
        sol, nullity = sparse_solve(field, rows, [1, 2], 3)
        assert nullity == 1
        for vec, rhs in ((kern, [0, 0]), (sol, [1, 2])):
            assert all(type(c) is scalar for c in vec.values())
            for row, b in zip(rows, rhs):
                assert sum((c * vec.get(k, 0) for k, c in row.items()), field.zero) == b
        assert sparse_solve(field, rows + [{0: 2, 1: 1}], [1, 2, 2], 3) == (None, 1)
