import random
from fractions import Fraction

import pytest

import dense_reference as dense
from sialg import linalg
from sialg.errors import DimensionMismatch, SingularMatrix
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
        sparse = _dense_to_rows(rows)
        assert len(Matrix(QQ, sparse, 2).rref()[1]) == dense.rank(QQ, rows) == rank
        assert sparse_rank(QQ, sparse) == rank


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
    inv = Matrix(QQ, _dense_to_rows(eye), 3).inverse()
    assert inv.rows == [{0: 1}, {1: 1}, {2: 1}] and inv.ncols == 3
    assert dense.densify(QQ, inv.rows, 3) == eye == dense.inverse(QQ, eye)
    swap = [{1: 1}, {0: 1}]
    assert Matrix(QQ, swap, 2).inverse().rows == swap
    # the inverse's rows are zero-free: (1 1; 0 1) inverts to (1 -1; 0 1)
    shear = Matrix(QQ, [{0: 1, 1: 1}, {1: 1}], 2).inverse().rows
    assert shear == [{0: 1, 1: -1}, {1: 1}]
    assert dense.densify(QQ, shear, 2) == dense.inverse(QQ, q([[1, 1], [0, 1]]))
    assert dense.inverse(QQ, q([[1, 2], [2, 4]])) is None
    for rows, ncols in (([{0: 1, 1: 2}, {0: 2, 1: 4}], 2), ([{}, {}], 2), ([{0: 1}], 2)):
        with pytest.raises(SingularMatrix):
            Matrix(QQ, rows, ncols).inverse()


def test_matrix_entry_outside_columns_refused():
    # a row is a zero-free dict over the columns 0..ncols-1
    for row in ({2: 1}, {0: 1, -1: 1}):
        with pytest.raises(DimensionMismatch):
            Matrix(QQ, [{0: 1}, row], 2)
    assert Matrix(QQ, [{}, {1: 3}], 2).rref() == ([{1: 1}], (1,))


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
            assert len(Matrix(field, _dense_to_rows(rows), ncols).rref()[1]) + len(kern) == ncols
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
            inv = dense.densify(field, Matrix(field, _dense_to_rows(rows), n).inverse().rows, n)
            assert dense.matmul(field, inv, rows) == dense.identity(field, n)
            assert dense.matmul(field, rows, inv) == dense.identity(field, n)


def test_matrix_view_matches_dense_reference():
    # Matrix.rref and Matrix.inverse run through Span; reduced echelon form
    # is unique, so both must equal the textbook elimination exactly, with
    # the zero rows left out and no zero stored in a row
    rng = random.Random(12)
    shapes = 0
    for field in (QQ, Field(5)):
        for trial in range(60):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            if trial % 3 == 0:
                nrows = ncols  # square, so the inverse is tested often
            make = low_rank_rows if trial % 2 else random_rows
            rows = make(field, rng, nrows, ncols)
            matrix = Matrix(field, _dense_to_rows(rows), ncols)
            reduced, pivots = matrix.rref()
            want_rows, want_pivots = dense.rref(field, rows, ncols)
            rank = len(want_pivots)
            assert list(pivots) == want_pivots
            assert dense.densify(field, reduced, ncols) == want_rows[:rank]
            assert all(not x for row in want_rows[rank:] for x in row)
            assert all(c for row in reduced for c in row.values())
            want_inv = dense.inverse(field, rows)
            if want_inv is None:
                with pytest.raises(SingularMatrix):
                    matrix.inverse()
            else:
                inv = matrix.inverse().rows
                assert dense.densify(field, inv, ncols) == want_inv
                assert all(c for row in inv for c in row.values())
            shapes += 1
        assert Matrix(field, [{}, {}], 3).rref() == ([], ())
        with pytest.raises(SingularMatrix):
            Matrix(field, [{}, {}], 2).inverse()
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
    assert not span.reduce({0: 4, 1: -2, 2: 6})
    assert Span(gf3, [{0: 3, 1: -3}]).dim == 0
    assert sparse_kernel(gf3, [{0: 5, 1: -1}], 2) == [{1: 1, 0: 2}]
    assert sparse_solve(gf3, [{0: -1}], [5], 1) == ({0: 1}, 0)
    for row in Span(gf3, [{0: 5, 1: -1}, {1: -2, 2: 4}]).rows.values():
        assert all(is_gf3_scalar(c) and c for c in row.values())


def _typed(row):
    """A row with each scalar's type beside its value: 2 and Fraction(2)
    compare equal, and only this tells them apart."""
    return {k: (type(v), v) for k, v in row.items()}


def _typed_rows(rows):
    return {piv: _typed(row) for piv, row in rows.items()}


def _span_values(field):
    """Scalars a caller may pass: over QQ leads of 1 and -1, Fractions and
    the integral Fraction(4, 2); over GF(p) unreduced ints, among them
    -1, p - 1 and entries that are 0 mod p."""
    p = field.p
    if p is None:
        return [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)]
    return [1, -1, p - 1, p, 2 * p, p + 1, 2, -3]


def _span_vectors(field, rng, count):
    """Random rows over keys 0..5, a quarter of them repeating an earlier
    row and a quarter combining two earlier ones.  Over QQ a combination
    drops its zeros (rows are zero-free there) and may hold integral
    Fractions; over GF(p) it is left unreduced."""
    values = _span_values(field)
    out = []
    for _ in range(count):
        kind = rng.random()
        if out and kind < 0.25:
            out.append(dict(rng.choice(out)))
        elif len(out) > 1 and kind < 0.5:
            u, v = rng.sample(out, 2)
            a, b = rng.choice(values), rng.choice(values)
            row = {k: a * u.get(k, 0) + b * v.get(k, 0) for k in u.keys() | v.keys()}
            out.append(row if field.p else {k: c for k, c in row.items() if c})
        else:
            keys = rng.sample(range(6), rng.randint(1, 4))
            out.append({k: rng.choice(values) for k in keys})
    return [row for row in out if row]


def test_span_matches_reference_span():
    # Span skips the rescale at a lead of 1, negates at a lead of -1 and
    # meets only the pivots a row has; reduced echelon form is unique, so
    # after every insertion its stored rows must equal the reference's,
    # down to the type of each scalar
    rng = random.Random(13)
    for field in (QQ, Field(2), Field(3), Field(101)):
        p = field.p
        top = p or 0
        if p is None:
            cases = [
                [{0: 1, 1: 2}, {0: 1, 1: 2}, {1: -1, 2: 3}, {0: 2, 1: 3, 2: 3}],
                [{0: Fraction(1, 2), 1: 1}, {1: Fraction(4, 2), 2: -1}, {0: 1, 2: Fraction(4, 2)}],
                [{0: -1, 1: Fraction(4, 2)}, {1: 1, 3: Fraction(1, 3)}, {0: -1, 3: 5}],
            ]
        else:
            cases = [
                [{0: 1, 1: p}, {0: p + 1, 1: 1}, {1: -1, 2: 2 * p}, {1: p - 1, 2: 1}],
                [{0: p, 1: -1, 2: 1}, {1: 1, 2: p - 1}, {0: -1, 3: 2}, {0: 3 * p - 1}],
            ]
        cases += [_span_vectors(field, rng, rng.randint(1, 9)) for _ in range(150)]
        leads = set()
        for vectors in cases:
            before = [_typed(v) for v in vectors]
            span, ref = Span(field), dense.SpanReference(field)
            for v in vectors:
                rest = ref.reduce(v)
                if rest:
                    lead = rest[min(rest)]
                    kind = "1" if lead == 1 else "-1" if lead == top - 1 else "other"
                    if any(type(c) is Fraction for c in rest.values()):
                        kind += " with Fractions"
                    leads.add(kind)
                assert span.add(v) == ref.add(v)
                assert _typed_rows(span.rows) == _typed_rows(ref.rows)
                # back-substitution keeps the normal form: over QQ a
                # difference of Fractions that is integral is stored as int
                assert all(
                    type(c) is type(field.normal(c)) and c == field.normal(c)
                    for row in span.rows.values() for c in row.values()
                )
            for probe in _span_vectors(field, rng, 3):
                assert _typed(span.reduce(probe)) == _typed(ref.reduce(probe))
            # no caller dict is stored or changed, though later insertions
            # back-substitute into the stored rows
            assert [_typed(v) for v in vectors] == before
            stored = {id(row) for row in span.rows.values()}
            assert not stored & {id(v) for v in vectors}
        # every branch of Span.add is met: GF(3) has no scalar but 1 and -1,
        # GF(2) none but 1, and over QQ a lead of 1 or -1 beside a Fraction
        # takes the rescale
        assert leads == {
            None: {"1", "-1", "other", "1 with Fractions", "-1 with Fractions",
                   "other with Fractions"},
            2: {"1"},
            3: {"1", "-1"},
            101: {"1", "-1", "other"},
        }[p]


def _dense_rows(rows):
    cols = sorted({k for row in rows for k in row})
    return [[row.get(k, 0) for k in cols] for row in rows]


@pytest.mark.parametrize("field, rows, certified", [
    (QQ, [{0: 1, 2: 3}, {1: 2, 2: 1}, {2: Fraction(1, 2)}], True),
    (Field(101), [{(0, 1): 100, (2, 0): 5}, {(1, 0): 7}], True),
    (Field(3), [{0: 4, 1: 1}, {1: 2}], True),
    (QQ, [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}], False),
    (QQ, [{0: 1, 1: 2}, {0: 1, 2: 1}], False),
    (QQ, [{0: 1}, {}, {1: 1}], False),
    # 3 = 0 mod 3: the first row's lead is at key 1, where the second has its
    # lead too, so certifying key 0 would give rank 2
    (Field(3), [{0: 3, 1: 1}, {1: 1}], False),
], ids=["distinct-leads", "tuple-keys", "unreduced-lead", "repeated-lead",
        "repeated-lead-independent", "empty-row", "lead-zero-mod-p"])
def test_sparse_rank_certificate(monkeypatch, field, rows, certified):
    # rows with distinct least keys and nonzero leads are counted without
    # an elimination; any other rows build a Span
    builds = []

    class CountedSpan(Span):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(linalg, "Span", CountedSpan)
    want = dense.rank(field, _dense_rows(rows))
    assert sparse_rank(field, rows) == want
    assert sparse_rank(field, (dict(row) for row in rows)) == want
    assert len(builds) == (0 if certified else 2)
