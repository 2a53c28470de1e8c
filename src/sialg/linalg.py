"""Dense and sparse exact linear algebra over a :class:`~sialg.fields.Field`.

Dense :class:`Matrix` covers rank / solve / invert with deterministic
first-nonzero pivoting.  :class:`Span` is the one sparse elimination: it
keeps rows stored as ``{column_key: scalar}`` dicts with orderable keys in
reduced echelon form.  Both divide only through ``field.inv`` and narrow
an integral rational back to ``int`` as they scale a pivot row.  The
``sparse_rank``, ``sparse_kernel`` and ``sparse_solve`` helpers are a few
lines each over it; together they carry the large but very sparse systems
(Peirce corners, socles, counit feasibility, comultiplication rank) that
would be wasteful densely.
"""

from __future__ import annotations

from .errors import DimensionMismatch, Infeasible, SingularMatrix
from .fields import narrow


class Matrix:
    """Immutable dense matrix with exact entries."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = [list(r) for r in rows]
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def column(cls, field, vec):
        return cls(field, [[x] for x in vec])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column_vector(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        return Matrix(self.field, [list(col) for col in zip(*self.rows)] if self.rows else [])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        z = self.field.zero
        out = []
        for row in self.rows:
            out_row = []
            for j in range(other.ncols):
                acc = z
                for k, c in enumerate(row):
                    if c:
                        acc = acc + c * other.rows[k][j]
                out_row.append(acc)
            out.append(out_row)
        return Matrix(self.field, out)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shapes differ")
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shapes differ")
        return Matrix(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        rank = 0
        for col in range(self.ncols):
            pivot_row = None
            for r in range(rank, self.nrows):
                if rows[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            inv = self.field.inv(rows[rank][col])
            rows[rank] = [narrow(x * inv) for x in rows[rank]]
            for r in range(self.nrows):
                if r != rank and rows[r][col]:
                    c = rows[r][col]
                    rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
            pivots.append(col)
            rank += 1
        return Matrix(self.field, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right null space, as a list of coefficient lists."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        z, o = self.field.zero, self.field.one
        basis = []
        for j in free:
            vec = [z] * self.ncols
            vec[j] = o
            for r, pc in enumerate(pivots):
                vec[pc] = -reduced.rows[r][j]
            basis.append(vec)
        return basis

    def solve(self, rhs: "Matrix"):
        """Particular solution X of self*X = rhs plus right kernel basis.

        Raises Infeasible when no solution exists.
        """
        if rhs.nrows != self.nrows:
            raise DimensionMismatch("rhs row count differs")
        aug = Matrix(
            self.field,
            [list(r) + list(b) for r, b in zip(self.rows, rhs.rows)],
        )
        reduced, pivots = aug.rref()
        for r in range(len(pivots)):
            if pivots[r] >= self.ncols:
                raise Infeasible("inconsistent linear system")
        z = self.field.zero
        sol = [[z] * rhs.ncols for _ in range(self.ncols)]
        for r, pc in enumerate(pivots):
            for j in range(rhs.ncols):
                sol[pc][j] = reduced.rows[r][self.ncols + j]
        return Matrix(self.field, sol), self.kernel()

    def inverse(self):
        if self.nrows != self.ncols:
            raise SingularMatrix("not square")
        aug = Matrix(
            self.field,
            [
                list(r) + list(e)
                for r, e in zip(self.rows, Matrix.identity(self.field, self.nrows).rows)
            ],
        )
        reduced, pivots = aug.rref()
        if len(pivots) < self.nrows or any(p >= self.ncols for p in pivots):
            raise SingularMatrix("rank deficient")
        return Matrix(self.field, [r[self.ncols:] for r in reduced.rows])


# -- sparse rows -------------------------------------------------------------
#
# A sparse row is a zero-free dict {key: scalar} with mutually orderable keys.


class Span:
    """Row space of sparse vectors, kept in reduced echelon form.

    Each stored row is scaled to 1 at its pivot, its least key, and no
    other stored row has an entry at that key.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows: dict = {}
        for v in vectors:
            self.add(v)

    def add(self, coeffs: dict) -> bool:
        """Insert a vector; False if it was already in the span."""
        row = self.reduce(coeffs)
        if not row:
            return False
        piv = min(row)
        inv = self.field.inv(row[piv])
        row = {k: narrow(v * inv) for k, v in row.items()}
        for other in self.rows.values():
            c = other.get(piv)
            if c:
                for k, v in row.items():
                    w = other.get(k, 0) - c * v
                    if w:
                        other[k] = w
                    else:
                        other.pop(k, None)
        self.rows[piv] = row
        return True

    def reduce(self, coeffs: dict) -> dict:
        # rows are kept fully reduced, so eliminating a pivot only brings in
        # free keys; one pass over the pivots initially present is complete
        row = dict(coeffs)
        for piv in sorted(k for k in row if k in self.rows):
            c = row[piv]
            for k, v in self.rows[piv].items():
                w = row.get(k, 0) - c * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
        return row

    def contains(self, coeffs: dict) -> bool:
        return not self.reduce(coeffs)

    def coordinates(self, coeffs: dict):
        """Coordinates w.r.t. the echelon basis, or None if outside the span.

        Rows are fully reduced, so the coordinate at a basis row is just
        the coefficient at that row's pivot.
        """
        basis = self.basis_items()
        coords = [coeffs.get(piv, self.field.zero) for piv, _ in basis]
        residue = dict(coeffs)
        for (piv, row), c in zip(basis, coords):
            if c:
                for k, v in row.items():
                    w = residue.get(k, 0) - c * v
                    if w:
                        residue[k] = w
                    else:
                        residue.pop(k, None)
        if residue:
            return None
        return coords

    def basis_items(self):
        return sorted(self.rows.items())

    def basis_vectors(self):
        return [row for _, row in self.basis_items()]

    @property
    def dim(self) -> int:
        return len(self.rows)


def sparse_rank(field, rows) -> int:
    return Span(field, rows).dim


def sparse_kernel(field, eq_rows, nunknowns: int):
    """Kernel basis of a homogeneous system given as sparse equation rows.

    Unknowns are keyed 0..nunknowns-1; returns sparse dict vectors.
    """
    span = Span(field, eq_rows)
    basis = []
    for j in range(nunknowns):
        if j in span.rows:
            continue
        vec = {j: field.one}
        for piv, row in span.rows.items():
            c = row.get(j)
            if c:
                vec[piv] = -c
        basis.append(vec)
    return basis


def sparse_solve(field, eq_rows, rhs, nunknowns: int):
    """Solve a sparse inhomogeneous system.

    ``eq_rows`` and ``rhs`` run in parallel.  Returns (solution dict or
    None when infeasible, dimension of the homogeneous solution space).
    The right-hand side rides along as the column keyed ``nunknowns``, so
    the system is infeasible exactly when that column holds a pivot.
    """
    rows = ({**row, nunknowns: b} if b else row for row, b in zip(eq_rows, rhs))
    span = Span(field, rows)
    if nunknowns in span.rows:
        return None, nunknowns - (span.dim - 1)
    sol = {piv: row[nunknowns] for piv, row in span.rows.items() if nunknowns in row}
    return sol, nunknowns - span.dim
