"""Exact linear algebra over a :class:`~sialg.fields.Field`: one elimination.

:class:`Span` is the only elimination algorithm: it keeps rows stored as
``{column_key: scalar}`` dicts with orderable keys in reduced echelon
form, divides only through ``field.inv`` and brings every scalar it
stores into the field's normal form (``Field.normal``: an integral
rational as ``int``, a residue mod p in ``range(p)``).  The ``sparse_rank``,
``sparse_kernel`` and ``sparse_solve`` helpers are a few lines each over
it; together they carry the large but very sparse systems (Peirce
corners, socles, counit feasibility, comultiplication rank) that would
be wasteful densely.
``sparse_rank`` first tries a certificate: nonempty rows with pairwise
distinct least keys, each with a nonzero coefficient there, are already
in echelon form, so their rank is their count and no :class:`Span` is
built.  :class:`Matrix` holds sparse rows over a fixed number of columns
and is the one inversion: ``inverse`` tags row t with the column n + t and
reads the inverse off one ``rref``, a :class:`Span` of the tagged rows.
It inverts the Gram matrix of a counit and the model map of the
pipeline.
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularMatrix


class Matrix:
    """Matrix of zero-free sparse rows ``{column: scalar}`` over the
    columns ``range(ncols)``; the rows are kept, not copied."""

    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field, rows, ncols: int):
        rows = list(rows)
        for r in rows:
            if r and (min(r) < 0 or max(r) >= ncols):
                raise DimensionMismatch(f"row entry outside columns 0..{ncols - 1}")
        self.field = field
        self.rows = rows
        self.ncols = ncols

    def rref(self):
        """(nonzero reduced rows in pivot order, pivot column tuple)."""
        span = Span(self.field, self.rows)
        return span.basis_vectors(), tuple(sorted(span.rows))

    def inverse(self) -> Matrix:
        """Row t is tagged by column n + t; the tags are independent, so the
        matrix inverts exactly when it is square and no pivot is a tag, and
        the reduced row at pivot k then spells row k of the inverse in its
        tag columns."""
        n, one = self.ncols, self.field.one
        if len(self.rows) != n:
            raise SingularMatrix("not square")
        tagged = Matrix(self.field, ({**r, n + t: one} for t, r in enumerate(self.rows)), 2 * n)
        reduced, pivots = tagged.rref()
        if any(p >= n for p in pivots):
            raise SingularMatrix("rank deficient")
        return Matrix(self.field, ({j - n: c for j, c in r.items() if j >= n} for r in reduced), n)


# -- sparse rows -------------------------------------------------------------
#
# A sparse row is a zero-free dict {key: scalar} with mutually orderable keys.


class Span:
    """Row space of sparse vectors, kept in reduced echelon form.

    Each stored row is scaled to 1 at its pivot, its least key, and no
    other stored row has an entry at that key.  `_keys` holds every key
    ever stored in a row, so a new pivot outside it needs no
    back-elimination.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows: dict = {}
        self._keys: set = set()
        for v in vectors:
            self.add(v)

    def add(self, coeffs: dict) -> bool:
        """Insert a vector; False if it was already in the span."""
        row = self.reduce(coeffs)
        if not row:
            return False
        piv = min(row)
        field = self.field
        p = field.p
        lead, top = row[piv], p or 0
        # reduce leaves residues in range(p) over GF(p), and a row of ints
        # over QQ is in normal form too, so a lead of 1 needs no rescale and
        # a lead of -1 (top - 1 in normal form) only a negation
        if (lead == 1 or lead == top - 1) and (p or all(type(v) is int for v in row.values())):
            if lead != 1:
                row = {k: top - v for k, v in row.items()}
        else:
            inv, norm = field.inv(lead), field.normal
            row = {k: norm(v * inv) for k, v in row.items()}
        if piv in self._keys:
            for other in self.rows.values():
                c = other.get(piv)
                if c:
                    for k, v in row.items():
                        w = other.get(k, 0) - c * v
                        if p:
                            w %= p
                        elif type(w) is not int and w.denominator == 1:
                            w = w.numerator  # an integral Fraction, stored as int
                        if w:
                            other[k] = w
                        else:
                            other.pop(k, None)
        self._keys.update(row)
        self.rows[piv] = row
        return True

    def reduce(self, coeffs: dict) -> dict:
        """The remainder of `coeffs` modulo the span: a new zero-free row
        whose scalars are in the field's normal form over GF(p).

        Rows are kept fully reduced, so eliminating a pivot only brings in
        free keys; one pass over the pivots initially present is complete.
        """
        p = self.field.p
        row = dict(coeffs) if p is None else {k: w for k, v in coeffs.items() if (w := v % p)}
        for piv in sorted(row.keys() & self.rows.keys()):
            c = row[piv]
            for k, v in self.rows[piv].items():
                w = row.get(k, 0) - c * v
                if p:
                    w %= p
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
        if self.reduce(coeffs):
            return None
        norm, zero = self.field.normal, self.field.zero
        return [norm(coeffs.get(piv, zero)) for piv in sorted(self.rows)]

    def basis_items(self):
        return sorted(self.rows.items())

    def basis_vectors(self):
        return [row for _, row in self.basis_items()]

    @property
    def dim(self) -> int:
        return len(self.rows)


def sparse_rank(field, rows) -> int:
    """Rank of a list or iterable of sparse rows.

    Nonempty rows whose least keys are pairwise distinct, each with a
    coefficient nonzero in the field there, are already in echelon form,
    so their count is the rank; any other rows go through :class:`Span`.
    """
    rows = list(rows)
    p = field.p
    leads = set()
    for row in rows:
        if not row:
            break
        lead = min(row)
        c = row[lead]
        if lead in leads or not (c % p if p else c):
            break
        leads.add(lead)
    else:
        return len(rows)
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
                vec[piv] = field.normal(-c)
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
