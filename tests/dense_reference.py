"""Dense Gaussian elimination over a Field and a plain sparse echelon
span, kept apart from sialg.linalg, term-by-term bimodule actions, kept
apart from sialg.algebra, and the per-pair radical and model-map loops,
kept apart from algebra.products.

A plain textbook reference for the tests: matrices are lists of rows of
field scalars, pivots are chosen as the first nonzero entry of a column,
the only division is ``field.inv``, and every computed entry passes
through ``field.normal`` (over GF(p) scalars are ints reduced mod p).
The elimination does not use ``sialg.linalg``, so comparing against it
checks ``Span`` and the dense ``Matrix`` view over it with an
independent implementation.  ``SpanReference`` is ``Span`` without its
fast paths: every remainder is rescaled through ``field.inv``, a lead of
1 or -1 included, so comparing ``Span.rows`` with its rows checks those
fast paths down to the type of each stored scalar.  The actions walk
every term of the tensor for every term of the acting element, with no
grouping by leg, so comparing against them checks ``act_left`` and
``act_right``.  The radical and model-map loops multiply every pair of
basis vectors with one ``multiply`` call each, so comparing against them
checks ``algebra.products`` and the checks batched over it; they keep
``Span`` for membership and rank, since the elimination is not what they
test.  ``basic_reduction_reference`` builds the corner algebra e A e
the same way, one ``multiply`` call per composable pair of corner basis
vectors, so comparing against it checks ``PeirceCorners.copy_algebra``
at every multiplicity 1.  ``single_constant_mutants`` gives the seeded
corrupted tables that the differential tests feed to both sides.
"""

from sialg.algebra import Element, FinDimAlgebra, combination, multiply
from sialg.errors import AlgebraError
from sialg.linalg import Span
from sialg.structure import PeirceCorners, RadicalData


def rref(field, rows, ncols):
    """(reduced rows, pivot columns); zero rows sink to the bottom."""
    norm = field.normal
    rows = [[norm(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [norm(x * inv) for x in rows[rank]]
        for r in range(len(rows)):
            c = rows[r][col]
            if r != rank and c:
                rows[r] = [norm(x - c * y) for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def rank(field, rows):
    return len(rref(field, rows, len(rows[0]) if rows else 0)[1])


def kernel(field, rows, ncols):
    """Basis of the right null space: one vector per free column."""
    reduced, pivots = rref(field, rows, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [field.zero] * ncols
        vec[j] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.normal(-reduced[r][j])
        basis.append(vec)
    return basis


def solve(field, rows, rhs, ncols):
    """A solution of rows . x = rhs with free unknowns 0, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(field, aug, ncols + 1)
    if ncols in pivots:
        return None
    sol = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = reduced[r][ncols]
    return sol


def inverse(field, rows):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        return None
    aug = [list(r) + e for r, e in zip(rows, identity(field, n))]
    reduced, pivots = rref(field, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in reduced]


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def matmul(field, a, b):
    return [
        [
            field.normal(sum((x * b[k][j] for k, x in enumerate(row)), field.zero))
            for j in range(len(b[0]))
        ]
        for row in a
    ]


def apply(field, rows, vec):
    return [field.normal(sum((c * x for c, x in zip(row, vec)), field.zero)) for row in rows]


class SpanReference:
    """Reduced echelon rows {pivot: row}, inserted one vector at a time.

    Each remainder is scaled by ``field.inv`` of its lead, then subtracted
    from every stored row that has an entry at its pivot; every stored
    scalar is in the field's normal form.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows = {}
        for v in vectors:
            self.add(v)

    def add(self, coeffs):
        row = self.reduce(coeffs)
        if not row:
            return False
        piv = min(row)
        field = self.field
        inv, norm = field.inv(row[piv]), field.normal
        row = {k: norm(v * inv) for k, v in row.items()}
        for other in self.rows.values():
            c = other.get(piv)
            if c:
                for k, v in row.items():
                    w = norm(other.get(k, 0) - c * v)
                    if w:
                        other[k] = w
                    else:
                        other.pop(k, None)
        self.rows[piv] = row
        return True

    def reduce(self, coeffs):
        p = self.field.p
        row = dict(coeffs) if p is None else {k: w for k, v in coeffs.items() if (w := v % p)}
        for piv in sorted(k for k in row if k in self.rows):
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


def left_multiplication(b):
    """Dense matrix of a -> b a; b is a unit exactly when it has full rank."""
    alg = b.algebra
    cols = [(b * alg.basis_element(t)).coeffs for t in range(alg.dim)]
    return [[col.get(k, alg.field.zero) for col in cols] for k in range(alg.dim)]


def delta_matrix(x):
    """Matrix of a -> a.x as a d^2 x d matrix; rank d means injective."""
    alg = x.algebra
    d = alg.dim
    rows = [[alg.field.zero] * d for _ in range(d * d)]
    for g, img in enumerate(x.delta()):
        for (a, b), c in img.items():
            rows[a * d + b][g] = c
    return rows


def act_left(a, t):
    """Coefficients of a . t, where a . (u (x) v) = (a u) (x) v."""
    rows = t.algebra.rows
    p = t.algebra.field.p
    out = {}
    for (alpha, beta), c in t.coeffs.items():
        for i, ca in a.coeffs.items():
            for k, ck in rows[i][alpha].items():
                w = out.get((k, beta), 0) + ca * c * ck
                if p:
                    w %= p
                if w:
                    out[(k, beta)] = w
                else:
                    out.pop((k, beta), None)
    return out


def act_right(t, a):
    """Coefficients of t . a, where (u (x) v) . a = u (x) (v a)."""
    rows = t.algebra.rows
    p = t.algebra.field.p
    out = {}
    for (alpha, beta), c in t.coeffs.items():
        for j, ca in a.coeffs.items():
            for k, ck in rows[beta][j].items():
                w = out.get((alpha, k), 0) + c * ca * ck
                if p:
                    w %= p
                if w:
                    out[(alpha, k)] = w
                else:
                    out.pop((alpha, k), None)
    return out


def radical_checks(alg, kernel):
    """RadicalData of the span of `kernel` by per-pair products: every
    product of a power's basis with J's for the nilpotency index, then
    b r and r b for every basis element b and every r for the ideal
    check.  Raises AlgebraError as `structure.radical` does."""
    field = alg.field
    span = Span(field, kernel)
    basis = [Element(alg, dict(row)) for row in span.basis_vectors()]
    index = 1
    current = span
    while current.dim:
        nxt = Span(field)
        for row in current.basis_vectors():
            a = Element(alg, dict(row))
            for r in basis:
                prod = multiply(a, r)
                if prod.coeffs:
                    nxt.add(prod.coeffs)
        if nxt.dim >= current.dim and nxt.dim:
            raise AlgebraError("radical candidate is not nilpotent")
        current = nxt
        index += 1
        if index > alg.dim + 1:
            raise AlgebraError("radical candidate is not nilpotent")
    for i in range(alg.dim):
        b = alg.basis_element(i)
        for r in basis:
            if not span.contains(multiply(b, r).coeffs) or not span.contains(
                multiply(r, b).coeffs
            ):
                raise AlgebraError("radical candidate is not an ideal")
    return RadicalData(basis, span, index)


def basic_reduction_reference(alg, reps):
    """(lam, class idempotents of lam, parent elements carrying lam's
    basis) for the corner algebra e A e of orthogonal idempotents `reps`:
    the corner bases concatenated in j-major order, b_a b_b computed by
    one `multiply` call for every pair whose inner classes match, and the
    unit read off the corner components of each rep."""
    corners = PeirceCorners(alg, reps)
    elements, offsets, corner_of = [], {}, []
    for key, basis in corners.bases.items():
        offsets[key] = len(elements)
        elements.extend(basis)
        corner_of.extend([key] * len(basis))
    structure = []
    for a, qa in enumerate(elements):
        ja, ia = corner_of[a]
        for b, qb in enumerate(elements):
            jb, ib = corner_of[b]
            if ia != jb:
                continue
            prod = multiply(qa, qb)
            if prod.coeffs:
                for k, c in enumerate(corners.coordinates((ja, ib), prod.coeffs)):
                    if c:
                        structure.append((a, b, offsets[(ja, ib)] + k, c))
    unit = [alg.field.zero] * len(elements)
    images = []
    for r in reps:
        image = {}
        for key, comp in corners.components(r).items():
            for b, c in comp.items():
                image[offsets[key] + b] = unit[offsets[key] + b] = c
        images.append(image)
    labels = [str(a) for a in range(len(elements))]
    lam = FinDimAlgebra(alg.field, labels, structure, unit)
    lam.validate()
    return lam, [lam.element(image) for image in images], elements


def model_map_failure(alg, model, images):
    """The first message `ModelIsomorphism` gives for the map sending
    model basis vector a to images[a] before its bijectivity check, or
    None: the unit, then every basis pair (a, b) in order, multiplied in
    `alg` one pair at a time."""
    if combination(alg, images, model.unit.coeffs).coeffs != alg.unit.coeffs:
        return "model map does not preserve the unit"
    imgs = [Element(alg, img.coeffs) for img in images]
    for a in range(model.dim):
        for b in range(model.dim):
            if multiply(imgs[a], imgs[b]) != combination(alg, images, model.rows[a][b]):
                return f"model map is not multiplicative at basis pair ({a},{b})"
    return None


def single_constant_mutants(alg, rng, reps):
    """`reps` rounds of three seeded corruptions of alg's structure
    constants: one bumped by 1, one deleted, and one (i, j, k) -> 1 added
    (the table is unchanged when (i, j, k) is already present)."""
    d, one = alg.dim, alg.field.one
    struct = [(i, j, k, c) for i in range(d) for j in range(d)
              for k, c in sorted(alg.rows[i][j].items())]
    unit = alg.unit.dense()
    present = {(i, j, k) for i, j, k, _ in struct}
    for _ in range(reps):
        bumped = list(struct)
        p = rng.randrange(len(bumped))
        i, j, k, c = bumped[p]
        bumped[p] = (i, j, k, c + one)
        deleted = list(struct)
        del deleted[rng.randrange(len(deleted))]
        key = (rng.randrange(d), rng.randrange(d), rng.randrange(d))
        added = struct + ([] if key in present else [key + (one,)])
        for s in (bumped, deleted, added):
            yield FinDimAlgebra(alg.field, alg.labels, s, unit)
