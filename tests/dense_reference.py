"""Dense Gaussian elimination over a Field and a plain sparse echelon
span, kept apart from sialg.linalg, term-by-term bimodule actions, kept
apart from sialg.algebra, and the per-pair radical and model-map loops,
kept apart from algebra.products.

A plain textbook reference for the tests: matrices are lists of rows of
field scalars, pivots are chosen as the first nonzero entry of a column,
the only division is ``field.inv``, and every computed entry passes
through ``field.normal`` (over GF(p) scalars are ints reduced mod p).
The elimination does not use ``sialg.linalg``, so comparing against it
checks ``Span`` and the sparse ``Matrix`` over it with an independent
implementation; ``densify`` writes sparse rows out densely for that.
``SpanReference`` is ``Span`` without its fast paths: every remainder is
rescaled through ``field.inv``, a lead of 1 or -1 included, so comparing
``Span.rows`` with its rows checks those fast paths down to the type of
each stored scalar.  The actions walk
every term of the tensor for every term of the acting element, with no
grouping by leg, so comparing against them checks ``act_left`` and
``act_right``.  The radical and model-map loops multiply every pair of
basis vectors with one ``multiply`` call each.  The radical loops are
the nilpotency and ideal checks that ``structure.radical`` leaves to its
proof, so running them on its kernel checks the proof's premise; the
model-map loop checks ``algebra.products`` and the check batched over
it.  Both keep ``Span`` for membership and rank, since the elimination
is not what they test.  ``basic_reduction_reference`` builds the corner
algebra e A e the same way, one ``multiply`` call per composable pair of
corner basis vectors, so comparing against it checks
``PeirceCorners.copy_algebra`` at every multiplicity 1.
``one_sided_reference`` spans e A or A e by one ``multiply`` call per
basis element, so comparing against it checks that e_i A and A e_i are
the sums of their corners, and ``nakayama_reference`` reads the socles
off those spans and the permutation by one ``multiply`` call per (socle
element, class), so comparing against it checks ``nakayama``, which
spans e_i A from its corners and finds the corner a socle lies in by
reducing it modulo the corner spans.  ``orthogonal_reference`` multiplies
every pair of reps, so comparing against it checks
``PeirceCorners.require_orthogonal``, which counts dimensions instead.
``spread_reference`` finds both model positions of every coefficient
from their full basis tuples, so comparing against it checks that
``spread`` may add the corner basis index to one offset per leg.
``project_reference`` reduces an element modulo the
radical's span and reindexes it on the quotient's complement, so
comparing against it checks that the class grouping reads the quotient
idempotents the lifts came from.  ``frobenius_pair_reference`` takes
the counit in two passes, accepting the first seeded attempt whose Gram
matrix has full rank under the dense elimination here and only then
inverting it through ``dual_basis_tensor``, so comparing against it
checks that ``frobenius_pair`` accepts the same attempt by inverting
once.  It takes the small spaces by ``small_spaces_reference``, the
corner elements killed by J on both sides, so the comparison also checks
that ``frobenius_pair`` reads them as the socles ``nakayama`` computes.
``iso_witnesses_reference`` sweeps each copy corner's basis and then
seeded random combinations of it, and ``duality_pattern_reference``
tries the basis of the intertwiner solutions and then 64 seeded
combinations, so comparing against them checks that the basis alone
decides both.  ``corner_span_reference`` spans left . b_t . right by two
``multiply`` calls per basis element, and ``components_reference`` and
``paired_reference`` sandwich one element, or every basis element, the
same way, so comparing against them checks every corner, the class
grouping that ``PeirceCorners`` batches over ``algebra.products``, and
the tensor components it reads off the inverse of the stacked corner
bases.  ``split_once_reference`` is the quotient split's sweep without
its stop at a corner proved to be a field, so comparing against it
checks that the stop leaves the split's outcome and budget unchanged.
``trace_form_kernel_reference`` accumulates each row of the trace form
from the traces of the basis, so comparing against it checks that the
radical reads the form as the Gram matrix of the traces.
``transport_pair_reference`` takes eps(b_a b) by one ``multiply`` call
per basis element and tests b for a unit by the dense rank of its left
multiplication, so comparing against it checks that ``transport_pair``
reads eps(b_a b) off the Gram rows of eps and that ``is_unit`` takes the
columns b . e_t from one ``products`` walk.
``single_constant_mutants`` gives the seeded corrupted tables that the
differential tests feed to both sides.  These
references read a structure constant one basis pair at a time, as
``rows[i].get(j, {})`` (the stored rows hold only the nonzero products),
and never walk the rows as an index of nonzero pairs the way
``sialg.algebra`` does.

The rest are helpers that only tests read: ``basis``, ``tensor2``,
``conjugate_basis``, ``random_change_of_basis`` and ``structure_equal``
build and compare test data; ``lift`` places a
single-corner element on a copy pair of the amplified model, through
``components_reference``; and ``check_transported_pairs`` asserts the
transport statements that hold (acceptance criterion 6), drawing units
of the diagonal corner sum with ``random_corner_diagonal_unit``.
"""

import random
from itertools import chain, count

from sialg import poly
from sialg.algebra import (
    Element,
    FinDimAlgebra,
    Functional,
    Tensor2,
    combination,
    minimal_polynomial,
    multiply,
)
from sialg.errors import (
    AlgebraError,
    IndexOutOfRange,
    NotFrobenius,
    NotInvertible,
    NotSelfInjectiveLike,
    WitnessNotFound,
)
from sialg.frobenius import COUNIT_RETRY_BUDGET, FrobeniusPair, dual_basis_tensor, gram_matrix
from sialg.linalg import Span, sparse_kernel, sparse_rank, sparse_solve
from sialg.structure import (
    DEFAULT_SEED,
    IsoWitness,
    PeirceCorners,
    RadicalData,
    _right_dual_intertwiners,
    annihilator,
)
from sialg.verify import (
    CheckResult,
    _basic_contexts,
    _random_invertible,
    _transports,
)


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


def densify(field, rows, ncols):
    """Dense rows of the zero-free sparse rows {column: scalar}."""
    return [[row.get(j, field.zero) for j in range(ncols)] for row in rows]


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
    cols = [multiply(b, alg.basis_element(t)).coeffs for t in range(alg.dim)]
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
            for k, ck in rows[i].get(alpha, {}).items():
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
            for k, ck in rows[beta].get(j, {}).items():
                w = out.get((alpha, k), 0) + c * ca * ck
                if p:
                    w %= p
                if w:
                    out[(alpha, k)] = w
                else:
                    out.pop((alpha, k), None)
    return out


def spread_reference(amp, blocks, spec):
    """Coefficients of `amplify.spread`, in its order, with both model
    positions looked up from their full basis tuples per coefficient."""
    index = amp.index
    out = {}
    for (j, i, u, _), grid in blocks.items():
        for t in range(1, amp.m[j] + 1):
            for s, s2 in spec.classes[i]:
                for (b1, b2), c in grid.items():
                    out[(index[(i, j, s, t, b1)], index[(j, u, t, s2, b2)])] = c
    return out


def radical_checks(alg, kernel):
    """(RadicalData, nilpotency index) of the span of `kernel`, checked by
    per-pair products to be a nilpotent two-sided ideal: every product of
    a power's basis with the span's for the index, then b r and r b for
    every basis element b and every r for the ideal check.  Raises
    AlgebraError when the span is not nilpotent or not an ideal; on an
    associative table it is neither, as `canonical_decomposition`
    proves, and the index is at most the span's dimension + 1."""
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
            if span.reduce(multiply(b, r).coeffs) or span.reduce(multiply(r, b).coeffs):
                raise AlgebraError("radical candidate is not an ideal")
    return RadicalData(basis, span), index


def trace_form_kernel_reference(alg):
    """Kernel of the trace form (b_i, b_j) -> tr L_{b_i b_j}: the traces
    tr L_{b_k} = sum_a c_kaa, then each form row accumulated pair by pair
    as sum_k c_ijk tr L_{b_k}, with no Gram matrix of a functional."""
    field, d, rows = alg.field, alg.dim, alg.rows
    traces = [
        field.normal(sum((rows[k].get(a, {}).get(a, 0) for a in range(d)), field.zero))
        for k in range(d)
    ]
    form = []
    for i in range(d):
        form_row = {}
        for j in range(d):
            acc = field.zero
            for k, c in rows[i].get(j, {}).items():
                acc = acc + c * traces[k]
            acc = field.normal(acc)
            if acc:
                form_row[j] = acc
        form.append(form_row)
    return sparse_kernel(field, form, d)


def transport_pair_reference(lam, pair, b):
    """`frobenius.transport_pair` by one `multiply` call per basis element,
    eps'(b_a) = eps(b_a b), refused unless left multiplication by b has
    full rank under the dense elimination here."""
    if rank(lam.field, left_multiplication(b)) != lam.dim:
        raise NotInvertible("transport element is not a unit")
    eps2 = Functional(
        lam, [pair.epsilon(multiply(lam.basis_element(a), b)) for a in range(lam.dim)]
    )
    return FrobeniusPair(eps2, dual_basis_tensor(lam, eps2))


def basic_reduction_reference(alg, reps):
    """(lam, class idempotents of lam, parent elements carrying lam's
    basis) for the corner algebra e A e of orthogonal idempotents `reps`:
    the corner bases concatenated in j-major order, b_a b_b computed by
    one `multiply` call for every pair whose inner classes match, and the
    unit read off the sandwich coordinates of each rep, which need no
    complete set of reps (`components_reference`)."""
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
        for key, comp in components_reference(corners, r).items():
            for b, c in comp.items():
                image[offsets[key] + b] = unit[offsets[key] + b] = c
        images.append(image)
    labels = [str(a) for a in range(len(elements))]
    lam = FinDimAlgebra(alg.field, labels, structure, unit)
    lam.validate()
    return lam, [lam.element(image) for image in images], elements


def one_sided_reference(alg, rep, left):
    """Echelon basis of rep A if `left`, else of A rep: the span of
    rep . b_t (or b_t . rep) over the basis b_t."""
    span = Span(alg.field)
    for b in basis(alg):
        span.add((multiply(rep, b) if left else multiply(b, rep)).coeffs)
    return [Element(alg, dict(row)) for row in span.basis_vectors()]


def corner_span_reference(alg, left, right):
    """Span of left . b_t . right over the basis b_t, added in basis order."""
    return Span(alg.field, (multiply(multiply(left, b), right).coeffs for b in basis(alg)))


def components_reference(corners, a):
    """{(j, i): {b: c}}, the nonzero corner coordinates of e_j a e_i."""
    out = {}
    for (j, i) in corners.spans:
        w = multiply(multiply(corners.reps[j], a), corners.reps[i]).coeffs
        if w:
            coords = corners.spans[(j, i)].coordinates(w)
            out[(j, i)] = {b: c for b, c in enumerate(coords) if c}
    return out


def project_reference(quot, complement, rad, a):
    """The image of `a` in the semisimple quotient `quot`: its remainder
    modulo rad.span, reindexed on the `complement` that carries it."""
    pos = {idx: t for t, idx in enumerate(complement)}
    return Element(quot, {pos[i]: c for i, c in rad.span.reduce(a.coeffs).items()})


def small_spaces_reference(corners, nak, rad):
    """Per class i, the elements of the corner (nu^-1(i), i) killed by the
    radical on both sides, by the two-sided annihilator."""
    return [
        annihilator(corners.alg, corners.bases[(nak.nu_inverse(i), i)], rad.basis, rad.basis)
        for i in range(len(corners.reps))
    ]


def frobenius_pair_reference(corners, nak, rad, seed=DEFAULT_SEED):
    """The Frobenius pair in two passes: the counit of the first seeded
    attempt whose Gram matrix has full rank, then `dual_basis_tensor`,
    which builds and eliminates that Gram matrix a second time.  The
    attempts are `frobenius_pair`'s: the small-space basis first in each
    corner (nu^-1(i), i), then a complement from the corner basis, every
    other corner whole; targets 1 on the small slots at attempt 0, seeded
    nonzero scalars after.  Raises NotFrobenius with its message."""
    lam = corners.alg
    field = lam.field
    n = len(corners.reps)
    small = small_spaces_reference(corners, nak, rad)
    vectors, small_slots = [], []
    for i in range(n):
        for j in range(n):
            corner = corners.bases[(j, i)]
            if j != nak.nu_inverse(i):
                vectors.extend(corner)
                continue
            span = Span(field)
            for z in small[i]:
                span.add(z.coeffs)
                small_slots.append(len(vectors))
                vectors.append(z)
            vectors.extend(q for q in corner if span.add(q.coeffs))
    rng = random.Random(seed)
    for attempt in range(COUNIT_RETRY_BUDGET):
        targets = [field.zero] * lam.dim
        for slot in small_slots:
            targets[slot] = field.one if attempt == 0 else field.random_nonzero(rng)
        sol, _ = sparse_solve(field, [v.coeffs for v in vectors], targets, lam.dim)
        eps = Functional(lam, [sol.get(k, field.zero) for k in range(lam.dim)])
        gram = gram_matrix(lam, eps)
        if rank(field, densify(field, gram.rows, gram.ncols)) == lam.dim:
            return FrobeniusPair(eps, dual_basis_tensor(lam, eps))
    raise NotFrobenius(
        "no counit with the required corner support has an invertible Gram"
        f" matrix after {COUNIT_RETRY_BUDGET} seeded attempts"
    )


def iso_witnesses_reference(alg, dec, seed=DEFAULT_SEED, budget_factor=32):
    """IsoWitness by a seeded sweep: u runs over the basis of e_{i1} A e_{is},
    then over seeded random combinations of it, until u v = e_{i1} has a
    solution v in the opposite corner, within budget_factor * dim tries
    per copy; one seeded generator serves every copy."""
    rng = random.Random(seed)
    field = alg.field
    us, vs = [], []
    for i, cls in enumerate(dec.classes):
        e1 = cls[0]
        row_u, row_v = [e1], [e1]
        corners = PeirceCorners(alg, cls)
        for s in range(1, len(cls)):
            c1, c2 = corners.bases[(0, s)], corners.bases[(s, 0)]
            found = None
            for t in range(budget_factor * alg.dim):
                if t < len(c1):
                    u = c1[t]
                else:
                    u = combination(alg, c1, [field.random(rng) for _ in c1])
                if not u.coeffs:
                    continue
                per_coord = {}
                for col, w in enumerate(c2):
                    for k, c in multiply(u, w).coeffs.items():
                        per_coord.setdefault(k, {})[col] = c
                keys = sorted(set(per_coord) | set(e1.coeffs))
                sol, _ = sparse_solve(
                    field,
                    [per_coord.get(k, {}) for k in keys],
                    [e1.coeffs.get(k, field.zero) for k in keys],
                    len(c2),
                )
                if sol is not None:
                    found = u, combination(alg, c2, sol)
                    break
            if found is None:
                raise WitnessNotFound(f"no witness for copy {s} of class {i}")
            row_u.append(found[0])
            row_v.append(found[1])
        us.append(row_u)
        vs.append(row_v)
    return IsoWitness(us, vs)


def duality_pattern_reference(corners, seed=DEFAULT_SEED):
    """For each class i, the classes j with an invertible intertwiner
    e_i A -> (A e_j)^*, tried on the basis of the solutions, then on 64
    seeded combinations of it with coefficients in -3..3."""
    alg = corners.alg
    field = alg.field
    n = len(corners.reps)

    def invertible(vec, size):
        rows = [{} for _ in range(size)]
        for key, c in vec.items():
            rows[key // size][key % size] = c
        return sparse_rank(field, rows) == size

    def holds(i, j):
        u_basis = one_sided_reference(alg, corners.reps[i], True)
        x_basis = one_sided_reference(alg, corners.reps[j], False)
        size = len(u_basis)
        if size != len(x_basis):
            return False
        sols = _right_dual_intertwiners(
            alg,
            u_basis,
            Span(field, (e.coeffs for e in u_basis)),
            x_basis,
            Span(field, (e.coeffs for e in x_basis)),
        )
        if any(invertible(vec, size) for vec in sols):
            return True
        if not sols:
            return False
        rng = random.Random(seed)
        for _ in range(64):
            combo = {}
            for vec in sols:
                c = field.random(rng, -3, 3)
                for k, v in vec.items():
                    combo[k] = field.normal(combo.get(k, field.zero) + c * v)
            combo = {k: v for k, v in combo.items() if v}
            if combo and invertible(combo, size):
                return True
        return False

    return [{j for j in range(n) if holds(i, j)} for i in range(n)]


def split_once_reference(qalg, e, corner_elems, rng, budget):
    """`structure._split_once` as a full sweep: the basis of e Q e, then
    seeded random combinations of it, until a minimal polynomial with two
    coprime factors splits e or the budget runs out, with no stop at a
    corner proved to be a field.  Returns ((e1, e2) or None,
    attempts_used)."""
    field = qalg.field
    draws = (
        combination(qalg, corner_elems, [field.random(rng) for _ in corner_elems])
        for _ in count()
    )
    attempts = 0
    for z in chain(corner_elems, draws):
        if attempts >= budget:
            return None, attempts
        attempts += 1
        if not z.coeffs:
            continue
        mu = minimal_polynomial(z, unit=e)
        _, factors = poly.factor(field, mu)
        if len(factors) < 2:
            continue
        f = factors[0][0]
        for _ in range(factors[0][1] - 1):
            f = poly.mul(field, f, factors[0][0])
        g, _ = poly.divmod_poly(field, mu, f)
        _, _, v = poly.xgcd(field, f, g)
        eps_poly = poly.mod(field, poly.mul(field, v, g), mu)
        eps = e.scaled(field.zero)
        power = e
        for c in eps_poly:
            if c:
                eps = eps + power.scaled(c)
            power = multiply(power, z)
        if not eps.coeffs or eps == e:
            continue
        if multiply(eps, eps) != eps:
            raise AlgebraError("split produced a non-idempotent")
        return (eps, e - eps), attempts


def paired_reference(qalg, eu, ev):
    """True iff eu . b . ev != 0 for some basis element b of qalg."""
    return any(multiply(multiply(eu, b), ev).coeffs for b in basis(qalg))


def nakayama_reference(alg, reps, rad, projectives):
    """(nu, socles) for a basic algebra with one rep per class, from a
    basis of each e_i A in `projectives`: soc(e_i A) is the right
    annihilator of the radical in it, and nu(i) the one class k with
    soc(e_i A) e_k != 0, found by one `multiply(s, e_k)` per (socle
    element, class).  It refuses as `nakayama` does, with its messages."""
    nu, socles = [], []
    for i, basis in enumerate(projectives):
        soc = annihilator(alg, basis, [], rad.basis)
        if not soc:
            raise NotSelfInjectiveLike(f"socle of projective class {i} is zero")
        hits = [k for k, ek in enumerate(reps) if any(multiply(s, ek).coeffs for s in soc)]
        if len(hits) != 1:
            raise NotSelfInjectiveLike(f"socle of projective class {i} meets classes {hits}")
        nu.append(hits[0])
        socles.append(soc)
    if sorted(nu) != list(range(len(reps))):
        raise NotSelfInjectiveLike(f"socle pattern {nu} is not a permutation")
    return tuple(nu), socles


def orthogonal_reference(corners):
    """True iff the reps sum to 1 and are orthogonal idempotents, by one
    `multiply` call per ordered pair of reps: e_j e_i is e_i when j = i
    and 0 otherwise."""
    alg, reps = corners.alg, corners.reps
    return sum(reps[1:], reps[0]) == alg.unit and all(
        multiply(ej, ei) == (ei if j == i else alg.zero())
        for j, ej in enumerate(reps)
        for i, ei in enumerate(reps)
    )


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
            if multiply(imgs[a], imgs[b]) != combination(alg, images, model.rows[a].get(b, {})):
                return f"model map is not multiplicative at basis pair ({a},{b})"
    return None


def single_constant_mutants(alg, rng, reps):
    """`reps` rounds of three seeded corruptions of alg's structure
    constants: one bumped by 1, one deleted, and one (i, j, k) -> 1 added
    (the table is unchanged when (i, j, k) is already present)."""
    d, one = alg.dim, alg.field.one
    struct = [(i, j, k, c) for i in range(d) for j in range(d)
              for k, c in sorted(alg.rows[i].get(j, {}).items())]
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


def nakayama_algebra_reference(n, l, field):
    """`families.nakayama_algebra` by a scan of all d^2 basis pairs, each
    tested against the composition rule of paths."""
    idx = {(i, k): i * l + k for i in range(n) for k in range(l)}
    labels = [f"p[{i},{k}]" for i in range(n) for k in range(l)]
    structure = []
    for (i, k), a in idx.items():
        for (i2, k2), b in idx.items():
            if i2 == (i + k) % n and k + k2 <= l - 1:
                structure.append((a, b, idx[(i, k + k2)], field.one))
    unit = [field.zero] * (n * l)
    for i in range(n):
        unit[idx[(i, 0)]] = field.one
    return FinDimAlgebra(field, labels, structure, unit)


def nsy_algebra_reference(n, l, m, field):
    """`families.nsy_algebra(...).algebra` by a scan of all d^2 basis
    pairs, each tested against the composition rule of the X basis."""
    tuples = [
        (i, k, r, s)
        for i in range(n)
        for k in range(l)
        for r in range(m[i])
        for s in range(m[(i + k) % n])
    ]
    index = {t: a for a, t in enumerate(tuples)}
    labels = [f"X[{i},{k};{r},{s}]" for (i, k, r, s) in tuples]
    structure = []
    for (i, k, r, s), a in index.items():
        for (i2, k2, r2, s2), b in index.items():
            if i2 == (i + k) % n and r2 == s and k + k2 <= l - 1:
                structure.append((a, b, index[(i, k + k2, r, s2)], field.one))
    unit = [field.zero] * len(tuples)
    for i in range(n):
        for r in range(m[i]):
            unit[index[(i, 0, r, r)]] = field.one
    return FinDimAlgebra(field, labels, structure, unit)


def matrix_algebra_reference(size, field):
    """`families.matrix_algebra` by a scan of all d^2 basis pairs."""
    idx = {(u, v): u * size + v for u in range(size) for v in range(size)}
    labels = [f"E[{u + 1},{v + 1}]" for u in range(size) for v in range(size)]
    structure = []
    for (u, v), a in idx.items():
        for (w, z), b in idx.items():
            if v == w:
                structure.append((a, b, idx[(u, z)], field.one))
    unit = [field.zero] * (size * size)
    for u in range(size):
        unit[idx[(u, u)]] = field.one
    return FinDimAlgebra(field, labels, structure, unit)


# -- helpers read only by the tests ---------------------------------------------


def basis(alg):
    return [alg.basis_element(i) for i in range(alg.dim)]


def tensor2(alg, coeffs):
    """Tensor2 of {(a, b): scalar}, or of (key, scalar) pairs, where a
    repeated key adds up; scalars are coerced into the field."""
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    p = alg.field.p
    out = {}
    for key, c in items:
        w = out.get(key, 0) + alg.field(c)
        if p:
            w %= p
        if w:
            out[key] = w
        else:
            out.pop(key, None)
    return Tensor2(alg, out)


def conjugate_basis(alg, T):
    """Presentation on the basis b'_r = sum_s T[r][s] b_s, T invertible."""
    field = alg.field
    inv = inverse(field, T)
    d = alg.dim
    structure = []
    for i in range(d):
        for j in range(d):
            prod: dict = {}
            for a, ca in enumerate(T[i]):
                if not ca:
                    continue
                for b, cb in enumerate(T[j]):
                    if not cb:
                        continue
                    for k, c in alg.rows[a].get(b, {}).items():
                        prod[k] = prod.get(k, field.zero) + ca * cb * c
            for k, c in prod.items():
                if not c:
                    continue
                for r in range(d):
                    w = inv[k][r] * c
                    if w:
                        structure.append((i, j, r, w))
    merged: dict = {}
    for i, j, r, c in structure:
        merged[(i, j, r)] = merged.get((i, j, r), field.zero) + c
    entries = [(i, j, r, c) for (i, j, r), c in merged.items() if c]
    unit = [field.zero] * d
    for k, c in alg.unit.coeffs.items():
        for r in range(d):
            unit[r] = unit[r] + inv[k][r] * c
    return FinDimAlgebra(field, [f"v{r}" for r in range(d)], entries, unit)


def random_change_of_basis(alg, rng):
    """`conjugate_basis` by the first seeded T with entries in -2..2 that
    has full rank: a presentation with no monomial structure left."""
    while True:
        T = [[alg.field.random(rng, -2, 2) for _ in range(alg.dim)] for _ in range(alg.dim)]
        if rank(alg.field, T) == alg.dim:
            return conjugate_basis(alg, T)


def structure_equal(a, b):
    """Same field, dimension, products and unit (labels ignored)."""
    return (
        a.field == b.field
        and a.dim == b.dim
        and a.rows == b.rows
        and a.unit.coeffs == b.unit.coeffs
    )


def lift(amp, phi, s, t):
    """phi^{t<-s}: a single-corner element phi of the base algebra placed
    from copy s of its source class to copy t of its target class."""
    comps = components_reference(amp.corners, phi)
    if not comps:
        return amp.algebra.zero()
    if len(comps) > 1:
        raise ValueError("element meets several Peirce corners")
    [((j, i), coords)] = comps.items()
    if not (1 <= s <= amp.m[i]) or not (1 <= t <= amp.m[j]):
        raise IndexOutOfRange(
            f"copy indices ({s},{t}) outside 1..{amp.m[i]} x 1..{amp.m[j]}"
        )
    return Element(amp.algebra, {amp.index[(i, j, s, t, b)]: c for b, c in coords.items()})


def random_corner_diagonal_unit(corners, rng):
    """Random unit of the diagonal corner sum e_1 L e_1 + ... + e_n L e_n."""
    lam = corners.alg
    field = lam.field
    while True:
        b = lam.zero()
        for rep in corners.reps:
            r = lam.element({i: field.random(rng, -2, 2) for i in range(lam.dim)})
            b = b + rep + multiply(multiply(rep, r), rep).scaled(field.random(rng, -2, 2))
        if rank(field, left_multiplication(b)) == lam.dim:
            return b


def check_transported_pairs(cache):
    """Transport statements that hold, on every basic corpus algebra.

    Two seeded sequences start from the constructed pair, each with
    TRANSPORTS_PER_ALGEBRA transports: by units of the diagonal corner sum
    e_1 L e_1 + ... + e_n L e_n, where every clause of
    `verify_frobenius_pair` (support clauses included) must keep holding;
    and by arbitrary units, where the pair must stay genuine (invariant
    tensor, both counit identities, nonzero on every small space).
    """
    failures = []
    pairs_checked = 0
    for idx, entry, ctx in _basic_contexts(cache):
        corners = ctx.analysis.corners
        lam = corners.alg
        diag_rng = random.Random(cache.seed * 13 + idx)
        any_rng = random.Random(cache.seed * 7 + idx)
        sequences = (
            (
                "diagonal-corner",
                lambda: random_corner_diagonal_unit(corners, diag_rng),
                lambda rep: rep.all_ok,
            ),
            (
                "arbitrary",
                lambda: _random_invertible(lam, any_rng),
                lambda rep: rep.invariant and rep.counital and rep.small_ok,
            ),
        )
        for label, draw, holds in sequences:
            for t, b, rep in _transports(ctx, draw):
                pairs_checked += 1
                if not holds(rep):
                    failures.append(f"{entry.key} {label} transport {t} by ({b}): {rep}")
                    break
    return CheckResult(
        "frobenius-pair-transports",
        not failures,
        f"{pairs_checked} pairs (constructed + two seeded transport sequences)"
        " verified",
        failures,
    )
