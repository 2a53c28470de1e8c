"""Structure theory: radical, canonical decomposition, Peirce corners,
Nakayama data and the basic reduction.

The radical is the kernel of the trace form (characteristic 0 or p > dim),
`algebra.gram_matrix` of the traces tr L_b; for commutative algebras over
GF(p) it is the kernel of a high Frobenius power (modular group algebras).
Idempotents are lifted from the semisimple quotient with the cubic
iteration a -> 3a^2 - 2a^3 and orthogonalized sequentially; splitting
inside the quotient factors minimal polynomials of swept corner elements,
and gives up on a corner as soon as one of them proves it a field.
Two searches are randomized, the quotient split here and the counit
retry of `frobenius_pair`; both take an explicit seed and are
reproducible.  The copy witnesses and the duality pattern are decided on
a basis, with no draw.
`PeirceCorners` is the one Peirce decomposition.  It builds each corner
e_j A e_i as (e_j A) e_i, in O(d n) products of elements for n reps that
sum to 1, and reads the corner components of a tensor off the inverse of
the stacked corner bases.  It gives the corners of the class
representatives, of the copies within a class (for the copy witnesses),
of the quotient images (for the class grouping) and of each idempotent
the quotient split visits; every projection onto the corners goes
through it, and every one-sided ideal e_i A or A e_i is spanned from its
corners, (i, k) or (k, i) over k, where it is read.
`basic_reduction` hands on the input's corners with those of the basic
algebra e A e, which they carry basis element for basis element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, count, product

from . import poly
from .algebra import (
    Element,
    FinDimAlgebra,
    Functional,
    Tensor2,
    combination,
    gram_matrix,
    minimal_polynomial,
    multiply,
    products,
    tensor_image,
)
from .errors import (
    AlgebraError,
    NotBasic,
    NotSelfInjectiveLike,
    UnsupportedField,
    WitnessNotFound,
)
from .linalg import Matrix, Span, sparse_kernel, sparse_rank, sparse_solve

DEFAULT_SEED = 271828
SPLIT_BUDGET_FACTOR = 32

FLAG_SPLIT = "split"
FLAG_NOT_SPLIT = "not-split-unverified"


# -- Peirce corners in the ambient coordinate space ---------------------------


class PeirceCorners:
    """The Peirce corners e_j A e_i of orthogonal idempotents `reps`.

    Each corner's Span and echelon basis is computed once, in j-major
    order, into `spans[(j, i)]` and `bases[(j, i)]`.  One `products` walk
    gives every e_j b_t.  For each j they are right-multiplied by the
    reps as they are when their least keys are pairwise distinct (so
    they are independent, the certificate of `sparse_rank`), and else
    through the echelon basis of the e_j A they span: (e_j A) e_i is
    e_j A e_i, and a reduced echelon basis depends only on its span.  So
    a build makes n + 1 walks, O(d n) products of elements, and no
    `multiply` call.  With reps summing to 1, the corners (i, k) span
    e_i A and the corners (k, i) span A e_i, where those are read.
    `tensor_components` is in corner coordinates, the bases' indices.
    """

    def __init__(self, alg: FinDimAlgebra, reps):
        self.alg = alg
        self.reps = reps
        self.sums_to_one = sum(reps[1:], reps[0]) == alg.unit
        self.spans: dict = {}
        self.bases: dict = {}
        self._inverse = None
        self._ideal_dims = 0  # sum over j of dim e_j A
        field = alg.field
        rep_vectors = [e.coeffs for e in reps]
        basis = [{t: field.one} for t in range(alg.dim)]
        for j, lefts in enumerate(products(alg, rep_vectors, basis)):
            rows = [lefts[t] for t in sorted(lefts)]
            if len({min(row) for row in rows}) < len(rows):
                rows = Span(field, rows).basis_vectors()
            self._ideal_dims += len(rows)
            corners = [[] for _ in reps]
            for prods in products(alg, rows, rep_vectors):
                for i, w in prods.items():
                    corners[i].append(w)
            for i, vectors in enumerate(corners):
                span = self.spans[(j, i)] = Span(field, vectors)
                self.bases[(j, i)] = [Element(alg, dict(row)) for row in span.basis_vectors()]

    def require_sum_one(self):
        """Raise NotBasic unless the reps sum to 1; on a basic algebra,
        unless there is one idempotent per class."""
        if not self.sums_to_one:
            raise NotBasic("the class representatives do not sum to 1")

    def require_orthogonal(self):
        """Raise NotBasic unless the reps are orthogonal idempotents summing
        to 1, by the dimensions of the e_j A that `__init__` spanned.
        Proof, for reps summing to 1: A = sum_j e_j A as a = 1 a, and the
        sum is direct exactly when sum_j dim e_j A = dim A.  e_j = e_j 1 is
        in e_j A and e_j = sum_i e_i e_j with e_i e_j in e_i A, so a direct
        sum gives e_i e_j = delta_ij e_j, and orthogonal idempotents give a
        direct sum.  This needs bilinearity and the unit axiom, which
        `analyze` checks with Lambda's `validate` before `nakayama` runs."""
        self.require_sum_one()
        if self._ideal_dims != self.alg.dim:
            raise NotBasic("the class representatives are not orthogonal idempotents")

    def coordinates(self, corner, coeffs: dict) -> list:
        """Coordinates of `coeffs` in the corner's echelon basis."""
        coords = self.spans[corner].coordinates(coeffs)
        if coords is None:
            raise AlgebraError(f"element left its Peirce corner {corner}")
        return coords

    def tensor_components(self, y: Tensor2) -> dict:
        """Nonzero Peirce components of y: {(j, i, u, v): {(b1, b2): c}},
        the component in e_j A e_i (x) e_u A e_v in corner coordinates.
        For orthogonal idempotents summing to 1 (`require_orthogonal`), the
        stacked corner bases are the rows of an invertible B, and y in corner
        coordinates is `tensor_image` on the rows of B^-1, kept once built."""
        self.require_orthogonal()
        alg = self.alg
        if self._inverse is None:
            stacked = (q.coeffs for basis in self.bases.values() for q in basis)
            self._inverse = Matrix(alg.field, stacked, alg.dim).inverse().rows
        slots = [(key, b) for key, basis in self.bases.items() for b in range(len(basis))]
        out: dict = {}
        for (s1, s2), c in tensor_image(alg.field, y.coeffs, self._inverse).items():
            (left, b1), (right, b2) = slots[s1], slots[s2]
            out.setdefault(left + right, {})[(b1, b2)] = c
        return out

    def copy_algebra(self, m):
        """End(+ (e_i A)^m(i)) on copies of the corner bases: (tuples, algebra).

        Tuple (i, j, s, t, b), label `a[j<-i;t<-s].b`, is corner basis
        element b of (j <- i) taken from copy s of class i to copy t of
        class j.  Tuples run in j-major corner order, then s, t, b.  With
        every m(i) = 1 this is the corner algebra e A e.
        """
        alg, bases = self.alg, self.bases
        tuples = tuple(
            (i, j, s, t, b)
            for (j, i), corner in bases.items()
            for s in range(1, m[i] + 1)
            for t in range(1, m[j] + 1)
            for b in range(len(corner))
        )
        index = {tup: a for a, tup in enumerate(tuples)}
        structure = []
        # a[j1<-i1;t1<-s1].b1 a[i1<-i2;s1<-s2].b2 = sum_k c_k a[j1<-i2;t1<-s2].k,
        # with c the corner coordinates of q1 q2, found once per pair (q1, q2)
        flat = [(j, i, b) for (j, i), corner in bases.items() for b in range(len(corner))]
        vectors = [bases[(j, i)][b].coeffs for j, i, b in flat]
        for (j1, i1, b1), row in zip(flat, products(alg, vectors, vectors)):
            for y, prod in row.items():
                # `products` yields only nonzero q1 q2 = q1 e_i1 e_j2 q2, so
                # j2 = i1 for orthogonal reps
                _, i2, b2 = flat[y]
                entries = [(k, c) for k, c in enumerate(self.coordinates((j1, i2), prod)) if c]
                for s1, t1, s2 in product(
                    range(1, m[i1] + 1), range(1, m[j1] + 1), range(1, m[i2] + 1)
                ):
                    a_idx, b_idx = index[(i1, j1, s1, t1, b1)], index[(i2, i1, s2, s1, b2)]
                    structure.extend(
                        (a_idx, b_idx, index[(i2, j1, s2, t1, k)], c) for k, c in entries
                    )
        unit = [alg.field.zero] * len(tuples)
        for i, rep in enumerate(self.reps):
            for k, c in enumerate(self.coordinates((i, i), rep.coeffs)):
                for t in range(1, m[i] + 1):
                    unit[index[(i, i, t, t, k)]] = c
        labels = [f"a[{j}<-{i};{t}<-{s}].{b}" for (i, j, s, t, b) in tuples]
        return tuples, FinDimAlgebra(alg.field, labels, structure, unit)


def _element_pow(a: Element, q: int) -> Element:
    acc = None
    base = a
    while q:
        if q & 1:
            acc = base if acc is None else multiply(acc, base)
        q >>= 1
        if q:
            base = multiply(base, base)
    return acc


# -- radical -------------------------------------------------------------------


@dataclass
class RadicalData:
    """The Jacobson radical J: `basis` as elements of the algebra, and
    `span` their echelon span, whose pivots `semisimple_quotient` drops."""

    basis: list
    span: Span

    @property
    def dim(self) -> int:
        return len(self.basis)


def _trace_form_kernel(alg: FinDimAlgebra):
    # tr L_{b_i b_j} = sum_k c_ijk tr L_{b_k}: the Gram matrix of the traces
    traces = Functional(alg, [sum(prod.get(a, 0) for a, prod in row.items()) for row in alg.rows])
    return sparse_kernel(alg.field, gram_matrix(alg, traces).rows, alg.dim)


def _frobenius_power_kernel(alg: FinDimAlgebra):
    # commutative, prime field: radical = nilpotent elements = kernel of
    # x -> x^q for q = p^t >= dim (the map is GF(p)-linear)
    p = alg.field.p
    q = p
    while q < alg.dim:
        q *= p
    rows = [{} for _ in range(alg.dim)]
    for i in range(alg.dim):
        for k, c in _element_pow(alg.basis_element(i), q).coeffs.items():
            rows[k][i] = c
    return sparse_kernel(alg.field, rows, alg.dim)


def radical(alg: FinDimAlgebra) -> RadicalData:
    """Jacobson radical of an associative algebra, as one kernel.

    Over the rationals and over GF(p) with p > dim it is the kernel of
    the trace form, and for commutative algebras over any GF(p) the
    kernel of a Frobenius power; other modular inputs raise
    UnsupportedField.  `canonical_decomposition` proves each kernel J.
    The proof needs associativity, which `analyze` proves afterwards.
    """
    field = alg.field
    if field.p is None or field.p > alg.dim:
        kernel = _trace_form_kernel(alg)
    elif alg.is_commutative():
        kernel = _frobenius_power_kernel(alg)
    else:
        raise UnsupportedField(
            f"radical over GF({field.p}) needs p > dim or a commutative algebra"
        )
    span = Span(field, kernel)
    basis = [Element(alg, dict(row)) for row in span.basis_vectors()]
    return RadicalData(basis, span)


# -- semisimple quotient -------------------------------------------------------


def semisimple_quotient(alg: FinDimAlgebra, rad: RadicalData):
    """(A/J, complement): the quotient on the ambient indices `complement`
    that are not pivots of J's echelon basis, each product reduced
    modulo J; basis element t of A/J is the class of b_complement[t]."""
    field = alg.field
    pivots = set(rad.span.rows)
    complement = [i for i in range(alg.dim) if i not in pivots]
    pos = {idx: t for t, idx in enumerate(complement)}
    structure = []
    for u_t, u in enumerate(complement):
        for v, prod in alg.rows[u].items():
            if v in pos:
                for k, c in rad.span.reduce(prod).items():
                    structure.append((u_t, pos[v], pos[k], c))
    unit_red = rad.span.reduce(alg.unit.coeffs)
    unit = [field.zero] * len(complement)
    for k, c in unit_red.items():
        unit[pos[k]] = c
    labels = [alg.labels[i] + "~" for i in complement]
    return FinDimAlgebra(field, labels, structure, unit), complement


# -- canonical decomposition ---------------------------------------------------


@dataclass
class CanonicalDecomposition:
    classes: list  # list over classes of lists of primitive idempotents
    flags: list

    @property
    def n(self) -> int:
        return len(self.classes)

    @property
    def multiplicities(self) -> tuple:
        return tuple(len(cls) for cls in self.classes)

    @property
    def reps(self) -> list:
        return [cls[0] for cls in self.classes]

    def all_idempotents(self) -> list:
        return [e for cls in self.classes for e in cls]


def _split_once(qalg: FinDimAlgebra, e: Element, corner_elems: list, rng, budget: int):
    """Try to write e as a sum of two orthogonal idempotents, sweeping the
    basis `corner_elems` of e Q e, then seeded random combinations of it.
    Returns ((e1, e2), attempts_used) on success, and (None, attempts_used)
    when the budget runs out or e Q e is proved a field.

    The sweep stops at the first z whose minimal polynomial mu_z is
    irreducible of degree dim e Q e (an exact primitivity test, as in
    Ronyai, J. Symbolic Comput. 9 (1990)).  Then k[z], of dimension
    deg mu_z, is all of e Q e, so e Q e = k[x]/(mu_z) is a field.  Every
    later z generates a subfield k[z], so its mu_z is irreducible, no
    later attempt splits e, and the full sweep would end by spending the
    whole budget.  The stop returns (None, budget), which spends it
    exactly so.  The draws it skips would only have advanced the rng,
    and no later corner reads the rng: with the budget at 0, a later
    call returns before its first basis element.  So the idempotents,
    the flags and the budget left are the full sweep's, byte for byte.
    """
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
            if factors[0][1] == 1 and len(mu) - 1 == len(corner_elems):
                return None, budget
            continue
        f = factors[0][0]
        for _ in range(factors[0][1] - 1):
            f = poly.mul(field, f, factors[0][0])
        g, _ = poly.divmod_poly(field, mu, f)
        # f is the full power of one irreducible factor and g = mu / f,
        # so the two are coprime and v g is 1 mod f and 0 mod g
        _, _, v = poly.xgcd(field, f, g)
        eps_poly = poly.mod(field, poly.mul(field, v, g), mu)
        # evaluate at z relative to the corner unit e
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


def _primitive_idempotents_semisimple(qalg: FinDimAlgebra, seed: int, budget: int):
    """Split the unit of the semisimple `qalg` into primitive orthogonal
    idempotents, in at most `budget` attempts of `_split_once` in all.

    Returns (idempotents, split_certified).  Primitivity is certified by
    corner dimension 1, which is exact for split semisimple algebras;
    corners of larger dimension that resist the seeded splitting budget
    are kept whole and flagged.
    """
    rng = random.Random(seed)
    done = []
    stuck = []
    work = [qalg.unit]
    while work:
        e = work.pop()
        corner = PeirceCorners(qalg, [e]).bases[(0, 0)]
        if len(corner) == 1:
            done.append(e)
            continue
        split, used = _split_once(qalg, e, corner, rng, budget)
        budget -= used
        if split is None:
            stuck.append(e)
        else:
            work.extend(split)
    return done + stuck, not stuck


def _lift_idempotent(alg: FinDimAlgebra, a: Element, steps: int) -> Element:
    three = alg.field(3)
    two = alg.field(2)
    for _ in range(steps + 2):
        sq = multiply(a, a)
        if sq == a:
            return a
        a = sq.scaled(three) - multiply(sq, a).scaled(two)
    raise AlgebraError("idempotent lifting failed to converge")


def canonical_decomposition(
    alg: FinDimAlgebra,
    seed: int = DEFAULT_SEED,
    rad: RadicalData | None = None,
) -> CanonicalDecomposition:
    """Primitive pairwise-orthogonal idempotents summing to 1, grouped by
    isomorphism class of the projectives they cut out.

    Classes and copies are ordered by reverse-lexicographic comparison of
    the idempotent coordinate vectors, so the output is reproducible.

    The quotient A/J is split with no second radical, because `radical`
    returns J exactly, so A/J is semisimple.  Over the rationals and over
    GF(p) with p > dim the trace-form kernel K is J (Dickson's criterion).
    K contains J: for r in J and any b, b r is nilpotent, so
    tr L_{br} = 0.  K is a two-sided ideal, as tr L_{axy} = tr L_{xya}.
    For x in K, tr L_x^k = tr L_{x x^(k-1)} = 0 for every k >= 1, so by
    Newton's identities, which divide only by k <= dim, L_x is nilpotent
    and so is x.  A nil ideal lies in J, so K = J.  Over GF(p) with A
    commutative, x -> x^q is a GF(p)-linear ring map.  Its kernel for
    q >= dim is the set of nilpotent elements, the nilradical, which is
    J.  Both arguments need associativity.  A table that is not
    associative is refused later, by Lambda's `validate` or by the model
    map, and `analyze` then gives it `validate()`'s message and witness.

    The lift is bounded by the nilpotency index of J.  J^(k+1) is
    strictly inside J^k while J^k is nonzero (Nakayama's lemma), so
    J^(dim J + 1) = 0.  Each step of `_lift_idempotent` doubles the
    power of J that holds a^2 - a, so `steps`, the bit length of dim J,
    gives 2^steps >= dim J + 1, and the iterate after `steps` steps is
    idempotent.  The lift returns at the first idempotent iterate, so a
    larger bound than the index changes no lift.
    """
    if rad is None:
        rad = radical(alg)
    quot, complement = semisimple_quotient(alg, rad)
    qidems, certified = _primitive_idempotents_semisimple(
        quot, seed, SPLIT_BUDGET_FACTOR * alg.dim
    )
    qidems.sort(key=lambda e: e.dense(), reverse=True)
    # lift sequentially; the final idempotent is the exact complement.  By
    # induction the sum p of the lifts so far is idempotent: the next lift is
    # an idempotent of (1 - p) A (1 - p), so it is orthogonal to each lift
    # before it, and 1 - p is an idempotent orthogonal to all of them
    steps = rad.dim.bit_length()
    lifted = []
    partial = alg.zero()
    for t, ebar in enumerate(qidems):
        if t == len(qidems) - 1:
            e = alg.unit - partial
        else:
            a = Element(alg, {complement[k]: c for k, c in ebar.coeffs.items()})
            mask = alg.unit - partial
            a = multiply(multiply(mask, a), mask)
            e = _lift_idempotent(alg, a, steps)
        lifted.append(e)
        partial = partial + e
    # group by the semisimple pairing test on the quotient images, which are
    # the qidems each e was lifted from: e_u and e_v cut out isomorphic
    # projectives iff the corner e_u Q e_v is nonzero.  Each lift joins the
    # first class whose head it pairs with, or else heads a new class
    qcorners = PeirceCorners(quot, qidems)
    groups = []
    for v in range(len(lifted)):
        for g in groups:
            if qcorners.bases[(g[0], v)]:
                g.append(v)
                break
        else:
            groups.append([v])
    classes = [sorted((lifted[u] for u in g), key=lambda e: e.dense(), reverse=True) for g in groups]
    classes.sort(key=lambda cls: cls[0].dense(), reverse=True)
    flags = [FLAG_SPLIT] if certified else [FLAG_NOT_SPLIT]
    return CanonicalDecomposition(classes, flags)


# -- right modules, socles, Nakayama permutation -------------------------------


def annihilator(alg: FinDimAlgebra, basis: list, left, right) -> list:
    """Basis of the z in span(basis) with l . z = 0 for every l in `left`
    and z . r = 0 for every r in `right`: the kernel of one equation row
    per (side, factor, coordinate), read off one `products` walk a side."""
    vectors = [q.coeffs for q in basis]
    per_coord: dict = {}
    for t, prods in enumerate(products(alg, vectors, [r.coeffs for r in right])):
        for r, prod in prods.items():
            for k, c in prod.items():
                per_coord.setdefault((False, r, k), {})[t] = c
    for l, prods in enumerate(products(alg, [l.coeffs for l in left], vectors)):
        for t, prod in prods.items():
            for k, c in prod.items():
                per_coord.setdefault((True, l, k), {})[t] = c
    kernel = sparse_kernel(alg.field, per_coord.values(), len(basis))
    return [combination(alg, basis, vec) for vec in kernel]


@dataclass
class NakayamaData:
    nu: tuple  # 0-based permutation on class indices
    socles: list  # per class, basis of soc(e_{i1} A)

    def nu_inverse(self, i: int) -> int:
        return self.nu.index(i)


def nakayama(corners: PeirceCorners, rad: RadicalData) -> NakayamaData:
    """Permutation nu with soc(P_i) isomorphic to top(P_{nu(i)}), read off
    the projectives e_i A of a basic algebra with one rep e_i per class.

    Requires each socle soc(e_i A) to be concentrated in one class;
    otherwise the input is rejected as not self-injective-like.  The
    reps are orthogonal idempotents summing to 1, checked first by
    `require_orthogonal`, so e_i A is the sum of the corners (i, k), and
    the socle is the annihilator of J on one Span of their bases.  A
    socle element s meets only class k (s e_k' = 0 for k' != k) exactly
    when it lies in the corner (i, k): then s = s e_k, and
    s e_k' = s e_k e_k' = 0.  So each socle is reduced modulo the corner
    Spans; only one that meets several classes has them named, by s e_k
    from one `products` walk.
    """
    corners.require_orthogonal()
    alg, n, bases, spans = corners.alg, len(corners.reps), corners.bases, corners.spans
    nu, socles = [], []
    for i in range(n):
        nonempty = [k for k in range(n) if bases[(i, k)]]
        span = Span(alg.field, (q.coeffs for k in nonempty for q in bases[(i, k)]))
        soc = annihilator(alg, [Element(alg, row) for row in span.basis_vectors()], [], rad.basis)
        if not soc:
            raise NotSelfInjectiveLike(f"socle of projective class {i} is zero")
        homes = [k for k in nonempty if not any(spans[(i, k)].reduce(z.coeffs) for z in soc)]
        if not homes:
            reps = [e.coeffs for e in corners.reps]
            hits = sorted({k for row in products(alg, [z.coeffs for z in soc], reps) for k in row})
            raise NotSelfInjectiveLike(f"socle of projective class {i} meets classes {hits}")
        nu.append(homes[0])
        socles.append(soc)
    if sorted(nu) != list(range(n)):
        raise NotSelfInjectiveLike(f"socle pattern {nu} is not a permutation")
    return NakayamaData(tuple(nu), socles)


# -- dual-module cross-check ---------------------------------------------------


def _right_dual_intertwiners(alg, u_basis, u_span, x_basis, x_span):
    """Solution space of theta(u a) = theta(u) . a for theta: U -> X^*.

    U carries the right regular action, X^* the dual of a left module;
    unknown theta is a |U| x |X| coordinate matrix.  The products u b_s
    and b_s x come from one `products` walk a side.
    """
    field = alg.field
    nu_, nx = len(u_basis), len(x_basis)
    basis = [{s: field.one} for s in range(alg.dim)]
    u_prods = list(products(alg, [u.coeffs for u in u_basis], basis))
    eq_rows = []
    for s, x_prods in enumerate(products(alg, basis, [x.coeffs for x in x_basis])):
        gamma = [u_span.coordinates(prods.get(s, {})) for prods in u_prods]
        delta = [x_span.coordinates(x_prods.get(t, {})) for t in range(nx)]
        if any(g is None for g in gamma) or any(dd is None for dd in delta):
            raise AlgebraError("module basis is not closed under the action")
        for r in range(nu_):
            for t in range(nx):
                row: dict = {}
                for w, c in enumerate(gamma[r]):
                    if c:
                        row[w * nx + t] = c
                for q, c in enumerate(delta[t]):
                    if c:
                        key = r * nx + q
                        w2 = field.normal(row.get(key, field.zero) - c)
                        if w2:
                            row[key] = w2
                        else:
                            row.pop(key, None)
                if row:
                    eq_rows.append(row)
    return sparse_kernel(field, eq_rows, nu_ * nx)


def _is_invertible(field, vec: dict, size: int) -> bool:
    """The size x size coordinate matrix `vec` of an intertwiner has full rank."""
    rows = [{} for _ in range(size)]
    for key, c in vec.items():
        rows[key // size][key % size] = c
    return sparse_rank(field, rows) == size


def _duality_holds(corners: PeirceCorners, i: int, j: int) -> bool:
    """Some intertwiner e_i A -> (A e_j)^* is invertible; decided on a
    basis of the solution space S.

    Proof, for e_i primitive in a self-injective algebra, so that e_i A
    has a simple socle: the socle is essential, so an intertwiner is
    injective, and then invertible (the dimensions agree), exactly when
    it does not kill the socle.  The intertwiners that kill it form a
    linear subspace K of S.  If some element of S is invertible, K is a
    proper subspace, and a basis of S has a vector outside K.
    """
    alg, n, bases = corners.alg, len(corners.reps), corners.bases
    u_span = Span(alg.field, (q.coeffs for k in range(n) for q in bases[(i, k)]))
    x_span = Span(alg.field, (q.coeffs for k in range(n) for q in bases[(k, j)]))
    if u_span.dim != x_span.dim:
        return False
    u_basis = [Element(alg, row) for row in u_span.basis_vectors()]
    x_basis = [Element(alg, row) for row in x_span.basis_vectors()]
    sols = _right_dual_intertwiners(alg, u_basis, u_span, x_basis, x_span)
    return any(_is_invertible(alg.field, vec, len(u_basis)) for vec in sols)


def duality_pattern(corners: PeirceCorners) -> list:
    """For each class i, the set of classes j with e_i A = (A e_j)^*, by
    solving the intertwiner equations and exhibiting an invertible basis
    solution (see `_duality_holds` for why a basis suffices).  With the
    reps summing to 1, e_i A and A e_j are spanned by the corners (i, k)
    and (k, j)."""
    corners.require_sum_one()
    n = len(corners.reps)
    return [{j for j in range(n) if _duality_holds(corners, i, j)} for i in range(n)]


# -- basic reduction -----------------------------------------------------------


def basic_reduction(alg: FinDimAlgebra, dec: CanonicalDecomposition):
    """Corner algebra e A e for e the sum of class representatives.

    Returns (input_corners, corners): the input's `PeirceCorners` on the
    class reps, and the basic algebra's `PeirceCorners` on its class
    idempotents, one per class in the parent's class order, so
    multiplicities and the Nakayama permutation stay aligned across the
    reduction.  A basic input is its own reduction, and both are the same
    object.  Otherwise the basic algebra is `input_corners.copy_algebra`
    at every multiplicity 1, its basis tuple (i, j, 1, 1, b) being
    `input_corners.bases[(j, i)][b]`, and its class idempotents are the
    unit's parts in the diagonal corners.  Its corner (j, i) has the unit
    vectors of those tuples as its basis, in order, so
    `input_corners.bases[key][b]` carries `corners.bases[key][b]`.
    """
    reps = dec.reps
    input_corners = PeirceCorners(alg, reps)
    if input_corners.sums_to_one:
        return input_corners, input_corners
    tuples, lam = input_corners.copy_algebra((1,) * len(reps))
    # the unit's part in diagonal corner (i, i) is class i's idempotent
    parts = [{} for _ in reps]
    for a, c in lam.unit.coeffs.items():
        parts[tuples[a][0]][a] = c
    return input_corners, PeirceCorners(lam, [lam.element(p) for p in parts])


# -- isomorphism witnesses between projective copies ---------------------------


@dataclass
class IsoWitness:
    us: list  # us[i][s] in e_{i1} A e_{is}
    vs: list  # vs[i][s] in e_{is} A e_{i1}


def iso_witnesses(alg: FinDimAlgebra, dec: CanonicalDecomposition) -> IsoWitness:
    """Elements u, v with u v = e_{i1} and v u = e_{is} for every copy.

    u runs over the basis of the corner e_{i1} A e_{is}; v solves the
    linear equation u v = e_{i1} inside the opposite corner, and v u =
    e_{is} is then checked exactly.

    Proof that the basis suffices, for primitive e_{i1} and e_{is} that
    cut out isomorphic projectives: the corner is Hom(e_{is} A, e_{i1} A),
    and an isomorphism in it does not lie in J, so the corner does not
    lie in J and neither does some basis element u.  Such a u induces a
    nonzero morphism of the simple tops, an isomorphism by Schur's lemma,
    so u is an isomorphism of the projectives by Nakayama's lemma and the
    solve succeeds.  When no basis element gives one, the copies are not
    isomorphic, and WitnessNotFound names the class and the copy.
    """
    us, vs = [], []
    for i, cls in enumerate(dec.classes):
        e1 = cls[0]
        row_u = [e1]
        row_v = [e1]
        corners = PeirceCorners(alg, cls) if len(cls) > 1 else None
        for s in range(1, len(cls)):
            es = cls[s]
            c1, c2 = corners.bases[(0, s)], corners.bases[(s, 0)]
            pair = _find_witness_pair(alg, e1, es, c1, c2)
            if pair is None:
                raise WitnessNotFound(
                    f"no basis element of the corner between copies 0 and {s} of"
                    f" class {i} is an isomorphism"
                )
            row_u.append(pair[0])
            row_v.append(pair[1])
        us.append(row_u)
        vs.append(row_v)
    return IsoWitness(us, vs)


def _find_witness_pair(alg, e1, es, c1, c2):
    """(u, v) for the first u in the basis `c1` with a v in span(c2)
    solving u v = e1, or None."""
    field = alg.field
    vectors = [w.coeffs for w in c2]
    for u in c1:
        # solve u * (sum_t y_t c2_t) = e1, with every u c2_t from one walk
        [prods] = products(alg, [u.coeffs], vectors)
        per_coord: dict = {}
        for t in sorted(prods):
            for k, c in prods[t].items():
                per_coord.setdefault(k, {})[t] = c
        keys = sorted(set(per_coord) | set(e1.coeffs))
        rows = [per_coord.get(k, {}) for k in keys]
        rhs = [e1.coeffs.get(k, field.zero) for k in keys]
        sol, _ = sparse_solve(field, rows, rhs, len(c2))
        if sol is None:
            continue
        v = combination(alg, c2, sol)
        if multiply(u, v) != e1:
            raise AlgebraError("witness solve produced an inexact solution")
        if multiply(v, u) != es:
            raise WitnessNotFound(
                "one-sided inverse found but v*u differs from the copy idempotent;"
                " class grouping is inconsistent"
            )
        return u, v
    return None
