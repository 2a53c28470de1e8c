"""Structure theory: radical, canonical decomposition, Peirce corners,
Nakayama data and the basic reduction.

The radical uses the regular-representation trace form (characteristic 0
or p > dim); for commutative algebras over GF(p) it falls back on the
kernel of a high Frobenius power, which covers modular group algebras.
Idempotents are lifted from the semisimple quotient with the cubic
iteration a -> 3a^2 - 2a^3 and orthogonalized sequentially; splitting
inside the quotient factors minimal polynomials of swept corner elements.
All randomized searches take an explicit seed and are reproducible.
`PeirceCorners` is the one Peirce decomposition: each corner e_j A e_i of
the class representatives is computed once, and every projection of an
element or tensor onto the corners goes through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from . import poly
from .algebra import (
    Element,
    FinDimAlgebra,
    Tensor2,
    combination,
    minimal_polynomial,
    multiply,
    products,
)
from .errors import (
    AlgebraError,
    NotSelfInjectiveLike,
    UnsupportedField,
    WitnessNotFound,
)
from .linalg import Span, sparse_kernel, sparse_rank, sparse_solve

DEFAULT_SEED = 271828
SPLIT_BUDGET_FACTOR = 32
WITNESS_BUDGET_FACTOR = 32

FLAG_SPLIT = "split"
FLAG_NOT_SPLIT = "not-split-unverified"


# -- spans and Peirce corners in the ambient coordinate space ------------------


def corner_span(alg: FinDimAlgebra, left: Element | None, right: Element | None) -> Span:
    """Span of left . b_t . right over the basis b_t; a None side skips
    that multiply, so one side gives a one-sided ideal e A or A e."""
    span = Span(alg.field)
    for t in range(alg.dim):
        w = alg.basis_element(t)
        if left is not None:
            w = multiply(left, w)
        if right is not None:
            w = multiply(w, right)
        span.add(w.coeffs)
    return span


def corner_basis(alg: FinDimAlgebra, left: Element | None, right: Element | None) -> list:
    """Echelon basis elements of `corner_span`."""
    span = corner_span(alg, left, right)
    return [Element(alg, dict(row)) for row in span.basis_vectors()]


class PeirceCorners:
    """The Peirce corners e_j A e_i of orthogonal idempotents `reps`.

    Each corner's Span and echelon basis is computed once, in j-major
    order, from the left products e_j b_t computed once per j;
    `bases[(j, i)]` and `spans[(j, i)]` hold them.  Components are
    given in corner coordinates, the indices into `bases[(j, i)]`.  When
    the reps sum to e, the components of a reassemble e a e.
    """

    def __init__(self, alg: FinDimAlgebra, reps):
        self.alg = alg
        self.reps = reps
        self.spans: dict = {}
        self.bases: dict = {}
        for j, left in enumerate(reps):
            lefts = [multiply(left, b) for b in alg.basis()]  # shared by row j's corners
            for i, right in enumerate(reps):
                span = self.spans[(j, i)] = Span(
                    alg.field, (multiply(w, right).coeffs for w in lefts)
                )
                self.bases[(j, i)] = [Element(alg, dict(row)) for row in span.basis_vectors()]
        self._basis_components: dict = {}  # basis index -> components, filled on demand

    def coordinates(self, corner, coeffs: dict) -> list:
        """Coordinates of `coeffs` in the corner's echelon basis."""
        coords = self.spans[corner].coordinates(coeffs)
        if coords is None:
            raise AlgebraError(f"element left its Peirce corner {corner}")
        return coords

    def components(self, a: Element) -> dict:
        """Nonzero corner components {(j, i): {b: c}} of e_j a e_i."""
        out = {}
        for (j, i) in self.spans:
            w = multiply(multiply(self.reps[j], a), self.reps[i]).coeffs
            if w:
                coords = self.coordinates((j, i), w)
                out[(j, i)] = {b: c for b, c in enumerate(coords) if c}
        return out

    def tensor_components(self, y: Tensor2) -> dict:
        """Nonzero Peirce components of y: {(j, i, u, v): {(b1, b2): c}},
        the component in e_j A e_i (x) e_u A e_v in corner coordinates."""
        memo = self._basis_components
        for idx in {k for key in y.coeffs for k in key} - memo.keys():
            memo[idx] = self.components(self.alg.basis_element(idx))
        p = self.alg.field.p
        out: dict = {}
        for (a, b), c in y.coeffs.items():
            for left_corner, left in memo[a].items():
                for right_corner, right in memo[b].items():
                    comp = out.setdefault(left_corner + right_corner, {})
                    for k1, c1 in left.items():
                        cc = c * c1
                        for k2, c2 in right.items():
                            w = comp.get((k1, k2), 0) + cc * c2
                            if p:
                                w %= p
                            if w:
                                comp[(k1, k2)] = w
                            else:
                                comp.pop((k1, k2), None)
        return {key: comp for key, comp in out.items() if comp}

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
                j2, i2, b2 = flat[y]
                if j2 != i1:  # q1 e_i1 e_j2 q2 vanishes for orthogonal reps
                    continue
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
    basis: list
    span: Span
    nilpotency_index: int

    @property
    def dim(self) -> int:
        return len(self.basis)


def _trace_form_kernel(alg: FinDimAlgebra):
    d = alg.dim
    field = alg.field
    p = field.p
    traces = []
    for k in range(d):
        acc = field.zero
        row = alg.rows[k]
        for a in range(d):
            c = row[a].get(a)
            if c:
                acc = acc + c
        traces.append(acc % p if p else acc)
    form = []
    for i in range(d):
        row_i = alg.rows[i]
        form_row = {}
        for j in range(d):
            acc = field.zero
            for k, c in row_i[j].items():
                if traces[k]:
                    acc = acc + c * traces[k]
            if p:
                acc %= p
            if acc:
                form_row[j] = acc
        form.append(form_row)
    return sparse_kernel(field, form, d)


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
    """Jacobson radical basis with nilpotency index.

    Characteristic restrictions: exact over the rationals, over GF(p)
    with p > dim, and for commutative algebras over any GF(p); other
    modular inputs raise UnsupportedField.
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
    vectors = span.basis_vectors()
    basis = [Element(alg, dict(row)) for row in vectors]
    # nilpotency index: first power of the span that vanishes; J^(k+1) is
    # spanned by the nonzero products of J^k's basis with J's
    index = 1
    current = span
    while current.dim:
        nxt = Span(field)
        for prods in products(alg, current.basis_vectors(), vectors):
            for prod in prods.values():
                nxt.add(prod)
        if nxt.dim >= current.dim and nxt.dim:
            raise AlgebraError("radical candidate is not nilpotent")
        current = nxt
        index += 1
        if index > alg.dim + 1:
            raise AlgebraError("radical candidate is not nilpotent")
    # two-sided ideal: b_i r and r b_i lie in J for every basis element b_i
    # and r in J's basis; a zero product does, so only nonzero ones are tested
    units = [{i: field.one} for i in range(alg.dim)]
    for xs, ys in ((units, vectors), (vectors, units)):
        for prods in products(alg, xs, ys):
            if not all(span.contains(prod) for prod in prods.values()):
                raise AlgebraError("radical candidate is not an ideal")
    return RadicalData(basis, span, index)


# -- semisimple quotient -------------------------------------------------------


@dataclass
class QuotientData:
    algebra: FinDimAlgebra
    complement: list  # ambient indices carrying the section
    parent: FinDimAlgebra
    rad_span: Span

    def project(self, a: Element) -> Element:
        reduced = self.rad_span.reduce(a.coeffs)
        pos = {idx: t for t, idx in enumerate(self.complement)}
        return Element(self.algebra, {pos[i]: c for i, c in reduced.items()})

    def lift(self, abar: Element) -> Element:
        return Element(
            self.parent, {self.complement[t]: c for t, c in abar.coeffs.items()}
        )


def semisimple_quotient(alg: FinDimAlgebra, rad: RadicalData) -> QuotientData:
    field = alg.field
    pivots = set(rad.span.rows)
    complement = [i for i in range(alg.dim) if i not in pivots]
    pos = {idx: t for t, idx in enumerate(complement)}
    structure = []
    for u_t, u in enumerate(complement):
        for v_t, v in enumerate(complement):
            reduced = rad.span.reduce(alg.rows[u][v])
            for k, c in reduced.items():
                structure.append((u_t, v_t, pos[k], c))
    unit_red = rad.span.reduce(alg.unit.coeffs)
    unit = [field.zero] * len(complement)
    for k, c in unit_red.items():
        unit[pos[k]] = c
    labels = [alg.labels[i] + "~" for i in complement]
    qalg = FinDimAlgebra(field, labels, structure, unit)
    return QuotientData(qalg, complement, alg, rad.span)


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

    def class_idempotent(self, i: int) -> Element:
        e = self.classes[i][0]
        for extra in self.classes[i][1:]:
            e = e + extra
        return e

    def all_idempotents(self) -> list:
        return [e for cls in self.classes for e in cls]

    @property
    def is_split_certified(self) -> bool:
        return FLAG_SPLIT in self.flags


def _split_once(qalg: FinDimAlgebra, e: Element, corner: Span, rng, budget: int):
    """Try to write e as a sum of two orthogonal idempotents; None if the
    budget runs out.  Returns ((e1, e2), attempts_used) on success."""
    field = qalg.field
    corner_elems = [Element(qalg, dict(row)) for row in corner.basis_vectors()]
    attempts = 0

    def candidates():
        yield from corner_elems
        while True:
            yield combination(qalg, corner_elems, [field.random(rng) for _ in corner_elems])

    for z in candidates():
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
        gcd_fg, u, v = poly.xgcd(field, f, g)
        if poly.degree(gcd_fg) != 0:
            continue
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
    return None, attempts


def _primitive_idempotents_semisimple(quot: QuotientData, seed: int):
    """Split the quotient unit into primitive orthogonal idempotents.

    Returns (idempotents, split_certified).  Primitivity is certified by
    corner dimension 1, which is exact for split semisimple algebras;
    corners of larger dimension that resist the seeded splitting budget
    are kept whole and flagged.
    """
    qalg = quot.algebra
    rng = random.Random(seed)
    budget = SPLIT_BUDGET_FACTOR * quot.parent.dim
    done = []
    stuck = []
    work = [qalg.unit]
    while work:
        e = work.pop()
        corner = corner_span(qalg, e, e)
        if corner.dim == 1:
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
    """
    if rad is None:
        rad = radical(alg)
    quot = semisimple_quotient(alg, rad)
    qrad = radical(quot.algebra)
    if qrad.dim != 0:
        raise AlgebraError("semisimple quotient still has a radical")
    qidems, certified = _primitive_idempotents_semisimple(quot, seed)
    qidems.sort(key=lambda e: e.dense(), reverse=True)
    # lift sequentially; the final idempotent is the exact complement
    steps = 0
    while (1 << steps) < rad.nilpotency_index:
        steps += 1
    lifted = []
    partial = alg.zero()
    for t, ebar in enumerate(qidems):
        if t == len(qidems) - 1:
            e = alg.unit - partial
            sq = multiply(e, e)
            if sq != e:
                raise AlgebraError("complement idempotent is not idempotent")
        else:
            a = quot.lift(ebar)
            mask = alg.unit - partial
            a = multiply(multiply(mask, a), mask)
            e = _lift_idempotent(alg, a, steps)
        lifted.append(e)
        partial = partial + e
    if partial != alg.unit:
        raise AlgebraError("lifted idempotents do not sum to 1")
    for u in range(len(lifted)):
        for v in range(len(lifted)):
            if u != v and multiply(lifted[u], lifted[v]).coeffs:
                raise AlgebraError("lifted idempotents are not orthogonal")
    # group by the semisimple pairing test on the quotient images
    images = [quot.project(e) for e in lifted]
    qbasis = [quot.algebra.basis_element(i) for i in range(quot.algebra.dim)]

    def paired(u: int, v: int) -> bool:
        eu, ev = images[u], images[v]
        for b in qbasis:
            if multiply(multiply(eu, b), ev).coeffs:
                return True
        return False

    unassigned = list(range(len(lifted)))
    groups = []
    while unassigned:
        head = unassigned.pop(0)
        cls = [head]
        rest = []
        for v in unassigned:
            if paired(head, v):
                cls.append(v)
            else:
                rest.append(v)
        unassigned = rest
        groups.append(cls)
    for a_idx, ga in enumerate(groups):
        for gb in groups[a_idx + 1 :]:
            if paired(ga[0], gb[0]):
                raise AlgebraError("class grouping is not well separated")
    classes = [sorted((lifted[u] for u in g), key=lambda e: e.dense(), reverse=True) for g in groups]
    classes.sort(key=lambda cls: cls[0].dense(), reverse=True)
    flags = [FLAG_SPLIT] if certified else [FLAG_NOT_SPLIT]
    return CanonicalDecomposition(classes, flags)


def decomposition_from_idempotents(
    alg: FinDimAlgebra, classes: list, flags: list
) -> CanonicalDecomposition:
    """Wrap externally supplied idempotent groups after exact re-checks."""
    all_idems = [e for cls in classes for e in cls]
    total = alg.zero()
    for e in all_idems:
        if multiply(e, e) != e:
            raise AlgebraError("supplied element is not idempotent")
        total = total + e
    if total != alg.unit:
        raise AlgebraError("supplied idempotents do not sum to 1")
    for u in range(len(all_idems)):
        for v in range(len(all_idems)):
            if u != v and multiply(all_idems[u], all_idems[v]).coeffs:
                raise AlgebraError("supplied idempotents are not orthogonal")
    return CanonicalDecomposition([list(cls) for cls in classes], list(flags))


# -- right modules, socles, Nakayama permutation -------------------------------


def annihilator(alg: FinDimAlgebra, basis: list, left, right) -> list:
    """Basis of the z in span(basis) with l . z = 0 for every l in `left`
    and z . r = 0 for every r in `right`."""
    eq_rows = []
    for factor, on_left in [(l, True) for l in left] + [(r, False) for r in right]:
        per_coord: dict = {}
        for t, q in enumerate(basis):
            prod = multiply(factor, q) if on_left else multiply(q, factor)
            for k, c in prod.coeffs.items():
                per_coord.setdefault(k, {})[t] = c
        eq_rows.extend(per_coord.values())
    return [combination(alg, basis, vec) for vec in sparse_kernel(alg.field, eq_rows, len(basis))]


@dataclass
class NakayamaData:
    nu: tuple  # 0-based permutation on class indices
    socles: list  # per class, basis of soc(e_{i1} A)

    def nu_inverse(self, i: int) -> int:
        return self.nu.index(i)


def nakayama(
    alg: FinDimAlgebra,
    dec: CanonicalDecomposition,
    rad: RadicalData | None = None,
) -> NakayamaData:
    """Permutation nu with soc(P_i) isomorphic to top(P_{nu(i)}).

    Requires each socle soc(e_{i1} A) to be concentrated in exactly one
    class (right multiplication by the class idempotents); otherwise the
    input is rejected as not self-injective-like.
    """
    if rad is None:
        rad = radical(alg)
    class_idems = [dec.class_idempotent(k) for k in range(dec.n)]
    nu = []
    socles = []
    for i in range(dec.n):
        module = corner_basis(alg, dec.reps[i], None)
        soc = annihilator(alg, module, [], rad.basis)
        if not soc:
            raise NotSelfInjectiveLike(f"socle of projective class {i} is zero")
        hits = set()
        for k, ek in enumerate(class_idems):
            if any(multiply(s, ek).coeffs for s in soc):
                hits.add(k)
        if len(hits) != 1:
            raise NotSelfInjectiveLike(
                f"socle of projective class {i} meets classes {sorted(hits)}"
            )
        nu.append(hits.pop())
        socles.append(soc)
    if sorted(nu) != list(range(dec.n)):
        raise NotSelfInjectiveLike(f"socle pattern {nu} is not a permutation")
    return NakayamaData(tuple(nu), socles)


# -- dual-module cross-check ---------------------------------------------------


def _right_dual_intertwiners(alg, u_basis, u_span, x_basis, x_span):
    """Solution space of theta(u a) = theta(u) . a for theta: U -> X^*.

    U carries the right regular action, X^* the dual of a left module;
    unknown theta is a |U| x |X| coordinate matrix.
    """
    field = alg.field
    nu_, nx = len(u_basis), len(x_basis)
    eq_rows = []
    for s in range(alg.dim):
        a = alg.basis_element(s)
        gamma = [u_span.coordinates(multiply(u, a).coeffs) for u in u_basis]
        delta = [x_span.coordinates(multiply(a, x).coeffs) for x in x_basis]
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


def _has_invertible_combination(field, sols, size: int, seed: int) -> bool:
    if not sols:
        return False

    def invertible(vec: dict) -> bool:
        rows = [{} for _ in range(size)]
        for key, c in vec.items():
            rows[key // size][key % size] = c
        return sparse_rank(field, rows) == size

    for vec in sols:
        if invertible(vec):
            return True
    rng = random.Random(seed)
    for _ in range(64):
        combo: dict = {}
        for vec in sols:
            c = field.random(rng, -3, 3)
            if c:
                for k, v in vec.items():
                    w = field.normal(combo.get(k, field.zero) + c * v)
                    if w:
                        combo[k] = w
                    else:
                        combo.pop(k, None)
        if combo and invertible(combo):
            return True
    return False


def verify_nakayama_duality(
    alg: FinDimAlgebra,
    dec: CanonicalDecomposition,
    nak: NakayamaData,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Check e_{i1}A isomorphic to (A e_{nu(i),1})^* for every class, by
    solving the intertwiner equations and exhibiting an invertible one."""
    for i in range(dec.n):
        if not _duality_holds(alg, dec, i, nak.nu[i], seed):
            return False
    return True


def _duality_holds(alg, dec, i: int, j: int, seed: int) -> bool:
    u_basis = corner_basis(alg, dec.reps[i], None)
    x_basis = corner_basis(alg, None, dec.reps[j])
    if len(u_basis) != len(x_basis):
        return False
    u_span = Span(alg.field, (e.coeffs for e in u_basis))
    x_span = Span(alg.field, (e.coeffs for e in x_basis))
    sols = _right_dual_intertwiners(alg, u_basis, u_span, x_basis, x_span)
    return _has_invertible_combination(alg.field, sols, len(u_basis), seed)


def duality_pattern(
    alg: FinDimAlgebra, dec: CanonicalDecomposition, seed: int = DEFAULT_SEED
) -> list:
    """For each class i, the set of classes j with e_{i1}A = (A e_{j1})^*."""
    return [
        {j for j in range(dec.n) if _duality_holds(alg, dec, i, j, seed)}
        for i in range(dec.n)
    ]


# -- basic reduction -----------------------------------------------------------


class BasicEmbedding:
    """Inclusion data for the basic corner eAe inside its parent algebra."""

    def __init__(self, lam, dec_lam, parent, elements):
        self.lam = lam
        self.dec_lam = dec_lam
        self.parent = parent
        self.elements = elements  # parent elements carrying the basic basis

    def to_parent(self, x: Element) -> Element:
        if self.elements is None:
            return x
        return combination(self.parent, self.elements, x.coeffs)


def basic_reduction(alg: FinDimAlgebra, dec: CanonicalDecomposition):
    """Corner algebra e A e for e the sum of class representatives.

    A basic input is its own reduction.  Otherwise lam is
    `PeirceCorners(alg, reps).copy_algebra` at every multiplicity 1: its
    basis is the Peirce corner bases in j-major order, and its class
    idempotents are the unit's parts in the diagonal corners.  Returns
    (lam, embedding); lam's induced decomposition keeps the parent's class
    order, so multiplicities and the Nakayama permutation stay aligned
    across the reduction.
    """
    reps = dec.reps
    if sum(reps[1:], reps[0]) == alg.unit:
        groups = [[cls[0]] for cls in dec.classes]
        dec_lam = decomposition_from_idempotents(alg, groups, dec.flags)
        return alg, BasicEmbedding(alg, dec_lam, alg, None)
    corners = PeirceCorners(alg, reps)
    tuples, lam = corners.copy_algebra((1,) * len(reps))
    # the unit's part in diagonal corner (i, i) is class i's idempotent
    parts = [{} for _ in reps]
    for a, c in lam.unit.coeffs.items():
        parts[tuples[a][0]][a] = c
    dec_lam = decomposition_from_idempotents(lam, [[lam.element(p)] for p in parts], dec.flags)
    elements = [corners.bases[(j, i)][b] for (i, j, _, _, b) in tuples]
    return lam, BasicEmbedding(lam, dec_lam, alg, elements)


# -- isomorphism witnesses between projective copies ---------------------------


@dataclass
class IsoWitness:
    us: list  # us[i][s] in e_{i1} A e_{is}
    vs: list  # vs[i][s] in e_{is} A e_{i1}


def iso_witnesses(
    alg: FinDimAlgebra,
    dec: CanonicalDecomposition,
    seed: int = DEFAULT_SEED,
) -> IsoWitness:
    """Elements u, v with u v = e_{i1} and v u = e_{is} for every copy.

    u is swept over the corner e_{i1} A e_{is} (basis first, then seeded
    combinations); v solves the linear equation u v = e_{i1} inside the
    opposite corner, and v u = e_{is} is then asserted exactly.
    """
    field = alg.field
    rng = random.Random(seed)
    budget = WITNESS_BUDGET_FACTOR * alg.dim
    us, vs = [], []
    for i, cls in enumerate(dec.classes):
        e1 = cls[0]
        row_u = [e1]
        row_v = [e1]
        for s in range(1, len(cls)):
            es = cls[s]
            c1 = corner_basis(alg, e1, es)
            c2 = corner_basis(alg, es, e1)
            pair = _find_witness_pair(alg, e1, es, c1, c2, rng, budget)
            if pair is None:
                raise WitnessNotFound(
                    f"no invertible morphism between copies 0 and {s} of class {i}"
                )
            row_u.append(pair[0])
            row_v.append(pair[1])
        us.append(row_u)
        vs.append(row_v)
    return IsoWitness(us, vs)


def _find_witness_pair(alg, e1, es, c1, c2, rng, budget):
    field = alg.field
    attempts = 0

    def candidates():
        yield from c1
        while True:
            yield combination(alg, c1, [field.random(rng) for _ in c1])

    for u in candidates():
        if attempts >= budget:
            return None
        attempts += 1
        if not u.coeffs:
            continue
        # solve u * (sum_t y_t c2_t) = e1
        per_coord: dict = {}
        for t, w in enumerate(c2):
            prod = multiply(u, w)
            for k, c in prod.coeffs.items():
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
