"""Structure theory: radical, canonical decomposition, Peirce corners,
Nakayama data and the basic reduction.

The radical uses the regular-representation trace form (characteristic 0
or p > dim); for commutative algebras over GF(p) it falls back on the
kernel of a high Frobenius power, which covers modular group algebras.
Idempotents are lifted from the semisimple quotient with the cubic
iteration a -> 3a^2 - 2a^3 and orthogonalized sequentially; splitting
inside the quotient factors minimal polynomials of swept corner elements.
Two searches are randomized, the quotient split here and the counit
retry of `frobenius_pair`; both take an explicit seed and are
reproducible.  The copy witnesses and the duality pattern are decided on
a basis, with no draw.
`PeirceCorners` is the one Peirce decomposition and the only code that
computes a sandwich e_j v e_i.  It gives the corners of the class
representatives, of the copies within a class (for the copy witnesses),
of the quotient images (for the class grouping) and of each idempotent
the quotient split visits; every projection of an element or tensor onto
the corners, and every one-sided ideal e_i A or A e_i, goes through it.
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
    Tensor2,
    combination,
    minimal_polynomial,
    multiply,
    products,
)
from .errors import (
    AlgebraError,
    NotBasic,
    NotSelfInjectiveLike,
    UnsupportedField,
    WitnessNotFound,
)
from .linalg import Span, sparse_kernel, sparse_rank, sparse_solve

DEFAULT_SEED = 271828
SPLIT_BUDGET_FACTOR = 32

FLAG_SPLIT = "split"
FLAG_NOT_SPLIT = "not-split-unverified"


# -- Peirce corners in the ambient coordinate space ---------------------------


def _sandwiches(alg: FinDimAlgebra, reps, vectors) -> dict:
    """{(j, i): {t: e_j v_t e_i} over the v_t in `vectors` where it is
    nonzero, in t order}, for the reps e_j, e_i in j-major order: one
    `products` walk gives every e_j v, then one walk per j gives every
    (e_j v) e_i."""
    rep_vectors = [e.coeffs for e in reps]
    out = {}
    for j, lefts in enumerate(products(alg, rep_vectors, vectors)):
        rows = [{} for _ in reps]
        ts = sorted(lefts)
        for t, prods in zip(ts, products(alg, [lefts[t] for t in ts], rep_vectors)):
            for i, w in prods.items():
                rows[i][t] = w
        out.update(((j, i), row) for i, row in enumerate(rows))
    return out


class PeirceCorners:
    """The Peirce corners e_j A e_i of orthogonal idempotents `reps`.

    Each corner's Span and echelon basis is computed once, in j-major
    order, from the sandwiches e_j b_t e_i of the basis b_t, and
    `bases[(j, i)]` and `spans[(j, i)]` hold them.  Every sandwich
    e_j v e_i, of the basis here, of an element in `components` and of
    the basis elements a tensor meets in `tensor_components`, comes from
    one batch of n + 1 `products` walks over the n reps.  Components are
    given in corner coordinates, the indices into `bases[(j, i)]`.  When
    the reps sum to e, the components of a reassemble e a e.  When they
    sum to 1, `one_sided` gives e_i A and A e_i from the corners.
    """

    def __init__(self, alg: FinDimAlgebra, reps):
        self.alg = alg
        self.reps = reps
        self.spans: dict = {}
        self.bases: dict = {}
        basis = [{t: alg.field.one} for t in range(alg.dim)]
        for key, rows in _sandwiches(alg, reps, basis).items():
            span = self.spans[key] = Span(alg.field, rows.values())
            self.bases[key] = [Element(alg, dict(row)) for row in span.basis_vectors()]

    def require_sum_one(self):
        """Raise NotBasic unless the reps sum to 1; on a basic algebra,
        unless there is one idempotent per class."""
        reps = self.reps
        if sum(reps[1:], reps[0]) != self.alg.unit:
            raise NotBasic("the class representatives do not sum to 1")

    def require_orthogonal(self):
        """Raise NotBasic unless the reps are orthogonal idempotents:
        e_j e_i is e_i when j = i and 0 otherwise."""
        vectors = [e.coeffs for e in self.reps]
        for j, prods in enumerate(products(self.alg, vectors, vectors)):
            if prods != ({j: vectors[j]} if vectors[j] else {}):
                raise NotBasic("the class representatives are not orthogonal idempotents")

    def one_sided(self, i: int, left: bool) -> list:
        """Echelon basis of e_i A, the sum of the corners (i, k), if `left`,
        else of A e_i, the sum of the corners (k, i).  The corner bases are
        reduced together, so this is the reduced echelon basis of the span
        of e_i b_t (or b_t e_i) over the basis b_t, row for row."""
        self.require_sum_one()
        keys = [(i, k) if left else (k, i) for k in range(len(self.reps))]
        span = Span(self.alg.field, (q.coeffs for key in keys for q in self.bases[key]))
        return [Element(self.alg, dict(row)) for row in span.basis_vectors()]

    def coordinates(self, corner, coeffs: dict) -> list:
        """Coordinates of `coeffs` in the corner's echelon basis."""
        coords = self.spans[corner].coordinates(coeffs)
        if coords is None:
            raise AlgebraError(f"element left its Peirce corner {corner}")
        return coords

    def _components(self, vectors) -> list:
        """Per v in `vectors`, the nonzero components {(j, i): {b: c}}."""
        out = [{} for _ in vectors]
        for key, rows in _sandwiches(self.alg, self.reps, vectors).items():
            for t, row in rows.items():
                out[t][key] = {b: c for b, c in enumerate(self.coordinates(key, row)) if c}
        return out

    def components(self, a: Element) -> dict:
        """Nonzero corner components {(j, i): {b: c}} of e_j a e_i."""
        return self._components([a.coeffs])[0]

    def tensor_components(self, y: Tensor2) -> dict:
        """Nonzero Peirce components of y: {(j, i, u, v): {(b1, b2): c}},
        the component in e_j A e_i (x) e_u A e_v in corner coordinates.
        The basis elements y meets are projected in one batch."""
        support = sorted({k for key in y.coeffs for k in key})
        one = self.alg.field.one
        comps = dict(zip(support, self._components([{k: one} for k in support])))
        p = self.alg.field.p
        out: dict = {}
        for (a, b), c in y.coeffs.items():
            for left_corner, left in comps[a].items():
                for right_corner, right in comps[b].items():
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
    basis: list
    span: Span
    nilpotency_index: int

    @property
    def dim(self) -> int:
        return len(self.basis)


def _trace_form_kernel(alg: FinDimAlgebra):
    field = alg.field
    p = field.p
    traces = []
    for row in alg.rows:
        acc = field.zero
        for a, prod in row.items():
            c = prod.get(a)
            if c:
                acc = acc + c
        traces.append(acc % p if p else acc)
    form = []
    for row in alg.rows:
        form_row = {}
        for j, prod in row.items():
            acc = field.zero
            for k, c in prod.items():
                if traces[k]:
                    acc = acc + c * traces[k]
            if p:
                acc %= p
            if acc:
                form_row[j] = acc
        form.append(form_row)
    return sparse_kernel(field, form, alg.dim)


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
    # spanned by the nonzero products of J^k's basis with J's.  A pass that
    # does not raise lowers the dimension, so there are at most dim J passes
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
    # two-sided ideal: b_i r and r b_i lie in J for every basis element b_i
    # and r in J's basis; a zero product does, so only nonzero ones are tested
    units = [{i: field.one} for i in range(alg.dim)]
    for xs, ys in ((units, vectors), (vectors, units)):
        for prods in products(alg, xs, ys):
            if not all(span.contains(prod) for prod in prods.values()):
                raise AlgebraError("radical candidate is not an ideal")
    return RadicalData(basis, span, index)


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

    @property
    def is_split_certified(self) -> bool:
        return FLAG_SPLIT in self.flags


def _split_once(qalg: FinDimAlgebra, e: Element, corner_elems: list, rng, budget: int):
    """Try to write e as a sum of two orthogonal idempotents, sweeping the
    basis `corner_elems` of e Q e, then seeded random combinations of it;
    None if the budget runs out.  Returns ((e1, e2), attempts_used) on
    success."""
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
    returns J exactly, so A/J is semisimple.  Its kernel contains J: for
    r in J and any b, b r is nilpotent, so tr L_{br} = 0 and r lies in
    the trace form's kernel; over GF(p) the Frobenius-power kernel is the
    nilradical, which is J for a commutative algebra.  And `radical`
    raises unless that kernel is a nilpotent ideal, so it lies in J.
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
    steps = 0
    while (1 << steps) < rad.nilpotency_index:
        steps += 1
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


def nakayama(corners: PeirceCorners, rad: RadicalData) -> NakayamaData:
    """Permutation nu with soc(P_i) isomorphic to top(P_{nu(i)}), read off
    the projectives e_i A of a basic algebra with one rep e_i per class.

    Requires each socle soc(e_i A) to be concentrated in exactly one
    class (right multiplication by the reps); otherwise the input is
    rejected as not self-injective-like.
    """
    alg, reps = corners.alg, corners.reps
    nu = []
    socles = []
    for i in range(len(reps)):
        soc = annihilator(alg, corners.one_sided(i, True), [], rad.basis)
        if not soc:
            raise NotSelfInjectiveLike(f"socle of projective class {i} is zero")
        hits = set()
        for k, ek in enumerate(reps):
            if any(multiply(s, ek).coeffs for s in soc):
                hits.add(k)
        if len(hits) != 1:
            raise NotSelfInjectiveLike(
                f"socle of projective class {i} meets classes {sorted(hits)}"
            )
        nu.append(hits.pop())
        socles.append(soc)
    if sorted(nu) != list(range(len(reps))):
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
    alg = corners.alg
    u_basis = corners.one_sided(i, True)
    x_basis = corners.one_sided(j, False)
    if len(u_basis) != len(x_basis):
        return False
    u_span = Span(alg.field, (e.coeffs for e in u_basis))
    x_span = Span(alg.field, (e.coeffs for e in x_basis))
    sols = _right_dual_intertwiners(alg, u_basis, u_span, x_basis, x_span)
    return any(_is_invertible(alg.field, vec, len(u_basis)) for vec in sols)


def duality_pattern(corners: PeirceCorners) -> list:
    """For each class i, the set of classes j with e_i A = (A e_j)^*, by
    solving the intertwiner equations and exhibiting an invertible basis
    solution (see `_duality_holds` for why a basis suffices)."""
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
    if sum(reps[1:], reps[0]) == alg.unit:
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
    for u in c1:
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
