"""Frobenius pairs on a basic algebra: counit, dual-basis tensor, checks.

The counit is supported on the corners e_{nu^{-1}(i)} L e_i only, takes
value 1 on the canonical basis vector of each small morphism space (the
corner elements killed by J on both sides), and is accepted once the
Gram matrix G[a][b] = eps(b_a b_b) is invertible.  The dual-basis tensor
is assembled from the Gram inverse with duals multiplying on the left
inside eps, and every produced pair is re-verified exactly: invariance,
both counit identities, and the two support clauses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (
    Element,
    FinDimAlgebra,
    Functional,
    Tensor2,
    apply_functional,
    is_invariant,
    multiply,
)
from .errors import AlgebraError, NotFrobenius, NotInvertible, SingularGram, SingularMatrix
from .linalg import Matrix, Span, sparse_kernel, sparse_rank, sparse_solve
from .structure import (
    DEFAULT_SEED,
    CanonicalDecomposition,
    NakayamaData,
    PeirceCorners,
    RadicalData,
    radical,
)

COUNIT_RETRY_BUDGET = 32


@dataclass
class FrobeniusPair:
    epsilon: Functional
    y: Tensor2

    def to_json(self):
        return {"epsilon": self.epsilon.to_json(), "y": self.y.to_json()}

    @classmethod
    def from_json(cls, algebra, data):
        return cls(
            Functional.from_json(algebra, data["epsilon"]),
            Tensor2.from_json(algebra, data["y"]),
        )


@dataclass
class SmallSpaceData:
    bases: list  # per class i, basis of the small part of e_{nu^-1 i} L e_i

    def dims(self):
        return [len(b) for b in self.bases]


def small_spaces(corners: PeirceCorners, nak: NakayamaData, rad: RadicalData) -> SmallSpaceData:
    """Per class i, the subspace of the corner e_{nu^-1(i),1} L e_{i,1} killed
    by the radical on both sides; these span the morphisms factoring
    through a simple module."""
    lam = corners.alg
    bases = []
    for i in range(len(corners.reps)):
        corner = corners.bases[(nak.nu_inverse(i), i)]
        if not rad.basis:
            bases.append(corner)
            continue
        eq_rows = []
        for r in rad.basis:
            per_coord_l: dict = {}
            per_coord_r: dict = {}
            for t, q in enumerate(corner):
                for k, c in multiply(r, q).coeffs.items():
                    per_coord_l.setdefault(k, {})[t] = c
                for k, c in multiply(q, r).coeffs.items():
                    per_coord_r.setdefault(k, {})[t] = c
            eq_rows.extend(per_coord_l.values())
            eq_rows.extend(per_coord_r.values())
        sols = sparse_kernel(lam.field, eq_rows, len(corner))
        basis = []
        for vec in sols:
            z = lam.zero()
            for t, c in vec.items():
                z = z + corner[t].scaled(c)
            basis.append(z)
        bases.append(basis)
    return SmallSpaceData(bases)


def gram_matrix(lam: FinDimAlgebra, eps: Functional) -> Matrix:
    d = lam.dim
    field = lam.field
    vals = eps.values
    rows = []
    for a in range(d):
        row_a = lam.rows[a]
        out = []
        for b in range(d):
            acc = field.zero
            for k, c in row_a[b].items():
                v = vals[k]
                if v:
                    acc = acc + c * v
            out.append(field.normal(acc))
        rows.append(out)
    return Matrix(field, rows)


def _functional_from_targets(lam: FinDimAlgebra, vectors, targets) -> Functional:
    sol, _ = sparse_solve(lam.field, [v.coeffs for v in vectors], targets, lam.dim)
    return Functional(lam, [sol.get(k, lam.field.zero) for k in range(lam.dim)])


def construct_counit(
    lam: FinDimAlgebra,
    dec: CanonicalDecomposition,
    nak: NakayamaData,
    seed: int = DEFAULT_SEED,
    rad: RadicalData | None = None,
) -> Functional:
    """Counit supported on the allowed corners with an invertible Gram.

    Values are 1 on the canonical small-space basis vectors and 0 on a
    fixed complement; seeded nonzero retries cover small spaces of
    dimension > 1.  Raises NotFrobenius when the budget is exhausted.
    """
    if rad is None:
        rad = radical(lam)
    field = lam.field
    corners = PeirceCorners(lam, dec.reps)
    small = small_spaces(corners, nak, rad)
    vectors = []
    small_slots = []  # indices into `vectors` carrying small basis entries
    for i in range(dec.n):
        for j in range(dec.n):
            corner = corners.bases[(j, i)]
            if not corner:
                continue
            if j == nak.nu_inverse(i):
                span = Span(field)
                for z in small.bases[i]:
                    span.add(z.coeffs)
                    small_slots.append(len(vectors))
                    vectors.append(z)
                for q in corner:
                    if span.add(q.coeffs):
                        vectors.append(q)
            else:
                vectors.extend(corner)
    if len(vectors) != lam.dim:
        raise AlgebraError("Peirce corners do not span; decomposition corrupt")
    rng = random.Random(seed)
    for attempt in range(COUNIT_RETRY_BUDGET):
        targets = [field.zero] * lam.dim
        for slot in small_slots:
            targets[slot] = field.one if attempt == 0 else field.random_nonzero(rng)
        eps = _functional_from_targets(lam, vectors, targets)
        if gram_matrix(lam, eps).rank() == lam.dim:
            return eps
    raise NotFrobenius(
        "no counit with the required corner support has an invertible Gram"
        f" matrix after {COUNIT_RETRY_BUDGET} seeded attempts"
    )


def dual_basis_tensor(lam: FinDimAlgebra, eps: Functional) -> Tensor2:
    """Invariant tensor y with eps(y2_b y1_a) pairing dual to the basis.

    y = sum_a b_a (x) b*_a where eps(b*_b b_a) = delta_{ab}; concretely
    the coefficient grid is the inverse Gram matrix.
    """
    gram = gram_matrix(lam, eps)
    try:
        ginv = gram.inverse()
    except SingularMatrix as exc:
        raise SingularGram("Gram matrix of the counit is singular") from exc
    coeffs = {}
    for a in range(lam.dim):
        for g in range(lam.dim):
            c = ginv.rows[a][g]
            if c:
                coeffs[(a, g)] = c
    y = Tensor2(lam, coeffs)
    if is_invariant(y) is not None:
        raise AlgebraError("dual-basis tensor failed the invariance check")
    if (
        apply_functional("left", eps, y) != lam.unit
        or apply_functional("right", eps, y) != lam.unit
    ):
        raise AlgebraError("dual-basis tensor failed the counit identities")
    return y


def frobenius_pair(
    lam: FinDimAlgebra,
    dec: CanonicalDecomposition,
    nak: NakayamaData,
    seed: int = DEFAULT_SEED,
    rad: RadicalData | None = None,
) -> FrobeniusPair:
    eps = construct_counit(lam, dec, nak, seed, rad)
    return FrobeniusPair(eps, dual_basis_tensor(lam, eps))


@dataclass
class FrobeniusPairReport:
    invariant: bool
    counital: bool
    support_ok: bool
    support_witness: tuple | None
    block_ok: bool
    block_witness: tuple | None
    small_ok: bool
    small_witness: int | None

    @property
    def all_ok(self) -> bool:
        return (
            self.invariant
            and self.counital
            and self.support_ok
            and self.block_ok
            and self.small_ok
        )

    def to_json(self):
        return {
            "invariant": self.invariant,
            "counital": self.counital,
            "counit_support": self.support_ok,
            "counit_support_witness": self.support_witness,
            "tensor_block_support": self.block_ok,
            "tensor_block_witness": self.block_witness,
            "small_space_nondegenerate": self.small_ok,
            "small_space_witness": self.small_witness,
        }


def verify_frobenius_pair(
    lam: FinDimAlgebra,
    pair: FrobeniusPair,
    dec: CanonicalDecomposition,
    nak: NakayamaData,
    rad: RadicalData,
) -> FrobeniusPairReport:
    """Exact checks: invariance, counit laws, corner support of eps, block
    support of y, and nondegeneracy of eps on every small space.

    On a basic algebra each small space is a division ring, where a
    functional induces a nondegenerate pairing iff it is nonzero; that is
    the small-space criterion tested here (for split inputs the space is
    one-dimensional and this is exactly invertibility of its Gram).
    """
    eps, y = pair.epsilon, pair.y
    invariant = is_invariant(y) is None
    counital = (
        apply_functional("left", eps, y) == lam.unit
        and apply_functional("right", eps, y) == lam.unit
    )
    corners = PeirceCorners(lam, dec.reps)
    support_ok, support_witness = True, None
    for i in range(dec.n):
        for j in range(dec.n):
            if j == nak.nu_inverse(i):
                continue
            if any(eps(q) for q in corners.bases[(j, i)]):
                support_ok, support_witness = False, (j, i)
                break
        if not support_ok:
            break
    small = small_spaces(corners, nak, rad)
    small_ok, small_witness = True, None
    for i, basis in enumerate(small.bases):
        if not basis or not any(eps(z) for z in basis):
            small_ok, small_witness = False, i
            break
    block_ok, block_witness = _block_support(y, corners, nak)
    return FrobeniusPairReport(
        invariant,
        counital,
        support_ok,
        support_witness,
        block_ok,
        block_witness,
        small_ok,
        small_witness,
    )


def _block_support(y: Tensor2, corners: PeirceCorners, nak):
    """y must live in the sum of L_{j<-i} (x) L_{nu^-1(i)<-j}; the witness
    is the lowest offending corner quadruple (j, i, u, v)."""
    for jt, isrc, ut, vsrc in sorted(corners.tensor_components(y)):
        if vsrc != jt or ut != nak.nu_inverse(isrc):
            return False, (jt, isrc, ut, vsrc)
    return True, None


def is_unit(lam: FinDimAlgebra, b: Element) -> bool:
    """b is a unit exactly when the columns b.e_t have full rank."""
    cols = (multiply(b, lam.basis_element(t)).coeffs for t in range(lam.dim))
    return sparse_rank(lam.field, cols) == lam.dim


def transport_pair(lam: FinDimAlgebra, pair: FrobeniusPair, b: Element) -> FrobeniusPair:
    """New pair with eps'(a) = eps(a b) for an invertible b; the tensor is
    rebuilt from the transported counit's Gram inverse."""
    if not is_unit(lam, b):
        raise NotInvertible("transport element is not a unit")
    eps2 = Functional(
        lam, [pair.epsilon(multiply(lam.basis_element(a), b)) for a in range(lam.dim)]
    )
    return FrobeniusPair(eps2, dual_basis_tensor(lam, eps2))
