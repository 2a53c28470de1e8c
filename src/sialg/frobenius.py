"""Frobenius pairs on a basic algebra: counit, dual-basis tensor, checks.

The counit is supported on the corners e_{nu^{-1}(i)} L e_i only, takes
value 1 on the canonical basis vector of each small morphism space (the
corner elements killed by J on both sides).  That space is the socle of
e_k L for k = nu^{-1}(i), which `nakayama` computes as `nak.socles[k]`:
the socle lies in the corner (k, i) by the definition of nu, and on a
self-injective algebra the left and right socles agree, so J kills it on
the left as well as on the right.

An attempt is accepted when its Gram matrix G[a][b] = eps(b_a b_b)
inverts: the inverse that gives the dual-basis tensor is the acceptance
test, so G is built by `algebra.gram_matrix`, which builds the radical's
trace form too, and inverted by `linalg.Matrix.inverse` once per attempt;
`transport_pair` reads eps(b_a b) off its rows.  The rows of
the inverse are read straight into the dual-basis tensor, with duals
multiplying on the left inside eps, and every produced pair is
re-verified exactly: invariance, both counit identities, and the two
support clauses.

Every function here takes the basic algebra's Peirce decomposition, a
`structure.PeirceCorners` built once per context (`analyze` keeps it as
`AnalysisResult.corners`), in place of the algebra and its idempotents;
none of them builds one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (
    Element,
    FinDimAlgebra,
    Functional,
    Tensor2,
    gram_matrix,
    is_counit,
    is_invariant,
    products,
)
from .errors import (
    AlgebraError,
    BadParams,
    NotFrobenius,
    NotInvertible,
    SingularGram,
    SingularMatrix,
)
from .linalg import Span, sparse_rank, sparse_solve
from .structure import DEFAULT_SEED, NakayamaData, PeirceCorners

COUNIT_RETRY_BUDGET = 32


@dataclass
class FrobeniusPair:
    epsilon: Functional
    y: Tensor2

    def to_json(self):
        return {"epsilon": self.epsilon.to_json(), "y": self.y.to_json()}

    @classmethod
    def from_json(cls, algebra, data):
        if type(data) is not dict:
            raise BadParams(f"a Frobenius pair must be an object, got {type(data).__name__}")
        missing = sorted({"epsilon", "y"} - data.keys())
        if missing:
            raise BadParams(f"a Frobenius pair needs the keys {missing}")
        return cls(
            Functional.from_json(algebra, data["epsilon"]),
            Tensor2.from_json(algebra, data["y"]),
        )


def frobenius_pair(
    corners: PeirceCorners, nak: NakayamaData, seed: int = DEFAULT_SEED
) -> FrobeniusPair:
    """Counit supported on the allowed corners, with its dual-basis tensor.

    Values are 1 on the canonical small-space basis vectors, the socle
    basis `nak.socles[nu^-1(i)]` in each corner (nu^-1(i), i), and 0 on a
    fixed complement.  Retries put seeded nonzero values on the small
    slots, but over GF(2) `Field.random_nonzero` is always 1, so there
    every retry repeats attempt 0.  The first attempt whose Gram matrix
    inverts is kept; raises NotFrobenius when the budget is exhausted.
    """
    lam = corners.alg
    field = lam.field
    n = len(corners.reps)
    vectors = []
    small_slots = []  # indices into `vectors` carrying small basis entries
    for i in range(n):
        for j in range(n):
            corner = corners.bases[(j, i)]
            if not corner:
                continue
            if j == nak.nu_inverse(i):
                span = Span(field)
                for z in nak.socles[j]:
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
    rows = [v.coeffs for v in vectors]
    rng = random.Random(seed)
    for attempt in range(COUNIT_RETRY_BUDGET):
        targets = [field.zero] * lam.dim
        for slot in small_slots:
            targets[slot] = field.one if attempt == 0 else field.random_nonzero(rng)
        sol, _ = sparse_solve(field, rows, targets, lam.dim)
        eps = Functional(lam, [sol.get(k, field.zero) for k in range(lam.dim)])
        try:
            y = dual_basis_tensor(lam, eps)
        except SingularGram:
            continue
        return FrobeniusPair(eps, y)
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
    # terms in basis order, as the basis is read everywhere else
    y = Tensor2(
        lam, {(a, g): c for a, row in enumerate(ginv.rows) for g, c in sorted(row.items())}
    )
    if is_invariant(y) is not None:
        raise AlgebraError("dual-basis tensor failed the invariance check")
    if not is_counit(eps, y):
        raise AlgebraError("dual-basis tensor failed the counit identities")
    return y


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


def verify_frobenius_pair(
    corners: PeirceCorners, pair: FrobeniusPair, nak: NakayamaData
) -> FrobeniusPairReport:
    """Exact checks: invariance, counit laws, corner support of eps, block
    support of y, and nondegeneracy of eps on every small space, the socle
    `nak.socles[nu^-1(i)]` of class i.

    On a basic algebra each small space is a division ring, where a
    functional induces a nondegenerate pairing iff it is nonzero; that is
    the small-space criterion tested here (for split inputs the space is
    one-dimensional and this is exactly invertibility of its Gram).
    """
    n, nu_inverse = len(corners.reps), nak.nu_inverse
    eps, y = pair.epsilon, pair.y
    # the lowest corner (j, i), i-major, off the support with eps nonzero
    # on it, and the lowest class whose small space eps kills
    support_witness = next(
        (
            (j, i)
            for i in range(n)
            for j in range(n)
            if j != nu_inverse(i) and any(eps(q) for q in corners.bases[(j, i)])
        ),
        None,
    )
    small_witness = next(
        (i for i in range(n) if not any(eps(z) for z in nak.socles[nu_inverse(i)])), None
    )
    _, block_witness = tensor_blocks(corners, y, nak)
    return FrobeniusPairReport(
        is_invariant(y) is None,
        is_counit(eps, y),
        support_witness is None,
        support_witness,
        block_witness is None,
        block_witness,
        small_witness is None,
        small_witness,
    )


def tensor_blocks(corners: PeirceCorners, y: Tensor2, nak: NakayamaData):
    """(blocks, witness): `corners.tensor_components(y)`, and the lowest
    corner quadruple (j, i, u, v) among them off the block support, the
    sum of L_{j<-i} (x) L_{nu^-1(i)<-j}, or None.  The one rule for it."""
    blocks = corners.tensor_components(y)
    off = [(j, i, u, v) for j, i, u, v in blocks if v != j or u != nak.nu_inverse(i)]
    return blocks, min(off, default=None)


def is_unit(lam: FinDimAlgebra, b: Element) -> bool:
    """b is a unit exactly when the columns b.e_t, one `products` walk, have full rank."""
    [cols] = products(lam, [b.coeffs], [{t: lam.field.one} for t in range(lam.dim)])
    return sparse_rank(lam.field, cols.values()) == lam.dim


def transport_pair(lam: FinDimAlgebra, pair: FrobeniusPair, b: Element) -> FrobeniusPair:
    """New pair with eps'(a) = eps(a b) for an invertible b, read off the
    Gram rows of eps as eps(b_a b) = sum_t G[a][t] b_t; the tensor is
    rebuilt from the transported counit's Gram inverse."""
    if not is_unit(lam, b):
        raise NotInvertible("transport element is not a unit")
    gram = gram_matrix(lam, pair.epsilon).rows
    eps2 = Functional(lam, [sum(c * b.coeffs.get(t, 0) for t, c in row.items()) for row in gram])
    return FrobeniusPair(eps2, dual_basis_tensor(lam, eps2))
