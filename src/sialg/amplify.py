"""Amplified algebras End(P_1^m1 + ... + P_n^mn) and spread comultiplications.

The amplified basis is indexed by (source class i, target class j, source
copy s, target copy t, corner basis element b); b indexes the basis of
the Peirce corner (j <- i) in the base algebra's `PeirceCorners`.  The
corners are passed in, not built: `amplify(corners, m)` keeps the object
it is given as `amp.corners`, so the pipeline's counit and its amplified
model read one Peirce decomposition.  Copy indices are 1-based here,
matching the subset data S(i) in {1..m(i)} x {1..m(nu^-1 i)}.  The spreading operation cuts an
invariant basic tensor into its corner blocks with
`amp.corners.tensor_components` and distributes each block over copies
according to S(i), and the two counitality routes
(direct construction for bijection graphs, and an independent linear
feasibility oracle) are kept strictly separate so they can cross-check
each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .algebra import (
    Element,
    FinDimAlgebra,
    Functional,
    Tensor2,
    apply_functional,
    check_coassociativity,
    delta_rank,
    is_invariant,
    products,
)
from .errors import (
    AlgebraError,
    BadBlockSupport,
    BadParams,
    BlockMismatch,
    IndexOutOfRange,
    NotBasic,
    NotBijection,
)
from .fields import json_int
from .linalg import sparse_rank, sparse_solve
from .structure import NakayamaData, PeirceCorners


class AmplifiedAlgebra:
    """Endomorphism algebra of copies of the basic projectives.

    dim = sum over class pairs (i, j) of m(i) * m(j) * dim(corner j<-i);
    the product composes morphisms through a matching inner copy index.
    """

    def __init__(self, corners: PeirceCorners, m):
        base, reps = corners.alg, corners.reps
        n = len(reps)
        # one idempotent per class exactly when the class reps sum to 1
        if sum(reps[1:], reps[0]) != base.unit:
            raise NotBasic("amplification needs a basic decomposition")
        m = tuple(json_int(v, "multiplicity") for v in m)
        if len(m) != n or any(v < 1 for v in m):
            raise BadParams("multiplicities must list one value >= 1 per class")
        self.m = m
        self.corners = corners
        field = base.field
        bases = corners.bases
        tuples = []
        for i in range(n):
            for j in range(n):
                corner = bases[(j, i)]
                for s in range(1, m[i] + 1):
                    for t in range(1, m[j] + 1):
                        for b in range(len(corner)):
                            tuples.append((i, j, s, t, b))
        self.tuples = tuple(tuples)
        self.index = {tup: a for a, tup in enumerate(tuples)}
        labels = [f"a[{j}<-{i};{t}<-{s}].{b}" for (i, j, s, t, b) in tuples]
        index = self.index
        structure = []
        # a[j1<-i1;t1<-s1].b1 a[i1<-i2;s1<-s2].b2 = sum_k c_k a[j1<-i2;t1<-s2].k,
        # with c the corner coordinates of q1 q2, found once per pair (q1, q2)
        flat = [(j, i, b) for (j, i), corner in bases.items() for b in range(len(corner))]
        vectors = [bases[(j, i)][b].coeffs for j, i, b in flat]
        for (j1, i1, b1), row in zip(flat, products(base, vectors, vectors)):
            for y, prod in row.items():
                j2, i2, b2 = flat[y]
                if j2 != i1:  # q1 e_i1 e_j2 q2 vanishes for orthogonal reps
                    continue
                entries = [(k, c) for k, c in enumerate(corners.coordinates((j1, i2), prod)) if c]
                for s1, t1, s2 in product(
                    range(1, m[i1] + 1), range(1, m[j1] + 1), range(1, m[i2] + 1)
                ):
                    a_idx, b_idx = index[(i1, j1, s1, t1, b1)], index[(i2, i1, s2, s1, b2)]
                    structure.extend(
                        (a_idx, b_idx, index[(i2, j1, s2, t1, k)], c) for k, c in entries
                    )
        unit = [field.zero] * len(tuples)
        for i in range(n):
            coords = corners.coordinates((i, i), reps[i].coeffs)
            for t in range(1, m[i] + 1):
                for k, c in enumerate(coords):
                    if c:
                        unit[self.index[(i, i, t, t, k)]] = c
        self.algebra = FinDimAlgebra(field, labels, structure, unit, validate=True)


def amplify(corners: PeirceCorners, m) -> AmplifiedAlgebra:
    return AmplifiedAlgebra(corners, m)


def lift(amp: AmplifiedAlgebra, phi: Element, s: int, t: int) -> Element:
    """Copy-placement of a single-corner element phi of the base algebra."""
    comps = amp.corners.components(phi)
    if not comps:
        return amp.algebra.zero()
    if len(comps) > 1:
        raise BlockMismatch("element meets several Peirce corners")
    [((j, i), coords)] = comps.items()
    if not (1 <= s <= amp.m[i]) or not (1 <= t <= amp.m[j]):
        raise IndexOutOfRange(
            f"copy indices ({s},{t}) outside 1..{amp.m[i]} x 1..{amp.m[j]}"
        )
    return Element(amp.algebra, {amp.index[(i, j, s, t, b)]: c for b, c in coords.items()})


# -- subset data ----------------------------------------------------------------


def copy_boxes(m, nak: NakayamaData) -> list:
    """Per class i, the pairs of {1..m(i)} x {1..m(nu^-1 i)} in
    lexicographic order: every pair that S(i) may hold."""
    return [
        [(s, s2) for s in range(1, m[i] + 1) for s2 in range(1, m[nak.nu_inverse(i)] + 1)]
        for i in range(len(m))
    ]


@dataclass(frozen=True)
class SpreadSpec:
    """Per class i, a set S(i) of 1-based copy index pairs (s, s')."""

    classes: tuple

    def validate(self, m, nak: NakayamaData):
        if len(self.classes) != len(m):
            raise BadParams("subset data must cover every class")
        for i, (pairs, box) in enumerate(zip(self.classes, copy_boxes(m, nak))):
            outside = set(pairs).difference(box)
            if outside:
                (s, s2), (hi_s, hi_t) = min(outside), box[-1]
                raise IndexOutOfRange(
                    f"pair ({s},{s2}) outside 1..{hi_s} x 1..{hi_t} for class {i}"
                )

    @classmethod
    def random_nonempty(cls, m, nak: NakayamaData, rng: random.Random) -> "SpreadSpec":
        out = []
        for box in copy_boxes(m, nak):
            size = rng.randint(1, len(box))
            out.append(frozenset(rng.sample(box, size)))
        return cls(tuple(out))

    def to_json(self):
        return {
            "classes": [
                {"i": i + 1, "pairs": sorted([s, s2] for (s, s2) in pairs)}
                for i, pairs in enumerate(self.classes)
            ]
        }

    @classmethod
    def from_json(cls, data, n: int) -> "SpreadSpec":
        classes = [None] * n
        try:
            for row in data["classes"]:
                idx = json_int(row["i"], "class index") - 1
                if not 0 <= idx < n:
                    raise BadParams(f"class index {row['i']} out of range")
                if classes[idx] is not None:
                    raise BadParams(f"class index {row['i']} given twice")
                classes[idx] = frozenset(
                    (json_int(s, "copy index"), json_int(s2, "copy index"))
                    for s, s2 in row["pairs"]
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadParams(f"malformed subset data: {exc}") from exc
        return cls(tuple(frozenset() if c is None else c for c in classes))


PRESETS = ("singleton", "diagonal", "full")


def preset_spec(name: str, m, nak: NakayamaData) -> SpreadSpec:
    """Named subset data: `singleton` is {(1,1)} in every class, `full`
    the whole box, and `diagonal` the pairs (s,s) when m(i) = m(nu^-1 i),
    the whole box otherwise."""
    if name not in PRESETS:
        raise BadParams(f"unknown preset {name!r}")
    classes = []
    for box in copy_boxes(m, nak):
        if name == "singleton":
            pairs = {(1, 1)}
        elif name == "diagonal" and box[-1][0] == box[-1][1]:  # m(i) = m(nu^-1 i)
            pairs = (p for p in box if p[0] == p[1])
        else:
            pairs = box
        classes.append(frozenset(pairs))
    return SpreadSpec(tuple(classes))


# -- spreading -------------------------------------------------------------------


def spread(
    amp: AmplifiedAlgebra, y: Tensor2, spec: SpreadSpec, nak: NakayamaData
) -> Tensor2:
    """Distribute each corner block of y over projective copies via S(i).

    For a block component phi (x) psi with phi in corner(j<-i), the output
    collects phi^{t<-s} (x) psi^{s'<-t} over t = 1..m(j) and (s, s') in
    S(i).  Raises BadBlockSupport unless y lies in the sum of
    corner(j<-i) (x) corner(nu^-1(i)<-j).  The result is invariant in the
    amplified bimodule when y is invariant in the basic one;
    `comultiplication_report` checks that exactly.
    """
    spec.validate(amp.m, nak)
    blocks = amp.corners.tensor_components(y)
    p = amp.algebra.field.p
    coeffs: dict = {}
    for (j, i, u, v), grid in blocks.items():
        if v != j or u != nak.nu_inverse(i):
            raise BadBlockSupport(
                f"tensor has a component in corners ({j}<-{i}) (x) ({u}<-{v})"
            )
        for t in range(1, amp.m[j] + 1):
            for s, s2 in spec.classes[i]:
                for (b1, b2), c in grid.items():
                    k1 = amp.index[(i, j, s, t, b1)]
                    k2 = amp.index[(j, u, t, s2, b2)]
                    key = (k1, k2)
                    w = coeffs.get(key, 0) + c
                    if p:
                        w %= p
                    if w:
                        coeffs[key] = w
                    else:
                        coeffs.pop(key, None)
    return Tensor2(amp.algebra, coeffs)


# -- counitality ------------------------------------------------------------------


def is_bijection_graph(spec: SpreadSpec, m, nak: NakayamaData) -> list:
    """Per class, whether S(i) is the graph of a bijection of copy sets."""
    out = []
    for i, pairs in enumerate(spec.classes):
        mi, mo = m[i], m[nak.nu_inverse(i)]
        left = {s for s, _ in pairs}
        right = {s2 for _, s2 in pairs}
        out.append(
            mi == mo
            and len(pairs) == mi
            and left == set(range(1, mi + 1))
            and right == set(range(1, mo + 1))
        )
    return out


def is_incidence_invertible(spec: SpreadSpec, m, nak: NakayamaData, field) -> list:
    """Per class, whether the incidence matrix of S(i) is invertible.

    M_i is the m(i) x m(nu^-1 i) 0/1 matrix with M_i[s][s'] = 1 exactly
    when (s, s') is in S(i); a non-square M_i counts as not invertible.
    The spread tensor is counital iff every M_i is invertible over the
    ground field: on the block (nu^-1(i) <- i) the two counit identities
    read F M_i = 1 and M_i F = 1 for the matrix F of counit values on the
    copies.  Bijection graphs are the permutation-matrix case.
    """
    out = []
    for i, pairs in enumerate(spec.classes):
        mi, mo = m[i], m[nak.nu_inverse(i)]
        if mi != mo:
            out.append(False)
            continue
        rows = [
            {s2: field.one for s2 in range(1, mo + 1) if (s, s2) in pairs}
            for s in range(1, mi + 1)
        ]
        out.append(sparse_rank(field, rows) == mi)
    return out


def build_counit(
    amp: AmplifiedAlgebra, spec: SpreadSpec, nak: NakayamaData, eps_base: Functional
) -> Functional:
    """Counit for a bijection-graph spread: the base counit through the
    copy identification on blocks (nu^-1(i) <- i, copies phi_i(t) <- t),
    zero elsewhere.  `comultiplication_report` checks both counit
    identities on the tensor it is given."""
    flags = is_bijection_graph(spec, amp.m, nak)
    if not all(flags):
        bad = [i for i, ok in enumerate(flags) if not ok]
        raise NotBijection(f"subset data is not a bijection graph for classes {bad}")
    phi = [dict(pairs) for pairs in spec.classes]
    field = amp.algebra.field
    values = [field.zero] * amp.algebra.dim
    for (i, j, s, t, b), idx in amp.index.items():
        if j == nak.nu_inverse(i) and t == phi[i][s]:
            values[idx] = eps_base(amp.corners.bases[(j, i)][b])
    return Functional(amp.algebra, values)


def counit_solution_space(alg: FinDimAlgebra, x: Tensor2):
    """Independent linear oracle for (eps (x) id)x = 1 = (id (x) eps)x.

    Returns (Functional or None, dimension of the homogeneous solution
    space).  Works directly from the sparse tensor coefficients.
    """
    field = alg.field
    d = alg.dim
    left_rows = [dict() for _ in range(d)]
    right_rows = [dict() for _ in range(d)]
    # x is a dict, so each (a, b) sets one entry of one row on each side
    for (a, b), c in x.coeffs.items():
        left_rows[b][a] = c
        right_rows[a][b] = c
    unit = alg.unit.coeffs
    rows = left_rows + right_rows
    rhs = [unit.get(g, field.zero) for g in range(d)] * 2
    sol, nullity = sparse_solve(field, rows, rhs, d)
    if sol is None:
        return None, nullity
    values = [field.zero] * d
    for k, c in sol.items():
        values[k] = c
    eps = Functional(alg, values)
    if (
        apply_functional("left", eps, x) != alg.unit
        or apply_functional("right", eps, x) != alg.unit
    ):
        raise AlgebraError("oracle produced an inexact counit")
    return eps, nullity


# -- report ------------------------------------------------------------------------


@dataclass
class ComultiplicationReport:
    dim: int
    invariant: bool
    invariant_witness: int | None
    coassociative: bool
    coassociative_witness: tuple | None
    rank: int
    injective: bool
    bijection_per_class: list | None
    counital: bool
    counit: Functional | None
    counit_built: bool
    feasible: bool
    solution_space_dim: int
    routes_consistent: bool | None

    def to_json(self):
        return {
            "dim": self.dim,
            "invariant": self.invariant,
            "invariant_witness": self.invariant_witness,
            "coassociative": self.coassociative,
            "coassociative_witness": list(self.coassociative_witness)
            if self.coassociative_witness
            else None,
            "delta_rank": self.rank,
            "injective": self.injective,
            "bijection_per_class": self.bijection_per_class,
            "counital": self.counital,
            "counit": self.counit.to_json() if self.counit else None,
            "counit_built": self.counit_built,
            "counit_feasible": self.feasible,
            "solution_space_dim": self.solution_space_dim,
            "routes_consistent": self.routes_consistent,
        }


def comultiplication_report(
    alg: FinDimAlgebra,
    x: Tensor2,
    bijection_per_class: list | None = None,
    built_counit: Functional | None = None,
) -> ComultiplicationReport:
    """Exact verification of one comultiplication tensor.

    Counitality is decided by the independent linear oracle; when a
    constructed counit is supplied, it must satisfy the identities (and
    hence solve the oracle's system), which cross-checks the two routes.
    """
    inv_w = is_invariant(x)
    coa_w = check_coassociativity(x)
    rk = delta_rank(x)
    oracle, nullity = counit_solution_space(alg, x)
    built_ok = None
    if built_counit is not None:
        built_ok = (
            apply_functional("left", built_counit, x) == alg.unit
            and apply_functional("right", built_counit, x) == alg.unit
        )
    counit = built_counit if (built_counit is not None and built_ok) else oracle
    routes = None
    if bijection_per_class is not None:
        routes = (oracle is not None) == all(bijection_per_class)
        if built_counit is not None:
            routes = routes and bool(built_ok)
    return ComultiplicationReport(
        dim=alg.dim,
        invariant=inv_w is None,
        invariant_witness=inv_w,
        coassociative=coa_w is None,
        coassociative_witness=coa_w,
        rank=rk,
        injective=rk == alg.dim,
        bijection_per_class=bijection_per_class,
        counital=oracle is not None,
        counit=counit,
        counit_built=built_counit is not None and bool(built_ok),
        feasible=oracle is not None,
        solution_space_dim=nullity,
        routes_consistent=routes,
    )
