"""Amplified algebras End(P_1^m1 + ... + P_n^mn) and spread comultiplications.

The amplified algebra is `corners.copy_algebra(m)`, the builder that
gives the basic reduction at every m(i) = 1: basis tuples (source class
i, target class j, source copy s, target copy t, corner basis element b)
in j-major corner order, labelled `a[j<-i;t<-s].b`.  The corners are
passed in, not built: `amplify(corners, m)` keeps the object it is given
as `amp.corners`, so the pipeline's counit and its amplified model read
one Peirce decomposition.  Copy indices are 1-based, matching the subset
data S(i) in {1..m(i)} x {1..m(nu^-1 i)}.  The spreading operation
takes the corner blocks of an invariant basic tensor, cut once per
context by `frobenius.tensor_blocks`, and only distributes each block
over copies according to S(i).  The two counitality routes (direct
construction for bijection graphs, and an independent linear
feasibility oracle) are kept strictly separate so they can cross-check
each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (
    Element,
    FinDimAlgebra,
    Functional,
    Tensor2,
    check_coassociativity,
    delta_rank,
    is_counit,
    is_invariant,
)
from .errors import (
    AlgebraError,
    BadParams,
    BlockMismatch,
    IndexOutOfRange,
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
        corners.require_sum_one()
        m = tuple(json_int(v, "multiplicity") for v in m)
        if len(m) != len(corners.reps) or any(v < 1 for v in m):
            raise BadParams("multiplicities must list one value >= 1 per class")
        self.m = m
        self.corners = corners
        self.tuples, self.algebra = corners.copy_algebra(m)
        self.index = {tup: a for a, tup in enumerate(self.tuples)}


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
                    f"pair ({s},{s2}) outside 1..{hi_s} x 1..{hi_t} for class {i + 1}"
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
                chosen = set()
                for s, s2 in row["pairs"]:
                    pair = (json_int(s, "copy index"), json_int(s2, "copy index"))
                    if pair in chosen:
                        raise BadParams(
                            f"pair ({pair[0]},{pair[1]}) given twice for class {row['i']}"
                        )
                    chosen.add(pair)
                classes[idx] = frozenset(chosen)
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


def spread(amp: AmplifiedAlgebra, blocks: dict, spec: SpreadSpec, nak: NakayamaData) -> Tensor2:
    """Distribute the corner blocks of y over projective copies via S(i).

    `blocks` are the components {(j, i, u, v): {(b1, b2): c}} of y that
    `frobenius.tensor_blocks` cut and found on the block support, so
    u = nu^-1(i) and v = j.  For a block component phi (x) psi with phi in
    corner(j<-i), the output holds phi^{t<-s} (x) psi^{s'<-t} over
    t = 1..m(j) and (s, s') in S(i).  Each coefficient is written once:
    (block, t, (s, s'), (b1, b2)) is read back off the two model basis
    tuples (i, j, s, t, b1) and (j, u, t, s', b2).  The result is
    invariant in the amplified bimodule when y is invariant in the basic
    one (see `certify_family`).
    """
    spec.validate(amp.m, nak)
    index = amp.index
    coeffs: dict = {}
    for (j, i, u, _), grid in blocks.items():
        for t in range(1, amp.m[j] + 1):
            for s, s2 in spec.classes[i]:
                for (b1, b2), c in grid.items():
                    coeffs[(index[(i, j, s, t, b1)], index[(j, u, t, s2, b2)])] = c
    return Tensor2(amp.algebra, coeffs)


def certify_family(y: Tensor2) -> bool:
    """True when y proves every spread x_S with no empty S(i) invariant,
    coassociative and injective, on the model and on the input.

    y comes from `dual_basis_tensor`, which proved it invariant, and its
    block support is checked by the cut `prepare` makes with
    `frobenius.tensor_blocks`, so only coassociativity and rank
    dim Lambda are checked here.  Proof: the model's basis
    elements are matrix units, a^{t<-s} b^{t'<-s'} = delta_{s t'}
    (ab)^{t<-s'}, and x_S lifts each term phi (x) psi of y, phi in
    corner(j<-i), to phi^{t<-s} (x) psi^{s'<-t} over t and (s, s') in S(i).
    - Invariance: b^{q<-r} x_S - x_S b^{q<-r} is the lift of b y - y b,
      with middle copies (q, r) and outer copies from S.
    - Coassociativity: (Delta (x) 1) x_S and (1 (x) Delta) x_S both sum,
      over t, (a, a') in S(class of leg 1's source) and (b, b') in
      S(class of leg 2's source), the lifts of (Delta_y (x) 1) y and
      (1 (x) Delta_y) y on the copy pattern (t<-a | a'<-b | b'<-t), so
      their difference is the lift of y's.
    - Injectivity: a x_S splits by (target copy of leg 1, source copy of
      leg 2) and by (s, s').  With every S(i) nonempty, a x_S = 0 forces
      a_{qr} y = 0 for every block a_{qr} of a, so a = 0 and the rank is
      dim of the model.
    - Transport: the model map is a verified unital algebra bijection, so
      x = (phi (x) phi) x_S keeps all three, and its rank is dim A.
    """
    return check_coassociativity(y) is None and delta_rank(y) == y.algebra.dim


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
    if not is_counit(eps, x):
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
    bijection_per_class: list
    counital: bool
    counit: Functional | None
    counit_built: bool
    solution_space_dim: int
    routes_consistent: bool

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
            "counit_feasible": self.counital,
            "solution_space_dim": self.solution_space_dim,
            "routes_consistent": self.routes_consistent,
        }


def comultiplication_report(
    alg: FinDimAlgebra,
    x: Tensor2,
    bijection_per_class: list,
    built_counit: Functional | None = None,
    certified: bool = False,
) -> ComultiplicationReport:
    """Exact verification of one comultiplication tensor.

    `certified` says that `certify_family` proved x invariant,
    coassociative and injective; the report then takes those verdicts,
    with no witnesses and rank dim A.  Otherwise it checks all three
    directly on x.  Counitality is decided by the independent linear
    oracle; when a constructed counit is supplied, it must satisfy the
    identities (and hence solve the oracle's system), which cross-checks
    the two routes.  The routes are consistent when the oracle finds a
    counit exactly on bijection-graph data (`bijection_per_class` all
    true) and a supplied counit satisfies both identities.
    """
    if certified:
        inv_w = coa_w = None
        rk = alg.dim
    else:
        inv_w = is_invariant(x)
        coa_w = check_coassociativity(x)
        rk = delta_rank(x)
    oracle, nullity = counit_solution_space(alg, x)
    built_ok = built_counit is not None and is_counit(built_counit, x)
    counit = built_counit if built_ok else oracle
    routes = (oracle is not None) == all(bijection_per_class)
    if built_counit is not None:
        routes = routes and built_ok
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
        counit_built=built_ok,
        solution_space_dim=nullity,
        routes_consistent=routes,
    )
