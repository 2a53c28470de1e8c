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
over copies according to S(i).  `spread` is the model-side definition:
the pipeline spreads the whole copy box once per context and sums, per
S, the transported pieces of its pairs (`pipeline.PipelineContext`),
and the verify battery's reference routes spread S itself.  Counitality
and the dimension of the counit solution space are decided in Lambda
from the ranks of the incidence matrices of S (`counit_from_incidence`,
proved once per context by `certify_family`).  Two independent routes
stay beside it: the direct counit construction for bijection graphs,
and the linear feasibility oracle on the spread tensor, which the report
runs only where it prints the oracle's solution and the verify battery
runs on every swept spec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
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
    IndexOutOfRange,
    NotBijection,
)
from .fields import Field, json_int
from .linalg import sparse_rank, sparse_solve
from .structure import NakayamaData, PeirceCorners


class AmplifiedAlgebra:
    """Endomorphism algebra of copies of the basic projectives.

    dim = sum over class pairs (i, j) of m(i) * m(j) * dim(corner j<-i);
    the product composes morphisms through a matching inner copy index.
    `index` maps each basis tuple (i, j, s, t, b) to its position.  The
    corner basis index b runs innermost, so index[(i, j, s, t, b)] is
    index[(i, j, s, t, 0)] + b: the tuples of one (corner, s, t) are
    contiguous, and `spread` looks up one offset per leg for each block,
    t and copy pair.
    The reps must be orthogonal idempotents summing to 1, the premises
    under which the model is a matrix-unit algebra over the corners (see
    `pipeline.ModelIsomorphism`); `require_orthogonal` checks both here.
    """

    def __init__(self, corners: PeirceCorners, m):
        corners.require_orthogonal()
        m = tuple(json_int(v, "multiplicity") for v in m)
        if len(m) != len(corners.reps) or any(v < 1 for v in m):
            raise BadParams("multiplicities must list one value >= 1 per class")
        self.m = m
        self.corners = corners
        self.tuples, self.algebra = corners.copy_algebra(m)
        self.index = {tup: a for a, tup in enumerate(self.tuples)}


def amplify(corners: PeirceCorners, m) -> AmplifiedAlgebra:
    return AmplifiedAlgebra(corners, m)


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
        """Every pair of S(i) in 1..m(i) x 1..m(nu^-1 i), tested by its
        bounds; the lowest pair outside its box is named."""
        if len(self.classes) != len(m):
            raise BadParams("subset data must cover every class")
        for i, pairs in enumerate(self.classes):
            hi_s, hi_t = m[i], m[nak.nu_inverse(i)]
            copies, targets = range(1, hi_s + 1), range(1, hi_t + 1)
            outside = [(s, s2) for s, s2 in pairs if s not in copies or s2 not in targets]
            if outside:
                s, s2 = min(outside)
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
    tuples (i, j, s, t, b1) and (j, u, t, s', b2), whose positions are
    the offsets of (i, j, s, t, 0) and (j, u, t, s', 0) plus b1 and b2
    (see `AmplifiedAlgebra`).  So x_S is the sum,
    over (i, (s, s')) in S, of the spreads of the single pairs, with
    disjoint supports: `pipeline.prepare` splits the spread of the whole
    box by (i, s, s') into those pieces once per context.  The result is
    invariant in the amplified bimodule when y is invariant in the basic
    one (see `certify_family`).
    """
    spec.validate(amp.m, nak)
    index = amp.index
    coeffs: dict = {}
    for (j, i, u, _), grid in blocks.items():
        for t in range(1, amp.m[j] + 1):
            for s, s2 in spec.classes[i]:
                o1, o2 = index[(i, j, s, t, 0)], index[(j, u, t, s2, 0)]
                for (b1, b2), c in grid.items():
                    coeffs[(o1 + b1, o2 + b2)] = c
    return Tensor2(amp.algebra, coeffs)


def certify_family(y: Tensor2) -> bool:
    """True when y proves every spread x_S with no empty S(i) invariant,
    coassociative and injective, on the model and on the input, and
    holds the premises of `counit_from_incidence` for every x_S, empty
    classes included.

    y comes from `dual_basis_tensor`, which proved it invariant, and its
    block support is checked by the cut `prepare` makes with
    `frobenius.tensor_blocks`, so only coassociativity, rank dim Lambda
    and the counit are checked here.  The counit check is the linear
    oracle on y itself: a counit and a homogeneous solution space of
    dimension 0, the closed form at m = 1.  Proof: the model's basis
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
    if check_coassociativity(y) is not None or delta_rank(y) != y.algebra.dim:
        return False
    eps, nullity = counit_solution_space(y.algebra, y)
    return eps is not None and nullity == 0


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


# distinct (S(i), characteristic) keys whose incidence rank is kept
INCIDENCE_RANK_CACHE = 4096


@lru_cache(maxsize=INCIDENCE_RANK_CACHE)
def _incidence_rank(pairs: frozenset, p) -> int:
    """The rank over QQ (p None) or GF(p) of the incidence matrix of the
    pairs, the one builder of that matrix: a pure function of the set and
    the characteristic, so it is kept for the `INCIDENCE_RANK_CACHE` keys
    used last."""
    rows: dict = {}
    for s, s2 in pairs:
        rows.setdefault(s, {})[s2] = 1
    return sparse_rank(Field(p), rows.values())


def _incidence_ranks(spec: SpreadSpec, field) -> list:
    """Per class i, the rank over the ground field of the incidence matrix
    M_i of S(i): the m(i) x m(nu^-1 i) 0/1 matrix with M_i[s][s'] = 1
    exactly when (s, s') is in S(i), read through the cache of
    `_incidence_rank`."""
    return [_incidence_rank(frozenset(pairs), field.p) for pairs in spec.classes]


def is_incidence_invertible(spec: SpreadSpec, m, nak: NakayamaData, field) -> list:
    """Per class, whether the incidence matrix M_i of S(i) is invertible
    over the ground field; a non-square M_i counts as not invertible.
    The spread tensor is counital iff every M_i is invertible (see
    `counit_from_incidence`); bijection graphs are the permutation-matrix
    case.
    """
    ranks = _incidence_ranks(spec, field)
    return [m[i] == m[nak.nu_inverse(i)] == rk for i, rk in enumerate(ranks)]


def counit_from_incidence(
    corners: PeirceCorners, m, nak: NakayamaData, spec: SpreadSpec
) -> tuple:
    """(counital, solution_space_dim) of the spread x_S, decided in Lambda
    from the ranks rk_i of the incidence matrices M_i.

    counital is "every M_i is square of rank m(i)", and the homogeneous
    solution space of (eps (x) id)x_S = 0 = (id (x) eps)x_S has dimension
    the sum over corners (c <- d) of
    dim(e_c L e_d) * (m(c) - rk_{nu(c)}) * (m(d) - rk_d).
    Premises: eps_L is a counit of y (checked by `certify_family`), y has
    block support (checked by the cut in `prepare`), and y's coefficient
    grid is an inverse Gram matrix (`dual_basis_tensor`), so y is
    nondegenerate.  Proof, corner by corner: write a functional eps on the
    model's corner (c <- d) as the m(c) x m(d) matrix F of functionals
    F[t][s] = eps(. ^{t<-s}) on e_c L e_d.
    - Left identity: (eps (x) id)x_S is, on the corner (nu^-1 d <- c)
      with copies (s' <- t), the lift of (G (x) id) of y's block in
      (c <- d) (x) (nu^-1 d <- c), where G = (F M_d)[t][s'].  y is
      nondegenerate and that block is its only one with a first leg in
      (c <- d), so G (x) id is injective there, and the identity reads
      F M_d = delta_{c, nu^-1 d} I (x) eps_L.  Since nu is a permutation,
      each corner of eps meets exactly one block of the unit.
    - Right identity: likewise, on the corner (d <- nu(c)) it reads
      M_{nu(c)} F = delta_{c, nu^-1 d} I (x) eps_L.
    So the system splits by corner.  Off the corners (nu^-1 d <- d) it is
    homogeneous; on them it asks F M_d = I (x) eps_L = M_d F, where
    eps_L is nonzero because (eps_L (x) id)y = 1, so it is solvable
    exactly when M_d is square and invertible.  In every corner, the
    homogeneous solutions are the F whose rows lie in the left kernel of
    M_d and whose columns lie in the kernel of M_{nu(c)}, one copy per
    basis element of e_c L e_d: the dimension above.  Empty classes
    need no exception (rk = 0).  The model map is a verified unital
    isomorphism, so eps -> eps o phi^-1 carries the solutions on the
    model onto those on the transported x, with the same dimension.
    """
    ranks = _incidence_ranks(spec, corners.alg.field)
    counital = all(m[i] == m[nak.nu_inverse(i)] == rk for i, rk in enumerate(ranks))
    dim = sum(
        len(basis) * (m[c] - ranks[nak.nu[c]]) * (m[d] - ranks[d])
        for (c, d), basis in corners.bases.items()
    )
    return counital, dim


def build_counit(
    amp: AmplifiedAlgebra,
    spec: SpreadSpec,
    nak: NakayamaData,
    eps_base: Functional,
    flags: list,
) -> Functional:
    """Counit for a bijection-graph spread: the base counit through the
    copy identification on blocks (nu^-1(i) <- i, copies phi_i(s) <- s),
    zero elsewhere.  `flags` are `is_bijection_graph` of the same data,
    which the caller also reports; `NotBijection` unless all hold.  Only
    the blocks at the pairs (s, phi_i(s))
    of S(i) are written, each from the offset of its tuple
    (i, nu^-1(i), s, phi_i(s), 0) plus the corner basis index (see
    `AmplifiedAlgebra`), with eps_base taken once per corner basis
    element.  `comultiplication_report` checks both counit identities on
    the tensor it is given."""
    if not all(flags):
        bad = [i for i, ok in enumerate(flags) if not ok]
        raise NotBijection(f"subset data is not a bijection graph for classes {bad}")
    index = amp.index
    values = [amp.algebra.field.zero] * amp.algebra.dim
    for i, pairs in enumerate(spec.classes):
        j = nak.nu_inverse(i)
        eps = [eps_base(q) for q in amp.corners.bases[(j, i)]]
        if eps:
            for s, t in pairs:
                o = index[(i, j, s, t, 0)]
                values[o : o + len(eps)] = eps
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
    counit: tuple | None = None,
) -> ComultiplicationReport:
    """Exact verification of one comultiplication tensor.

    `certified` says that `certify_family` proved x invariant,
    coassociative and injective; the report then takes those verdicts,
    with no witnesses and rank dim A.  Otherwise it checks all three
    directly on x.  A supplied counit must satisfy both identities on x.
    `counit` is the pair (counital, solution_space_dim) that
    `counit_from_incidence` proved; the report takes it, and runs the
    linear oracle on x only when the data are counital and no supplied
    counit holds, to print the oracle's solution.  Without the pair, the
    oracle decides counitality on x.  Where the oracle runs, its verdict
    and nullity are the report's.  The routes are consistent when x is
    counital exactly on bijection-graph data (`bijection_per_class` all
    true) and a supplied counit satisfies both identities.
    """
    if certified:
        inv_w = coa_w = None
        rk = alg.dim
    else:
        inv_w = is_invariant(x)
        coa_w = check_coassociativity(x)
        rk = delta_rank(x)
    built_ok = built_counit is not None and is_counit(built_counit, x)
    oracle = None
    if counit is None or (counit[0] and not built_ok):
        oracle, nullity = counit_solution_space(alg, x)
        counital = oracle is not None
    else:
        counital, nullity = counit
    routes = counital == all(bijection_per_class)
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
        counital=counital,
        counit=built_counit if built_ok else oracle,
        counit_built=built_ok,
        solution_space_dim=nullity,
        routes_consistent=routes,
    )
