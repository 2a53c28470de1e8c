"""End-to-end pipeline: analyze, build the amplified model, transport the
copy pieces of the spread once, and sum the pieces each subset datum chooses.

Real inputs arrive in arbitrary bases, so the spread tensor is built on
the amplified model End(P_1^m1 + ...) over the basic corner algebra and
then carried back along an explicit isomorphism assembled from the
projective-copy witnesses.  The spread is linear in the indicator of S
and the map is linear, so `prepare` spreads the whole copy box once,
splits it into one piece per class i and copy pair (s, s'), and carries
each piece back; `run_spec` sums the pieces in S (the proof is in
`PipelineContext`).  Before use the map is verified to be a
unital algebra isomorphism: it keeps the unit, it is bijective, and
phi(a) phi(b) = phi(ab) on every basis pair, with the products taken in
the input algebra and only the nonzero ones on either side compared.
The matrix of the images is inverted by `linalg.Matrix.inverse`, the
same sparse inversion the Gram matrix of a counit goes through, and its
rows are the preimages that carry a functional back to the input.  The
map is built in `analyze`, where it proves the input an algebra from
the basic algebra's axioms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    FinDimAlgebra,
    Functional,
    Tensor2,
    combination,
    multiply,
    products,
    tensor_image,
)
from .amplify import (
    AmplifiedAlgebra,
    SpreadSpec,
    amplify,
    build_counit,
    certify_family,
    comultiplication_report,
    counit_from_incidence,
    is_bijection_graph,
    preset_spec,
    spread,
)
from .errors import AlgebraError, BadBlockSupport, SingularMatrix
from .frobenius import FrobeniusPair, frobenius_pair, tensor_blocks
from .linalg import Matrix
from .structure import (
    DEFAULT_SEED,
    CanonicalDecomposition,
    IsoWitness,
    NakayamaData,
    PeirceCorners,
    RadicalData,
    basic_reduction,
    canonical_decomposition,
    iso_witnesses,
    nakayama,
    radical,
)


@dataclass
class AnalysisResult:
    """`corners` is the basic algebra's Peirce decomposition by its class
    idempotents, built once and read by every later layer; `lam` is
    `corners.alg`.  `input_corners` is the input's Peirce decomposition
    by the class reps, whose corner basis element `bases[(j, i)][b]`
    carries the basic algebra's; it is `corners` when the input is
    basic.  `amp` is the amplified model over `corners` at the input's
    multiplicities, and `model_map` the verified isomorphism from it onto
    the input, built from the copy `witnesses`."""

    algebra: FinDimAlgebra
    rad: RadicalData
    dec: CanonicalDecomposition
    input_corners: PeirceCorners
    corners: PeirceCorners
    nak: NakayamaData
    witnesses: IsoWitness
    amp: AmplifiedAlgebra
    model_map: ModelIsomorphism

    @property
    def lam(self) -> FinDimAlgebra:
        return self.corners.alg

    def to_json(self) -> dict:
        fmt = self.algebra.field.format
        idempotents = [
            [fmt(c) for c in e.dense()] for e in self.dec.all_idempotents()
        ]
        return {
            "dim": self.algebra.dim,
            "n": self.dec.n,
            "multiplicities": list(self.dec.multiplicities),
            "nakayama": [v + 1 for v in self.nak.nu],
            "idempotents": idempotents,
            "radical_dim": self.rad.dim,
            "basic_dim": self.lam.dim,
            "flags": sorted(set(self.dec.flags) | {"self-injective-like"}),
        }


def analyze(alg: FinDimAlgebra, seed: int = DEFAULT_SEED) -> AnalysisResult:
    """Canonical decomposition, basic reduction, Nakayama permutation and
    the verified model map, which proves the input an algebra.

    The steps are the radical, decomposition and basic reduction; the
    unit and associativity of the basic algebra Lambda, checked by its
    `validate` (the full direct check when the input is basic, since
    Lambda is then the input); the Nakayama permutation; and the copy
    witnesses, the amplified model and `ModelIsomorphism`.  The basic
    algebra keeps the parent's class order, so its Nakayama permutation
    indexes the same classes as the multiplicity vector.

    Proof that the input is an associative unital algebra: the model is
    a matrix-unit algebra over the Peirce-graded Lambda, so it is
    associative and unital because Lambda is and Lambda's class
    idempotents are orthogonal idempotents summing to 1 (`nakayama` and
    `amplify` check both by `require_orthogonal`, at Lambda's size).
    The model map is a verified multiplicative bijection sending the
    model's unit to `alg.unit`, so the input is isomorphic to the model,
    hence associative with unit `alg.unit`.

    If any step raises, the input's own `validate` runs first (a basic
    input, its own Lambda, has had it already), so an input that is not
    an algebra is refused with its message and witness, and a valid
    input gets the step's own error.  Every step before the model map
    terminates on a table that is not associative.  The radical is one
    kernel computation.  The quotient split has a budget of 32 dim
    attempts of `_split_once` in all, and each split spends at least
    one, so its work list empties; a minimal polynomial is found within
    dim + 1 powers or raises, and `poly.factor` sees only that
    polynomial.  The idempotent lifting raises after at most
    `rad.dim.bit_length() + 2` steps.  The copy witnesses try each corner
    basis element once.  Every other step is linear algebra over finite
    index sets.
    """
    lam = None
    try:
        rad = radical(alg)
        dec = canonical_decomposition(alg, seed, rad)
        input_corners, corners = basic_reduction(alg, dec)
        lam = corners.alg
        lam.validate()
        nak = nakayama(corners, rad if lam is alg else radical(lam))
        wit = iso_witnesses(alg, dec)
        amp = amplify(corners, dec.multiplicities)
        model_map = ModelIsomorphism(alg, amp, input_corners, wit)
    except Exception:
        # any error, not only an AlgebraError: a table that is not an
        # algebra can fail a step in a way no check anticipates.  A basic
        # input is its own Lambda and has had its direct check already
        if lam is not alg:
            alg.validate()
        raise
    return AnalysisResult(alg, rad, dec, input_corners, corners, nak, wit, amp, model_map)


class ModelIsomorphism:
    """Isomorphism from the amplified model onto the input algebra.

    The basis element of the model carrying phi in corner (j <- i) with
    copies (t <- s) maps to v_{j,t} * phi * u_{i,s}, built from the
    copy-identification witnesses, with phi read as the input's corner
    basis element `input_corners.bases[(j, i)][b]` (see `basic_reduction`).
    `alg` is the algebra the map is checked against, given apart from
    `input_corners.alg`.

    The model is a matrix-unit algebra over the Peirce-graded basic
    algebra Lambda: its element in corner (j <- i) with copies (t <- s)
    is the matrix over Lambda with one entry, in e_j Lambda e_i at row
    (j, t) and column (i, s), and its product is the matrix product.  So
    it is associative when Lambda is, and the diagonal matrix of the
    class idempotents is its unit when they are orthogonal idempotents
    summing to 1.  `_verify` proves phi a linear bijection with
    phi(ab) = phi(a) phi(b) on every basis pair, the right side
    multiplied in `alg`, and phi(1) = `alg.unit`.  Then the product of
    `alg` is the model's carried along phi, so `alg` is associative with
    unit `alg.unit`: `analyze` proves its input an algebra this way.
    """

    def __init__(
        self,
        alg: FinDimAlgebra,
        amp: AmplifiedAlgebra,
        input_corners: PeirceCorners,
        wit: IsoWitness,
    ):
        self.alg = alg
        self.amp = amp
        bases = input_corners.bases
        self.images = [
            multiply(multiply(wit.vs[j][t - 1], bases[(j, i)][b]), wit.us[i][s - 1])
            for (i, j, s, t, b) in amp.tuples
        ]
        self._verify()

    def _verify(self):
        amp_alg = self.amp.algebra
        alg = self.alg
        if amp_alg.dim != alg.dim:
            raise AlgebraError(
                f"model dimension {amp_alg.dim} differs from input dimension {alg.dim}"
            )
        if combination(alg, self.images, amp_alg.unit.coeffs) != alg.unit:
            raise AlgebraError("model map does not preserve the unit")
        # phi(b_a) phi(b_b) = phi(b_a b_b) on every basis pair, multiplied
        # in alg; a pair where both sides vanish needs no comparison
        d = amp_alg.dim
        vectors = self.vectors = [img.coeffs for img in self.images]
        for a, prods in enumerate(products(alg, vectors, vectors)):
            row = amp_alg.rows[a]
            for b in sorted(prods.keys() | row.keys()):
                if prods.get(b, {}) != combination(alg, self.images, row.get(b, {})).coeffs:
                    raise AlgebraError(
                        f"model map is not multiplicative at basis pair ({a},{b})"
                    )
        # phi is bijective exactly when the matrix of its images inverts,
        # and row k of the inverse spells phi^-1(b_k)
        try:
            inverse = Matrix(alg.field, vectors, d).inverse()
        except SingularMatrix as exc:
            raise AlgebraError("model map is not bijective") from exc
        self.preimages = inverse.rows

    def apply_tensor2(self, x: Tensor2) -> Tensor2:
        """(phi (x) phi)(x), in the field's normal form."""
        return Tensor2(self.alg, tensor_image(self.alg.field, x.coeffs, self.vectors))

    def transport_functional(self, f: Functional) -> Functional:
        """Functional on the input algebra pulling back to f on the model:
        its value at b_k is f(phi^-1(b_k))."""
        zero = self.alg.field.zero
        return Functional(
            self.alg,
            [sum((c * f.values[t] for t, c in pre.items()), zero) for pre in self.preimages],
        )


@dataclass
class PipelineContext:
    """Everything spec-independent: reusable across subset-data sweeps.
    The model and its map are `analysis.amp` and `analysis.model_map`;
    `blocks` are the corner blocks of `pair.y` that `tensor_blocks` cut,
    and `certified` is `certify_family(pair.y)`.

    `pieces` maps each pair (i, (s, s')) of the copy boxes to the
    transported piece X_{i,s,s'} = (phi (x) phi)(x_{i,s,s'}), a zero-free
    {(k1, k2): c} in the input's basis, where x_{i,s,s'} is the spread of
    the one pair (s, s') in class i.  Proof that x_S = sum of the pieces
    over (i, (s, s')) in S: the model spread writes each coefficient of
    x_S at the pair of model basis tuples (i, j, s, t, b1) and
    (j, u, t, s', b2), read back from that key alone, so the spreads of
    distinct pairs have disjoint supports and the spread of S is their
    sum; phi (x) phi is linear, so the transported x_S is the sum of the
    transported pieces.  `_transported_pieces` builds them once, from one
    spread of the whole box split by (i, s, s')."""

    analysis: AnalysisResult
    pair: FrobeniusPair
    blocks: dict
    certified: bool
    pieces: dict


@dataclass
class PipelineRun:
    ctx: PipelineContext
    spec: SpreadSpec
    x: Tensor2
    report: object

    def to_json(self) -> dict:
        return {
            "analysis": self.ctx.analysis.to_json(),
            "frobenius_pair": self.ctx.pair.to_json(),
            "spec": self.spec.to_json(),
            "tensor": self.x.to_json(),
            "report": self.report.to_json(),
        }


def _transported_pieces(analysis: AnalysisResult, blocks: dict) -> dict:
    """{(i, (s, s')): X_{i,s,s'}}: one spread of the whole copy box, split
    by the class and source copy s of leg 1's model tuple and the target
    copy s' of leg 2's, each part carried to the input by the model map
    (see `PipelineContext`), with its scalars in the field's normal form."""
    amp, nak = analysis.amp, analysis.nak
    tuples = amp.tuples
    full = spread(amp, blocks, preset_spec("full", amp.m, nak), nak)
    parts: dict = {}
    for k, c in full.coeffs.items():
        i, _, s, _, _ = tuples[k[0]]
        parts.setdefault((i, (s, tuples[k[1]][3])), {})[k] = c
    return {
        key: analysis.model_map.apply_tensor2(Tensor2(amp.algebra, part)).coeffs
        for key, part in parts.items()
    }


def prepare(alg: FinDimAlgebra, seed: int = DEFAULT_SEED):
    """The spec-independent context; y is cut into its corner blocks here,
    once, and `BadBlockSupport` names the lowest block off its support.
    The transported pieces of the spread are built here too, once."""
    analysis = analyze(alg, seed)
    pair = frobenius_pair(analysis.corners, analysis.nak, seed)
    blocks, witness = tensor_blocks(analysis.corners, pair.y, analysis.nak)
    if witness is not None:
        j, i, u, v = witness
        raise BadBlockSupport(f"tensor has a component in corners ({j}<-{i}) (x) ({u}<-{v})")
    pieces = _transported_pieces(analysis, blocks)
    return PipelineContext(analysis, pair, blocks, certify_family(pair.y), pieces)


def run_spec(ctx: PipelineContext, spec: SpreadSpec | str) -> PipelineRun:
    """Spread one choice of subset data, transport it and report.

    The transported tensor x is the sum of the pieces X_{i,s,s'} over
    (i, (s, s')) in S, built once by `prepare` (the linearity proof is in
    `PipelineContext`).  S is validated first, so a pair outside its box
    raises `IndexOutOfRange` as the spread would.  The sum is exact: a
    scalar shared by two pieces is added in the field's normal form, and
    a key whose sum is 0 is dropped, so x is zero-free.

    When the context is certified and every S(i) is nonempty, the report
    takes invariance, coassociativity and injectivity from
    `certify_family`; otherwise it checks them directly on the
    transported tensor x.  When the context is certified, empty classes
    included, counitality and the solution-space dimension come from
    `counit_from_incidence`, and the counit oracle runs on x only for
    counital data without a verified constructed counit, whose solution
    the report prints; on an uncertified context it runs for every spec.
    The constructed counit's two identities are checked on x for every
    bijection graph: the model map is a verified unital isomorphism, so
    each holds there exactly when it holds on the model.
    """
    analysis = ctx.analysis
    amp, model_map = analysis.amp, analysis.model_map
    m, nak = analysis.dec.multiplicities, analysis.nak
    if isinstance(spec, str):
        spec = preset_spec(spec, m, nak)
    spec.validate(m, nak)
    alg = analysis.algebra
    norm = alg.field.normal
    pieces = ctx.pieces
    coeffs: dict = {}
    for i, pairs in enumerate(spec.classes):
        for pair in pairs:
            for key, c in pieces[(i, pair)].items():
                old = coeffs.get(key)
                if old is None:
                    coeffs[key] = c
                elif w := norm(old + c):
                    coeffs[key] = w
                else:
                    del coeffs[key]
    x = Tensor2(alg, coeffs)
    flags = is_bijection_graph(spec, m, nak)
    built = None
    if all(flags):
        built_model = build_counit(amp, spec, nak, ctx.pair.epsilon)
        built = model_map.transport_functional(built_model)
    certified = ctx.certified and all(spec.classes)
    counit = counit_from_incidence(analysis.corners, m, nak, spec) if ctx.certified else None
    report = comultiplication_report(alg, x, flags, built, certified, counit=counit)
    return PipelineRun(ctx, spec, x, report)
