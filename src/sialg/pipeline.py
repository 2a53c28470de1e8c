"""End-to-end pipeline: analyze, build the amplified model, spread, transport.

Real inputs arrive in arbitrary bases, so the spread tensor is built on
the amplified model End(P_1^m1 + ...) over the basic corner algebra and
then carried back along an explicit isomorphism assembled from the
projective-copy witnesses.  Before use the map is verified to be a
unital algebra isomorphism: it keeps the unit, it is bijective, and
phi(a) phi(b) = phi(ab) on every basis pair, with the products taken in
the input algebra and only the nonzero ones on either side compared.
The matrix of the images is inverted by `linalg.Matrix.inverse`, the
same sparse inversion the Gram matrix of a counit goes through, and its
rows are the preimages that carry a functional back to the input.
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
)
from .amplify import (
    AmplifiedAlgebra,
    SpreadSpec,
    amplify,
    build_counit,
    certify_family,
    comultiplication_report,
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
    basic."""

    algebra: FinDimAlgebra
    rad: RadicalData
    dec: CanonicalDecomposition
    input_corners: PeirceCorners
    corners: PeirceCorners
    nak: NakayamaData

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
    """Canonical decomposition, basic reduction and Nakayama permutation.

    The input is validated first, and only here: every algebra derived
    from it is a pullback of it (see `ModelIsomorphism`).  The basic
    algebra keeps the parent's class order, so its Nakayama permutation
    indexes the same classes as the multiplicity vector.
    """
    alg.validate()
    rad = radical(alg)
    dec = canonical_decomposition(alg, seed, rad)
    input_corners, corners = basic_reduction(alg, dec)
    nak = nakayama(corners, rad if corners is input_corners else radical(corners.alg))
    return AnalysisResult(alg, rad, dec, input_corners, corners, nak)


class ModelIsomorphism:
    """Isomorphism from the amplified model onto the input algebra.

    The basis element of the model carrying phi in corner (j <- i) with
    copies (t <- s) maps to v_{j,t} * phi * u_{i,s}, built from the
    copy-identification witnesses, with phi read as the input's corner
    basis element `input_corners.bases[(j, i)][b]` (see `basic_reduction`).
    `alg` is the algebra the map is checked against, given apart from
    `input_corners.alg`.

    `_verify` proves phi a unital, multiplicative linear bijection onto
    the input `analyze` validated, so the model, its pullback, is
    associative and unital.  The model's copies (1 <- 1) span a corner
    isomorphic to the basic reduction, which the same proof covers.
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
        vectors = [img.coeffs for img in self.images]
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
        p = self.alg.field.p
        out: dict = {}
        for (a, b), c in x.coeffs.items():
            for k1, c1 in self.images[a].coeffs.items():
                for k2, c2 in self.images[b].coeffs.items():
                    key = (k1, k2)
                    w = out.get(key, 0) + c * c1 * c2
                    if p:
                        w %= p
                    if w:
                        out[key] = w
                    else:
                        out.pop(key, None)
        return Tensor2(self.alg, out)

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
    `blocks` are the corner blocks of `pair.y` that `tensor_blocks` cut,
    and `certified` is `certify_family(pair.y)`."""

    analysis: AnalysisResult
    pair: FrobeniusPair
    witnesses: IsoWitness
    amp: AmplifiedAlgebra
    model_map: ModelIsomorphism
    blocks: dict
    certified: bool


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


def prepare(alg: FinDimAlgebra, seed: int = DEFAULT_SEED):
    """The spec-independent context; y is cut into its corner blocks here,
    once, and `BadBlockSupport` names the lowest block off its support."""
    analysis = analyze(alg, seed)
    pair = frobenius_pair(analysis.corners, analysis.nak, seed)
    blocks, witness = tensor_blocks(analysis.corners, pair.y, analysis.nak)
    if witness is not None:
        j, i, u, v = witness
        raise BadBlockSupport(f"tensor has a component in corners ({j}<-{i}) (x) ({u}<-{v})")
    wit = iso_witnesses(alg, analysis.dec)
    amp = amplify(analysis.corners, analysis.dec.multiplicities)
    model_map = ModelIsomorphism(alg, amp, analysis.input_corners, wit)
    return PipelineContext(analysis, pair, wit, amp, model_map, blocks, certify_family(pair.y))


def run_spec(ctx: PipelineContext, spec: SpreadSpec | str) -> PipelineRun:
    """Spread one choice of subset data, transport it and report.

    When the context is certified and every S(i) is nonempty, the report
    takes invariance, coassociativity and injectivity from
    `certify_family`; otherwise it checks them directly on the
    transported tensor x.  The counit oracle and the constructed
    counit's two identities run on x for every spec: the model map is a
    verified unital isomorphism, so each holds there exactly when it
    holds on the model.
    """
    analysis, amp = ctx.analysis, ctx.amp
    m, nak = analysis.dec.multiplicities, analysis.nak
    if isinstance(spec, str):
        spec = preset_spec(spec, m, nak)
    x = ctx.model_map.apply_tensor2(spread(amp, ctx.blocks, spec, nak))
    flags = is_bijection_graph(spec, m, nak)
    built = None
    if all(flags):
        built_model = build_counit(amp, spec, nak, ctx.pair.epsilon)
        built = ctx.model_map.transport_functional(built_model)
    certified = ctx.certified and all(spec.classes)
    report = comultiplication_report(analysis.algebra, x, flags, built, certified)
    return PipelineRun(ctx, spec, x, report)

