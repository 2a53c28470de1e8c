"""End-to-end pipeline: analyze, build the amplified model, spread, transport.

Real inputs arrive in arbitrary bases, so the spread tensor is built on
the amplified model End(P_1^m1 + ...) over the basic corner algebra and
then carried back along an explicit isomorphism assembled from the
projective-copy witnesses.  Before use the map is verified to be a
unital algebra isomorphism: it keeps the unit, it is bijective, and
phi(a) phi(b) = phi(ab) on every basis pair, with the products taken in
the input algebra and only the nonzero ones on either side compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Element,
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
    comultiplication_report,
    is_bijection_graph,
    preset_spec,
    spread,
)
from .errors import AlgebraError
from .frobenius import FrobeniusPair, frobenius_pair
from .linalg import Span
from .structure import (
    DEFAULT_SEED,
    BasicEmbedding,
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
    """`corners` is the basic algebra's Peirce decomposition by
    `embedding.dec_lam.reps`, built once in `analyze` and read by every
    later layer; `lam` is `corners.alg`."""

    algebra: FinDimAlgebra
    rad: RadicalData
    dec: CanonicalDecomposition
    corners: PeirceCorners
    embedding: BasicEmbedding
    rad_lam: RadicalData
    nak: NakayamaData

    @property
    def lam(self) -> FinDimAlgebra:
        return self.corners.alg

    @property
    def multiplicities(self) -> tuple:
        return self.dec.multiplicities

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


def analyze(
    alg: FinDimAlgebra, seed: int = DEFAULT_SEED, validate: bool = False
) -> AnalysisResult:
    """Canonical decomposition, basic reduction and Nakayama permutation.

    The basic algebra keeps the parent's class order, so its Nakayama
    permutation indexes the same classes as the multiplicity vector.
    """
    if validate:
        alg.validate()
    rad = radical(alg)
    dec = canonical_decomposition(alg, seed, rad)
    lam, emb = basic_reduction(alg, dec)
    rad_lam = rad if lam is alg else radical(lam)
    nak = nakayama(lam, emb.dec_lam, rad_lam)
    corners = PeirceCorners(lam, emb.dec_lam.reps)
    return AnalysisResult(alg, rad, dec, corners, emb, rad_lam, nak)


class ModelIsomorphism:
    """Isomorphism from the amplified model onto the input algebra.

    The basis element of the model carrying phi in corner (j <- i) with
    copies (t <- s) maps to v_{j,t} * phi * u_{i,s}, built from the
    copy-identification witnesses.
    """

    def __init__(
        self,
        alg: FinDimAlgebra,
        amp: AmplifiedAlgebra,
        emb: BasicEmbedding,
        wit: IsoWitness,
    ):
        self.alg = alg
        self.amp = amp
        images = []
        for (i, j, s, t, b) in amp.tuples:
            q = emb.to_parent(amp.corners.bases[(j, i)][b])
            img = multiply(multiply(wit.vs[j][t - 1], q), wit.us[i][s - 1])
            images.append(img)
        self.images = images
        self._verify()

    def _verify(self):
        amp_alg = self.amp.algebra
        alg = self.alg
        if amp_alg.dim != alg.dim:
            raise AlgebraError(
                f"model dimension {amp_alg.dim} differs from input dimension {alg.dim}"
            )
        if self.apply_element(amp_alg.unit) != alg.unit:
            raise AlgebraError("model map does not preserve the unit")
        # phi(b_a) phi(b_b) = phi(b_a b_b) on every basis pair, multiplied
        # in alg; a pair where both sides vanish needs no comparison
        d = amp_alg.dim
        vectors = [img.coeffs for img in self.images]
        for a, prods in enumerate(products(alg, vectors, vectors)):
            row = amp_alg.rows[a]
            for b in sorted(prods.keys() | {b for b in range(d) if row[b]}):
                if prods.get(b, {}) != combination(alg, self.images, row[b]).coeffs:
                    raise AlgebraError(
                        f"model map is not multiplicative at basis pair ({a},{b})"
                    )
        # row t carries the image of basis vector t tagged by key d + t; the
        # map is bijective exactly when every pivot is an input key, and the
        # row at pivot k then spells phi^-1(b_k) in its tag keys
        field = alg.field
        span = Span(
            field, ({**img.coeffs, d + t: field.one} for t, img in enumerate(self.images))
        )
        if any(piv >= d for piv in span.rows):
            raise AlgebraError("model map is not bijective")
        self.preimages = [
            {key - d: c for key, c in row.items() if key >= d}
            for _, row in span.basis_items()
        ]

    def apply_element(self, x: Element) -> Element:
        return combination(self.alg, self.images, x.coeffs)

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
class PipelineRun:
    analysis: AnalysisResult
    pair: FrobeniusPair
    witnesses: IsoWitness
    amp: AmplifiedAlgebra
    model_map: ModelIsomorphism
    spec: SpreadSpec
    x_model: Tensor2
    x: Tensor2
    report: object

    def to_json(self) -> dict:
        return {
            "analysis": self.analysis.to_json(),
            "frobenius_pair": self.pair.to_json(),
            "spec": self.spec.to_json(),
            "tensor": self.x.to_json(),
            "report": self.report.to_json(),
        }


@dataclass
class PipelineContext:
    """Everything spec-independent: reusable across subset-data sweeps."""

    analysis: AnalysisResult
    pair: FrobeniusPair
    witnesses: IsoWitness
    amp: AmplifiedAlgebra
    model_map: ModelIsomorphism


def prepare(alg: FinDimAlgebra, seed: int = DEFAULT_SEED, validate: bool = False):
    analysis = analyze(alg, seed, validate)
    pair = frobenius_pair(analysis.corners, analysis.nak, analysis.rad_lam, seed)
    wit = iso_witnesses(alg, analysis.dec, seed)
    amp = amplify(analysis.corners, analysis.dec.multiplicities)
    model_map = ModelIsomorphism(alg, amp, analysis.embedding, wit)
    return PipelineContext(analysis, pair, wit, amp, model_map)


def run_spec(ctx: PipelineContext, spec: SpreadSpec | str) -> PipelineRun:
    """Spread one choice of subset data, transport it and report.

    Invariance is checked once, on the transported tensor x: the model
    map is a verified unital isomorphism, so x is invariant exactly when
    the model tensor is.
    """
    analysis, amp = ctx.analysis, ctx.amp
    m, nak = analysis.dec.multiplicities, analysis.nak
    if isinstance(spec, str):
        spec = preset_spec(spec, m, nak)
    x_model = spread(amp, ctx.pair.y, spec, nak)
    x = ctx.model_map.apply_tensor2(x_model)
    flags = is_bijection_graph(spec, m, nak)
    built = None
    if all(flags):
        built_model = build_counit(amp, spec, nak, ctx.pair.epsilon, x_model)
        built = ctx.model_map.transport_functional(built_model)
    report = comultiplication_report(analysis.algebra, x, flags, built)
    return PipelineRun(
        analysis, ctx.pair, ctx.witnesses, amp, ctx.model_map, spec, x_model, x, report
    )


def comultiplication_pipeline(
    alg: FinDimAlgebra,
    spec: SpreadSpec | str = "singleton",
    seed: int = DEFAULT_SEED,
    validate: bool = False,
) -> PipelineRun:
    """Full pipeline on one input algebra and one choice of subset data."""
    return run_spec(prepare(alg, seed, validate), spec)
