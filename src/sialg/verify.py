"""Corpus-wide verification suite.

Each check function returns a CheckResult with minimized failure
witnesses; `run_verification` drives the full battery over a corpus
profile.  The checks are deliberately independent routes: closed-form
reference tensors against the pipeline, socle permutations against
dual-module intertwiners, constructed counits against a linear
feasibility oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import product

from .algebra import FinDimAlgebra, Tensor2, permute_basis, right_images
from .amplify import (
    PRESETS,
    SpreadSpec,
    amplify,
    copy_boxes,
    counit_solution_space,
    is_incidence_invertible,
    preset_spec,
    spread,
)
from .errors import AlgebraError, InvalidAlgebra, NotFrobenius, NotSelfInjectiveLike
from .families import (
    corpus,
    matrix_algebra,
    nakayama_algebra,
    nsy_algebra,
    path_algebra_a2,
    reference_delta_one,
)
from .frobenius import (
    frobenius_pair,
    is_unit,
    tensor_blocks,
    transport_pair,
    verify_frobenius_pair,
)
from .pipeline import PipelineContext, PipelineRun, analyze, prepare, run_spec
from .structure import (
    DEFAULT_SEED,
    NakayamaData,
    PeirceCorners,
    annihilator,
    canonical_decomposition,
    duality_pattern,
    nakayama,
    radical,
)

REFERENCE_SHAPES = ((1, 2), (2, 2), (2, 3), (3, 2))
IDENTITY_CASES = ((2, 3, (1, 2)), (3, 2, (2, 1, 1)))
RANDOM_SPECS_PER_ALGEBRA = 10
TRANSPORTS_PER_ALGEBRA = 20


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    failures: list = dc_field(default_factory=list)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" [{self.failures[0]}]" if self.failures else ""
        return f"{mark} {self.name}: {self.detail}{extra}"


class CorpusCache:
    """Pipeline contexts per corpus entry, and the runs of the subset
    data on them, each built once and shared."""

    def __init__(self, profile: str, seed: int = DEFAULT_SEED):
        self.profile = profile
        self.seed = seed
        self.entries = corpus(profile)
        self._contexts: dict = {}
        self._runs: dict = {}

    def context(self, idx: int) -> PipelineContext:
        ctx = self._contexts.get(idx)
        if ctx is None:
            ctx = prepare(self.entries[idx].algebra, self.seed)
            self._contexts[idx] = ctx
        return ctx

    def run(self, idx: int, spec: SpreadSpec | str) -> PipelineRun:
        """`run_spec` on entry idx; a preset name and the subset data it
        resolves to share one run."""
        ctx = self.context(idx)
        if isinstance(spec, str):
            spec = preset_spec(spec, ctx.analysis.dec.multiplicities, ctx.analysis.nak)
        run = self._runs.get((idx, spec))
        if run is None:
            run = run_spec(ctx, spec)
            self._runs[(idx, spec)] = run
        return run

    def items(self):
        return list(enumerate(self.entries))


def check_reference_regression() -> CheckResult:
    """Pipeline spread with singleton subset data reproduces the closed-form
    reference tensor on every amplified cyclic Nakayama presentation."""
    failures = []
    count = 0
    for n, l in REFERENCE_SHAPES:
        base = analyze(nakayama_algebra(n, l))
        nak = base.nak
        # every m shares base.corners, so y is cut once per shape
        blocks, witness = tensor_blocks(base.corners, frobenius_pair(base.corners, nak).y, nak)
        if witness is not None:
            failures.append(f"nakayama({n},{l}) tensor off its block support at {witness}")
            continue
        for m in product(range(1, 4), repeat=n):
            count += 1
            nsy = nsy_algebra(n, l, m)
            amp = amplify(base.corners, m)
            x_model = spread(amp, blocks, preset_spec("singleton", m, nak), nak)
            # canonical identification of the model basis with the X basis
            expected = reference_delta_one(nsy)
            mapped: dict = {}
            index_map = _model_to_x_index(amp, nsy)
            for (a, b), c in x_model.coeffs.items():
                mapped[(index_map[a], index_map[b])] = c
            if Tensor2(nsy.algebra, mapped) != expected:
                failures.append(f"nsy({n},{l},{m})")
    return CheckResult(
        "reference-tensor-regression",
        not failures,
        f"{count} amplified presentations compared coefficient-for-coefficient",
        failures,
    )


def _model_to_x_index(amp, nsy):
    """Basis bijection: model tuple (i,j,s,t,b) -> X[j_path; t-1, s-1]."""
    index_map = {}
    for a, (i, j, s, t, b) in enumerate(amp.tuples):
        q = amp.corners.bases[(j, i)][b]
        if len(q.coeffs) != 1:
            raise AlgebraError("path corner basis is not monomial")
        path_idx = next(iter(q.coeffs))
        pi, pk = divmod(path_idx, nsy.l)
        index_map[a] = nsy.x(pi, pk, t - 1, s - 1)
    return index_map


def check_multiplication_identities() -> CheckResult:
    """Left and right products of the reference tensor with every basis
    element match their closed forms built from index arithmetic alone."""
    failures = []
    count = 0
    for n, l, m in IDENTITY_CASES:
        nsy = nsy_algebra(n, l, m)
        one = nsy.algebra.field.one
        delta1 = reference_delta_one(nsy)
        left, right = delta1.delta(), right_images(delta1)
        for (i, j, r, s), idx in nsy.index.items():
            count += 1
            right_expected = {
                (
                    nsy.x(i, k, r, 0),
                    nsy.x(i + k - l + 1, l - 1 - k + j, 0, s),
                ): one
                for k in range(j, l)
            }
            left_expected = {
                (
                    nsy.x(i, kp + j, r, 0),
                    nsy.x(i + kp + j - l + 1, l - 1 - kp, 0, s),
                ): one
                for kp in range(0, l - j)
            }
            if right[idx] != right_expected:
                failures.append(f"right nsy({n},{l},{m}) X[{i},{j};{r},{s}]")
            if left[idx] != left_expected:
                failures.append(f"left nsy({n},{l},{m}) X[{i},{j};{r},{s}]")
    return CheckResult(
        "multiplication-identities",
        not failures,
        f"{count} basis multipliers checked on both sides",
        failures,
    )


def check_singleton_injectivity(cache: CorpusCache) -> CheckResult:
    """Singleton subset data yields an invariant, coassociative tensor whose
    comultiplication has full rank, on every corpus algebra."""
    failures = []
    for idx, entry in cache.items():
        r = cache.run(idx, "singleton").report
        if not (r.invariant and r.coassociative and r.rank == r.dim):
            failures.append(
                f"{entry.key}: invariant={r.invariant} coassociative={r.coassociative}"
                f" rank={r.rank}/{r.dim}"
            )
    return CheckResult(
        "singleton-injectivity",
        not failures,
        f"{len(cache.entries)} corpus algebras, exact rank equality",
        failures,
    )


def _spec_sweep(cache: CorpusCache, idx: int):
    ctx = cache.context(idx)
    m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
    specs = [(name, preset_spec(name, m, nak)) for name in PRESETS]
    rng = random.Random(cache.seed * 1000003 + idx)
    for t in range(RANDOM_SPECS_PER_ALGEBRA):
        specs.append((f"random{t}", SpreadSpec.random_nonempty(m, nak, rng)))
    return ctx, specs


def check_spread_family(cache: CorpusCache):
    """One sweep, three statements over every swept subset datum.

    Returns (family, specified, corrected):
    - family: each spread tensor is invariant and coassociative;
    - specified: counit feasibility (linear oracle) holds exactly when
      every S(i) is a bijection graph, with the two counit routes
      agreeing.  Falsified: non-bijection data whose incidence matrices
      are invertible are counital too;
    - corrected: counit feasibility holds exactly when every incidence
      matrix M_i is invertible over the ground field, and on
      bijection-graph data the constructed counit exists and both
      routes agree.

    The report's counit verdict and solution-space dimension come from
    the incidence ranks (`counit_from_incidence`), so comparing them with
    `is_incidence_invertible` would prove nothing.  Here the linear
    oracle runs on the transported x of every swept spec, and both
    statements read its feasibility; the report's verdict and dimension
    must equal the oracle's, or the routes count as inconsistent.
    """
    fam_failures = []
    counit_failures = []
    corrected_failures = []
    runs = 0
    for idx, entry in cache.items():
        ctx, specs = _spec_sweep(cache, idx)
        m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
        alg = ctx.analysis.algebra
        for spec_name, spec in specs:
            runs += 1
            run = cache.run(idx, spec)
            r = run.report
            if not (r.invariant and r.coassociative):
                fam_failures.append(
                    f"{entry.key} [{spec_name}]: invariant={r.invariant}"
                    f" coassociative={r.coassociative}"
                )
            eps, nullity = counit_solution_space(alg, run.x)
            feasible = eps is not None
            agree = (r.counital, r.solution_space_dim) == (feasible, nullity)
            consistent = r.routes_consistent and agree
            bij = all(r.bijection_per_class)
            if feasible != bij or not consistent:
                counit_failures.append(
                    f"{entry.key} [{spec_name}]: feasible={feasible}"
                    f" bijection={bij} consistent={consistent}"
                )
            if bij and not r.counit_built:
                counit_failures.append(
                    f"{entry.key} [{spec_name}]: constructed counit missing"
                )
            inv = all(is_incidence_invertible(spec, m, nak, alg.field))
            if feasible != inv or not agree or (
                bij and not (r.counit_built and r.routes_consistent)
            ):
                corrected_failures.append(
                    f"{entry.key} [{spec_name}]: feasible={feasible}"
                    f" invertible={inv} bijection={bij} built={r.counit_built}"
                    f" consistent={consistent}"
                )
    fam = CheckResult(
        "spread-family-invariance",
        not fam_failures,
        f"{runs} (algebra, subset-data) pairs checked exactly",
        fam_failures,
    )
    cou = CheckResult(
        "counitality-characterization",
        not counit_failures,
        f"{runs} pairs: oracle feasibility vs bijection-graph test",
        counit_failures,
    )
    corrected = CheckResult(
        "counitality-invertible-incidence",
        not corrected_failures,
        f"{runs} pairs: oracle feasibility vs invertible incidence matrices",
        corrected_failures,
    )
    return fam, cou, corrected


def _basic_contexts(cache: CorpusCache):
    """(index, entry, context) for every basic corpus algebra (all m(i) = 1)."""
    for idx, entry in cache.items():
        ctx = cache.context(idx)
        if all(v == 1 for v in ctx.analysis.dec.multiplicities):
            yield idx, entry, ctx


def _transports(ctx: PipelineContext, draw):
    """(t, unit, report) for the constructed pair of a basic context and
    its TRANSPORTS_PER_ALGEBRA successive transports by units b = draw();
    the unit is that of the transport leading to the reported pair (None
    for t = 0), and the report is `verify_frobenius_pair`'s."""
    a = ctx.analysis
    pair, b = ctx.pair, None
    for t in range(TRANSPORTS_PER_ALGEBRA + 1):
        yield t, b, verify_frobenius_pair(a.corners, pair, a.nak)
        if t < TRANSPORTS_PER_ALGEBRA:
            b = draw()
            pair = transport_pair(a.lam, pair, b)


def check_pair_support(cache: CorpusCache) -> CheckResult:
    """Specified statement: constructed Frobenius pairs and seeded
    transports by arbitrary units satisfy the counit corner-support clause,
    the tensor block-support clause, and small-space nondegeneracy, on
    every basic corpus algebra.  Falsified: only the constructed pair is
    promised the support clauses, and units with off-diagonal corner
    components move counit mass out of e_{nu^-1 i} L e_i; the statement
    that does hold is `check_transported_pairs`."""
    failures = []
    pairs_checked = 0
    for idx, entry, ctx in _basic_contexts(cache):
        lam = ctx.analysis.lam
        rng = random.Random(cache.seed * 7 + idx)
        for t, b, rep in _transports(ctx, lambda: _random_invertible(lam, rng)):
            pairs_checked += 1
            if not rep.all_ok:
                failures.append(
                    f"{entry.key} transport {t} by ({b}): "
                    f"counit_support={rep.support_ok} (block {rep.support_witness}),"
                    f" tensor_block_support={rep.block_ok} (block {rep.block_witness})"
                )
                break
    return CheckResult(
        "frobenius-pair-support",
        not failures,
        f"{pairs_checked} pairs (constructed + seeded transports) verified",
        failures,
    )


def check_transported_pairs(cache: CorpusCache) -> CheckResult:
    """Transport statements that hold, on every basic corpus algebra.

    Two seeded sequences start from the constructed pair, each with
    TRANSPORTS_PER_ALGEBRA transports: by units of the diagonal corner sum
    e_1 L e_1 + ... + e_n L e_n, where every clause of
    `verify_frobenius_pair` (support clauses included) must keep holding;
    and by arbitrary units, where the pair must stay genuine (invariant
    tensor, both counit identities, nonzero on every small space).
    """
    failures = []
    pairs_checked = 0
    for idx, entry, ctx in _basic_contexts(cache):
        corners = ctx.analysis.corners
        lam = corners.alg
        diag_rng = random.Random(cache.seed * 13 + idx)
        any_rng = random.Random(cache.seed * 7 + idx)
        sequences = (
            (
                "diagonal-corner",
                lambda: _random_corner_diagonal_unit(corners, diag_rng),
                lambda rep: rep.all_ok,
            ),
            (
                "arbitrary",
                lambda: _random_invertible(lam, any_rng),
                lambda rep: rep.invariant and rep.counital and rep.small_ok,
            ),
        )
        for label, draw, holds in sequences:
            for t, b, rep in _transports(ctx, draw):
                pairs_checked += 1
                if not holds(rep):
                    failures.append(
                        f"{entry.key} {label} transport {t} by ({b}): "
                        + ", ".join(f"{k}={v}" for k, v in rep.to_json().items())
                    )
                    break
    return CheckResult(
        "frobenius-pair-transports",
        not failures,
        f"{pairs_checked} pairs (constructed + two seeded transport sequences)"
        " verified",
        failures,
    )


def _random_invertible(lam, rng):
    field = lam.field
    while True:
        cand = lam.element(
            {i: field.random(rng, -2, 2) for i in range(lam.dim)}
        )
        if cand.coeffs and is_unit(lam, cand):
            return cand


def _random_corner_diagonal_unit(corners, rng):
    """Random unit of the diagonal corner sum e_1 L e_1 + ... + e_n L e_n."""
    lam = corners.alg
    field = lam.field
    while True:
        b = lam.zero()
        for rep in corners.reps:
            r = lam.element({i: field.random(rng, -2, 2) for i in range(lam.dim)})
            b = b + rep + (rep * r * rep).scaled(field.random(rng, -2, 2))
        if is_unit(lam, b):
            return b


def check_nakayama_crosscheck(cache: CorpusCache) -> CheckResult:
    """Socle-derived permutation equals the dual-module pattern on basic
    corpus algebras; on cyclic Nakayama algebras it also equals the
    independent socle-path prediction i -> i + l - 1."""
    failures = []
    checked = 0
    for _, entry, ctx in _basic_contexts(cache):
        checked += 1
        dec = ctx.analysis.dec
        nu = ctx.analysis.nak.nu
        pattern = duality_pattern(ctx.analysis.corners)
        if pattern != [{nu[i]} for i in range(dec.n)]:
            failures.append(f"{entry.key}: duality pattern {pattern} vs nu {nu}")
        prov = entry.provenance
        if prov["family"] == "nsy" and all(v == 1 for v in prov["m"]):
            n, l = prov["n"], prov["l"]
            vertex_of_class = []
            for rep in dec.reps:
                (path_idx,) = rep.coeffs
                vertex_of_class.append(path_idx // l)
            class_of_vertex = {v: c for c, v in enumerate(vertex_of_class)}
            expected = tuple(
                class_of_vertex[(vertex_of_class[c] + l - 1) % n]
                for c in range(dec.n)
            )
            if nu != expected:
                failures.append(f"{entry.key}: nu {nu} vs socle-path oracle {expected}")
    return CheckResult(
        "nakayama-crosscheck",
        not failures,
        f"{checked} basic corpus algebras cross-checked",
        failures,
    )


def check_negative_controls(seed: int = DEFAULT_SEED) -> CheckResult:
    """Rejections: the linear two-vertex path algebra, exhaustive counit
    infeasibility on the multiplicity-(1,2) amplification, and corrupted
    structure constants caught with a witness."""
    failures = []
    a2 = path_algebra_a2()
    rad = radical(a2)
    dec = canonical_decomposition(a2, DEFAULT_SEED, rad)
    corners = PeirceCorners(a2, dec.reps)
    try:
        nakayama(corners, rad)
        failures.append("path algebra A2 accepted by the socle test")
    except NotSelfInjectiveLike:
        pass
    for nu in ((0, 1), (1, 0)):
        # A2 has no Nakayama data; in its place, the corner elements
        # (k, nu(k)) killed by J on both sides, which the counit reads
        socles = [
            annihilator(a2, corners.bases[(k, v)], rad.basis, rad.basis)
            for k, v in enumerate(nu)
        ]
        try:
            frobenius_pair(corners, NakayamaData(nu, socles), seed)
            failures.append(f"path algebra A2 produced a counit for nu={nu}")
        except NotFrobenius:
            pass
    # exhaustive subset-data sweep on the (1,2)-amplified algebra
    ctx = prepare(nsy_algebra(2, 2, (1, 2)).algebra, seed)
    m, nak, amp = ctx.analysis.dec.multiplicities, ctx.analysis.nak, ctx.analysis.amp
    boxes = copy_boxes(m, nak)

    def subsets(box):
        out = [[]]
        for p in box:
            out.extend(chosen + [p] for chosen in list(out))
        return [frozenset(ch) for ch in out]

    total = 0
    for s0 in subsets(boxes[0]):
        for s1 in subsets(boxes[1]):
            total += 1
            spec = SpreadSpec((s0, s1))
            x = spread(amp, ctx.blocks, spec, nak)
            eps, _ = counit_solution_space(amp.algebra, x)
            if eps is not None:
                failures.append(f"counit found for subset data {spec.to_json()}")
    if total != 16:
        failures.append(f"exhaustive sweep enumerated {total} != 16 subset choices")
    # corrupted structure table
    good = matrix_algebra(2).to_json()
    good["structure"] = [row[:] for row in good["structure"]]
    good["structure"][0][3] = "2"
    try:
        analyze(FinDimAlgebra.from_json(good), seed)
        failures.append("corrupted structure table accepted")
    except InvalidAlgebra as exc:
        if exc.witness is None:
            failures.append("corruption detected but no witness attached")
    return CheckResult(
        "negative-controls",
        not failures,
        "A2 rejection, 16/16 infeasible subset choices, corruption witness",
        failures,
    )


def check_round_trip(cache: CorpusCache) -> CheckResult:
    """Basis-permuted corpus inputs run through the model-transport path and
    report exactly the same facts as the unpermuted presentations.

    The preset subset data (singleton / diagonal / full) is intrinsic to
    the class structure, so counit feasibility must agree between the two
    presentations; seeded random subset data is checked for the intrinsic
    exact properties (invariance, coassociativity, counit validity).
    """
    failures = []
    rng = random.Random(cache.seed)
    runs = 0
    for idx, entry in cache.items():
        base_ctx = cache.context(idx)
        perm = list(range(entry.algebra.dim))
        rng.shuffle(perm)
        palg = permute_basis(entry.algebra, perm)
        try:
            ctx = prepare(palg, cache.seed)
        except AlgebraError as exc:
            failures.append(f"{entry.key} permuted: {type(exc).__name__}: {exc}")
            continue
        if sorted(ctx.analysis.dec.multiplicities) != sorted(
            base_ctx.analysis.dec.multiplicities
        ):
            failures.append(f"{entry.key} permuted: multiplicities differ")
            continue
        m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
        reports = {}  # resolved subset data -> report; draws often repeat

        def report(spec: SpreadSpec):
            if spec not in reports:
                reports[spec] = run_spec(ctx, spec).report
            return reports[spec]

        for preset in PRESETS:
            runs += 1
            r = report(preset_spec(preset, m, nak))
            r0 = cache.run(idx, preset).report
            ok = (
                r.invariant
                and r.coassociative
                and r.rank == r0.rank
                and r.counital == r0.counital
                and (not all(r.bijection_per_class) or r.counit_built)
            )
            if preset == "singleton":
                ok = ok and r.rank == r.dim
            if not ok:
                failures.append(f"{entry.key} permuted [{preset}]")
        for t in range(2):
            runs += 1
            r = report(SpreadSpec.random_nonempty(m, nak, rng))
            if not (r.invariant and r.coassociative):
                failures.append(f"{entry.key} permuted [random{t}]")
    return CheckResult(
        "permuted-round-trip",
        not failures,
        f"{runs} permuted (algebra, subset-data) runs via the transport path",
        failures,
    )


def run_verification(profile: str = "small", seed: int = DEFAULT_SEED) -> list:
    """Full battery in criterion order; shares one pipeline cache."""
    cache = CorpusCache(profile, seed)
    results = [
        check_reference_regression(),
        check_multiplication_identities(),
        check_singleton_injectivity(cache),
    ]
    fam, cou, _ = check_spread_family(cache)
    results.extend(
        [
            fam,
            cou,
            check_pair_support(cache),
            check_nakayama_crosscheck(cache),
            check_negative_controls(seed),
            check_round_trip(cache),
        ]
    )
    return results
