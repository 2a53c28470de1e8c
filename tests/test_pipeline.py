import copy
import json
import random
from itertools import combinations, product

import pytest

import dense_reference as dense
from sialg import algebra as algebra_module
from sialg import linalg
from sialg.algebra import combination, is_invariant, permute_basis
from sialg.amplify import (
    PRESETS,
    SpreadSpec,
    build_counit,
    comultiplication_report,
    copy_boxes,
    counit_from_incidence,
    counit_solution_space,
    is_bijection_graph,
    is_incidence_invertible,
    preset_spec,
)
from sialg.errors import AlgebraError, InvalidAlgebra, NotSelfInjectiveLike, UnsupportedField
from sialg.families import (
    STANDARD_NSY_SHAPES,
    corpus,
    group_algebra,
    matrix_algebra,
    nsy_algebra,
    path_algebra_a2,
    reference_delta_one,
)
from sialg.algebra import FinDimAlgebra, Functional
from sialg.fields import Field
from sialg.frobenius import gram_matrix
from sialg.pipeline import (
    ModelIsomorphism,
    analyze,
    prepare,
    run_spec,
)
from sialg.structure import IsoWitness, PeirceCorners, radical
from sialg.verify import (
    CorpusCache,
    _spec_sweep,
    check_pair_support,
    check_transported_pairs,
)


def test_analyze_m2():
    res = analyze(matrix_algebra(2))
    data = res.to_json()
    assert data["n"] == 1 and data["multiplicities"] == [2]
    assert data["nakayama"] == [1]
    assert data["radical_dim"] == 0 and data["basic_dim"] == 1
    assert "split" in data["flags"] and "self-injective-like" in data["flags"]


def test_analyze_nsy_2_2_1_2():
    res = analyze(nsy_algebra(2, 2, (1, 2)).algebra)
    data = res.to_json()
    assert data["n"] == 2
    assert data["multiplicities"] == [1, 2]
    assert data["nakayama"] == [2, 1]
    assert data["radical_dim"] == 4
    assert len(data["idempotents"]) == 3


def test_analyze_rejects_a2():
    with pytest.raises(NotSelfInjectiveLike):
        analyze(path_algebra_a2())


def test_validate_flag_rejects_corrupt():
    data = matrix_algebra(2).to_json()
    data["structure"][0] = [0, 0, 0, "2"]
    alg = FinDimAlgebra.from_json(data)
    with pytest.raises(InvalidAlgebra):
        alg.validate()


def _record_model_map_refusals(monkeypatch):
    """Messages of the AlgebraErrors `ModelIsomorphism._verify` raises."""
    refusals = []
    original = ModelIsomorphism._verify

    def recording(self):
        try:
            original(self)
        except AlgebraError as exc:
            refusals.append(str(exc))
            raise

    monkeypatch.setattr(ModelIsomorphism, "_verify", recording)
    return refusals


def _radical_kernel_refused(alg):
    """Whether the per-pair checks refuse `radical`'s kernel on `alg` as
    a nilpotent ideal."""
    try:
        rad = radical(alg)
        dense.radical_checks(alg, [b.coeffs for b in rad.basis])
    except UnsupportedField:
        return False
    except AlgebraError:
        return True
    return False


def test_analyze_refuses_what_validate_refuses(monkeypatch):
    # analyze checks the basic algebra directly and proves the input an
    # algebra through the model map; validate() on the input is the
    # fallback when any step raises, so every seeded single-constant
    # corruption that validate() refuses is refused with the same message
    # and witness, some of them only because the model map refused them,
    # and some whose radical kernel the per-pair checks refuse, which
    # radical leaves to this proof
    refusals = _record_model_map_refusals(monkeypatch)
    rng = random.Random(20261018)
    mutants = [
        (entry.key, corrupt)
        for profile, reps in (("small", 3), ("standard", 2))
        for entry in corpus(profile)
        for corrupt in dense.single_constant_mutants(entry.algebra, rng, reps)
    ]
    refused = by_model_map = not_radical = 0
    for key, corrupt in mutants:
        try:
            corrupt.validate()
            continue
        except InvalidAlgebra as exc:
            want = exc
        refusals.clear()
        with pytest.raises(InvalidAlgebra) as info:
            analyze(corrupt)
        assert str(info.value) == str(want), key
        assert info.value.witness == want.witness, key
        refused += 1
        by_model_map += bool(refusals)
        not_radical += _radical_kernel_refused(corrupt)
    assert refused == 617
    assert by_model_map >= 1
    assert not_radical >= 1


def test_model_map_alone_refuses_corrupted_matrix_algebra(monkeypatch):
    # the basic algebra of M_2 is the ground field, which no corruption of
    # a product between the two copies reaches: only the model map sees
    # E[1,1] E[1,2] = 2 E[1,2], and analyze raises validate's witness
    good = matrix_algebra(2)
    assert analyze(good).lam.dim == 1
    struct = [
        (i, j, k, 2 if (i, j, k) == (0, 1, 1) else c)
        for i, row in enumerate(good.rows)
        for j, prod in row.items()
        for k, c in prod.items()
    ]
    corrupt = FinDimAlgebra(good.field, good.labels, struct, good.unit.dense())
    with pytest.raises(InvalidAlgebra) as want:
        corrupt.validate()
    refusals = _record_model_map_refusals(monkeypatch)
    with pytest.raises(InvalidAlgebra) as info:
        analyze(corrupt)
    assert refusals == ["model map is not multiplicative at basis pair (0,2)"]
    assert str(info.value) == str(want.value) == "unit axiom fails at basis index 1"
    assert info.value.witness == want.value.witness == 1


def test_analyze_checks_associativity_in_the_basic_algebra(monkeypatch):
    # the input's own associativity check runs only when it is basic, where
    # it is its own basic algebra; otherwise the model map proves it
    checked = []
    original = algebra_module.check_associativity

    def recording(alg):
        checked.append(alg)
        return original(alg)

    monkeypatch.setattr(algebra_module, "check_associativity", recording)
    basic = set()
    for entry in corpus("small"):
        checked.clear()
        an = analyze(entry.algebra)
        # one check, on the basic algebra, which is the input exactly when
        # the input is basic
        assert checked == [an.lam], entry.key
        basic.add(an.lam is entry.algebra)
    assert basic == {True, False}


def test_pipeline_b32_singleton_matches_reference():
    nsy = nsy_algebra(3, 2, (1, 1, 1))
    run = run_spec(prepare(nsy.algebra), "singleton")
    assert run.x == reference_delta_one(nsy)
    r = run.report
    assert r.invariant and r.coassociative and r.injective and r.counital
    assert r.counit_built and r.routes_consistent


def test_pipeline_nsy_2_2_1_2_singleton():
    run = run_spec(prepare(nsy_algebra(2, 2, (1, 2)).algebra), "singleton")
    r = run.report
    assert r.invariant and r.coassociative
    assert r.rank == r.dim == 9
    assert not r.counital and r.to_json()["counit_feasible"] is False
    assert r.routes_consistent


def test_pipeline_m2_diagonal_trace():
    run = run_spec(prepare(matrix_algebra(2)), "diagonal")
    r = run.report
    assert r.counital and r.counit_built and r.solution_space_dim == 0
    # the transported counit is the matrix trace
    from sialg.fields import QQ

    assert r.counit.values == (QQ(1), QQ(0), QQ(0), QQ(1))


def test_transported_tensor_lives_on_input_basis():
    rng = random.Random(41)
    A = nsy_algebra(2, 2, (2, 1)).algebra
    perm = list(range(A.dim))
    rng.shuffle(perm)
    palg = permute_basis(A, perm)
    ctx = prepare(palg)
    run = run_spec(ctx, "singleton")
    assert run.x.algebra is palg
    assert is_invariant(run.x) is None
    assert run.report.rank == palg.dim


def test_model_map_spec_json_paths():
    ctx = prepare(nsy_algebra(2, 2, (1, 2)).algebra)
    n = ctx.analysis.dec.n
    spec = SpreadSpec.from_json(
        {"classes": [{"i": 1, "pairs": [[1, 1]]}, {"i": 2, "pairs": [[2, 1]]}]}, n
    )
    run = run_spec(ctx, spec)
    assert run.report.invariant and run.report.coassociative


def test_pipeline_deterministic_json():
    alg = nsy_algebra(2, 2, (1, 2)).algebra
    a = run_spec(prepare(alg, 5), "singleton").to_json()
    b = run_spec(prepare(alg, 5), "singleton").to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_context_reuse_across_specs():
    ctx = prepare(nsy_algebra(1, 2, (2,)).algebra)
    r1 = run_spec(ctx, "singleton").report
    r2 = run_spec(ctx, "diagonal").report
    assert r1.rank == r2.rank == 8
    assert not r1.counital and r2.counital


def _count_corner_builds(monkeypatch):
    builds = []
    original = PeirceCorners.__init__

    def counting(self, alg, reps):
        builds.append((alg, reps))
        original(self, alg, reps)

    monkeypatch.setattr(PeirceCorners, "__init__", counting)
    return builds


def test_one_peirce_decomposition_per_context(monkeypatch):
    # the basic algebra's corners by its reps are built once, in `analyze`,
    # and shared by the counit and the amplified model; a non-basic input
    # adds the one build of its own corners by its reps inside the basic
    # reduction.  The other builds cut single idempotents and copies.
    builds = _count_corner_builds(monkeypatch)
    for entry in corpus("small"):
        builds.clear()
        ctx = prepare(entry.algebra)
        an = ctx.analysis
        basic = all(v == 1 for v in an.dec.multiplicities)
        on_reps = [
            alg
            for alg, reps in builds
            if (alg is an.lam and reps == an.corners.reps)
            or (alg is an.algebra and reps == an.dec.reps)
        ]
        assert len(on_reps) == (1 if basic else 2), entry.key
        assert an.amp.corners is an.corners
        assert an.lam is an.corners.alg


def test_one_cut_of_y_per_context(monkeypatch):
    # prepare cuts y into its corner blocks once; run_spec only spreads them
    cuts = []
    original = PeirceCorners.tensor_components

    def counting(self, y):
        cuts.append(y)
        return original(self, y)

    monkeypatch.setattr(PeirceCorners, "tensor_components", counting)
    for entry in corpus("small"):
        cuts.clear()
        ctx = prepare(entry.algebra)
        assert cuts == [ctx.pair.y], entry.key
        for preset in ("singleton", "diagonal", "full"):
            run_spec(ctx, preset)
        assert len(cuts) == 1, entry.key
        assert ctx.blocks == original(ctx.analysis.corners, ctx.pair.y)


def test_pair_checks_build_no_corners(monkeypatch):
    cache = CorpusCache("small")
    for idx in range(len(cache.entries)):
        cache.context(idx)
    builds = _count_corner_builds(monkeypatch)
    assert check_transported_pairs(cache).passed
    check_pair_support(cache)
    assert builds == []


@pytest.fixture(scope="module")
def small_contexts():
    return [(entry, prepare(entry.algebra)) for entry in corpus("small")]


def _model_map_outcome(alg, amp, input_corners, wit):
    try:
        ModelIsomorphism(alg, amp, input_corners, wit)
    except AlgebraError as exc:
        return str(exc)
    return None


def test_model_map_refuses_corrupted_input(small_contexts):
    # the products are taken in the algebra the map is checked against, so
    # every change to one structure constant of the input is refused
    rng = random.Random(20261018)
    refused = 0
    for entry, ctx in small_contexts:
        alg, an = entry.algebra, ctx.analysis
        input_corners, wit = an.input_corners, an.witnesses
        assert _model_map_outcome(alg, an.amp, input_corners, wit) is None
        for corrupt in dense.single_constant_mutants(alg, rng, 2):
            if corrupt.structure_equal(alg):
                continue
            # the corners stay the real input's; only `alg` is corrupted
            got = _model_map_outcome(corrupt, an.amp, input_corners, wit)
            assert got is not None and "not multiplicative" in got, entry.key
            assert got == dense.model_map_failure(corrupt, an.amp.algebra, an.model_map.images)
            refused += 1
    assert refused == 76


def test_model_map_matches_per_pair_reference_on_mutants(small_contexts):
    # a corrupted model structure constant or a corrupted copy witness: the
    # batched check gives the per-pair loop's first failure, and accepts
    # (or refuses as not bijective) exactly when the loop finds none
    rng = random.Random(20261018)
    outcomes = []
    for entry, ctx in small_contexts:
        alg, an = entry.algebra, ctx.analysis
        amp, input_corners, wit = an.amp, an.input_corners, an.witnesses
        # the reference lifts each basic corner element along the input's
        # corner bases in j-major order, as a combination
        basic = input_corners is an.corners
        elements = [q for qs in input_corners.bases.values() for q in qs]

        def embed(q):
            return q if basic else combination(alg, elements, q.coeffs)

        for model in dense.single_constant_mutants(amp.algebra, rng, 2):
            fake = copy.copy(amp)
            fake.algebra = model
            got = _model_map_outcome(alg, fake, input_corners, wit)
            want = dense.model_map_failure(alg, model, an.model_map.images)
            assert got == want or (want is None and got == "model map is not bijective")
            outcomes.append(got)
        for _ in range(3):
            side = rng.choice(("us", "vs"))
            i = rng.randrange(len(wit.us))
            s = rng.randrange(len(wit.us[i]))
            lists = {"us": [list(u) for u in wit.us], "vs": [list(v) for v in wit.vs]}
            lists[side][i][s] = lists[side][i][s] + alg.basis_element(rng.randrange(alg.dim))
            bad = IsoWitness(lists["us"], lists["vs"])
            images = [
                bad.vs[j][t - 1] * embed(amp.corners.bases[(j, i2)][b]) * bad.us[i2][s2 - 1]
                for (i2, j, s2, t, b) in amp.tuples
            ]
            got = _model_map_outcome(alg, amp, input_corners, bad)
            want = dense.model_map_failure(alg, amp.algebra, images)
            assert got == want or (want is None and got == "model map is not bijective")
            outcomes.append(got)
    pairs = {o for o in outcomes if o and "basis pair" in o}
    assert len(outcomes) == 14 * 9 and len(pairs) >= 10
    assert "model map does not preserve the unit" in outcomes


def test_decomposition_and_pipeline_deterministic():
    from sialg.structure import canonical_decomposition

    alg = nsy_algebra(2, 2, (2, 1)).algebra
    d1 = canonical_decomposition(alg, seed=5)
    d2 = canonical_decomposition(alg, seed=5)
    assert [[e.coeffs for e in cls] for cls in d1.classes] == [
        [e.coeffs for e in cls] for cls in d2.classes
    ]
    x1 = run_spec(prepare(alg, 5), "full").x
    x2 = run_spec(prepare(alg, 5), "full").x
    assert x1 == x2


def test_pipeline_over_prime_fields():
    from sialg.fields import Field

    # p > dim covers the trace-form radical over GF(p) end to end
    nsy = nsy_algebra(2, 2, (1, 2), Field(11))
    run = run_spec(prepare(nsy.algebra), "singleton")
    r = run.report
    assert r.invariant and r.coassociative and r.rank == 9 and not r.counital
    B5 = nsy_algebra(2, 2, (1, 1), Field(5)).algebra
    run2 = run_spec(prepare(B5), "singleton")
    assert run2.report.counital and run2.report.counit_built


@pytest.mark.parametrize("make, certified", [
    (lambda: group_algebra((4,), Field(3)), False),
    (lambda: group_algebra((2, 4), Field(3)), False),
    (lambda: nsy_algebra(2, 2, (1, 2)).algebra, True),
], ids=["GF(3)[C4]", "GF(3)[C2xC4]", "nsy(2,2,(1,2))"])
def test_delta_rank_matches_dense_rank(monkeypatch, make, certified):
    # the comultiplication tables of these two group algebras repeat a least
    # key, so their rank needs an elimination; the nsy tables are already in
    # echelon form and their rank is their row count
    ctx = prepare(make())
    field = ctx.analysis.algebra.field
    m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
    rng = random.Random(17)
    specs = ["singleton", "diagonal", "full"]
    specs += [SpreadSpec.random_nonempty(m, nak, rng) for _ in range(10)]
    builds = []

    class CountedSpan(linalg.Span):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(linalg, "Span", CountedSpan)
    for spec in specs:
        run = run_spec(ctx, spec)
        table = [dict(row) for row in run.x.delta()]
        want = dense.rank(field, dense.delta_matrix(run.x))
        assert run.report.rank == want
        builds.clear()
        assert linalg.sparse_rank(field, run.x.delta()) == want
        assert len(builds) == (0 if certified else 1)
        # the cached table rows are the ones ranked, and stay as they were
        assert run.x.delta() == table


def test_unsupported_modular_field_rejected():
    from sialg.errors import UnsupportedField
    from sialg.fields import Field

    # p <= dim and noncommutative: the radical routine must refuse
    alg = nsy_algebra(2, 2, (1, 2), Field(5)).algebra
    with pytest.raises(UnsupportedField):
        analyze(alg)


def _conjugate_basis(alg, T):
    """Presentation on the basis b'_r = sum_s T[r][s] b_s, T invertible."""
    field = alg.field
    inv = dense.inverse(field, T)
    d = alg.dim
    structure = []
    for i in range(d):
        for j in range(d):
            prod: dict = {}
            for a, ca in enumerate(T[i]):
                if not ca:
                    continue
                for b, cb in enumerate(T[j]):
                    if not cb:
                        continue
                    for k, c in alg.rows[a].get(b, {}).items():
                        prod[k] = prod.get(k, field.zero) + ca * cb * c
            for k, c in prod.items():
                if not c:
                    continue
                for r in range(d):
                    w = inv[k][r] * c
                    if w:
                        structure.append((i, j, r, w))
    merged: dict = {}
    for i, j, r, c in structure:
        merged[(i, j, r)] = merged.get((i, j, r), field.zero) + c
    entries = [(i, j, r, c) for (i, j, r), c in merged.items() if c]
    unit = [field.zero] * d
    for k, c in alg.unit.coeffs.items():
        for r in range(d):
            unit[r] = unit[r] + inv[k][r] * c
    return FinDimAlgebra(field, [f"v{r}" for r in range(d)], entries, unit)


def test_pipeline_on_dense_change_of_basis():
    # full GL conjugation (not just a permutation): the presentation loses
    # all monomial structure, stressing the radical elimination, quotient
    # splitting, witness search and corner decomposition generically
    from sialg.fields import Field

    rng = random.Random(99)
    cases = [
        nsy_algebra(2, 2, (1, 2)).algebra,
        nsy_algebra(1, 1, (2,)).algebra,
    ]
    from sialg.families import group_algebra

    cases.append(group_algebra([3], Field(3)))
    for alg in cases:
        while True:
            T = [
                [alg.field.random(rng, -2, 2) for _ in range(alg.dim)]
                for _ in range(alg.dim)
            ]
            if dense.rank(alg.field, T) == alg.dim:
                break
        conjugated = _conjugate_basis(alg, T)
        base = prepare(alg)
        ctx = prepare(conjugated)
        assert sorted(ctx.analysis.dec.multiplicities) == sorted(
            base.analysis.dec.multiplicities
        )
        for preset in ("singleton", "diagonal"):
            r = run_spec(ctx, preset).report
            r0 = run_spec(base, preset).report
            assert r.invariant and r.coassociative
            assert r.rank == r0.rank and r.counital == r0.counital


def test_transport_functional_matches_dense_solve():
    # phi^-1 is read off once, when the model map is built; on every
    # small-corpus context the transported functional must pull back to f
    # and equal the dense solve of sum_k images[t][k] psi_k = f_t
    rng = random.Random(23)
    for entry in corpus("small"):
        model_map = prepare(entry.algebra).analysis.model_map
        alg, images = model_map.alg, model_map.images
        field, d = alg.field, alg.dim
        rows = [[img.coeffs.get(k, field.zero) for k in range(d)] for img in images]
        for _ in range(3):
            f = Functional(model_map.amp.algebra, [field.random(rng, -3, 3) for _ in range(d)])
            psi = model_map.transport_functional(f)
            assert [psi(img) for img in images] == list(f.values)
            assert list(psi.values) == dense.solve(field, rows, f.values, d)


# the standard corpus, and the sweep-gfp benchmark's group algebras that
# prepare accepts: GF(2)[C3 x C3] has no counit and is refused before its
# model map is built
_INVERTED = [(e.key, e.algebra) for e in corpus("standard")] + [
    (f"group {list(factors)} gf{p}", group_algebra(factors, Field(p)))
    for p in (2, 3)
    for factors in ((2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2))
    if (p, factors) != (2, (3, 3))
]


def test_inversions_match_dense_reference():
    # the model map and the Gram matrix of the counit are both inverted by
    # Matrix.inverse; an inverse is unique, so each must equal the
    # textbook inverse of its dense matrix
    for key, alg in _INVERTED:
        ctx = prepare(alg)
        model_map = ctx.analysis.model_map
        field, d = alg.field, alg.dim
        images = dense.densify(field, [img.coeffs for img in model_map.images], d)
        preimages = dense.densify(field, model_map.preimages, d)
        assert preimages == dense.inverse(field, images), key
        lam = ctx.analysis.lam
        gram = gram_matrix(lam, ctx.pair.epsilon)
        ginv = dense.densify(field, gram.inverse().rows, lam.dim)
        assert ginv == dense.inverse(field, dense.densify(field, gram.rows, lam.dim)), key
    assert len(_INVERTED) == 86 + 11


GF101_NSY_SHAPES = (
    (1, 1, (2,)),
    (1, 2, (3,)),
    (2, 2, (1, 2)),
    (2, 2, (2, 2)),
    (1, 3, (2,)),
    (3, 2, (2, 1, 1)),
)


def _stored_scalars(ctx, runs):
    """(where, scalars of one zero-free dict) for everything the pipeline
    stores sparsely, and (where, dense values) for its functionals.  The
    structure rows hold only nonzero products, so none is an empty dict."""
    a = ctx.analysis
    sparse, dense_values = [], []
    for name, alg in (("input", a.algebra), ("basic", a.lam), ("model", a.amp.algebra)):
        prods = [prod for row in alg.rows for prod in row.values()]
        assert all(prods), f"{name} rows store an empty product"
        sparse += [(f"{name} rows", prod) for prod in prods]
        sparse.append((f"{name} unit", alg.unit.coeffs))
    for name, idempotents in (("input", a.dec.all_idempotents()), ("basic", a.corners.reps)):
        for e in idempotents:
            sparse += [(f"{name} idempotent", e.coeffs), (f"{name} -idempotent", (-e).coeffs)]
    for name, rad in (("input", a.rad), ("basic", radical(a.lam))):
        sparse += [(f"{name} radical span", row) for row in rad.span.rows.values()]
    sparse.append(("Frobenius tensor", ctx.pair.y.coeffs))
    dense_values.append(("Frobenius counit", ctx.pair.epsilon.values))
    for preset, run in runs.items():
        sparse.append((f"{preset} spread tensor", run.x.coeffs))
        sparse += [(f"{preset} delta", img) for img in run.x.delta()]
        if run.report.counit is not None:
            dense_values.append((f"{preset} counit", run.report.counit.values))
    return sparse, dense_values


@pytest.mark.parametrize("make", [
    *(lambda n=n, l=l, m=m: nsy_algebra(n, l, m, Field(101)).algebra
      for n, l, m in GF101_NSY_SHAPES),
    lambda: group_algebra([2], Field(2)),
    lambda: group_algebra([2, 2], Field(2)),
    lambda: group_algebra([3], Field(3)),
], ids=[*(f"nsy{n}{l}{''.join(map(str, m))}-gf101" for n, l, m in GF101_NSY_SHAPES),
        "group2-gf2", "group22-gf2", "group3-gf3"])
def test_gfp_scalars_are_reduced_ints(make):
    # over GF(p) a stored scalar is an int in range(p), and sparse dicts
    # are zero-free, after prepare and the three presets
    alg = make()
    p = alg.field.p
    ctx = prepare(alg)
    runs = {preset: run_spec(ctx, preset) for preset in PRESETS}
    sparse, dense_values = _stored_scalars(ctx, runs)
    for where, coeffs in sparse:
        bad = [c for c in coeffs.values() if not (type(c) is int and 0 < c < p)]
        assert not bad, f"{where}: {bad}"
    for where, values in dense_values:
        bad = [c for c in values if not (type(c) is int and 0 <= c < p)]
        assert not bad, f"{where}: {bad}"


@pytest.mark.parametrize("entry", [e for e in corpus("small") if e.provenance["family"] == "nsy"],
                         ids=lambda e: e.key)
def test_base_change_to_gf101_keeps_invariants(entry):
    # metamorphic: integral structure constants over QQ and over GF(p),
    # p = 101 > dim, give the same decomposition data and the same facts
    # about every preset spread tensor
    prov = entry.provenance
    nsy_gf = nsy_algebra(prov["n"], prov["l"], prov["m"], Field(101)).algebra
    ctx_q, ctx_p = prepare(entry.algebra), prepare(nsy_gf)
    assert nsy_gf.dim < 101

    def analysis_facts(ctx):
        a = ctx.analysis
        return a.dec.multiplicities, a.nak.nu, a.rad.dim, a.lam.dim

    assert analysis_facts(ctx_p) == analysis_facts(ctx_q)
    for preset in PRESETS:
        facts = [
            (r.rank, r.injective, r.invariant, r.coassociative, r.counital)
            for r in (run_spec(ctx, preset).report for ctx in (ctx_q, ctx_p))
        ]
        assert facts[0] == facts[1], preset


# -- the family certificate against the direct checks ---------------------------


def _direct_report(ctx, run):
    """The report on run.x with invariance, coassociativity and rank
    checked directly, and the counit built as `run_spec` builds it."""
    an = ctx.analysis
    m, nak = an.dec.multiplicities, an.nak
    flags = is_bijection_graph(run.spec, m, nak)
    built = None
    if all(flags):
        eps = build_counit(an.amp, run.spec, nak, ctx.pair.epsilon)
        built = an.model_map.transport_functional(eps)
    return comultiplication_report(an.algebra, run.x, flags, built)


def _record_certified(monkeypatch):
    """The `certified` verdict of every report `run_spec` asks for, and
    whether it handed the report the Lambda counit pair."""
    seen = []
    original = comultiplication_report

    def recording(alg, x, flags, built=None, certified=False, counit=None):
        seen.append((certified, counit is not None))
        return original(alg, x, flags, built, certified, counit=counit)

    monkeypatch.setattr("sialg.pipeline.comultiplication_report", recording)
    return seen


def test_certified_reports_equal_direct_checks_on_standard_corpus(monkeypatch):
    # every subset datum `sialg verify --profile standard` sweeps: the
    # certificate decides each run, and its report, counit verdict and
    # solution-space dimension from the incidence ranks, is the direct one
    # with the oracle on x
    seen = _record_certified(monkeypatch)
    cache = CorpusCache("standard")
    runs = 0
    for idx, entry in cache.items():
        ctx, specs = _spec_sweep(cache, idx)
        assert ctx.certified, entry.key
        for name, spec in specs:
            run = run_spec(ctx, spec)
            assert run.report.to_json() == _direct_report(ctx, run).to_json(), (
                entry.key, name
            )
            runs += 1
    assert runs == 86 * 13
    assert seen == [(True, True)] * runs


def _all_subset_data(ctx):
    m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
    per_class = [
        [frozenset(c) for r in range(len(box) + 1) for c in combinations(box, r)]
        for box in copy_boxes(m, nak)
    ]
    return [SpreadSpec(classes) for classes in product(*per_class)]


@pytest.mark.parametrize("m, count", [((1, 2), 16), ((2, 2), 256)],
                         ids=["nsy(2,2,(1,2))", "nsy(2,2,(2,2))"])
def test_certified_exactly_when_no_class_is_empty(monkeypatch, m, count):
    # every subset datum, empty classes included: a run is certified exactly
    # when every S(i) is nonempty, and its report is the direct one; an
    # empty class costs injectivity, so the certificate's condition is tight.
    # The counit pair from the incidence ranks is used on every run
    ctx = prepare(nsy_algebra(2, 2, m).algebra)
    specs = _all_subset_data(ctx)
    assert ctx.certified and len(specs) == count
    seen = _record_certified(monkeypatch)
    for spec in specs:
        run = run_spec(ctx, spec)
        assert run.report.to_json() == _direct_report(ctx, run).to_json(), spec
        certified, lam_counit = seen.pop()
        assert certified == all(spec.classes) == run.report.injective, spec
        assert lam_counit, spec


def test_failed_certificate_falls_back_to_direct_checks(monkeypatch):
    # a Lambda check that fails is no verdict: run_spec checks x directly
    # and reports the direct check's witness
    checked = []

    def failing(x):
        checked.append(x)
        return (0, 1, 2)

    monkeypatch.setattr("sialg.amplify.check_coassociativity", failing)
    ctx = prepare(nsy_algebra(2, 2, (1, 2)).algebra)
    assert not ctx.certified and checked == [ctx.pair.y]
    run = run_spec(ctx, "full")
    assert checked[1] is run.x
    r = run.report.to_json()
    assert not r["coassociative"] and r["coassociative_witness"] == [0, 1, 2]
    assert r["invariant"] and r["delta_rank"] == 9 and r["injective"]


# -- counitality from the incidence ranks against the oracle --------------------


def _gf101_sweep():
    """The sweep-gfp benchmark's inputs that prepare accepts: every nsy
    shape over GF(101) with m(i) in 1..3, and the group algebras of
    `_INVERTED`."""
    field = Field(101)
    out = [
        (f"nsy({n},{l},{m})-gf101", lambda n=n, l=l, m=m: nsy_algebra(n, l, m, field).algebra)
        for n, l in STANDARD_NSY_SHAPES
        for m in product(range(1, 4), repeat=n)
    ]
    return out + [(key, lambda alg=alg: alg) for key, alg in _INVERTED[86:]]


def _emptied(spec, rng):
    classes = list(spec.classes)
    classes[rng.randrange(len(classes))] = frozenset()
    return SpreadSpec(tuple(classes))


@pytest.mark.parametrize("make", [pytest.param(make, id=key) for key, make in _gf101_sweep()])
def test_counit_from_incidence_matches_the_oracle_on_the_gfp_sweep(make):
    # verdict and solution-space dimension, on the 3 presets, 10 draws and
    # 3 draws with one class emptied
    alg = make()
    ctx = prepare(alg)
    assert ctx.certified
    m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
    rng = random.Random(alg.dim)
    specs = [preset_spec(name, m, nak) for name in PRESETS]
    specs += [SpreadSpec.random_nonempty(m, nak, rng) for _ in range(10)]
    specs += [_emptied(SpreadSpec.random_nonempty(m, nak, rng), rng) for _ in range(3)]
    for spec in specs:
        eps, nullity = counit_solution_space(alg, run_spec(ctx, spec).x)
        lam = counit_from_incidence(ctx.analysis.corners, m, nak, spec)
        assert lam == (eps is not None, nullity), spec


def test_counit_from_incidence_matches_the_oracle_on_every_subset_of_nsy_1_3_3():
    # every S of the one 3 x 3 box, the empty one included; over QQ, 174
    # of the 512 incidence matrices are invertible (OEIS A055165)
    ctx = prepare(nsy_algebra(1, 3, (3,)).algebra)
    specs = _all_subset_data(ctx)
    assert ctx.certified and len(specs) == 512
    m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
    counital = 0
    for spec in specs:
        eps, nullity = counit_solution_space(ctx.analysis.algebra, run_spec(ctx, spec).x)
        lam = counit_from_incidence(ctx.analysis.corners, m, nak, spec)
        assert lam == (eps is not None, nullity), spec
        counital += lam[0]
    assert counital == 174


def _record_oracle(monkeypatch):
    """The tensor of every call of the counit oracle."""
    calls = []
    original = counit_solution_space

    def recording(alg, x):
        calls.append(x)
        return original(alg, x)

    monkeypatch.setattr("sialg.amplify.counit_solution_space", recording)
    return calls


def test_run_spec_runs_the_oracle_only_on_counital_non_bijection_data(monkeypatch):
    # on a certified context the report prints the oracle's solution only
    # where no constructed counit exists: counital data that are not a
    # bijection graph; certify_family runs it once per context, on y
    calls = _record_oracle(monkeypatch)
    cache = CorpusCache("standard")
    oracle_runs = 0
    for idx, entry in cache.items():
        ctx, specs = _spec_sweep(cache, idx)
        assert [y is ctx.pair.y for y in calls] == [True], entry.key
        calls.clear()
        m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
        field = ctx.analysis.algebra.field
        for name, spec in specs:
            run = run_spec(ctx, spec)
            expected = all(is_incidence_invertible(spec, m, nak, field)) and not all(
                is_bijection_graph(spec, m, nak)
            )
            assert [x is run.x for x in calls] == [True] * expected, (entry.key, name)
            oracle_runs += expected
            calls.clear()
    # of the 86 * 13 specs, as `sialg verify --profile standard` sweeps them
    assert oracle_runs == 30


def test_failed_certificate_runs_the_oracle_on_every_spec(monkeypatch):
    # a context whose certificate fails has no counit verdict from the
    # incidence ranks: the oracle decides every spec, bijection graphs too
    monkeypatch.setattr("sialg.amplify.check_coassociativity", lambda x: (0, 1, 2))
    calls = _record_oracle(monkeypatch)
    ctx = prepare(nsy_algebra(2, 2, (2, 2)).algebra)
    assert not ctx.certified
    calls.clear()
    m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
    rng = random.Random(5)
    specs = [preset_spec(name, m, nak) for name in PRESETS]
    specs += [SpreadSpec.random_nonempty(m, nak, rng) for _ in range(5)]
    for spec in specs:
        run = run_spec(ctx, spec)
        assert [x is run.x for x in calls] == [True], spec
        calls.clear()
