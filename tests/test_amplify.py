import inspect
import random
from itertools import permutations, product as iter_product

import pytest

import dense_reference as dense
from sialg.algebra import (
    Functional,
    act_left,
    apply_functional,
    check_associativity,
    check_coassociativity,
    check_unit,
    is_invariant,
    multiply,
)
from sialg.amplify import (
    INCIDENCE_RANK_CACHE,
    PRESETS,
    SpreadSpec,
    _incidence_rank,
    _incidence_ranks,
    amplify,
    build_counit,
    comultiplication_report,
    copy_boxes,
    counit_from_incidence,
    counit_solution_space,
    is_bijection_graph,
    is_incidence_invertible,
    preset_spec,
    spread,
)
from sialg.errors import (
    BadBlockSupport,
    BadParams,
    IndexOutOfRange,
    NotBasic,
    NotBijection,
)
from sialg.families import (
    corpus,
    field_product_algebra,
    matrix_algebra,
    nakayama_algebra,
    nsy_algebra,
)
from sialg.fields import QQ, Field
from sialg.frobenius import FrobeniusPair, frobenius_pair, tensor_blocks
from sialg.pipeline import prepare
from sialg.structure import (
    NakayamaData,
    PeirceCorners,
    canonical_decomposition,
    nakayama,
    radical,
)


def _setup(alg):
    rad = radical(alg)
    dec = canonical_decomposition(alg, rad=rad)
    nak = nakayama(PeirceCorners(alg, dec.reps), rad)
    return dec, nak


def _cut(amp, y, nak):
    """The corner blocks of y, which must lie on the block support."""
    blocks, witness = tensor_blocks(amp.corners, y, nak)
    assert witness is None
    return blocks


def _scalar_amp():
    k = field_product_algebra(1)
    dec, nak = _setup(k)
    amp = amplify(PeirceCorners(k, dec.reps), (2,))
    pair = frobenius_pair(amp.corners, nak)
    return k, dec, nak, amp, pair


def test_amplify_scalar_gives_matrix_algebra():
    k, dec, nak, amp, pair = _scalar_amp()
    assert amp.algebra.dim == 4
    assert check_associativity(amp.algebra) is None
    assert check_unit(amp.algebra) is None
    # structure constants match matrix units under (s, t) -> E_ts
    M = matrix_algebra(2)
    emap = {}
    for a, (i, j, s, t, b) in enumerate(amp.tuples):
        emap[a] = (t - 1) * 2 + (s - 1)
    for a in range(4):
        for b in range(4):
            got = {emap[k_]: c for k_, c in amp.algebra.rows[a].get(b, {}).items()}
            assert got == M.rows[emap[a]].get(emap[b], {})


def test_amplify_identity_multiplicities():
    # with all multiplicities 1 the model is the base algebra in disguise:
    # each corner is one-dimensional here, so the corner basis elements give
    # the identification directly
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    amp = amplify(PeirceCorners(B, dec.reps), (1, 1))
    assert amp.algebra.dim == B.dim
    emap = {}
    for a, (i, j, s, t, b) in enumerate(amp.tuples):
        (base_idx,) = amp.corners.bases[(j, i)][b].coeffs
        emap[a] = base_idx
    assert sorted(emap.values()) == list(range(B.dim))
    for a in range(B.dim):
        for b in range(B.dim):
            got = {emap[k_]: c for k_, c in amp.algebra.rows[a].get(b, {}).items()}
            assert got == B.rows[emap[a]].get(emap[b], {})


def test_amplify_dimension_formula():
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    amp = amplify(PeirceCorners(B, dec.reps), (1, 2))
    assert amp.algebra.dim == 9  # (m0 + m1)^2 with all corners 1-dim
    with pytest.raises(NotBasic):
        M = matrix_algebra(2)
        decm = canonical_decomposition(M)
        amplify(PeirceCorners(M, decm.reps), (1,))


def test_amplify_refuses_reps_not_summing_to_one():
    # one idempotent per class exactly when the class reps sum to 1
    M = matrix_algebra(2)
    with pytest.raises(NotBasic):
        amplify(PeirceCorners(M, canonical_decomposition(M).reps), (1,))
    B = nakayama_algebra(2, 2)
    reps = canonical_decomposition(B).reps
    with pytest.raises(NotBasic):
        amplify(PeirceCorners(B, reps[:1]), (1,))
    assert amplify(PeirceCorners(B, reps), (1, 1)).algebra.dim == B.dim


def test_lift_examples():
    k, dec, nak, amp, pair = _scalar_amp()
    e21 = dense.lift(amp, k.unit, 1, 2)
    assert list(e21.coeffs) == [amp.index[(0, 0, 1, 2, 0)]]
    B = nakayama_algebra(2, 2)
    decb, nakb = _setup(B)
    ampb = amplify(PeirceCorners(B, decb.reps), (2, 2))
    for i, rep in enumerate(decb.reps):
        for t in (1, 2):
            idem = dense.lift(ampb, rep, t, t)
            assert multiply(idem, idem) == idem
    with pytest.raises(IndexOutOfRange):
        dense.lift(amp, k.unit, 1, 3)
    with pytest.raises(ValueError):
        dense.lift(ampb, B.unit, 1, 1)  # unit meets several corners


def test_lift_composition_rule():
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    amp = amplify(PeirceCorners(B, dec.reps), (2, 2))
    rng = random.Random(23)
    # phi in corner(j <- mid), psi in corner(mid <- i): composition matches
    reps = dec.reps
    for _ in range(20):
        i, mid, j = (rng.randrange(2) for _ in range(3))
        phi = multiply(multiply(reps[j], _rand(B, rng)), reps[mid])
        psi = multiply(multiply(reps[mid], _rand(B, rng)), reps[i])
        if not phi or not psi:
            continue
        s, t, u = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        comp = multiply(phi, psi)
        lhs = multiply(dense.lift(amp, phi, u, t), dense.lift(amp, psi, s, u))
        if not comp:
            assert not lhs
        else:
            assert lhs == dense.lift(amp, comp, s, t)


def _rand(alg, rng):
    return alg.element({i: QQ(rng.randint(-2, 2)) for i in range(alg.dim)})


def test_spread_singleton_and_diagonal_m2():
    k, dec, nak, amp, pair = _scalar_amp()
    xs = spread(amp, _cut(amp, pair.y, nak), preset_spec("singleton", amp.m, nak), nak)
    assert is_invariant(xs) is None
    ab = {amp.tuples[a][2:4] + amp.tuples[b][2:4] for (a, b) in xs.coeffs}
    # E11 (x) E11 + E21 (x) E12 in copy coordinates (s,t) x (s,t)
    assert ab == {(1, 1, 1, 1), (1, 2, 2, 1)}
    xd = spread(amp, _cut(amp, pair.y, nak), preset_spec("diagonal", amp.m, nak), nak)
    assert len(xd.coeffs) == 4
    assert is_invariant(xd) is None


def test_spread_offsets_match_full_lookup_on_standard_corpus():
    # the corner basis index b runs innermost in the model's tuples, so
    # index[(i, j, s, t, b)] = index[(i, j, s, t, 0)] + b, and spread writes
    # the same coefficients in the same order as a lookup of every tuple
    rng = random.Random(29)
    for entry in corpus("standard"):
        ctx = prepare(entry.algebra)
        amp, nak = ctx.analysis.amp, ctx.analysis.nak
        index = amp.index
        assert all(index[(i, j, s, t, 0)] + b == a for (i, j, s, t, b), a in index.items())
        specs = [preset_spec(name, amp.m, nak) for name in PRESETS]
        specs += [SpreadSpec.random_nonempty(amp.m, nak, rng) for _ in range(3)]
        for spec in specs:
            got = spread(amp, ctx.blocks, spec, nak).coeffs
            assert list(got.items()) == list(dense.spread_reference(amp, ctx.blocks, spec).items())


def test_spread_rejects_bad_block_support(monkeypatch):
    # spread distributes blocks it is handed; the cut names the lowest
    # block off the support, and prepare refuses such a pair
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    corners = PeirceCorners(B, dec.reps)
    bad = dense.tensor2(B, {(0, 0): 1})  # e0 (x) e0 violates the block pattern
    blocks, witness = tensor_blocks(corners, bad, nak)
    assert witness == (0, 0, 0, 0)
    assert blocks == {(0, 0, 0, 0): {(0, 0): 1}}
    # the lowest offender, not the first met: e1 (x) e1 comes first in y
    two = dense.tensor2(B, {(2, 2): 1, (0, 0): 1})
    assert list(tensor_blocks(corners, two, nak)[0]) == [(1, 1, 1, 1), (0, 0, 0, 0)]
    assert tensor_blocks(corners, two, nak)[1] == (0, 0, 0, 0)
    pair = frobenius_pair(corners, nak)
    assert tensor_blocks(corners, pair.y, nak) == (corners.tensor_components(pair.y), None)
    monkeypatch.setattr(
        "sialg.pipeline.frobenius_pair",
        lambda corners, nak, seed: FrobeniusPair(pair.epsilon, bad),
    )
    with pytest.raises(BadBlockSupport) as err:
        prepare(B)
    assert str(err.value) == "tensor has a component in corners (0<-0) (x) (0<-0)"


def test_spread_index_validation():
    # the error names the lowest pair outside the box, whatever the set order
    k, dec, nak, amp, pair = _scalar_amp()
    bad = SpreadSpec((frozenset({(3, 1), (1, 3)}),))
    with pytest.raises(IndexOutOfRange) as err:
        spread(amp, _cut(amp, pair.y, nak), bad, nak)
    assert str(err.value) == "pair (1,3) outside 1..2 x 1..2 for class 1"


def test_is_bijection_graph_examples():
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    m22 = (2, 2)
    spec = SpreadSpec((frozenset({(1, 1), (2, 2)}), frozenset({(1, 1), (2, 2)})))
    assert is_bijection_graph(spec, m22, nak) == [True, True]
    spec = SpreadSpec((frozenset({(1, 1)}), frozenset({(1, 1), (2, 2)})))
    assert is_bijection_graph(spec, m22, nak) == [False, True]
    spec = SpreadSpec((frozenset({(1, 1), (2, 1)}), frozenset({(1, 1), (2, 2)})))
    assert is_bijection_graph(spec, m22, nak) == [False, True]


def test_is_incidence_invertible_examples():
    fix = NakayamaData((0,), [[]])
    # permutation graphs are the bijection-graph case
    perm = SpreadSpec((frozenset({(1, 2), (2, 3), (3, 1)}),))
    assert is_incidence_invertible(perm, (3,), fix, QQ) == [True]
    assert is_bijection_graph(perm, (3,), fix) == [True]
    # the 2x2 witness: M = [[1,1],[0,1]] is invertible, not a permutation
    witness = SpreadSpec((frozenset({(1, 1), (2, 2), (1, 2)}),))
    assert is_incidence_invertible(witness, (2,), fix, QQ) == [True]
    assert is_bijection_graph(witness, (2,), fix) == [False]
    full = SpreadSpec((frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}),))
    assert is_incidence_invertible(full, (2,), fix, QQ) == [False]
    # non-square blocks are never invertible; square singular ones neither
    swap = NakayamaData((1, 0), [[], []])
    rect = preset_spec("full", (1, 2), swap)
    assert is_incidence_invertible(rect, (1, 2), swap, QQ) == [False, False]
    ident = NakayamaData((0, 1), [[], []])
    single = preset_spec("singleton", (1, 2), ident)
    assert is_incidence_invertible(single, (1, 2), ident, QQ) == [True, False]


def test_cached_incidence_rank_matches_uncached_sparse_rank():
    # all 512 subsets of the 3 x 3 box, each over QQ, GF(2) and GF(3), on
    # an empty cache and again from it; J - I has rank 3 over QQ and
    # GF(3) but 2 over GF(2), so a key without the characteristic fails
    box = list(iter_product(range(1, 4), repeat=2))
    fields = (QQ, Field(2), Field(3))
    _incidence_rank.cache_clear()
    for _ in range(2):
        for bits in range(2 ** len(box)):
            pairs = frozenset(p for k, p in enumerate(box) if bits >> k & 1)
            for field in fields:
                want = dense.incidence_rank_reference(pairs, field)
                assert _incidence_ranks(SpreadSpec((pairs,)), field) == [want], (pairs, field)
    info = _incidence_rank.cache_info()
    assert info.hits >= 512 * 3 and info.maxsize == INCIDENCE_RANK_CACHE
    j_minus_i = SpreadSpec((frozenset(p for p in box if p[0] != p[1]),))
    assert [_incidence_ranks(j_minus_i, field) for field in fields] == [[3], [2], [3]]


def test_nakayama_inverse_is_the_index_of_each_class():
    # the inverse is kept once, outside equality and repr
    for nu in permutations(range(4)):
        nak = NakayamaData(nu, [[]] * 4)
        assert [nak.nu_inverse(i) for i in range(4)] == [nu.index(i) for i in range(4)]
        assert nak == NakayamaData(nu, [[]] * 4)
        assert repr(nak) == f"NakayamaData(nu={nu!r}, socles={[[]] * 4!r})"


def test_is_incidence_invertible_depends_on_the_field():
    # rows {1,2}, {2,3}, {1,3}: det 2, singular exactly in characteristic 2
    fix = NakayamaData((0,), [[]])
    spec = SpreadSpec((frozenset({(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3)}),))
    assert is_incidence_invertible(spec, (3,), fix, QQ) == [True]
    assert is_incidence_invertible(spec, (3,), fix, Field(3)) == [True]
    assert is_incidence_invertible(spec, (3,), fix, Field(2)) == [False]


def test_counit_from_incidence_on_every_subset_of_the_scalar_box():
    # M_2 over QQ as the (2)-amplified field: one class, nu = id, one corner
    # of dimension 1, so the closed form reads (rk == 2, (2 - rk)^2)
    k, dec, nak, amp, pair = _scalar_amp()
    blocks = _cut(amp, pair.y, nak)
    box = copy_boxes(amp.m, nak)[0]
    seen = set()
    for bits in range(1 << len(box)):
        spec = SpreadSpec((frozenset(p for b, p in enumerate(box) if bits >> b & 1),))
        x = spread(amp, blocks, spec, nak)
        eps, nullity = counit_solution_space(amp.algebra, x)
        lam = counit_from_incidence(amp.corners, amp.m, nak, spec)
        assert lam == (eps is not None, nullity), spec
        seen.add(lam)
    assert seen == {(False, 4), (False, 1), (True, 0)}


def _assert_counit(eps, x):
    unit = x.algebra.unit
    assert apply_functional("left", eps, x) == unit
    assert apply_functional("right", eps, x) == unit


def test_build_counit_matrix_trace():
    k, dec, nak, amp, pair = _scalar_amp()
    spec = preset_spec("diagonal", amp.m, nak)
    x = spread(amp, _cut(amp, pair.y, nak), spec, nak)
    assert is_invariant(x) is None
    eps = build_counit(amp, spec, nak, pair.epsilon, is_bijection_graph(spec, amp.m, nak))
    _assert_counit(eps, x)
    for a, (i, j, s, t, b) in enumerate(amp.tuples):
        assert eps.values[a] == (QQ(1) if s == t else QQ(0))
    with pytest.raises(NotBijection):
        single = preset_spec("singleton", amp.m, nak)
        build_counit(amp, single, nak, pair.epsilon, is_bijection_graph(single, amp.m, nak))


def test_report_flags_a_wrong_built_counit():
    # build_counit checks nothing; the report tests the counit it is handed
    k, dec, nak, amp, pair = _scalar_amp()
    spec = preset_spec("diagonal", amp.m, nak)
    x = spread(amp, _cut(amp, pair.y, nak), spec, nak)
    eps = build_counit(amp, spec, nak, pair.epsilon, is_bijection_graph(spec, amp.m, nak))
    wrong = Functional(amp.algebra, [2 * v for v in eps.values])
    rep = comultiplication_report(amp.algebra, x, is_bijection_graph(spec, amp.m, nak), wrong)
    assert rep.counital and not rep.counit_built and rep.routes_consistent is False
    assert rep.counit == eps  # the oracle's counit, not the wrong one


def test_build_counit_m_equals_one_recovers_base():
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    amp = amplify(PeirceCorners(B, dec.reps), (1, 1))
    pair = frobenius_pair(amp.corners, nak)
    spec = preset_spec("singleton", amp.m, nak)
    x = spread(amp, _cut(amp, pair.y, nak), spec, nak)
    assert is_invariant(x) is None
    eps = build_counit(amp, spec, nak, pair.epsilon, is_bijection_graph(spec, amp.m, nak))
    _assert_counit(eps, x)
    # under the canonical identification the counit restricts to the base one
    for a, (i, j, s, t, b) in enumerate(amp.tuples):
        q = amp.corners.bases[(j, i)][b]
        if j == nak.nu_inverse(i):
            assert eps.values[a] == pair.epsilon(q)
        else:
            assert eps.values[a] == QQ(0)


def test_counit_oracle_m2_singleton_infeasible():
    k, dec, nak, amp, pair = _scalar_amp()
    x = spread(amp, _cut(amp, pair.y, nak), preset_spec("singleton", amp.m, nak), nak)
    assert is_invariant(x) is None
    # independent dense cross-check of the 8x4 system
    alg = amp.algebra
    rows = []
    rhs = []
    unit = alg.unit.dense()
    for g in range(4):
        row = [QQ(0)] * 4
        for (a, b), c in x.coeffs.items():
            if b == g:
                row[a] += c
        rows.append(row)
        rhs.append(unit[g])
    for g in range(4):
        row = [QQ(0)] * 4
        for (a, b), c in x.coeffs.items():
            if a == g:
                row[b] += c
        rows.append(row)
        rhs.append(unit[g])
    assert dense.solve(alg.field, rows, rhs, 4) is None
    assert counit_solution_space(alg, x)[0] is None


def test_counit_oracle_m2_diagonal_unique_trace():
    k, dec, nak, amp, pair = _scalar_amp()
    x = spread(amp, _cut(amp, pair.y, nak), preset_spec("diagonal", amp.m, nak), nak)
    assert is_invariant(x) is None
    eps, nullity = counit_solution_space(amp.algebra, x)
    assert eps is not None and nullity == 0
    for a, (i, j, s, t, b) in enumerate(amp.tuples):
        assert eps.values[a] == (QQ(1) if s == t else QQ(0))


def test_counitality_beyond_bijection_graphs_finding():
    # documented exact counterexample: S = {(1,1),(2,2),(1,2)} is not the
    # graph of a bijection, yet the spread tensor is counital; the
    # contributions of the extra pair cancel inside the counit identities
    k, dec, nak, amp, pair = _scalar_amp()
    spec = SpreadSpec((frozenset({(1, 1), (2, 2), (1, 2)}),))
    assert is_bijection_graph(spec, amp.m, nak) == [False]
    x = spread(amp, _cut(amp, pair.y, nak), spec, nak)
    assert is_invariant(x) is None
    assert check_coassociativity(x) is None
    eps, nullity = counit_solution_space(amp.algebra, x)
    assert eps is not None
    assert apply_functional("left", eps, x) == amp.algebra.unit
    assert apply_functional("right", eps, x) == amp.algebra.unit


def test_exhaustive_nonempty_specs_small_multiplicities():
    # every nonempty-per-class subset datum yields an invariant and
    # coassociative tensor; exhaustive for multiplicities <= 2
    for alg_m in (((1, 2), (2,)), ((2, 2), (1, 2))):
        (n, l), m = alg_m
        B = nakayama_algebra(n, l)
        dec, nak = _setup(B)
        amp = amplify(PeirceCorners(B, dec.reps), m)
        pair = frobenius_pair(amp.corners, nak)
        boxes = [
            [
                (s, s2)
                for s in range(1, m[i] + 1)
                for s2 in range(1, m[nak.nu_inverse(i)] + 1)
            ]
            for i in range(len(m))
        ]

        def nonempty_subsets(box):
            out = [[]]
            for p in box:
                out.extend(ch + [p] for ch in list(out))
            return [frozenset(ch) for ch in out if ch]

        for combo in iter_product(*(nonempty_subsets(b) for b in boxes)):
            spec = SpreadSpec(tuple(combo))
            x = spread(amp, _cut(amp, pair.y, nak), spec, nak)
            assert is_invariant(x) is None
            assert check_coassociativity(x) is None


def test_empty_class_flagged_noninjective():
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    amp = amplify(PeirceCorners(B, dec.reps), (1, 1))
    pair = frobenius_pair(amp.corners, nak)
    spec = SpreadSpec((frozenset(), frozenset({(1, 1)})))
    x = spread(amp, _cut(amp, pair.y, nak), spec, nak)
    rep = comultiplication_report(amp.algebra, x, is_bijection_graph(spec, amp.m, nak))
    assert rep.invariant and rep.coassociative
    assert rep.rank < rep.dim and not rep.injective


def test_compatibility_square_singleton():
    # the comultiplication of a lifted morphism is the (t<-1) (x) (1<-s)
    # lift of the base comultiplication, block by block
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    m = (2, 2)
    amp = amplify(PeirceCorners(B, dec.reps), m)
    pair = frobenius_pair(amp.corners, nak)
    x = spread(amp, _cut(amp, pair.y, nak), preset_spec("singleton", amp.m, nak), nak)
    assert is_invariant(x) is None
    rng = random.Random(29)
    reps = dec.reps
    checked = 0
    for _ in range(15):
        i, j = rng.randrange(2), rng.randrange(2)
        phi = multiply(multiply(reps[j], _rand(B, rng)), reps[i])
        if not phi:
            continue
        s, t = rng.randint(1, m[i]), rng.randint(1, m[j])
        lhs = act_left(dense.lift(amp, phi, s, t), x)
        base = act_left(phi, pair.y)
        assert lhs == _lift_tensor(amp, B, reps, base, s, t)
        checked += 1
    assert checked >= 5


def _lift_tensor(amp, B, reps, base, s, t):
    from sialg.algebra import Tensor2

    n = len(reps)
    out: dict = {}
    for (a, b), c in base.coeffs.items():
        ea = B.basis_element(a)
        eb = B.basis_element(b)
        placed = False
        for j2 in range(n):
            for i2 in range(n):
                left = multiply(multiply(reps[j2], ea), reps[i2])
                if not left:
                    continue
                for u2 in range(n):
                    for v2 in range(n):
                        right = multiply(multiply(reps[u2], eb), reps[v2])
                        if not right:
                            continue
                        la = dense.lift(amp, left, 1, t)
                        lb = dense.lift(amp, right, s, 1)
                        for ka, ca in la.coeffs.items():
                            for kb, cb in lb.coeffs.items():
                                key = (ka, kb)
                                w = out.get(key, 0) + c * ca * cb
                                if w:
                                    out[key] = w
                                else:
                                    out.pop(key, None)
                        placed = True
        assert placed
    return Tensor2(amp.algebra, out)


def test_build_counit_nsy_diagonal_socle_support():
    # with matching multiplicities the diagonal counit lives on socle-depth
    # basis elements with equal copy superscripts: X[i, l-1; r, r]
    nsy = nsy_algebra(2, 2, (2, 2))
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    amp = amplify(PeirceCorners(B, dec.reps), (2, 2))
    pair = frobenius_pair(amp.corners, nak)
    spec = preset_spec("diagonal", amp.m, nak)
    x = spread(amp, _cut(amp, pair.y, nak), spec, nak)
    assert is_invariant(x) is None
    eps = build_counit(amp, spec, nak, pair.epsilon, is_bijection_graph(spec, amp.m, nak))
    _assert_counit(eps, x)
    for a, (i, j, s, t, b) in enumerate(amp.tuples):
        v = eps.values[a]
        if v:
            q = amp.corners.bases[(j, i)][b]
            (path_idx,) = q.coeffs
            assert path_idx % 2 == 1  # a length-(l-1) socle path
            assert s == t


def test_spread_spec_json_round_trip():
    spec = SpreadSpec((frozenset({(1, 2), (2, 1)}), frozenset({(1, 1)})))
    data = spec.to_json()
    assert SpreadSpec.from_json(data, 2) == spec
    assert data["classes"][0]["i"] == 1


def test_spread_spec_json_duplicate_class_rejected():
    data = {"classes": [{"i": 1, "pairs": [[1, 1]]}, {"i": 1, "pairs": []}]}
    with pytest.raises(BadParams, match="class index 1 given twice"):
        SpreadSpec.from_json(data, 2)
    # a class with no row is empty, as before
    assert SpreadSpec.from_json({"classes": [{"i": 2, "pairs": [[1, 1]]}]}, 2) == (
        SpreadSpec((frozenset(), frozenset({(1, 1)})))
    )


def test_preset_spec_names():
    B = nakayama_algebra(2, 2)
    dec, nak = _setup(B)
    assert preset_spec("singleton", (1, 1), nak).classes == (
        frozenset({(1, 1)}),
        frozenset({(1, 1)}),
    )
    # the permutation swaps the two classes, so with m = (2, 1) the diagonal
    # preset is undefined classwise and falls back to the full block
    diag = preset_spec("diagonal", (2, 1), nak)
    full = preset_spec("full", (2, 1), nak)
    assert full.classes[0] == frozenset({(1, 1), (2, 1)})
    assert full.classes[1] == frozenset({(1, 1), (1, 2)})
    assert diag.classes == full.classes
    # matching multiplicities give the genuine diagonal
    diag22 = preset_spec("diagonal", (2, 2), nak)
    assert diag22.classes == (
        frozenset({(1, 1), (2, 2)}),
        frozenset({(1, 1), (2, 2)}),
    )
    # a square box under the identity permutation
    fix = NakayamaData((0,), [[]])
    assert copy_boxes((3,), fix) == [list(iter_product(range(1, 4), repeat=2))]
    assert preset_spec("singleton", (3,), fix).classes == (frozenset({(1, 1)}),)
    assert preset_spec("diagonal", (3,), fix).classes == (
        frozenset({(1, 1), (2, 2), (3, 3)}),
    )
    assert preset_spec("full", (3,), fix).classes == (
        frozenset(iter_product(range(1, 4), repeat=2)),
    )
    with pytest.raises(BadParams, match="unknown preset"):
        preset_spec("square", (3,), fix)


def test_random_nonempty_draws_repeat():
    # the box order and the randint/sample call order fix every draw
    swap = NakayamaData((1, 0), [[], []])
    rng = random.Random(7)
    draws = [SpreadSpec.random_nonempty((2, 3), swap, rng).classes for _ in range(3)]
    assert draws == [
        (frozenset({(1, 1), (1, 2), (2, 1)}), frozenset({(3, 1)})),
        (frozenset({(1, 3)}), frozenset({(1, 1), (1, 2), (2, 1), (3, 1), (3, 2)})),
        (
            frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}),
            frozenset({(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)}),
        ),
    ]


def test_amplify_submodule_not_shadowed():
    import sialg

    assert inspect.ismodule(sialg.amplify)
    assert sialg.amplify.amplify is amplify
