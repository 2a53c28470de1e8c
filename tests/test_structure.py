import random
from itertools import combinations

import pytest

import dense_reference as dense
from sialg import structure
from sialg.algebra import multiply, permute_basis
from sialg.amplify import amplify, lift
from sialg.errors import AlgebraError, NotSelfInjectiveLike, UnsupportedField
from sialg.families import (
    corpus,
    field_product_algebra,
    group_algebra,
    matrix_algebra,
    nakayama_algebra,
    nsy_algebra,
    path_algebra_a2,
)
from sialg.fields import Field, QQ
from sialg.linalg import Span
from sialg.pipeline import analyze
from sialg.structure import (
    NakayamaData,
    PeirceCorners,
    basic_reduction,
    canonical_decomposition,
    corner_span,
    duality_pattern,
    iso_witnesses,
    nakayama,
    radical,
    verify_nakayama_duality,
)


def test_radical_examples():
    assert radical(matrix_algebra(2)).dim == 0
    assert radical(matrix_algebra(2)).nilpotency_index == 1
    r = radical(nakayama_algebra(1, 2))
    assert r.dim == 1 and r.nilpotency_index == 2
    assert r.basis[0].coeffs == {1: QQ(1)}


def test_radical_b22_exhaustive_ideal_oracle():
    # oracle: largest nilpotent ideal among spans of basis subsets of the
    # 4-dimensional monomial algebra
    B = nakayama_algebra(2, 2)
    best = set()
    for size in range(1, B.dim + 1):
        for subset in combinations(range(B.dim), size):
            span = Span(B.field, (B.basis_element(i).coeffs for i in subset))
            ideal = all(
                span.contains(multiply(B.basis_element(b), B.basis_element(v)).coeffs)
                and span.contains(multiply(B.basis_element(v), B.basis_element(b)).coeffs)
                for b in range(B.dim)
                for v in subset
            )
            if not ideal:
                continue
            # nilpotency of the span
            current = [B.basis_element(i) for i in subset]
            nilpotent = False
            for _ in range(B.dim + 1):
                nxt = []
                for a in current:
                    for i in subset:
                        p = multiply(a, B.basis_element(i))
                        if p.coeffs:
                            nxt.append(p)
                if not nxt:
                    nilpotent = True
                    break
                current = nxt
            if nilpotent and len(subset) > len(best):
                best = set(subset)
    r = radical(B)
    assert r.dim == len(best) == 2
    assert r.nilpotency_index == 2
    rad_span = Span(B.field, (e.coeffs for e in r.basis))
    for i in best:
        assert rad_span.contains({i: B.field.one})


def test_radical_modular_group_algebras():
    g2 = group_algebra([2], Field(2))
    r = radical(g2)
    assert r.dim == 1 and r.nilpotency_index == 2
    # the radical is spanned by 1 + g
    assert r.basis[0].coeffs == {0: Field(2).one, 1: Field(2).one}
    g3 = group_algebra([3], Field(3))
    r3 = radical(g3)
    assert r3.dim == 2 and r3.nilpotency_index == 3


def test_radical_unsupported_field():
    with pytest.raises(UnsupportedField):
        radical(matrix_algebra(2, Field(2)))


def _radical_outcome(compute):
    try:
        rad = compute()
    except UnsupportedField:
        return None
    except AlgebraError as exc:
        return str(exc)
    return ([b.coeffs for b in rad.basis], rad.span.rows, rad.nilpotency_index)


def test_radical_matches_per_pair_reference_on_mutants():
    # seeded single-constant corruptions: bump one, delete one, add one; the
    # batched products must reach the same RadicalData or the same refusal
    # as the per-pair loops on the same trace-form (or Frobenius-power) kernel
    rng = random.Random(20261018)
    outcomes = []
    for entry in corpus("small"):
        field, d = entry.algebra.field, entry.algebra.dim
        for corrupt in dense.single_constant_mutants(entry.algebra, rng, 6):
            got = _radical_outcome(lambda: radical(corrupt))
            if got is None:  # refused before any product is taken
                continue
            if field.p is None or field.p > d:
                kernel = structure._trace_form_kernel(corrupt)
            else:
                kernel = structure._frobenius_power_kernel(corrupt)
            want = _radical_outcome(lambda: dense.radical_checks(corrupt, kernel))
            assert got == want, entry.key
            outcomes.append(got)
    messages = [o for o in outcomes if isinstance(o, str)]
    assert len(outcomes) >= 200
    assert "radical candidate is not an ideal" in messages
    assert "radical candidate is not nilpotent" in messages
    assert len(messages) < len(outcomes)


def test_quotient_of_radical_is_semisimple():
    from sialg.structure import semisimple_quotient

    for alg in (nakayama_algebra(2, 2), nsy_algebra(2, 2, (1, 2)).algebra,
                group_algebra([3], Field(3))):
        rad = radical(alg)
        quot = semisimple_quotient(alg, rad)
        assert radical(quot.algebra).dim == 0


def test_canonical_decomposition_m2():
    M = matrix_algebra(2)
    dec = canonical_decomposition(M)
    assert dec.n == 1 and dec.multiplicities == (2,)
    assert dec.classes[0][0].coeffs == {0: QQ(1)}  # E11
    assert dec.classes[0][1].coeffs == {3: QQ(1)}  # E22
    assert dec.is_split_certified


def test_canonical_decomposition_product():
    dec = canonical_decomposition(field_product_algebra(2))
    assert dec.n == 2 and dec.multiplicities == (1, 1)


def test_canonical_decomposition_bnl():
    for n, l in ((2, 2), (3, 2), (2, 3)):
        B = nakayama_algebra(n, l)
        dec = canonical_decomposition(B)
        assert dec.n == n and dec.multiplicities == (1,) * n
        # representatives are the trivial paths, in vertex order
        for i, rep in enumerate(dec.reps):
            assert rep.coeffs == {i * l: QQ(1)}


def test_decomposition_invariants_random_algebras():
    rng = random.Random(21)
    for alg in (
        nsy_algebra(2, 2, (1, 2)).algebra,
        nsy_algebra(1, 2, (2,)).algebra,
        group_algebra([2]),
        group_algebra([2], Field(2)),
    ):
        perm = list(range(alg.dim))
        rng.shuffle(perm)
        palg = permute_basis(alg, perm)
        dec = canonical_decomposition(palg)
        idems = dec.all_idempotents()
        total = palg.zero()
        for e in idems:
            assert multiply(e, e) == e
            total = total + e
        assert total == palg.unit
        for a in range(len(idems)):
            for b in range(len(idems)):
                if a != b:
                    assert multiply(idems[a], idems[b]).is_zero()


def test_nakayama_examples():
    for l in (1, 2, 3):
        A = nakayama_algebra(1, l)
        nak = nakayama(A, canonical_decomposition(A))
        assert nak.nu == (0,)
    # cyclic shift on B(n, l): nu(i) = i + l - 1, via the vertex identification
    for n, l in ((2, 2), (3, 2), (2, 3), (3, 3)):
        B = nakayama_algebra(n, l)
        dec = canonical_decomposition(B)
        nak = nakayama(B, dec)
        vertex = [next(iter(rep.coeffs)) // l for rep in dec.reps]
        cls_of_vertex = {v: c for c, v in enumerate(vertex)}
        assert nak.nu == tuple(
            cls_of_vertex[(vertex[c] + l - 1) % n] for c in range(dec.n)
        )
    g2 = group_algebra([2], Field(2))
    nak = nakayama(g2, canonical_decomposition(g2))
    assert nak.nu == (0,)


def test_nakayama_socles():
    B = nakayama_algebra(2, 2)
    dec = canonical_decomposition(B)
    nak = nakayama(B, dec)
    for i, soc in enumerate(nak.socles):
        assert len(soc) == 1
        # socle of e_i B is spanned by the length-1 path at its vertex
        (idx,) = soc[0].coeffs
        assert idx % 2 == 1


def test_nakayama_rejects_a2():
    a2 = path_algebra_a2()
    with pytest.raises(NotSelfInjectiveLike):
        nakayama(a2, canonical_decomposition(a2))


def test_duality_examples():
    B = nakayama_algebra(2, 2)
    dec = canonical_decomposition(B)
    nak = nakayama(B, dec)
    from sialg.structure import corner_basis

    for i in range(2):
        assert len(corner_basis(B, dec.reps[i], None)) == 2
    assert verify_nakayama_duality(B, dec, nak)
    kx3 = nakayama_algebra(1, 3)
    dec3 = canonical_decomposition(kx3)
    assert verify_nakayama_duality(kx3, dec3, nakayama(kx3, dec3))


def test_duality_fails_on_a2():
    a2 = path_algebra_a2()
    dec = canonical_decomposition(a2)
    # nakayama() rejects A2, so feed the duality check a hand-made permutation
    assert not verify_nakayama_duality(a2, dec, NakayamaData((1, 0), [[], []]))
    assert not verify_nakayama_duality(a2, dec, NakayamaData((0, 1), [[], []]))
    pattern = duality_pattern(a2, dec)
    assert [len(s) for s in pattern] != [1, 1] or pattern[0] == pattern[1]


def test_duality_pattern_matches_nu():
    for alg in (nakayama_algebra(2, 2), nakayama_algebra(3, 2), group_algebra([2])):
        dec = canonical_decomposition(alg)
        nak = nakayama(alg, dec)
        assert duality_pattern(alg, dec) == [{nak.nu[i]} for i in range(dec.n)]


def test_basic_reduction_m2():
    M = matrix_algebra(2)
    dec = canonical_decomposition(M)
    lam, emb = basic_reduction(M, dec)
    assert lam.dim == 1
    assert emb.dec_lam.multiplicities == (1,)


def test_basic_reduction_identity_on_basic():
    B = nakayama_algebra(2, 2)
    dec = canonical_decomposition(B)
    lam, emb = basic_reduction(B, dec)
    assert lam is B
    assert emb.to_parent(B.basis_element(1)) == B.basis_element(1)


def _outer(alg, terms):
    """The tensor sum of c * left (x) right over the terms (c, left, right)."""
    coeffs = {}
    for c, left, right in terms:
        for k1, c1 in left.coeffs.items():
            for k2, c2 in right.coeffs.items():
                coeffs[(k1, k2)] = coeffs.get((k1, k2), 0) + c * c1 * c2
    return alg.tensor2(coeffs)


def _check_corners(corners, rng, complete):
    # components reassemble e a e, and y with both legs cut down by e, for
    # e the sum of the reps; that is a and y themselves when e = 1
    alg, field, bases = corners.alg, corners.alg.field, corners.bases
    d = alg.dim
    e = alg.zero()
    for r in corners.reps:
        e = e + r
    assert (e == alg.unit) == complete

    def cut(x):
        return multiply(multiply(e, x), e)

    for _ in range(3):
        a = alg.element({k: field.random(rng) for k in range(d)})
        got = alg.zero()
        for key, comp in corners.components(a).items():
            for b, c in comp.items():
                got = got + bases[key][b].scaled(c)
        assert got == (a if complete else cut(a))
        y = alg.tensor2(
            {(rng.randrange(d), rng.randrange(d)): field.random(rng) for _ in range(4 * d)}
        )
        got = _outer(alg, (
            (c, bases[key[:2]][b1], bases[key[2:]][b2])
            for key, comp in corners.tensor_components(y).items()
            for (b1, b2), c in comp.items()
        ))
        expected = _outer(alg, (
            (c, cut(alg.basis_element(k1)), cut(alg.basis_element(k2)))
            for (k1, k2), c in y.coeffs.items()
        ))
        assert got == (y if complete else expected)


_PEIRCE_INPUTS = [(e.key, e.algebra) for e in corpus("small")] + [
    (e.key + " gf101", nsy_algebra(*(e.provenance[k] for k in "nlm"), Field(101)).algebra)
    for e in corpus("small")
    if e.provenance["family"] == "nsy"
]


def _ordered(span):
    return [(piv, list(row.items())) for piv, row in span.rows.items()]


def _built(alg, reps, monkeypatch):
    """PeirceCorners(alg, reps), checked against `corner_span` down to the
    order of rows and entries; e_j b_t is computed once per j, so the
    build makes n d + n^2 d products."""
    calls = []
    product = structure.multiply

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(structure, "multiply", counted)
    corners = PeirceCorners(alg, reps)
    monkeypatch.setattr(structure, "multiply", product)
    n, d = len(reps), alg.dim
    assert len(calls) == n * d + n * n * d
    for (j, i), span in corners.spans.items():
        expected = corner_span(alg, reps[j], reps[i])
        assert _ordered(span) == _ordered(expected)
        assert [list(b.coeffs.items()) for b in corners.bases[(j, i)]] == [
            list(row.items()) for row in expected.basis_vectors()
        ]
    return corners


@pytest.mark.parametrize(
    "alg", [alg for _, alg in _PEIRCE_INPUTS], ids=[key for key, _ in _PEIRCE_INPUTS]
)
def test_peirce_corners_reassemble(alg, monkeypatch):
    rng = random.Random(97)
    a = analyze(alg)
    dec, dec_lam = a.dec, a.embedding.dec_lam
    # the input with one representative per class: e a e, e = 1 iff basic
    basic = all(v == 1 for v in dec.multiplicities)
    _check_corners(_built(alg, dec.reps, monkeypatch), rng, basic)
    _built(a.lam, a.corners.reps, monkeypatch)
    _check_corners(a.corners, rng, True)
    # the amplified model cut by every copy idempotent, then by one per class
    amp = amplify(a.corners, dec.multiplicities)
    copies = [
        [lift(amp, rep, t, t) for t in range(1, amp.m[i] + 1)] for i, rep in enumerate(dec_lam.reps)
    ]
    every_copy = _built(amp.algebra, [e for cls in copies for e in cls], monkeypatch)
    _check_corners(every_copy, rng, True)
    _check_corners(_built(amp.algebra, [cls[0] for cls in copies], monkeypatch), rng, basic)


def _find_iso_by_permutation(A, B):
    # exhaustive oracle for tiny monomial algebras: search basis bijections
    from itertools import permutations

    assert A.dim == B.dim
    for perm in permutations(range(A.dim)):
        ok = True
        for i in range(A.dim):
            for j in range(A.dim):
                image = {perm[k]: c for k, c in A.rows[i][j].items()}
                if image != dict(B.rows[perm[i]][perm[j]]):
                    ok = False
                    break
            if not ok:
                break
        if ok and {perm[k]: c for k, c in A.unit.coeffs.items()} == dict(B.unit.coeffs):
            return perm
    return None


def test_basic_reduction_of_amplified_is_b22():
    A = nsy_algebra(2, 2, (1, 2)).algebra
    dec = canonical_decomposition(A)
    lam, emb = basic_reduction(A, dec)
    assert lam.dim == 4
    assert emb.dec_lam.multiplicities == (1, 1)
    assert _find_iso_by_permutation(lam, nakayama_algebra(2, 2)) is not None
    # embedding is multiplicative on the corner
    rng = random.Random(4)
    for _ in range(10):
        a = lam.element({i: QQ(rng.randint(-2, 2)) for i in range(lam.dim)})
        b = lam.element({i: QQ(rng.randint(-2, 2)) for i in range(lam.dim)})
        assert emb.to_parent(a * b) == emb.to_parent(a) * emb.to_parent(b)


def test_iso_witnesses_m2():
    M = matrix_algebra(2)
    dec = canonical_decomposition(M)
    wit = iso_witnesses(M, dec)
    e11, e22 = dec.classes[0]
    u, v = wit.us[0][1], wit.vs[0][1]
    assert u * v == e11 and v * u == e22
    assert wit.us[0][0] == e11 and wit.vs[0][0] == e11


def test_iso_witnesses_nsy():
    nsy = nsy_algebra(1, 2, (2,))
    dec = canonical_decomposition(nsy.algebra)
    wit = iso_witnesses(nsy.algebra, dec)
    # product rule oracle: X[0,0;0,1] * X[0,0;1,0] = X[0,0;0,0]
    a = nsy.algebra.basis_element(nsy.x(0, 0, 0, 1))
    b = nsy.algebra.basis_element(nsy.x(0, 0, 1, 0))
    assert a * b == nsy.algebra.basis_element(nsy.x(0, 0, 0, 0))
    for i, cls in enumerate(dec.classes):
        for s in range(len(cls)):
            assert wit.us[i][s] * wit.vs[i][s] == cls[0]
            assert wit.vs[i][s] * wit.us[i][s] == cls[s]


def test_witnesses_on_permuted_presentation():
    rng = random.Random(31)
    A = nsy_algebra(2, 2, (2, 2)).algebra
    perm = list(range(A.dim))
    rng.shuffle(perm)
    palg = permute_basis(A, perm)
    dec = canonical_decomposition(palg)
    wit = iso_witnesses(palg, dec)
    for i, cls in enumerate(dec.classes):
        for s in range(len(cls)):
            assert wit.us[i][s] * wit.vs[i][s] == cls[0]
            assert wit.vs[i][s] * wit.us[i][s] == cls[s]
