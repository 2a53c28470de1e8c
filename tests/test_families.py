from functools import partial
from itertools import product as iter_product

import pytest

import dense_reference as dense
from sialg.algebra import (
    act_left,
    check_associativity,
    check_unit,
    is_invariant,
    multiply,
    right_images,
)
from sialg.amplify import amplify
from sialg.errors import BadParams
from sialg.families import (
    STANDARD_NSY_SHAPES,
    corpus,
    field_product_algebra,
    group_algebra,
    matrix_algebra,
    nakayama_algebra,
    nsy_algebra,
    reference_delta_one,
)
from sialg.fields import Field, QQ
from sialg.structure import PeirceCorners, canonical_decomposition, nakayama, radical


def test_nakayama_algebra_examples():
    kx2 = nakayama_algebra(1, 2)
    assert kx2.dim == 2
    x = kx2.basis_element(1)
    assert not multiply(x, x)
    k = nakayama_algebra(1, 1)
    assert k.dim == 1 and k.unit == k.basis_element(0)
    B = nakayama_algebra(2, 2)
    assert B.dim == 4
    nak = nakayama(PeirceCorners(B, canonical_decomposition(B).reps), radical(B))
    assert sorted(nak.nu) == [0, 1] and nak.nu != (0, 1)  # the transposition


# the generators emit only the nonzero products; the d^2 scans of the
# reference give the same algebra, down to the order of its products
_GENERATOR_GRID = (
    [("nakayama", n, l) for n in range(1, 5) for l in range(1, 5)]
    + [
        ("nsy", n, l, m)
        for n in range(1, 4)
        for l in range(1, 5)
        for m in iter_product((1, 2, 3), repeat=n)
    ]
    + [("nsy", 4, l, m) for l in range(1, 5) for m in ((1, 1, 2, 3), (3, 3, 3, 3))]
    + [("matrix", size) for size in range(1, 6)]
)


def test_generators_match_pair_scan():
    builds = {
        "nakayama": (nakayama_algebra, dense.nakayama_algebra_reference),
        "nsy": (lambda *a: nsy_algebra(*a).algebra, dense.nsy_algebra_reference),
        "matrix": (matrix_algebra, dense.matrix_algebra_reference),
    }
    compared = 0
    for field in (QQ, Field(101)):
        for kind, *args in _GENERATOR_GRID:
            build, reference = builds[kind]
            assert build(*args, field).to_json() == reference(*args, field).to_json(), args
            compared += 1
    assert compared == 370


def test_nsy_dimension_and_cases():
    assert nsy_algebra(1, 1, (3,)).algebra.dim == 9  # full matrix algebra
    nsy = nsy_algebra(2, 2, (1, 2))
    assert nsy.algebra.dim == 9
    assert dense.structure_equal(nsy_algebra(2, 3, (1, 1)).algebra, nakayama_algebra(2, 3))


@pytest.mark.parametrize("n, l, m", [(2, 0, (1, 1)), (2, -1, (1, 1)), (0, 2, ())])
def test_nsy_bad_shape_refused(n, l, m):
    # l = 0 has no paths to index, so the unit lookup used to raise KeyError
    with pytest.raises(BadParams, match="need n >= 1 and l >= 1"):
        nsy_algebra(n, l, m)


def test_nsy_m_one_equals_nakayama():
    for n, l in ((1, 2), (2, 2), (3, 2), (2, 3)):
        nsy = nsy_algebra(n, l, (1,) * n)
        B = nakayama_algebra(n, l)
        # identical structure up to labelling (indices align by construction)
        assert dense.structure_equal(nsy.algebra, B)


def _nsy_cases():
    """(family, build from the field, nsy shape, labels in basis order) for
    the cyclic Nakayama, matrix and field-product generators."""
    for n in range(1, 5):
        for l in range(1, 5):
            labels = [f"p[{i},{k}]" for i in range(n) for k in range(l)]
            yield "nakayama", partial(nakayama_algebra, n, l), (n, l, (1,) * n), labels
    for size in range(1, 6):
        labels = [f"E[{u},{v}]" for u in range(1, size + 1) for v in range(1, size + 1)]
        yield "matrix", partial(matrix_algebra, size), (1, 1, (size,)), labels
    for copies in range(1, 6):
        labels = [f"e[{i}]" for i in range(1, copies + 1)]
        yield "product", partial(field_product_algebra, copies), (copies, 1, (1,) * copies), labels


@pytest.mark.parametrize("field", [QQ, Field(2), Field(101)], ids=["QQ", "GF2", "GF101"])
def test_cyclic_nakayama_families_are_nsy_tables(field):
    # each generator reads the nsy table and keeps its own labels: the rows
    # (each product's entries in emitted order), the unit and the basis
    # order equal the table's, and only the labels differ
    compared = 0
    for kind, build, shape, labels in _nsy_cases():
        alg, table = build(field), nsy_algebra(*shape, field).algebra
        assert alg.field == table.field and alg.dim == table.dim == len(labels), (kind, shape)
        assert repr(alg.rows) == repr(table.rows), (kind, shape)
        assert alg.unit.coeffs == table.unit.coeffs, (kind, shape)
        assert list(alg.labels) == labels, (kind, shape)
        compared += 1
    assert compared == 16 + 5 + 5


@pytest.mark.parametrize("field", [QQ, Field(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("build, message", [
    (lambda f: nakayama_algebra(0, 2, f), "need n >= 1 and l >= 1"),
    (lambda f: nakayama_algebra(2, 0, f), "need n >= 1 and l >= 1"),
    (lambda f: matrix_algebra(0, f), "size must be >= 1"),
    (lambda f: matrix_algebra(-2, f), "size must be >= 1"),
    (lambda f: field_product_algebra(0, f), "copies must be >= 1"),
    (lambda f: field_product_algebra(-1, f), "copies must be >= 1"),
], ids=["nakayama-n0", "nakayama-l0", "matrix-0", "matrix-neg", "product-0", "product-neg"])
def test_cyclic_nakayama_family_messages(field, build, message):
    with pytest.raises(BadParams) as info:
        build(field)
    assert str(info.value) == message


def _model_index_map(amp, nsy):
    out = {}
    for a, (i, j, s, t, b) in enumerate(amp.tuples):
        q = amp.corners.bases[(j, i)][b]
        (path_idx,) = q.coeffs
        pi, pk = divmod(path_idx, nsy.l)
        out[a] = nsy.x(pi, pk, t - 1, s - 1)
    return out


@pytest.mark.parametrize("n,l,m", [(1, 2, (2,)), (2, 2, (1, 2)), (2, 2, (2, 2)),
                                   (3, 2, (2, 1, 1)), (2, 3, (2, 2))])
def test_nsy_isomorphic_to_amplified_nakayama(n, l, m):
    # the primary certificate that the four-index product rule matches the
    # endomorphism composition: structure constants agree entrywise under
    # X[i,k;r,s] <-> (p[i,k]) placed in copies (r+1 <- s+1)
    nsy = nsy_algebra(n, l, m)
    B = nakayama_algebra(n, l)
    dec = canonical_decomposition(B)
    amp = amplify(PeirceCorners(B, dec.reps), m)
    assert amp.algebra.dim == nsy.algebra.dim
    emap = _model_index_map(amp, nsy)
    assert sorted(emap.values()) == list(range(nsy.algebra.dim))
    for a in range(amp.algebra.dim):
        for b in range(amp.algebra.dim):
            got = {emap[k]: c for k, c in amp.algebra.rows[a].get(b, {}).items()}
            assert got == nsy.algebra.rows[emap[a]].get(emap[b], {})
    unit_mapped = {emap[k]: c for k, c in amp.algebra.unit.coeffs.items()}
    assert unit_mapped == dict(nsy.algebra.unit.coeffs)


def test_reference_delta_one_examples():
    kx2 = nsy_algebra(1, 2, (1,))
    y = reference_delta_one(kx2)
    assert y.coeffs == {(0, 1): QQ(1), (1, 0): QQ(1)}
    b22 = nsy_algebra(2, 2, (1, 1))
    y22 = reference_delta_one(b22)
    expected = {
        (b22.x(0, 0, 0, 0), b22.x(1, 1, 0, 0)): QQ(1),
        (b22.x(0, 1, 0, 0), b22.x(0, 0, 0, 0)): QQ(1),
        (b22.x(1, 0, 0, 0), b22.x(0, 1, 0, 0)): QQ(1),
        (b22.x(1, 1, 0, 0), b22.x(1, 0, 0, 0)): QQ(1),
    }
    assert y22.coeffs == expected
    mat = nsy_algebra(1, 1, (3,))
    ym = reference_delta_one(mat)
    assert ym.coeffs == {
        (mat.x(0, 0, r, 0), mat.x(0, 0, 0, r)): QQ(1) for r in range(3)
    }


@pytest.mark.parametrize("n,l,m", [(1, 2, (2,)), (2, 2, (1, 2)), (2, 3, (1, 2)),
                                   (3, 2, (2, 1, 1)), (3, 3, (1, 2, 3))])
def test_reference_delta_one_invariant(n, l, m):
    nsy = nsy_algebra(n, l, m)
    assert is_invariant(reference_delta_one(nsy)) is None


def test_right_multiplication_identity():
    nsy = nsy_algebra(2, 3, (1, 2))
    alg = nsy.algebra
    l = nsy.l
    delta1 = reference_delta_one(nsy)
    images = right_images(delta1)
    for (i, j, r, s), idx in nsy.index.items():
        expected = dense.tensor2(
            alg,
            {
                (nsy.x(i, k, r, 0), nsy.x(i + k - l + 1, l - 1 - k + j, 0, s)): 1
                for k in range(j, l)
            }
        )
        # the library's t . b_g and the term-by-term reference
        assert images[idx] == expected.coeffs
        assert dense.act_right(delta1, alg.basis_element(idx)) == expected.coeffs


def test_left_multiplication_identity():
    nsy = nsy_algebra(3, 2, (2, 1, 1))
    alg = nsy.algebra
    l = nsy.l
    delta1 = reference_delta_one(nsy)
    for (i, j, r, s), idx in nsy.index.items():
        got = act_left(alg.basis_element(idx), delta1)
        expected = dense.tensor2(
            alg,
            {
                (nsy.x(i, kp + j, r, 0), nsy.x(i + kp + j - l + 1, l - 1 - kp, 0, s)): 1
                for kp in range(l - j)
            }
        )
        assert got == expected


def test_group_algebra_c2_mod2():
    g = group_algebra([2], Field(2))
    # explicit isomorphism with GF(2)[x]/(x^2) via g -> 1 + x
    kx2 = nakayama_algebra(1, 2, Field(2))
    one2 = Field(2).one
    images = {0: kx2.unit, 1: kx2.element([one2, one2])}
    for a in range(2):
        for b in range(2):
            prod = multiply(g.basis_element(a), g.basis_element(b))
            mapped = kx2.zero()
            for k, c in prod.coeffs.items():
                mapped = mapped + images[k].scaled(c)
            assert mapped == multiply(images[a], images[b])


def test_group_algebra_c2_rational_semisimple():
    g = group_algebra([2])
    assert radical(g).dim == 0
    dec = canonical_decomposition(g)
    assert dec.n == 2 and dec.multiplicities == (1, 1)


def test_group_algebra_c3_mod3_local():
    g = group_algebra([3], Field(3))
    r = radical(g)
    _, index = dense.radical_checks(g, [b.coeffs for b in r.basis])
    assert r.dim == 2 and index == 3
    dec = canonical_decomposition(g, rad=r)
    assert dec.n == 1 and dec.multiplicities == (1,)


def test_group_algebra_multi_factor():
    g = group_algebra([2, 2])
    assert g.dim == 4
    assert g.is_commutative()
    assert check_associativity(g) is None


def test_corpus_small_size_and_contract():
    entries = corpus("small")
    assert len(entries) == 14
    for entry in entries:
        assert check_associativity(entry.algebra) is None
        assert check_unit(entry.algebra) is None


def test_corpus_standard_size_and_bounds():
    # the generators do not check themselves: analyze validates its input
    entries = corpus("standard")
    assert len(entries) == 86
    for entry in entries:
        assert check_associativity(entry.algebra) is None, entry.key
        assert check_unit(entry.algebra) is None, entry.key
    dims = [e.algebra.dim for e in entries]
    assert max(dims) == 81 <= 3 * 3 * 9
    keys = [e.key for e in entries]
    assert len(set(keys)) == len(keys)
    with pytest.raises(BadParams):
        corpus("huge")


def _gfp_sweep_inputs():
    # the inputs of the benchmark's GF(p) sweep: nsy shapes over GF(101)
    # and modular group algebras over GF(2) and GF(3)
    for n, l in STANDARD_NSY_SHAPES:
        for m in iter_product(range(1, 4), repeat=n):
            yield f"nsy {n} {l} {m}", nsy_algebra(n, l, m, Field(101)).algebra
    for p in (2, 3):
        for factors in ((2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2)):
            yield f"group {factors} mod {p}", group_algebra(factors, Field(p))


def test_gfp_sweep_inputs_contract():
    count = 0
    for key, alg in _gfp_sweep_inputs():
        assert check_associativity(alg) is None, key
        assert check_unit(alg) is None, key
        count += 1
    assert count == 81 + 12


def _amplify_b22(m):
    B = nakayama_algebra(2, 2)
    return amplify(PeirceCorners(B, canonical_decomposition(B).reps), m)


@pytest.mark.parametrize("build", [
    lambda: nsy_algebra(1, 2, (1.9,)),
    lambda: nsy_algebra(2, 2, (1, True)),
    lambda: group_algebra((2.7,), Field(3)),
    lambda: group_algebra(("3",)),
    lambda: _amplify_b22((1.5, True)),
], ids=["nsy-float", "nsy-bool", "group-float", "group-str", "amplify-float-bool"])
def test_non_integer_multiplicities_refused(build):
    # int() would truncate 1.9 to 1 and read "3" or True as a size
    with pytest.raises(BadParams):
        build()
