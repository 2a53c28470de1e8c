import random

import pytest

import dense_reference as dense
from sialg import frobenius
from sialg.algebra import Functional, apply_functional, is_invariant
from sialg.errors import BadParams, NotFrobenius, NotInvertible, SingularGram
from sialg.families import (
    corpus,
    field_product_algebra,
    group_algebra,
    matrix_algebra,
    nakayama_algebra,
    path_algebra_a2,
)
from sialg.fields import Field, QQ
from sialg.frobenius import (
    FrobeniusPair,
    dual_basis_tensor,
    frobenius_pair,
    gram_matrix,
    is_unit,
    transport_pair,
    verify_frobenius_pair,
)
from sialg.linalg import Matrix
from sialg.pipeline import analyze
from sialg.verify import CorpusCache, _basic_contexts
from sialg.structure import (
    NakayamaData,
    PeirceCorners,
    annihilator,
    canonical_decomposition,
    nakayama,
    radical,
)


def _setup(alg):
    rad = radical(alg)
    corners = PeirceCorners(alg, canonical_decomposition(alg, rad=rad).reps)
    return corners, nakayama(corners, rad), rad


def _small_spaces(corners, nak):
    """The small space of each class i, as frobenius_pair reads it: the
    socle nak.socles[nu^-1(i)]."""
    return [nak.socles[nak.nu_inverse(i)] for i in range(len(corners.reps))]


def test_small_spaces_kx2():
    A = nakayama_algebra(1, 2)
    corners, nak, rad = _setup(A)
    small = _small_spaces(corners, nak)
    assert small == dense.small_spaces_reference(corners, nak, rad)
    assert [len(b) for b in small] == [1]
    assert small[0][0].coeffs == {1: QQ(1)}  # spanned by x


def test_small_spaces_b22():
    B = nakayama_algebra(2, 2)
    corners, nak, rad = _setup(B)
    small = _small_spaces(corners, nak)
    assert small == dense.small_spaces_reference(corners, nak, rad)
    assert [len(b) for b in small] == [1, 1]
    for basis in small:
        (idx,) = basis[0].coeffs
        assert idx % 2 == 1  # the length-1 socle paths


def test_small_spaces_semisimple_whole_corner():
    # M's basic reduction is the corner e11 M e11; J = 0 there, so its
    # small space is the whole one-dimensional corner
    a = analyze(matrix_algebra(2))
    small = _small_spaces(a.corners, a.nak)
    assert small == dense.small_spaces_reference(a.corners, a.nak, radical(a.lam))
    assert [len(b) for b in small] == [1]
    assert small[0][0].coeffs == a.corners.bases[(0, 0)][0].coeffs


def test_construct_counit_kx2():
    A = nakayama_algebra(1, 2)
    corners, nak, rad = _setup(A)
    eps = frobenius_pair(corners, nak).epsilon
    assert eps.values == (QQ(0), QQ(1))


def test_construct_counit_bnl_socle_paths():
    for n, l in ((2, 2), (3, 2), (2, 3)):
        B = nakayama_algebra(n, l, QQ)
        corners, nak, rad = _setup(B)
        eps = frobenius_pair(corners, nak).epsilon
        for i in range(n):
            for k in range(l):
                expected = QQ(1) if k == l - 1 else QQ(0)
                assert eps.values[i * l + k] == expected
        assert len(gram_matrix(B, eps).rref()[1]) == B.dim


def test_construct_counit_product():
    P = field_product_algebra(2)
    corners, nak, rad = _setup(P)
    eps = frobenius_pair(corners, nak).epsilon
    assert eps.values == (QQ(1), QQ(1))


def test_dual_basis_tensor_examples():
    A = nakayama_algebra(1, 2)
    corners, nak, rad = _setup(A)
    eps = frobenius_pair(corners, nak).epsilon
    y = dual_basis_tensor(A, eps)
    assert y.coeffs == {(0, 1): QQ(1), (1, 0): QQ(1)}
    one_dim = field_product_algebra(1)
    y1 = dual_basis_tensor(one_dim, Functional(one_dim, [1]))
    assert y1.coeffs == {(0, 0): QQ(1)}


def test_dual_basis_tensor_b22_reference_value():
    B = nakayama_algebra(2, 2)
    corners, nak, rad = _setup(B)
    pair = frobenius_pair(corners, nak)
    idx = {(i, k): i * 2 + k for i in range(2) for k in range(2)}
    expected = {
        (idx[(0, 0)], idx[(1, 1)]): QQ(1),
        (idx[(0, 1)], idx[(0, 0)]): QQ(1),
        (idx[(1, 0)], idx[(0, 1)]): QQ(1),
        (idx[(1, 1)], idx[(1, 0)]): QQ(1),
    }
    assert pair.y.coeffs == expected


def test_dual_basis_tensor_singular_gram(monkeypatch):
    A = nakayama_algebra(1, 2)
    with pytest.raises(SingularGram):
        dual_basis_tensor(A, Functional(A, [1, 0]))
    # only a singular Gram matrix is reported as one: an error from a bad
    # scalar inside the inversion propagates unchanged
    monkeypatch.setattr(
        frobenius, "gram_matrix", lambda lam, eps: Matrix(lam.field, [{0: "x"}], 1)
    )
    with pytest.raises(TypeError):
        dual_basis_tensor(A, Functional(A, [0, 1]))


def test_pair_core_laws_across_corpus():
    for alg in (
        nakayama_algebra(2, 3),
        nakayama_algebra(3, 2),
        group_algebra([2], Field(2)),
        group_algebra([3], Field(3)),
        field_product_algebra(2),
    ):
        corners, nak, rad = _setup(alg)
        pair = frobenius_pair(corners, nak)
        assert is_invariant(pair.y) is None
        assert apply_functional("left", pair.epsilon, pair.y) == alg.unit
        assert apply_functional("right", pair.epsilon, pair.y) == alg.unit
        rep = verify_frobenius_pair(corners, pair, nak)
        assert rep.all_ok


def test_verify_detects_corrupted_counit():
    B = nakayama_algebra(3, 2)
    corners, nak, rad = _setup(B)
    pair = frobenius_pair(corners, nak)
    # move mass onto a diagonal corner e_i L e_i, which is forbidden since
    # the permutation has no fixed point here
    values = list(pair.epsilon.values)
    values[0] = QQ(1)
    bad = FrobeniusPair(Functional(B, values), pair.y)
    rep = verify_frobenius_pair(corners, bad, nak)
    assert not rep.support_ok
    assert rep.support_witness is not None
    # zero eps on the small space of class 1, the socle of nu^-1(1): the
    # pairing there degenerates, and class 1 is the witness
    B = nakayama_algebra(2, 2)
    corners, nak, rad = _setup(B)
    pair = frobenius_pair(corners, nak)
    [z] = nak.socles[nak.nu_inverse(1)]
    [t] = z.coeffs
    values = list(pair.epsilon.values)
    values[t] = QQ(0)
    rep = verify_frobenius_pair(corners, FrobeniusPair(Functional(B, values), pair.y), nak)
    assert rep.support_ok and rep.block_ok
    assert not rep.small_ok and rep.small_witness == 1
    assert not rep.all_ok


def test_transport_identity_and_kx2():
    A = nakayama_algebra(1, 2)
    corners, nak, rad = _setup(A)
    pair = frobenius_pair(corners, nak)
    same = transport_pair(A, pair, A.unit)
    assert same.epsilon == pair.epsilon and same.y == pair.y
    moved = transport_pair(A, pair, A.element([1, 1]))
    assert moved.epsilon.values == (QQ(1), QQ(1))
    with pytest.raises(NotInvertible):
        transport_pair(A, pair, A.basis_element(1))


def test_transport_matches_per_basis_reference():
    # transport_pair reads eps(b_a b) off the Gram rows of eps and is_unit
    # takes the columns b . e_t from one products walk; the per-basis route
    # gives the same verdict and the same pair for seeded draws, units of
    # the diagonal corner sum and arbitrary elements, on every basic
    # standard-corpus algebra
    compared = refused = 0
    for idx, entry, ctx in _basic_contexts(CorpusCache("standard")):
        corners, pair = ctx.analysis.corners, ctx.pair
        lam, field = corners.alg, corners.alg.field
        rng = random.Random(1000 + idx)
        draws = [dense.random_corner_diagonal_unit(corners, rng) for _ in range(2)] + [
            lam.element({i: field.random(rng, -1, 1) for i in range(lam.dim)}) for _ in range(4)
        ]
        for b in draws:
            want_unit = dense.rank(field, dense.left_multiplication(b)) == lam.dim
            assert is_unit(lam, b) == want_unit, entry.key
            if not want_unit:
                with pytest.raises(NotInvertible):
                    transport_pair(lam, pair, b)
                with pytest.raises(NotInvertible):
                    dense.transport_pair_reference(lam, pair, b)
                refused += 1
                continue
            got, want = transport_pair(lam, pair, b), dense.transport_pair_reference(lam, pair, b)
            assert got.epsilon == want.epsilon and got.y == want.y, entry.key
            compared += 1
    assert (compared, refused) == (45, 21)


def test_corner_diagonal_transports_preserve_support():
    # transports by units inside the sum of diagonal corners keep both
    # support clauses; this is the support-stable transport subgroup
    rng = random.Random(17)
    for alg in (nakayama_algebra(2, 3), nakayama_algebra(3, 2), nakayama_algebra(2, 2)):
        corners, nak, rad = _setup(alg)
        pair = frobenius_pair(corners, nak)
        for _ in range(6):
            b = dense.random_corner_diagonal_unit(corners, rng)
            pair = transport_pair(alg, pair, b)
            rep = verify_frobenius_pair(corners, pair, nak)
            assert rep.all_ok


def test_offdiagonal_transport_breaks_support_finding():
    # documented exact counterexample: transporting by the unipotent unit
    # 1 + p[0,1] yields a genuine pair (invariant tensor, exact counit
    # identities) that violates both support clauses
    B = nakayama_algebra(2, 2)
    corners, nak, rad = _setup(B)
    pair = frobenius_pair(corners, nak)
    b = B.unit + B.basis_element(1)  # 1 + p[0,1]
    moved = transport_pair(B, pair, b)
    assert is_invariant(moved.y) is None
    assert apply_functional("left", moved.epsilon, moved.y) == B.unit
    assert apply_functional("right", moved.epsilon, moved.y) == B.unit
    rep = verify_frobenius_pair(corners, moved, nak)
    assert rep.invariant and rep.counital
    assert not rep.support_ok and rep.support_witness == (0, 0)
    # the lowest offending corner quadruple (j, i, u, v)
    assert not rep.block_ok and rep.block_witness == (0, 1, 1, 0)


def test_uniqueness_up_to_transport():
    rng = random.Random(19)
    for alg in (nakayama_algebra(2, 2), nakayama_algebra(1, 3)):
        corners, nak, rad = _setup(alg)
        pair = frobenius_pair(corners, nak)
        b0 = dense.random_corner_diagonal_unit(corners, rng)
        other = transport_pair(alg, pair, b0)
        # recover the transport element from the two counits: G b = eps'
        sparse = gram_matrix(alg, pair.epsilon)
        gram = dense.densify(alg.field, sparse.rows, sparse.ncols)
        assert dense.kernel(alg.field, gram, alg.dim) == []
        b = alg.element(dense.solve(alg.field, gram, other.epsilon.values, alg.dim))
        assert dense.rank(alg.field, dense.left_multiplication(b)) == alg.dim
        again = transport_pair(alg, pair, b)
        assert again.epsilon == other.epsilon and again.y == other.y


def _a2_nakayama(nu):
    """A2's corners and radical, and in place of the Nakayama data it has
    none of, nu with the corner elements (k, nu(k)) killed by J on both
    sides as the socles, the small spaces frobenius_pair reads."""
    a2 = path_algebra_a2()
    rad = radical(a2)
    corners = PeirceCorners(a2, canonical_decomposition(a2, rad=rad).reps)
    socles = [
        annihilator(a2, corners.bases[(k, v)], rad.basis, rad.basis) for k, v in enumerate(nu)
    ]
    return corners, NakayamaData(nu, socles), rad


def test_not_frobenius_on_a2():
    for nu in ((0, 1), (1, 0)):
        corners, nak, _ = _a2_nakayama(nu)
        # J kills no diagonal corner element on both sides, so only the
        # swap gives a nonzero candidate counit
        assert any(nak.socles) == (nu == (1, 0))
        with pytest.raises(NotFrobenius):
            frobenius_pair(corners, nak)


def _pair_or_refusal(build, *args):
    try:
        pair = build(*args)
    except NotFrobenius as exc:
        return str(exc)
    return pair.epsilon, pair.y


# the basic algebra of every standard-corpus entry, and the group algebras
# of the sweep-gfp benchmark, the refused GF(2)[C3 x C3] included
_PAIR_INPUTS = [(e.key, e.algebra) for e in corpus("standard")] + [
    (f"group {list(factors)} gf{p}", group_algebra(factors, Field(p)))
    for p in (2, 3)
    for factors in ((2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2))
]


@pytest.mark.parametrize(
    "alg", [alg for _, alg in _PAIR_INPUTS], ids=[key for key, _ in _PAIR_INPUTS]
)
def test_frobenius_pair_matches_two_pass_reference(alg):
    # one Gram inversion per attempt accepts the attempt a rank test would
    # and reads the small spaces off the socles: the reference takes them
    # by the two-sided annihilator
    analysis = analyze(alg)
    corners, nak = analysis.corners, analysis.nak
    assert _pair_or_refusal(frobenius_pair, corners, nak) == _pair_or_refusal(
        dense.frobenius_pair_reference, corners, nak, radical(analysis.lam)
    )


def test_frobenius_pair_matches_two_pass_reference_on_a2():
    for nu in ((0, 1), (1, 0)):
        corners, nak, rad = _a2_nakayama(nu)
        got = _pair_or_refusal(frobenius_pair, corners, nak)
        assert got == _pair_or_refusal(dense.frobenius_pair_reference, corners, nak, rad)
        assert got.startswith("no counit with the required corner support")


def test_pair_json_round_trip():
    B = nakayama_algebra(2, 2)
    corners, nak, rad = _setup(B)
    pair = frobenius_pair(corners, nak)
    data = pair.to_json()
    back = FrobeniusPair.from_json(B, data)
    assert back.epsilon == pair.epsilon and back.y == pair.y


@pytest.mark.parametrize("data, message", [
    ("xy", "must be an object, got str"),
    ({"epsilon": ["0", "1"]}, r"needs the keys \['y'\]"),
    ({"epsilon": ["0", "1"], "y": [[0, 1]]}, "malformed tensor JSON: not enough values"),
    ({"epsilon": ["0", "1"], "y": [[0, 1, "1", "x"]]}, "malformed tensor JSON: too many values"),
    ({"epsilon": ["0", "1"], "y": [[0, 0, None]]}, "malformed tensor JSON"),
    ({"epsilon": ["0", "1"], "y": [7]}, "malformed tensor JSON"),
    ({"epsilon": [None, "1"], "y": []}, "malformed functional JSON"),
    ({"epsilon": [[1], "0"], "y": []}, "malformed functional JSON"),
])
def test_pair_json_malformed_refused(data, message):
    # each of these once escaped as a bare TypeError, KeyError or ValueError
    with pytest.raises(BadParams, match=message):
        FrobeniusPair.from_json(nakayama_algebra(1, 2), data)
