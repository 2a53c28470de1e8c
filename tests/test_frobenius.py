import random

import pytest

import dense_reference as dense
from sialg import frobenius
from sialg.algebra import Functional, apply_functional, is_invariant, multiply
from sialg.errors import NotFrobenius, NotInvertible, SingularGram
from sialg.families import (
    field_product_algebra,
    group_algebra,
    matrix_algebra,
    nakayama_algebra,
    path_algebra_a2,
)
from sialg.fields import Field, QQ
from sialg.frobenius import (
    FrobeniusPair,
    construct_counit,
    dual_basis_tensor,
    frobenius_pair,
    gram_matrix,
    small_spaces,
    transport_pair,
    verify_frobenius_pair,
)
from sialg.linalg import Matrix
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
    nak = nakayama(alg, dec, rad)
    return dec, nak, rad


def test_small_spaces_kx2():
    A = nakayama_algebra(1, 2)
    dec, nak, rad = _setup(A)
    small = small_spaces(PeirceCorners(A, dec.reps), nak, rad)
    assert small.dims() == [1]
    assert small.bases[0][0].coeffs == {1: QQ(1)}  # spanned by x


def test_small_spaces_b22():
    B = nakayama_algebra(2, 2)
    dec, nak, rad = _setup(B)
    small = small_spaces(PeirceCorners(B, dec.reps), nak, rad)
    assert small.dims() == [1, 1]
    for basis in small.bases:
        (idx,) = basis[0].coeffs
        assert idx % 2 == 1  # the length-1 socle paths


def test_small_spaces_semisimple_whole_corner():
    M = matrix_algebra(2)
    dec, nak, rad = _setup(M)
    small = small_spaces(PeirceCorners(M, dec.reps), nak, rad)
    assert small.dims() == [1]  # corner e11 M e11, J = 0


def test_construct_counit_kx2():
    A = nakayama_algebra(1, 2)
    dec, nak, rad = _setup(A)
    eps = construct_counit(A, dec, nak)
    assert eps.values == (QQ(0), QQ(1))


def test_construct_counit_bnl_socle_paths():
    for n, l in ((2, 2), (3, 2), (2, 3)):
        B = nakayama_algebra(n, l, QQ)
        dec, nak, rad = _setup(B)
        eps = construct_counit(B, dec, nak)
        for i in range(n):
            for k in range(l):
                expected = QQ(1) if k == l - 1 else QQ(0)
                assert eps.values[i * l + k] == expected
        assert gram_matrix(B, eps).rank() == B.dim


def test_construct_counit_product():
    P = field_product_algebra(2)
    dec, nak, rad = _setup(P)
    eps = construct_counit(P, dec, nak)
    assert eps.values == (QQ(1), QQ(1))


def test_dual_basis_tensor_examples():
    A = nakayama_algebra(1, 2)
    dec, nak, rad = _setup(A)
    eps = construct_counit(A, dec, nak)
    y = dual_basis_tensor(A, eps)
    assert y.coeffs == {(0, 1): QQ(1), (1, 0): QQ(1)}
    one_dim = field_product_algebra(1)
    y1 = dual_basis_tensor(one_dim, Functional(one_dim, [1]))
    assert y1.coeffs == {(0, 0): QQ(1)}


def test_dual_basis_tensor_b22_reference_value():
    B = nakayama_algebra(2, 2)
    dec, nak, rad = _setup(B)
    pair = frobenius_pair(B, dec, nak)
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
    monkeypatch.setattr(frobenius, "gram_matrix", lambda lam, eps: Matrix(lam.field, [["x"]]))
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
        dec, nak, rad = _setup(alg)
        pair = frobenius_pair(alg, dec, nak)
        assert is_invariant(pair.y) is None
        assert apply_functional("left", pair.epsilon, pair.y) == alg.unit
        assert apply_functional("right", pair.epsilon, pair.y) == alg.unit
        rep = verify_frobenius_pair(alg, pair, dec, nak, rad)
        assert rep.all_ok


def test_verify_detects_corrupted_counit():
    B = nakayama_algebra(3, 2)
    dec, nak, rad = _setup(B)
    pair = frobenius_pair(B, dec, nak)
    # move mass onto a diagonal corner e_i L e_i, which is forbidden since
    # the permutation has no fixed point here
    values = list(pair.epsilon.values)
    values[0] = QQ(1)
    bad = FrobeniusPair(Functional(B, values), pair.y)
    rep = verify_frobenius_pair(B, bad, dec, nak, rad)
    assert not rep.support_ok
    assert rep.support_witness is not None


def test_transport_identity_and_kx2():
    A = nakayama_algebra(1, 2)
    dec, nak, rad = _setup(A)
    pair = frobenius_pair(A, dec, nak)
    same = transport_pair(A, pair, A.unit)
    assert same.epsilon == pair.epsilon and same.y == pair.y
    moved = transport_pair(A, pair, A.element([1, 1]))
    assert moved.epsilon.values == (QQ(1), QQ(1))
    with pytest.raises(NotInvertible):
        transport_pair(A, pair, A.basis_element(1))


def _random_corner_diagonal_unit(alg, dec, rng):
    """Invertible element supported on the diagonal corners e_i A e_i."""
    field = alg.field
    while True:
        b = alg.zero()
        for rep in dec.reps:
            corner = multiply(multiply(rep, _random_el(alg, rng)), rep)
            b = b + rep + corner.scaled(field.random(rng, -2, 2))
        if dense.rank(field, dense.left_multiplication(b)) == alg.dim:
            return b


def _random_el(alg, rng):
    return alg.element({i: alg.field.random(rng, -2, 2) for i in range(alg.dim)})


def test_corner_diagonal_transports_preserve_support():
    # transports by units inside the sum of diagonal corners keep both
    # support clauses; this is the support-stable transport subgroup
    rng = random.Random(17)
    for alg in (nakayama_algebra(2, 3), nakayama_algebra(3, 2), nakayama_algebra(2, 2)):
        dec, nak, rad = _setup(alg)
        pair = frobenius_pair(alg, dec, nak)
        for _ in range(6):
            b = _random_corner_diagonal_unit(alg, dec, rng)
            pair = transport_pair(alg, pair, b)
            rep = verify_frobenius_pair(alg, pair, dec, nak, rad)
            assert rep.all_ok


def test_offdiagonal_transport_breaks_support_finding():
    # documented exact counterexample: transporting by the unipotent unit
    # 1 + p[0,1] yields a genuine pair (invariant tensor, exact counit
    # identities) that violates both support clauses
    B = nakayama_algebra(2, 2)
    dec, nak, rad = _setup(B)
    pair = frobenius_pair(B, dec, nak)
    b = B.unit + B.basis_element(1)  # 1 + p[0,1]
    moved = transport_pair(B, pair, b)
    assert is_invariant(moved.y) is None
    assert apply_functional("left", moved.epsilon, moved.y) == B.unit
    assert apply_functional("right", moved.epsilon, moved.y) == B.unit
    rep = verify_frobenius_pair(B, moved, dec, nak, rad)
    assert rep.invariant and rep.counital
    assert not rep.support_ok and rep.support_witness == (0, 0)
    # the lowest offending corner quadruple (j, i, u, v)
    assert not rep.block_ok and rep.block_witness == (0, 1, 1, 0)


def test_uniqueness_up_to_transport():
    rng = random.Random(19)
    for alg in (nakayama_algebra(2, 2), nakayama_algebra(1, 3)):
        dec, nak, rad = _setup(alg)
        pair = frobenius_pair(alg, dec, nak)
        b0 = _random_corner_diagonal_unit(alg, dec, rng)
        other = transport_pair(alg, pair, b0)
        # recover the transport element from the two counits: G b = eps'
        gram = gram_matrix(alg, pair.epsilon).rows
        assert dense.kernel(alg.field, gram, alg.dim) == []
        b = alg.element(dense.solve(alg.field, gram, other.epsilon.values, alg.dim))
        assert dense.rank(alg.field, dense.left_multiplication(b)) == alg.dim
        again = transport_pair(alg, pair, b)
        assert again.epsilon == other.epsilon and again.y == other.y


def test_not_frobenius_on_a2():
    a2 = path_algebra_a2()
    dec = canonical_decomposition(a2)
    for nu in ((0, 1), (1, 0)):
        with pytest.raises(NotFrobenius):
            construct_counit(a2, dec, NakayamaData(nu, [[], []]))


def test_pair_json_round_trip():
    B = nakayama_algebra(2, 2)
    dec, nak, rad = _setup(B)
    pair = frobenius_pair(B, dec, nak)
    data = pair.to_json()
    back = FrobeniusPair.from_json(B, data)
    assert back.epsilon == pair.epsilon and back.y == pair.y
