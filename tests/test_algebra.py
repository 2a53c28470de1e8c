import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

import dense_reference as dense
from sialg import algebra
from sialg.algebra import (
    FinDimAlgebra,
    Functional,
    Tensor2,
    act_left,
    apply_functional,
    check_associativity,
    check_coassociativity,
    check_unit,
    delta_rank,
    is_invariant,
    minimal_polynomial,
    multiply,
    permute_basis,
    products,
    right_images,
)
from sialg.amplify import PRESETS
from sialg.errors import BadParams, DimensionMismatch, InvalidAlgebra
from sialg.families import (
    corpus,
    group_algebra,
    matrix_algebra,
    nakayama_algebra,
    nsy_algebra,
    path_algebra_a2,
)
from sialg.fields import QQ, Field
from sialg.pipeline import prepare, run_spec
from sialg.structure import PeirceCorners, canonical_decomposition


def kx2():
    return nakayama_algebra(1, 2)  # basis 1, x with x^2 = 0


def E(alg, u, v):
    # matrix unit in matrix_algebra(2) labelling
    return alg.basis_element((u - 1) * 2 + (v - 1))


def test_multiply_examples():
    A = kx2()
    x = A.basis_element(1)
    assert not multiply(x, x)
    rng = random.Random(0)
    for _ in range(10):
        a = A.element({i: QQ(rng.randint(-3, 3)) for i in range(2)})
        assert multiply(A.unit, a) == a and multiply(a, A.unit) == a
    M = matrix_algebra(2)
    assert multiply(E(M, 1, 2), E(M, 2, 1)) == E(M, 1, 1)
    assert not multiply(E(M, 1, 2), E(M, 1, 2))


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        multiply(kx2().unit, matrix_algebra(2).unit)


def test_check_associativity_and_unit():
    for alg in (kx2(), matrix_algebra(2), nsy_algebra(2, 2, (1, 2)).algebra):
        assert check_associativity(alg) is None
        assert check_unit(alg) is None
    one_dim = FinDimAlgebra(QQ, ["e"], [(0, 0, 0, 1)], [1])
    assert check_associativity(one_dim) is None
    # corrupt one structure constant of M2
    data = matrix_algebra(2).to_json()
    data["structure"][0] = [0, 0, 0, "2"]
    corrupt = FinDimAlgebra.from_json(data)
    assert check_associativity(corrupt) == (0, 0, 1)
    # E12 E21 = 2 E11 keeps the unit and breaks associativity
    data = matrix_algebra(2).to_json()
    data["structure"][2] = [1, 2, 0, "2"]
    with pytest.raises(InvalidAlgebra) as info:
        FinDimAlgebra.from_json(data).validate()
    assert str(info.value) == "associativity fails at triple (1, 2, 1)"
    assert info.value.witness == (1, 2, 1)
    # broken unit vector reported with its index
    data = kx2().to_json()
    data["unit"] = ["0", "0"]
    broken = FinDimAlgebra.from_json(data)
    assert check_unit(broken) == 0
    with pytest.raises(InvalidAlgebra) as info:
        broken.validate()
    assert str(info.value) == "unit axiom fails at basis index 0"
    assert info.value.witness == 0


def dense_associativity_witness(alg):
    """Reference: the lowest basis triple with (b_i b_j) b_k != b_i (b_j b_k)."""
    b = dense.basis(alg)
    for i, j, k in product(range(alg.dim), repeat=3):
        if multiply(multiply(b[i], b[j]), b[k]) != multiply(b[i], multiply(b[j], b[k])):
            return (i, j, k)
    return None


def test_associativity_witness_matches_dense_reference():
    # seeded single-constant corruptions: bump one, delete one, add one
    rng = random.Random(20261018)
    compared = failing = 0
    for entry in corpus("small"):
        alg = entry.algebra
        assert check_associativity(alg) is None
        for corrupt in dense.single_constant_mutants(alg, rng, 3):
            witness = check_associativity(corrupt)
            assert witness == dense_associativity_witness(corrupt), entry.key
            compared += 1
            failing += witness is not None
    # most single-constant corruptions break associativity
    assert failing >= compared // 2, (failing, compared)


def test_associativity_witness_with_one_zero_side():
    # basis 1, a, b with only the unit products and one more product
    unit_products = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (2, 0, 2, 1)]
    # a a = 0 and a b = b: (a a) b = 0 but a (a b) = b
    A = FinDimAlgebra(QQ, ["1", "a", "b"], unit_products + [(1, 2, 2, 1)], [1, 0, 0])
    assert check_unit(A) is None
    assert check_associativity(A) == dense_associativity_witness(A) == (1, 1, 2)
    # mirror: a a = 0 and b a = b: (b a) a = b but b (a a) = 0
    B = FinDimAlgebra(QQ, ["1", "a", "b"], unit_products + [(2, 1, 2, 1)], [1, 0, 0])
    assert check_unit(B) is None
    assert check_associativity(B) == dense_associativity_witness(B) == (2, 1, 1)


def _products_cases():
    for profile in ("small", "standard"):
        for entry in corpus(profile):
            yield entry.key, entry.algebra
    # GF(p) shapes and group algebras, where every basis pair has a nonzero product
    yield "nsy(2,2,(2,1)) GF(101)", nsy_algebra(2, 2, (2, 1), Field(101)).algebra
    yield "nsy(3,2,(1,2,1)) GF(7)", nsy_algebra(3, 2, (1, 2, 1), Field(7)).algebra
    for factors, field in (((2, 4), QQ), ((3, 3), Field(3)), ((2, 2, 2), Field(2))):
        yield f"group {factors} {field!r}", group_algebra(factors, field)


def test_products_match_per_pair_multiply():
    rng = random.Random(20261018)
    for key, alg in _products_cases():
        field = alg.field
        # basis vectors, dense random vectors and the zero vector on both sides
        vectors = [{i: field.one} for i in range(alg.dim)]
        vectors += [alg.element({i: field.random(rng) for i in range(alg.dim)}).coeffs
                    for _ in range(2)]
        vectors.append({})
        elements = [alg.element(v) for v in vectors]
        got = list(products(alg, vectors, vectors))
        assert len(got) == len(vectors), key
        for x, row in zip(elements, got):
            want = {
                t: prod.coeffs for t, y in enumerate(elements) if (prod := multiply(x, y)).coeffs
            }
            assert row == want, key
            assert all(row.values()), key  # zero products are left out


def right_action(t, a):
    """t . a as the combination sum_j a_j (t . b_j) of `right_images`."""
    images = right_images(t)
    return dense.tensor2(
        t.algebra, [(key, c * v) for j, c in a.coeffs.items() for key, v in images[j].items()]
    )


def test_act_left_right_matrix_units():
    M = matrix_algebra(2)
    x = dense.tensor2(M, {(0, 0): 1, (2, 1): 1})  # E11 (x) E11 + E21 (x) E12
    # hand expansion of matrix-unit products
    expected = dense.tensor2(M, {(0, 1): 1})  # E11 (x) E12
    assert act_left(E(M, 1, 2), x) == expected
    assert right_images(x)[1] == expected.coeffs  # E12 is basis element 1
    assert dense.act_right(x, E(M, 1, 2)) == expected.coeffs


def test_unit_acts_trivially():
    A = nsy_algebra(2, 2, (2, 1)).algebra
    rng = random.Random(3)
    t = dense.tensor2(
        A,
        {(rng.randrange(A.dim), rng.randrange(A.dim)): QQ(rng.randint(1, 3)) for _ in range(5)}
    )
    assert act_left(A.unit, t) == t
    assert right_action(t, A.unit) == t


def test_is_invariant_examples():
    one_dim = FinDimAlgebra(QQ, ["e"], [(0, 0, 0, 1)], [1])
    assert is_invariant(dense.tensor2(one_dim, {(0, 0): 1})) is None  # 1 (x) 1 in k
    A = kx2()
    x = A.basis_element(1)
    # 1 (x) 1 is not invariant beyond dim 1, even commutatively:
    # x.(1 (x) 1) = x (x) 1 but (1 (x) 1).x = 1 (x) x
    assert is_invariant(dense.tensor2(A, {(0, 0): 1})) == 1
    y = dense.tensor2(A, {(0, 1): 1, (1, 0): 1})  # 1 (x) x + x (x) 1
    # hand check: x.y = x (x) x = y.x
    assert act_left(x, y) == dense.tensor2(A, {(1, 1): 1})
    assert is_invariant(y) is None
    t = dense.tensor2(A, {(0, 1): 1})  # 1 (x) x alone
    assert act_left(x, t) == dense.tensor2(A, {(1, 1): 1})
    assert right_images(t)[1] == {} == dense.act_right(t, x)
    assert is_invariant(t) == 1


def test_delta_of_examples():
    # the comultiplication induced by an invariant tensor x is a -> a.x
    A = kx2()
    y = dense.tensor2(A, {(0, 1): 1, (1, 0): 1})
    assert act_left(A.unit, y) == y
    assert act_left(A.basis_element(1), y) == dense.tensor2(A, {(1, 1): 1})
    M = matrix_algebra(2)
    x = dense.tensor2(M, {(0, 0): 1, (1, 2): 1, (2, 1): 1, (3, 3): 1})  # sum E_ts (x) E_st
    assert act_left(E(M, 1, 1), x) == dense.tensor2(M, {(0, 0): 1, (1, 2): 1})
    assert x.delta()[0] == {(0, 0): 1, (1, 2): 1}


def _table_cases():
    M = matrix_algebra(2)
    A = nsy_algebra(2, 2, (1, 2)).algebra
    rng = random.Random(11)
    return [
        dense.tensor2(kx2(), {(0, 1): 1, (1, 0): 1}),
        dense.tensor2(M, {(0, 0): 1, (1, 2): 1, (2, 1): 1, (3, 3): 1}),
        dense.tensor2(M, {(0, 1): 1}),  # E11 (x) E12: not invariant, not coassociative
        dense.tensor2(kx2(), {(0, 1): 1}),  # not invariant, coassociative
    ] + [random_tensor(A, rng, terms=6) for _ in range(4)]


def test_delta_table_matches_act_left(monkeypatch):
    calls = []
    act = algebra.act_left

    def counted(a, t):
        calls.append(t)
        return act(a, t)

    monkeypatch.setattr(algebra, "act_left", counted)
    for x in _table_cases():
        del calls[:]
        is_invariant(x)
        check_coassociativity(x)
        delta_rank(x)
        dense.delta_matrix(x)
        alg = x.algebra
        assert len(calls) == alg.dim  # one act_left per basis element
        for g, img in enumerate(x.delta()):
            assert img == act(alg.basis_element(g), x).coeffs


def _small_spread_tensors():
    """Each preset's spread tensor on every small-corpus algebra, and on
    the small nsy shapes over GF(101), as fresh tensors with no caches."""
    algebras = [e.algebra for e in corpus("small")] + [
        nsy_algebra(*(e.provenance[k] for k in "nlm"), Field(101)).algebra
        for e in corpus("small")
        if e.provenance["family"] == "nsy"
    ]
    out = []
    for alg in algebras:
        ctx = prepare(alg)
        for preset in PRESETS:
            x = run_spec(ctx, preset).x
            out.append(Tensor2(x.algebra, dict(x.coeffs)))
    return out


def _corrupted(x, rng):
    """x with one coefficient changed, with one term dropped, and with one
    term added."""
    alg, d = x.algebra, x.algebra.dim
    key = rng.choice(sorted(x.coeffs))
    changed = dict(x.coeffs)
    changed[key] = alg.field.normal(changed[key] + 1)
    dropped = dict(x.coeffs)
    del dropped[key]
    added = dict(x.coeffs)
    free = [(u, v) for u in range(d) for v in range(d) if (u, v) not in added]
    if free:
        added[rng.choice(free)] = alg.field.one
    return [dense.tensor2(alg, c) for c in (changed, dropped, added)]


def _assert_actions_match_reference(x, rng):
    alg, field, d = x.algebra, x.algebra.field, x.algebra.dim
    acting = dense.basis(alg) + [alg.unit] + [
        alg.element({k: field.random(rng) for k in rng.sample(range(d), min(d, size))})
        for size in (2, 3, d)
    ]
    for a in acting:
        assert act_left(a, x).coeffs == dense.act_left(a, x)
        assert right_action(x, a).coeffs == dense.act_right(x, a)


def test_actions_match_term_by_term_reference():
    rng = random.Random(23)
    failing = 0
    for x in _small_spread_tensors():
        assert is_invariant(x) is None
        _assert_actions_match_reference(x, rng)
        for y in _corrupted(x, rng):
            _assert_actions_match_reference(y, rng)
            # is_invariant still names the lowest failing basis element
            basis = dense.basis(y.algebra)
            lowest = next(
                (g for g, b in enumerate(basis)
                 if dense.act_left(b, y) != dense.act_right(y, b)),
                None,
            )
            assert is_invariant(Tensor2(y.algebra, dict(y.coeffs))) == lowest
            failing += lowest is not None
    assert failing > 0


def test_checks_agree_in_any_order():
    checks = {
        "invariant": is_invariant,
        "coassociative": check_coassociativity,
        "rank": delta_rank,
    }
    found_failures = set()
    for x in _table_cases():

        def fresh():
            return Tensor2(x.algebra, dict(x.coeffs))

        expected = {name: check(fresh()) for name, check in checks.items()}
        found_failures.update(
            name for name in ("invariant", "coassociative") if expected[name] is not None
        )
        shared = fresh()
        for order in permutations(checks):
            copy = fresh()
            assert {name: checks[name](copy) for name in order} == expected
            assert {name: checks[name](shared) for name in order} == expected
    assert found_failures == {"invariant", "coassociative"}


def test_check_coassociativity():
    one_dim = FinDimAlgebra(QQ, ["e"], [(0, 0, 0, 1)], [1])
    assert check_coassociativity(dense.tensor2(one_dim, {(0, 0): 1})) is None
    A = kx2()
    y = dense.tensor2(A, {(0, 1): 1, (1, 0): 1})
    assert check_coassociativity(y) is None
    M = matrix_algebra(2)
    bad = dense.tensor2(M, {(0, 1): 1})  # E11 (x) E12, not invariant
    assert check_coassociativity(bad) == (0, 1, 1)


def test_delta_matrix_and_rank():
    A = kx2()
    y = dense.tensor2(A, {(0, 1): 1, (1, 0): 1})
    m = dense.delta_matrix(y)
    assert (len(m), len(m[0])) == (4, 2)
    assert dense.rank(QQ, m) == 2 == delta_rank(y)
    one_dim = FinDimAlgebra(QQ, ["e"], [(0, 0, 0, 1)], [1])
    assert dense.rank(QQ, dense.delta_matrix(dense.tensor2(one_dim, {(0, 0): 1}))) == 1
    M = matrix_algebra(2)
    x = dense.tensor2(M, {(0, 0): 1})  # E11 (x) E11: rank 2 < 4 by hand
    assert dense.rank(QQ, dense.delta_matrix(x)) == 2 == delta_rank(x)


def test_delta_rank_agrees_with_dense_random():
    rng = random.Random(5)
    A = nsy_algebra(2, 2, (1, 2)).algebra
    for _ in range(10):
        t = dense.tensor2(
            A,
            {
                (rng.randrange(A.dim), rng.randrange(A.dim)): QQ(rng.randint(-2, 2))
                for _ in range(6)
            }
        )
        assert dense.rank(QQ, dense.delta_matrix(t)) == delta_rank(t)


def test_apply_functional():
    A = kx2()
    eps = Functional(A, [0, 1])
    y = dense.tensor2(A, {(0, 1): 1, (1, 0): 1})
    assert apply_functional("left", eps, y) == A.unit
    assert apply_functional("right", eps, y) == A.unit
    zero = Functional(A, [0, 0])
    assert not apply_functional("left", zero, y)


def random_element(alg, rng):
    return alg.element({i: QQ(rng.randint(-2, 2)) for i in range(alg.dim)})


def random_tensor(alg, rng, terms=5):
    return dense.tensor2(
        alg,
        {
            (rng.randrange(alg.dim), rng.randrange(alg.dim)): QQ(rng.randint(-2, 2))
            for _ in range(terms)
        }
    )


def test_bimodule_axiom_random():
    rng = random.Random(6)
    A = nsy_algebra(2, 2, (1, 2)).algebra
    for _ in range(20):
        a, b = random_element(A, rng), random_element(A, rng)
        t = random_tensor(A, rng)
        assert act_left(a, right_action(t, b)) == right_action(act_left(a, t), b)


def test_delta_left_linearity_random():
    rng = random.Random(7)
    A = matrix_algebra(2)
    x = dense.tensor2(A, {(0, 0): 1, (1, 2): 1, (2, 1): 1, (3, 3): 1})
    for _ in range(20):
        a, b = random_element(A, rng), random_element(A, rng)
        assert act_left(multiply(a, b), x) == act_left(a, act_left(b, x))


def test_functional_right_action_compat_random():
    rng = random.Random(8)
    A = nsy_algebra(1, 3, (2,)).algebra
    for _ in range(20):
        f = Functional(A, [QQ(rng.randint(-2, 2)) for _ in range(A.dim)])
        t = random_tensor(A, rng)
        a = random_element(A, rng)
        lhs = apply_functional("left", f, right_action(t, a))
        rhs = multiply(apply_functional("left", f, t), a)
        assert lhs == rhs


def test_algebra_json_round_trip():
    A = nsy_algebra(2, 2, (1, 2)).algebra
    data = A.to_json()
    back = FinDimAlgebra.from_json(json.loads(json.dumps(data)))
    assert dense.structure_equal(back, A)
    assert back.labels == A.labels
    t = dense.tensor2(A, {(0, 3): Fraction(2, 3), (8, 1): -1})
    assert Tensor2.from_json(A, t.to_json()) == t
    for index in (0.5, True, "0"):
        with pytest.raises(BadParams, match="tensor index must be an integer"):
            Tensor2.from_json(A, [[index, 0, "1"]])


@pytest.mark.parametrize("values", [("1", "0"), ("0", "1"), ("0", "0"), ("1", "1")])
def test_duplicate_structure_entry_refused(values):
    # a repeated (i, j, k) is refused whatever its scalars: a zero is not
    # skipped before the duplicate check, so ("1", "0") does not read as 1
    data = kx2().to_json()
    data["structure"] += [[1, 1, 0, c] for c in values]
    with pytest.raises(BadParams, match=r"^duplicate structure entry \(1, 1, 0\)$"):
        FinDimAlgebra.from_json(data)


@pytest.mark.parametrize("values", [("1", "-1"), ("0", "3"), ("0", "0"), ("1", "1")])
def test_duplicate_tensor_entry_refused(values):
    # a repeated (a, b) is refused whatever its scalars: the entries are not
    # added up, so ("1", "-1") does not read as zero nor ("0", "3") as 3
    with pytest.raises(BadParams, match=r"^duplicate tensor entry \(0, 1\)$"):
        Tensor2.from_json(kx2(), [[0, 1, c] for c in values])


def test_rows_hold_only_nonzero_products():
    # rows[i] = {j: {k: c}} over the pairs with b_i b_j != 0, in increasing
    # j; a zero scalar stores nothing, not even an empty product dict
    A = FinDimAlgebra(QQ, ["1", "x"], [(1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1),
                                       (1, 1, 0, 0), (1, 1, 1, "0")], [1, 0])
    assert A.rows == [{0: {0: 1}, 1: {1: 1}}, {0: {1: 1}}]
    assert [list(row) for row in A.rows] == [[0, 1], [0]]
    assert dense.structure_equal(A, kx2())
    M = matrix_algebra(2)
    assert sum(len(row) for row in M.rows) == 8
    assert all(prod for row in M.rows for prod in row.values())


def test_is_commutative():
    assert kx2().is_commutative() and group_algebra([2, 2]).is_commutative()
    # e1 a = a but a e1 = 0: a product present on one side only
    assert not path_algebra_a2().is_commutative()
    # E11 E12 = E12 but E12 E11 = 0, and E12 E21 = E11 != E22 = E21 E12
    assert not matrix_algebra(2).is_commutative()


@pytest.mark.parametrize("key, value", [
    ("unit", "1001"),
    ("basis", "abcd"),
    ("structure", "0000"),
    ("unit", {"0": "1", "3": "1"}),
    ("structure", None),
])
def test_algebra_json_non_array_refused(key, value):
    # a string iterates as its characters, so "unit": "1001" would read as
    # the unit of M_2
    data = matrix_algebra(2).to_json()
    data[key] = value
    with pytest.raises(BadParams, match=f"^{key} must be an array, got {type(value).__name__}$"):
        FinDimAlgebra.from_json(data)


@pytest.mark.parametrize("cls, what", [(Functional, "functional"), (Tensor2, "tensor")])
@pytest.mark.parametrize("value", ["10", {"0": "1"}])
def test_functional_and_tensor_json_non_array_refused(cls, what, value):
    # "10" would otherwise read as the functional [1, 0]
    A = nakayama_algebra(1, 2)
    with pytest.raises(BadParams, match=f"^{what} must be an array, got {type(value).__name__}$"):
        cls.from_json(A, value)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=["QQ", "GF7"])
def test_functional_json_scalar_entries(field):
    # a JSON integer reads as a scalar, as in tensor JSON; any other entry
    # that is not a scalar string is refused as BadParams
    A = nakayama_algebra(1, 2, field)
    assert Functional.from_json(A, [1, 0]) == Functional.from_json(A, ["1", "0"])
    for bad in ([None, "1"], [[1], "0"]):
        with pytest.raises(BadParams, match="^malformed functional JSON: "):
            Functional.from_json(A, bad)
    with pytest.raises(BadParams, match="is not exact"):
        Functional.from_json(A, [1.5, 0])


def test_permute_basis_is_isomorphism():
    rng = random.Random(9)
    A = nsy_algebra(2, 2, (1, 2)).algebra
    perm = list(range(A.dim))
    rng.shuffle(perm)
    B = permute_basis(A, perm)
    assert check_associativity(B) is None and check_unit(B) is None
    inv = {i: r for r, i in enumerate(perm)}
    for _ in range(20):
        a, b = random_element(A, rng), random_element(A, rng)
        pa = B.element({inv[i]: c for i, c in a.coeffs.items()})
        pb = B.element({inv[i]: c for i, c in b.coeffs.items()})
        prod = multiply(a, b)
        assert multiply(pa, pb) == B.element({inv[i]: c for i, c in prod.coeffs.items()})


def test_minimal_polynomial():
    A = kx2()
    x = A.basis_element(1)
    assert minimal_polynomial(x) == (Fraction(0), Fraction(0), Fraction(1))  # t^2
    assert minimal_polynomial(A.unit) == (Fraction(-1), Fraction(1))  # t - 1
    M = matrix_algebra(2)
    e11 = E(M, 1, 1)
    assert minimal_polynomial(e11) == (Fraction(0), Fraction(-1), Fraction(1))  # t^2 - t


def _over(alg, field):
    # integral structure constants reduce to an algebra over any field
    if field.p is None or alg.field.p is not None:
        return alg
    data = alg.to_json()
    data["field"] = field.to_json()
    reduced = FinDimAlgebra.from_json(data)
    reduced.validate()
    return reduced


def test_minimal_polynomial_differential():
    # mu(a) = 0, mu monic, and deg mu = rank of the dense matrix of the
    # powers unit, a, a^2, ..., a^dim (the dimension of the algebra they span)
    rng = random.Random(12)
    checked = 0
    for field in (QQ, Field(101)):
        for entry in corpus("small"):
            alg = _over(entry.algebra, field)
            f = alg.field
            cases = [
                (alg.element({i: f.random(rng) for i in range(alg.dim)}), None)
                for _ in range(3)
            ]
            for e in canonical_decomposition(alg).all_idempotents():
                corner = PeirceCorners(alg, [e]).bases[(0, 0)]
                combo = alg.zero()
                for q in corner:
                    combo = combo + q.scaled(f.random(rng))
                cases += [(corner[-1], e), (combo, e)]
            for a, unit in cases:
                mu = minimal_polynomial(a, unit=unit)
                assert mu[-1] == f.one
                one = alg.unit if unit is None else unit
                value, power, powers = alg.zero(), one, []
                for t in range(alg.dim + 1):
                    if t < len(mu):
                        value = value + power.scaled(mu[t])
                    powers.append(power.dense())
                    power = multiply(power, a)
                assert not value
                assert len(mu) - 1 == dense.rank(f, powers)
                checked += 1
    assert checked > 150
