import random
from itertools import combinations, product

import pytest

import dense_reference as dense
from sialg import structure
from sialg.algebra import FinDimAlgebra, combination, multiply, permute_basis
from sialg.amplify import amplify
from sialg.errors import (
    AlgebraError,
    InvalidAlgebra,
    NotBasic,
    NotFrobenius,
    NotSelfInjectiveLike,
    UnsupportedField,
    WitnessNotFound,
)
from sialg.families import (
    STANDARD_NSY_SHAPES,
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
from sialg.pipeline import analyze, prepare
from sialg.structure import (
    DEFAULT_SEED,
    CanonicalDecomposition,
    PeirceCorners,
    basic_reduction,
    canonical_decomposition,
    duality_pattern,
    iso_witnesses,
    nakayama,
    radical,
    semisimple_quotient,
)


def _nilpotency_index(alg, rad):
    """The nilpotency index of `rad`, read off the per-pair reference,
    which also checks it a nilpotent ideal with `rad`'s span rows."""
    checked, index = dense.radical_checks(alg, [b.coeffs for b in rad.basis])
    assert checked.span.rows == rad.span.rows
    return index


def test_radical_examples():
    m2 = matrix_algebra(2)
    assert radical(m2).dim == 0
    assert _nilpotency_index(m2, radical(m2)) == 1
    kx2 = nakayama_algebra(1, 2)
    r = radical(kx2)
    assert r.dim == 1 and _nilpotency_index(kx2, r) == 2
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
                not span.reduce(multiply(B.basis_element(b), B.basis_element(v)).coeffs)
                and not span.reduce(multiply(B.basis_element(v), B.basis_element(b)).coeffs)
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
    assert _nilpotency_index(B, r) == 2
    rad_span = Span(B.field, (e.coeffs for e in r.basis))
    for i in best:
        assert not rad_span.reduce({i: B.field.one})


def test_radical_modular_group_algebras():
    g2 = group_algebra([2], Field(2))
    r = radical(g2)
    assert r.dim == 1 and _nilpotency_index(g2, r) == 2
    # the radical is spanned by 1 + g
    assert r.basis[0].coeffs == {0: Field(2).one, 1: Field(2).one}
    g3 = group_algebra([3], Field(3))
    r3 = radical(g3)
    assert r3.dim == 2 and _nilpotency_index(g3, r3) == 3


def test_radical_unsupported_field():
    with pytest.raises(UnsupportedField):
        radical(matrix_algebra(2, Field(2)))


def test_radical_matches_per_pair_reference_on_mutants():
    # seeded single-constant corruptions: bump one, delete one, add one.
    # Where the per-pair loops accept the trace-form (or Frobenius-power)
    # kernel as a nilpotent ideal, radical returns the same basis and
    # span rows.  Where they refuse it, the table is not an associative
    # algebra, and analyze refuses it with validate's message and witness
    rng = random.Random(20261018)
    accepted = 0
    refusals = []
    for entry in corpus("small"):
        field, d = entry.algebra.field, entry.algebra.dim
        for corrupt in dense.single_constant_mutants(entry.algebra, rng, 6):
            try:
                rad = radical(corrupt)
            except UnsupportedField:  # refused before any product is taken
                continue
            if field.p is None or field.p > d:
                kernel = structure._trace_form_kernel(corrupt)
            else:
                kernel = structure._frobenius_power_kernel(corrupt)
            try:
                checked, _ = dense.radical_checks(corrupt, kernel)
            except AlgebraError as exc:
                refusals.append(str(exc))
                with pytest.raises(InvalidAlgebra) as want:
                    corrupt.validate()
                with pytest.raises(InvalidAlgebra) as info:
                    analyze(corrupt)
                assert str(info.value) == str(want.value), entry.key
                assert info.value.witness == want.value.witness, entry.key
                continue
            assert [b.coeffs for b in rad.basis] == [b.coeffs for b in checked.basis], entry.key
            assert rad.span.rows == checked.span.rows, entry.key
            accepted += 1
    assert accepted + len(refusals) == 246
    assert refusals.count("radical candidate is not an ideal") == 22
    assert refusals.count("radical candidate is not nilpotent") == 18


def test_quotient_of_radical_is_semisimple():
    # canonical_decomposition splits A/J with no second radical: `radical`
    # returns J itself, so the quotient's radical is zero on every algebra
    # the decomposition is run on across the sweeps
    for alg in _SWEPT:
        rad = radical(alg)
        quot, complement = semisimple_quotient(alg, rad)
        assert radical(quot).dim == 0
        assert quot.dim == len(complement) == alg.dim - rad.dim


def test_canonical_decomposition_m2():
    M = matrix_algebra(2)
    dec = canonical_decomposition(M)
    assert dec.n == 1 and dec.multiplicities == (2,)
    assert dec.classes[0][0].coeffs == {0: QQ(1)}  # E11
    assert dec.classes[0][1].coeffs == {3: QQ(1)}  # E22
    assert dec.flags == [structure.FLAG_SPLIT]


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
        _assert_complete_orthogonal(palg, canonical_decomposition(palg).all_idempotents())


def _assert_complete_orthogonal(alg, idems):
    """The idempotents are idempotent, pairwise orthogonal and sum to 1."""
    total = alg.zero()
    for e in idems:
        assert multiply(e, e) == e
        total = total + e
    assert total == alg.unit
    for a in range(len(idems)):
        for b in range(len(idems)):
            if a != b:
                assert not multiply(idems[a], idems[b])


def test_decomposition_idempotents_across_sweeps():
    # canonical_decomposition checks none of this itself: each lift is an
    # idempotent of (1 - p) A (1 - p), p the sum of the lifts before it
    for alg in _SWEPT:
        _assert_complete_orthogonal(alg, canonical_decomposition(alg).all_idempotents())
    assert len(_SWEPT) == 86 + 12 + 81


def _corners_and_rad(alg):
    """The Peirce corners of a basic algebra by its class reps, and its radical."""
    rad = radical(alg)
    return PeirceCorners(alg, canonical_decomposition(alg, rad=rad).reps), rad


def test_nakayama_examples():
    for l in (1, 2, 3):
        nak = nakayama(*_corners_and_rad(nakayama_algebra(1, l)))
        assert nak.nu == (0,)
    # cyclic shift on B(n, l): nu(i) = i + l - 1, via the vertex identification
    for n, l in ((2, 2), (3, 2), (2, 3), (3, 3)):
        B = nakayama_algebra(n, l)
        corners, rad = _corners_and_rad(B)
        dec = canonical_decomposition(B)
        nak = nakayama(corners, rad)
        vertex = [next(iter(rep.coeffs)) // l for rep in dec.reps]
        cls_of_vertex = {v: c for c, v in enumerate(vertex)}
        assert nak.nu == tuple(
            cls_of_vertex[(vertex[c] + l - 1) % n] for c in range(dec.n)
        )
    nak = nakayama(*_corners_and_rad(group_algebra([2], Field(2))))
    assert nak.nu == (0,)


def test_nakayama_socles():
    nak = nakayama(*_corners_and_rad(nakayama_algebra(2, 2)))
    for i, soc in enumerate(nak.socles):
        assert len(soc) == 1
        # socle of e_i B is spanned by the length-1 path at its vertex
        (idx,) = soc[0].coeffs
        assert idx % 2 == 1


def test_nakayama_rejects_a2():
    with pytest.raises(NotSelfInjectiveLike):
        nakayama(*_corners_and_rad(path_algebra_a2()))


def test_duality_examples():
    corners, rad = _corners_and_rad(nakayama_algebra(2, 2))
    nak = nakayama(corners, rad)
    for i, rep in enumerate(corners.reps):
        # e_i B, spanned by e_i and the arrow out of i, is the sum of the
        # corners (i, k)
        assert len(dense.one_sided_reference(corners.alg, rep, True)) == 2
        assert sum(len(corners.bases[(i, k)]) for k in range(2)) == 2
    assert duality_pattern(corners) == [{nak.nu[i]} for i in range(2)]
    corners3, rad3 = _corners_and_rad(nakayama_algebra(1, 3))
    assert duality_pattern(corners3) == [set(nakayama(corners3, rad3).nu)]


def test_duality_fails_on_a2():
    # nakayama() rejects A2, so test both permutations against the pattern
    corners, _ = _corners_and_rad(path_algebra_a2())
    pattern = duality_pattern(corners)
    for nu in ((1, 0), (0, 1)):
        assert not all(nu[i] in pattern[i] for i in range(2))
    assert [len(s) for s in pattern] != [1, 1] or pattern[0] == pattern[1]


def test_duality_pattern_matches_nu():
    for alg in (nakayama_algebra(2, 2), nakayama_algebra(3, 2), group_algebra([2])):
        corners, rad = _corners_and_rad(alg)
        nak = nakayama(corners, rad)
        assert duality_pattern(corners) == [{v} for v in nak.nu]


def _carriers(input_corners):
    """The input's corner basis elements in j-major corner order: element a
    carries the basic algebra's basis tuple a."""
    return [q for qs in input_corners.bases.values() for q in qs]


def test_basic_reduction_m2():
    M = matrix_algebra(2)
    dec = canonical_decomposition(M)
    input_corners, corners = basic_reduction(M, dec)
    assert corners.alg.dim == 1
    assert corners.reps == [corners.alg.unit]
    assert input_corners.alg is M and input_corners.reps == dec.reps
    assert _carriers(input_corners) == [dec.reps[0]]


def test_basic_reduction_identity_on_basic():
    B = nakayama_algebra(2, 2)
    dec = canonical_decomposition(B)
    input_corners, corners = basic_reduction(B, dec)
    assert corners is input_corners
    assert corners.alg is B and corners.reps == dec.reps


def _outer(alg, terms):
    """The tensor sum of c * left (x) right over the terms (c, left, right)."""
    coeffs = {}
    for c, left, right in terms:
        for k1, c1 in left.coeffs.items():
            for k2, c2 in right.coeffs.items():
                coeffs[(k1, k2)] = coeffs.get((k1, k2), 0) + c * c1 * c2
    return dense.tensor2(alg, coeffs)


def _completed(alg, reps):
    """`reps`, and 1 - sum(reps) after them unless they sum to 1: the
    complete set of orthogonal idempotents that components need."""
    e = sum(reps[1:], reps[0])
    return reps if e == alg.unit else reps + [alg.unit - e]


def _check_corners(corners, rng, k):
    # the reps sum to 1, so the sandwich components of a reassemble a, and
    # the components of y reassemble y; the components in the
    # corners of the first k reps reassemble e a e and y with both legs
    # cut down by e, for e the sum of those k reps
    alg, field, bases = corners.alg, corners.alg.field, corners.bases
    d = alg.dim
    assert sum(corners.reps[1:], corners.reps[0]) == alg.unit
    e = sum(corners.reps[1:k], corners.reps[0])

    def cut(x):
        return multiply(multiply(e, x), e)

    def inside(key):
        return all(c < k for c in key)

    def reassembled(comps, keep):
        got = alg.zero()
        for key, comp in comps.items():
            if keep(key):
                for b, c in comp.items():
                    got = got + bases[key][b].scaled(c)
        return got

    def outer(comps, keep):
        return _outer(alg, (
            (c, bases[key[:2]][b1], bases[key[2:]][b2])
            for key, comp in comps.items()
            if keep(key)
            for (b1, b2), c in comp.items()
        ))

    for _ in range(3):
        a = alg.element({t: field.random(rng) for t in range(d)})
        comps = dense.components_reference(corners, a)
        assert reassembled(comps, lambda key: True) == a
        assert reassembled(comps, inside) == cut(a)
        y = dense.tensor2(
            alg,
            {(rng.randrange(d), rng.randrange(d)): field.random(rng) for _ in range(4 * d)}
        )
        comps = corners.tensor_components(y)
        assert outer(comps, lambda key: True) == y
        assert outer(comps, inside) == _outer(alg, (
            (c, cut(alg.basis_element(k1)), cut(alg.basis_element(k2)))
            for (k1, k2), c in y.coeffs.items()
        ))


_PEIRCE_INPUTS = [(e.key, e.algebra) for e in corpus("small")] + [
    (e.key + " gf101", nsy_algebra(*(e.provenance[k] for k in "nlm"), Field(101)).algebra)
    for e in corpus("small")
    if e.provenance["family"] == "nsy"
]


def _ordered(span):
    return sorted((piv, sorted(row.items())) for piv, row in span.rows.items())


def _matches_reference(corners):
    """Every corner of `corners` equals the per-basis double-`multiply`
    reference row for row: the same pivots, each with the same reduced
    row, and the same echelon basis in pivot order."""
    for (j, i), span in corners.spans.items():
        expected = dense.corner_span_reference(corners.alg, corners.reps[j], corners.reps[i])
        assert _ordered(span) == _ordered(expected)
        assert [b.coeffs for b in corners.bases[(j, i)]] == expected.basis_vectors()


def _built(alg, reps, monkeypatch):
    """PeirceCorners(alg, reps), checked against the reference; the build
    makes no `multiply` call and n + 1 `products` walks."""
    calls = {"multiply": 0, "products": 0}
    with monkeypatch.context() as m:
        for name in calls:

            def counted(*args, _name=name, _original=getattr(structure, name)):
                calls[_name] += 1
                return _original(*args)

            m.setattr(structure, name, counted)
        corners = PeirceCorners(alg, reps)
    assert calls == {"multiply": 0, "products": len(reps) + 1}
    _matches_reference(corners)
    return corners


def _recorded(monkeypatch, fn, *args):
    """(fn(*args), every PeirceCorners built during the call, in order)."""
    built = []
    original = PeirceCorners.__init__

    def recording(self, alg, reps):
        original(self, alg, reps)
        built.append(self)

    with monkeypatch.context() as m:
        m.setattr(PeirceCorners, "__init__", recording)
        out = fn(*args)
    return out, built


@pytest.mark.parametrize(
    "alg", [alg for _, alg in _PEIRCE_INPUTS], ids=[key for key, _ in _PEIRCE_INPUTS]
)
def test_peirce_corners_reassemble(alg, monkeypatch):
    rng = random.Random(97)
    a = analyze(alg)
    dec = a.dec
    # the input with one representative per class, completed by 1 - e for
    # e their sum when it is not basic: the first n corners cut out e a e
    _check_corners(_built(alg, _completed(alg, dec.reps), monkeypatch), rng, dec.n)
    _built(a.lam, a.corners.reps, monkeypatch)
    _check_corners(a.corners, rng, dec.n)
    # the amplified model cut by every copy idempotent, then by one per class
    amp = amplify(a.corners, dec.multiplicities)
    copies = [
        [dense.lift(amp, rep, t, t) for t in range(1, amp.m[i] + 1)]
        for i, rep in enumerate(a.corners.reps)
    ]
    every_copy = _built(amp.algebra, [e for cls in copies for e in cls], monkeypatch)
    _check_corners(every_copy, rng, len(every_copy.reps))
    firsts = _completed(amp.algebra, [cls[0] for cls in copies])
    _check_corners(_built(amp.algebra, firsts, monkeypatch), rng, dec.n)


# the standard corpus, and the group algebras of the sweep-gfp benchmark
_DECOMPOSED = [(e.key, e.algebra) for e in corpus("standard")] + [
    (f"group {list(factors)} gf{p}", group_algebra(factors, Field(p)))
    for p in (2, 3)
    for factors in ((2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2))
]
# ... and the GF(101) nsy shapes of the sweep-gfp benchmark
_GFP_NSY = [
    (f"nsy n={n} l={l} m={list(m)} gf101", nsy_algebra(n, l, m, Field(101)).algebra)
    for n, l in STANDARD_NSY_SHAPES
    for m in product((1, 2, 3), repeat=n)
]
_SWEPT = [alg for _, alg in _DECOMPOSED + _GFP_NSY]


def test_radical_kernel_is_a_nilpotent_ideal_on_every_valid_input():
    # radical returns its kernel unchecked, and canonical_decomposition
    # proves it J on an associative table; the per-pair checks it proves
    # away accept it on the small and standard corpora, the sweep-gfp
    # group algebras and the basic algebra of each, with the same span
    # rows and a nilpotency index within the lift bound dim J + 1
    inputs = [(e.key, e.algebra) for e in corpus("small")] + _DECOMPOSED
    for key, alg in inputs:
        for a in (alg, analyze(alg).lam):
            rad = radical(a)
            assert _nilpotency_index(a, rad) <= rad.dim + 1, key
    assert len(inputs) == 14 + 86 + 12


@pytest.mark.parametrize(
    "alg", [alg for _, alg in _DECOMPOSED], ids=[key for key, _ in _DECOMPOSED]
)
def test_decomposition_corners_match_reference(alg, monkeypatch):
    # every corner the decomposition reads: e Q e for each idempotent the
    # quotient split visits, then the corners of the quotient images that
    # group the classes
    rad = radical(alg)
    dec, built = _recorded(monkeypatch, canonical_decomposition, alg, DEFAULT_SEED, rad)
    *visited, grouping = built
    assert visited and all(len(c.reps) == 1 for c in visited)
    assert len(grouping.reps) == len(dec.all_idempotents())
    for corners in built:
        _matches_reference(corners)
    # the classes are the reference pairing's classes, on every pair
    quot, complement = semisimple_quotient(alg, rad)
    images = [dense.project_reference(quot, complement, rad, e) for e in dec.all_idempotents()]
    # the grouping reads the quotient idempotents the lifts came from
    assert sorted(e.dense() for e in grouping.reps) == sorted(e.dense() for e in images)
    cls_of = [c for c, cls in enumerate(dec.classes) for _ in cls]
    for u, v in product(range(len(images)), repeat=2):
        paired = dense.paired_reference(quot, images[u], images[v])
        assert paired == (cls_of[u] == cls_of[v])


# every swept algebra, and two split group algebras with one class per
# basis element, where a corner build was slowest
_SANDWICH_INPUTS = _DECOMPOSED + _GFP_NSY + [
    ("group [4, 4] gf5", group_algebra((4, 4), Field(5))),
    ("group [2, 2, 3] gf13", group_algebra((2, 2, 3), Field(13))),
]


@pytest.mark.parametrize(
    "alg", [alg for _, alg in _SANDWICH_INPUTS], ids=[key for key, _ in _SANDWICH_INPUTS]
)
def test_corners_and_components_match_sandwich_route(alg):
    # on the complete set of primitive idempotents: each corner basis, built
    # from the echelon basis of e_j A when the e_j b_t are dependent, is the
    # span of the sandwiches e_j b_t e_i, and the components read off the
    # inverse of the stacked corner bases are the sandwich coordinates of
    # both legs of a (x) a, for every basis element a and seeded random ones
    corners = PeirceCorners(alg, canonical_decomposition(alg).all_idempotents())
    _matches_reference(corners)
    rng = random.Random(35)
    field = alg.field
    randoms = [alg.element({t: field.random(rng) for t in range(alg.dim)}) for _ in range(3)]
    legs = [dense.components_reference(corners, b) for b in dense.basis(alg)]
    for a in dense.basis(alg) + randoms:
        y = _outer(alg, [(field.one, a, a)])
        assert corners.tensor_components(y) == _tensor_components_reference(alg, legs, y)


def _tensor_components_reference(alg, legs, y):
    """{(j, i, u, v): {(b1, b2): c}} of y, from `legs`, the sandwich
    components of every basis element (`dense.components_reference`)."""
    norm = alg.field.normal
    out = {}
    for (a, b), c in y.coeffs.items():
        for left_corner, left in legs[a].items():
            for right_corner, right in legs[b].items():
                comp = out.setdefault(left_corner + right_corner, {})
                for k1, c1 in left.items():
                    for k2, c2 in right.items():
                        comp[(k1, k2)] = norm(comp.get((k1, k2), 0) + c * c1 * c2)
    out = {key: {k: c for k, c in comp.items() if c} for key, comp in out.items()}
    return {key: comp for key, comp in out.items() if comp}


_FIELD_CORNER_INPUTS = [
    (f"group {list(factors)} {field}", group_algebra(factors, field))
    for factors, field in (
        ((5,), QQ),
        ((7,), QQ),
        ((3, 3), QQ),
        ((2, 4), QQ),
        ((4,), Field(3)),
        ((2, 4), Field(3)),
        ((3, 3), Field(5)),
        ((3, 3), Field(2)),
    )
]


def _count_factor(m, factored):
    """Patch `poly.factor` through the monkeypatch `m` so that it appends
    each polynomial it is given to `factored`."""
    original = structure.poly.factor

    def counting(field, f):
        factored.append(f)
        return original(field, f)

    m.setattr(structure.poly, "factor", counting)


@pytest.mark.parametrize(
    "alg", [alg for _, alg in _FIELD_CORNER_INPUTS], ids=[key for key, _ in _FIELD_CORNER_INPUTS]
)
def test_field_corner_stop_matches_full_sweep(alg, monkeypatch):
    # each input meets a corner e Q e that is a field bigger than the
    # ground field; the split stops there, where the full sweep spends the
    # rest of the budget in vain.  Both visit the same corners with the
    # same budget, use the same attempts, and give the same prepare
    # outcome, GF(2)[C3 x C3]'s NotFrobenius message included
    def outcome(split_once):
        visits, factored = [], []

        def recording(qalg, e, corner_elems, rng, budget):
            split, used = split_once(qalg, e, corner_elems, rng, budget)
            visits.append((len(corner_elems), budget, used, split is not None))
            return split, used

        with monkeypatch.context() as m:
            m.setattr(structure, "_split_once", recording)
            _count_factor(m, factored)
            try:
                ctx = prepare(alg)
            except NotFrobenius as exc:
                return visits, str(exc), len(factored)
        return visits, (ctx.analysis.to_json(), ctx.pair.to_json()), len(factored)

    visits, result, factored = outcome(structure._split_once)
    full_visits, full_result, full_factored = outcome(dense.split_once_reference)
    assert (visits, result) == (full_visits, full_result)
    assert any(not split and used for _, _, used, split in visits)
    assert factored < full_factored
    if alg.field.p == 2:
        assert result == (
            "no counit with the required corner support has an invertible Gram"
            " matrix after 32 seeded attempts"
        )


def test_field_corner_ends_the_split_of_qq_c13(monkeypatch):
    # QQ[C13] = QQ x QQ(zeta_13): the second corner is proved a field by a
    # basis element with minimal polynomial Phi_13, where the full sweep
    # factored a polynomial at each of its 416 attempts
    factored = []
    _count_factor(monkeypatch, factored)
    a = analyze(group_algebra((13,), QQ))
    assert len(factored) <= 8
    assert a.dec.n == 2 and [len(e.coeffs) for e in a.dec.reps] == [13, 13]


_NON_BASIC = [
    (key, alg)
    for key, alg in _DECOMPOSED
    if any(v > 1 for v in canonical_decomposition(alg).multiplicities)
]


@pytest.mark.parametrize(
    "alg", [alg for _, alg in _NON_BASIC], ids=[key for key, _ in _NON_BASIC]
)
def test_copy_corners_match_reference(alg, monkeypatch):
    # one build per class with more than one copy, on all of its copies
    dec = canonical_decomposition(alg)
    _, built = _recorded(monkeypatch, iso_witnesses, alg, dec)
    assert [c.reps for c in built] == [cls for cls in dec.classes if len(cls) > 1]
    for corners in built:
        _matches_reference(corners)


def _find_iso_by_permutation(A, B):
    # exhaustive oracle for tiny monomial algebras: search basis bijections
    from itertools import permutations

    assert A.dim == B.dim
    for perm in permutations(range(A.dim)):
        ok = True
        for i in range(A.dim):
            for j in range(A.dim):
                image = {perm[k]: c for k, c in A.rows[i].get(j, {}).items()}
                if image != B.rows[perm[i]].get(perm[j], {}):
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
    input_corners, corners = basic_reduction(A, dec)
    lam, reps = corners.alg, corners.reps
    assert lam.dim == 4
    assert len(reps) == 2 and reps[0] + reps[1] == lam.unit
    assert _find_iso_by_permutation(lam, nakayama_algebra(2, 2)) is not None
    # the embedding along the input's corner bases is multiplicative
    rng = random.Random(4)
    elements = _carriers(input_corners)

    def embed(x):
        return combination(A, elements, x.coeffs)

    for _ in range(10):
        a = lam.element({i: QQ(rng.randint(-2, 2)) for i in range(lam.dim)})
        b = lam.element({i: QQ(rng.randint(-2, 2)) for i in range(lam.dim)})
        assert embed(multiply(a, b)) == multiply(embed(a), embed(b))


def test_input_corners_carry_the_basic_corners():
    # the model map reads input_corners.bases[key][b] for the basic
    # algebra's corner basis element corners.bases[key][b]: that is its
    # lift along the input elements carrying the basic algebra's basis
    lifted = 0
    for alg in _SWEPT:
        an = analyze(alg)
        if an.lam is alg:
            assert an.input_corners is an.corners
            continue
        elements = _carriers(an.input_corners)
        assert an.corners.bases.keys() == an.input_corners.bases.keys()
        for key, qs in an.corners.bases.items():
            assert len(qs) == len(an.input_corners.bases[key])
            for q, image in zip(qs, an.input_corners.bases[key]):
                assert combination(alg, elements, q.coeffs) == image
                lifted += 1
    assert lifted == 965  # over the 149 non-basic algebras of the 179


def test_seed_reaches_only_the_noncommutative_split():
    # with a commutative semisimple quotient the split is decided without
    # the seed, so prepare gives the same analysis and Frobenius pair, or
    # the same refusal, at every seed
    def outcome(alg, seed):
        try:
            ctx = prepare(alg, seed)
        except AlgebraError as exc:
            return str(exc)
        return ctx.analysis.to_json(), ctx.pair.to_json()

    firsts = []
    for alg in _SWEPT:
        quot, _ = semisimple_quotient(alg, radical(alg))
        if not quot.is_commutative():
            continue
        first = outcome(alg, DEFAULT_SEED)
        assert all(outcome(alg, seed) == first for seed in (1, 2))
        firsts.append(first)
    assert len(firsts) == 30
    # GF(2)[C3 x C3] is among them, refused alike at every seed
    assert [f for f in firsts if isinstance(f, str)] == [
        "no counit with the required corner support has an invertible Gram"
        " matrix after 32 seeded attempts"
    ]


_NON_BASIC_INPUTS = [(e.key, e.algebra) for e in corpus("standard")] + [
    ("nsy n=2 l=2 m=[1, 2] field=101", nsy_algebra(2, 2, (1, 2), Field(101)).algebra)
]


def test_basic_reduction_matches_per_pair_reference():
    compared = 0
    for key, alg in _NON_BASIC_INPUTS:
        dec = canonical_decomposition(alg)
        if all(v == 1 for v in dec.multiplicities):
            continue
        input_corners, corners = basic_reduction(alg, dec)
        ref, ref_reps, ref_elements = dense.basic_reduction_reference(alg, dec.reps)
        assert dense.structure_equal(corners.alg, ref), key
        assert [e.coeffs for e in corners.reps] == [e.coeffs for e in ref_reps], key
        elements = _carriers(input_corners)
        assert [e.coeffs for e in elements] == [e.coeffs for e in ref_elements], key
        compared += 1
    assert compared == 76  # 75 of the 86 standard algebras, and the GF(101) one


def _rows(elements):
    return [list(e.coeffs.items()) for e in elements]


def _corner_sum(corners, i, left):
    """Echelon basis of the span of the corners (i, k) over k if `left`,
    else of the corners (k, i): e_i A or A e_i when the reps sum to 1."""
    keys = [(i, k) if left else (k, i) for k in range(len(corners.reps))]
    span = Span(corners.alg.field, (q.coeffs for key in keys for q in corners.bases[key]))
    return [corners.alg.element(row) for row in span.basis_vectors()]


def test_one_sided_and_nakayama_match_reference():
    # e_i A and A e_i re-echelonized from the corners equal the span of
    # e_i b_t (b_t e_i) row for row, entry order included, and nakayama
    # reads the same permutation and socles off them
    for key, alg in _NON_BASIC_INPUTS:
        a = analyze(alg)
        corners, lam = a.corners, a.lam
        for i, rep in enumerate(corners.reps):
            for left in (True, False):
                assert _rows(_corner_sum(corners, i, left)) == _rows(
                    dense.one_sided_reference(lam, rep, left)
                ), (key, i, left)
        projectives = [dense.one_sided_reference(lam, rep, True) for rep in corners.reps]
        nu, socles = dense.nakayama_reference(lam, corners.reps, radical(lam), projectives)
        assert a.nak.nu == nu, key
        assert [_rows(soc) for soc in a.nak.socles] == [_rows(soc) for soc in socles], key


def _nakayama_reference(corners, rad):
    """`dense.nakayama_reference` on the projectives e_i A spanned by
    e_i b_t over the basis b_t (`dense.one_sided_reference`)."""
    projectives = [dense.one_sided_reference(corners.alg, rep, True) for rep in corners.reps]
    return dense.nakayama_reference(corners.alg, corners.reps, rad, projectives)


def _permuted(key, alg, seed):
    perm = list(range(alg.dim))
    random.Random(seed).shuffle(perm)
    return f"permuted {key}", permute_basis(alg, perm)


def _dense_bases():
    """The change-of-basis algebras of the pipeline's dense-basis test (the
    same draws), then basic algebras with two or three classes, whose
    e_i A have two nonzero corners, on a dense basis."""
    rng = random.Random(99)
    cases = [
        ("nsy n=2 l=2 m=[1, 2]", nsy_algebra(2, 2, (1, 2)).algebra),
        ("nsy n=1 l=1 m=[2]", nsy_algebra(1, 1, (2,)).algebra),
        ("group [3] gf3", group_algebra([3], Field(3))),
        ("nakayama n=2 l=2", nakayama_algebra(2, 2)),
        ("nakayama n=3 l=2", nakayama_algebra(3, 2)),
        ("nsy n=2 l=2 m=[1, 1]", nsy_algebra(2, 2, (1, 1)).algebra),
    ]
    return [(f"dense basis {key}", dense.random_change_of_basis(alg, rng)) for key, alg in cases]


_GF5_C4C4 = group_algebra((4, 4), Field(5))
# the standard corpus, the sweep-gfp group algebras, and GF(5)[C4 x C4]
# with one class per basis element
_NAKAYAMA_INPUTS = _DECOMPOSED + [("group [4, 4] gf5", _GF5_C4C4)]
# ... and on scrambled bases, where the corners of e_i A need not be
# spanned by disjoint sets of basis vectors: a socle basis that differs
# from the reference's by a scalar, and so a different counit, shows here
_SCRAMBLED_INPUTS = (
    [_permuted(e.key, e.algebra, 5) for e in corpus("standard")[::7]]
    + _dense_bases()
    + [_permuted("group [4, 4] gf5", _GF5_C4C4, 1)]
)


def _values(socles):
    return [[sorted(z.coeffs.items()) for z in soc] for soc in socles]


@pytest.mark.parametrize(
    "alg",
    [alg for _, alg in _NAKAYAMA_INPUTS + _SCRAMBLED_INPUTS],
    ids=[key for key, _ in _NAKAYAMA_INPUTS + _SCRAMBLED_INPUTS],
)
def test_nakayama_matches_the_per_class_loop(alg):
    # the socle of e_i A spanned from its corners, and the corner it lies
    # in, give the permutation and socles of the annihilator on the span of
    # e_i b_t and one multiply per (socle element, class); the two spans add
    # their rows in different orders, so the socle elements are compared by
    # value, not by the insertion order of their entries, which nothing reads
    a = analyze(alg)
    nu, socles = _nakayama_reference(a.corners, radical(a.lam))
    assert a.nak.nu == nu
    assert _values(a.nak.socles) == _values(socles)


def _two_arrows_out():
    """The path algebra of 1 -> 2, 1 -> 3: soc(e_1 A) holds both arrows,
    so it meets classes 2 and 3."""
    structure = [
        (0, 0, 0, 1), (1, 1, 1, 1), (2, 2, 2, 1),
        (0, 3, 3, 1), (3, 1, 3, 1), (0, 4, 4, 1), (4, 2, 4, 1),
    ]
    return FinDimAlgebra(QQ, ["e1", "e2", "e3", "a", "b"], structure, [1, 1, 1, 0, 0])


@pytest.mark.parametrize("make, message", [
    (path_algebra_a2, "socle pattern [1, 1] is not a permutation"),
    (_two_arrows_out, "socle of projective class 0 meets classes [1, 2]"),
], ids=["a2", "two-arrows-out"])
def test_nakayama_refuses_as_the_per_class_loop(make, message):
    corners, rad = _corners_and_rad(make())
    with pytest.raises(NotSelfInjectiveLike) as batched:
        nakayama(corners, rad)
    with pytest.raises(NotSelfInjectiveLike) as looped:
        _nakayama_reference(corners, rad)
    assert str(batched.value) == str(looped.value) == message


def test_one_sided_needs_reps_summing_to_one():
    # e_11 alone does not sum to 1 in M_2, so its corner does not span e_11 A
    # and its corner bases do not span A: every reader of a one-sided ideal
    # or of the corner components refuses
    M = matrix_algebra(2)
    corners = PeirceCorners(M, canonical_decomposition(M).reps)
    with pytest.raises(NotBasic):
        nakayama(corners, radical(M))
    with pytest.raises(NotBasic):
        duality_pattern(corners)
    with pytest.raises(NotBasic):
        corners.tensor_components(dense.tensor2(M, {(0, 0): 1}))


def test_iso_witnesses_m2():
    M = matrix_algebra(2)
    dec = canonical_decomposition(M)
    wit = iso_witnesses(M, dec)
    e11, e22 = dec.classes[0]
    u, v = wit.us[0][1], wit.vs[0][1]
    assert multiply(u, v) == e11 and multiply(v, u) == e22
    assert wit.us[0][0] == e11 and wit.vs[0][0] == e11


def test_iso_witnesses_nsy():
    nsy = nsy_algebra(1, 2, (2,))
    dec = canonical_decomposition(nsy.algebra)
    wit = iso_witnesses(nsy.algebra, dec)
    # product rule oracle: X[0,0;0,1] * X[0,0;1,0] = X[0,0;0,0]
    a = nsy.algebra.basis_element(nsy.x(0, 0, 0, 1))
    b = nsy.algebra.basis_element(nsy.x(0, 0, 1, 0))
    assert multiply(a, b) == nsy.algebra.basis_element(nsy.x(0, 0, 0, 0))
    for i, cls in enumerate(dec.classes):
        for s in range(len(cls)):
            assert multiply(wit.us[i][s], wit.vs[i][s]) == cls[0]
            assert multiply(wit.vs[i][s], wit.us[i][s]) == cls[s]


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
            assert multiply(wit.us[i][s], wit.vs[i][s]) == cls[0]
            assert multiply(wit.vs[i][s], wit.us[i][s]) == cls[s]


def test_iso_witnesses_refuses_copies_that_are_not_isomorphic():
    # the two idempotents of k x k put in one class: the copy corner
    # e_1 A e_2 is zero, so no basis element of it is an isomorphism
    P = field_product_algebra(2)
    dec = canonical_decomposition(P)
    wrong = CanonicalDecomposition([dec.all_idempotents()], dec.flags)
    with pytest.raises(WitnessNotFound, match="copies 0 and 1 of class 0 "):
        iso_witnesses(P, wrong)


# The abelian groups of ROADMAP item 1's closed-form grid: C2 ... C15 and
# five products, over QQ, GF(2), GF(3) and GF(5).
_GRID_GROUPS = tuple((n,) for n in range(2, 16)) + ((2, 2), (2, 4), (3, 3), (2, 6), (4, 4))
_BASIS_ROUTE_INPUTS = (
    [(e.key, e.algebra) for e in corpus("standard")]
    + _GFP_NSY
    + [
        (f"group {list(factors)} {field}", group_algebra(factors, field))
        for field in (QQ, Field(2), Field(3), Field(5))
        for factors in _GRID_GROUPS
    ]
    # the one sweep-gfp group algebra outside the grid
    + [(f"group [2, 2, 2] {Field(p)}", group_algebra((2, 2, 2), Field(p))) for p in (2, 3)]
)


@pytest.mark.parametrize(
    "alg", [alg for _, alg in _BASIS_ROUTE_INPUTS], ids=[key for key, _ in _BASIS_ROUTE_INPUTS]
)
def test_basis_routes_match_seeded_searches(alg):
    # the copy witnesses and the duality pattern are decided on a basis and
    # the small spaces are read off the socles; the references keep the
    # seeded sweep, the 64 seeded draws and the two-sided annihilator
    a = analyze(alg)
    wit, ref = iso_witnesses(alg, a.dec), dense.iso_witnesses_reference(alg, a.dec)
    assert [_rows(row) for row in wit.us] == [_rows(row) for row in ref.us]
    assert [_rows(row) for row in wit.vs] == [_rows(row) for row in ref.vs]
    assert duality_pattern(a.corners) == dense.duality_pattern_reference(a.corners)
    small = [a.nak.socles[a.nak.nu_inverse(i)] for i in range(a.dec.n)]
    reference = dense.small_spaces_reference(a.corners, a.nak, radical(a.lam))
    assert [[z.coeffs for z in basis] for basis in small] == [
        [z.coeffs for z in basis] for basis in reference
    ]


def test_split_refuses_a_non_idempotent(monkeypatch):
    # a wrong split (x - 2)(x + 1) of an idempotent's x^2 - x evaluates to
    # eps = (z + 1)/3, which is no idempotent: the split raises, also
    # under python -O
    seen = []

    def wrong_factor(field, f):
        seen.append(f)
        return 1, [((-2, 1), 1), ((1, 1), 1)]

    monkeypatch.setattr(structure.poly, "factor", wrong_factor)
    with pytest.raises(AlgebraError, match="split produced a non-idempotent"):
        canonical_decomposition(matrix_algebra(2))
    assert seen[-1] == (0, -1, 1)
