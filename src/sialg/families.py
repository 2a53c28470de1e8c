"""Deterministic generators for the verification corpus.

Covers cyclic Nakayama algebras B(n, l) with path basis p[i,k], their
multiplicity amplifications with the four-index X basis, matrix algebras,
products of fields, and small abelian group algebras.  `_nsy_table`
states the product rule of the X basis once and emits only the nonzero
products, in basis-pair order; B(n, l), the matrix algebras and the
products of fields are its cases, relabelled.  The generators do not
check the algebra axioms themselves: `pipeline.analyze` proves every
input it is given an algebra, or refuses it as `validate()` would, and
the tests check the unit and associativity of every algebra the corpus
and the benchmark sweeps build.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from .algebra import FinDimAlgebra, Tensor2
from .errors import BadParams
from .fields import QQ, Field, json_int


def _nsy_table(n: int, l: int, m: tuple, field: Field):
    """(tuples, index, structure, unit) of the nsy basis X[i,k;r,s], tuples
    i-major, then k, r, s, and the nonzero products in basis-pair order:
    the one product rule of the cyclic Nakayama families."""
    tuples = [
        (i, k, r, s)
        for i in range(n)
        for k in range(l)
        for r in range(m[i])
        for s in range(m[(i + k) % n])
    ]
    index = {t: a for a, t in enumerate(tuples)}
    # X[i,k;r,s] X[i+k,k2;s,s2] = X[i,k+k2;r,s2] for k + k2 < l; every
    # other product is 0
    structure = [
        (a, index[((i + k) % n, k2, s, s2)], index[(i, k + k2, r, s2)], field.one)
        for (i, k, r, s), a in index.items()
        for k2 in range(l - k)
        for s2 in range(m[(i + k + k2) % n])
    ]
    unit = [field.one if k == 0 and r == s else field.zero for _, k, r, s in tuples]
    return tuples, index, structure, unit


def nakayama_algebra(n: int, l: int, field: Field = QQ) -> FinDimAlgebra:
    """Cyclic Nakayama algebra: paths p[i,k] on a cyclic quiver, length < l.

    p[i,k] starts at vertex i, ends at vertex i+k (mod n); composition
    appends paths and truncates at length l.  It is the nsy table at
    m = (1, ..., 1), p[i,k] being X[i,k;0,0].
    """
    if n < 1 or l < 1:
        raise BadParams("need n >= 1 and l >= 1")
    tuples, _, structure, unit = _nsy_table(n, l, (1,) * n, field)
    labels = [f"p[{i},{k}]" for i, k, _, _ in tuples]
    return FinDimAlgebra(field, labels, structure, unit)


@dataclass(frozen=True)
class NsyPresentation:
    """Amplified cyclic Nakayama algebra with its four-index basis.

    Basis X[i,k;r,s] with i in Z_n, 0 <= k < l, 0 <= r < m[i],
    0 <= s < m[(i+k) % n]; the superscripts are 0-based copy indices
    (r = target copy, s = source copy).
    """

    n: int
    l: int
    m: tuple
    algebra: FinDimAlgebra
    index: dict

    def x(self, i, k, r, s) -> int:
        return self.index[(i % self.n, k, r, s)]


def nsy_algebra(n: int, l: int, m, field: Field = QQ) -> NsyPresentation:
    """Amplification of nakayama_algebra(n, l) by copy multiplicities m."""
    if n < 1 or l < 1:
        raise BadParams("need n >= 1 and l >= 1")
    m = tuple(json_int(v, "multiplicity") for v in m)
    if len(m) != n or any(v < 1 for v in m):
        raise BadParams("m must list n multiplicities >= 1")
    tuples, index, structure, unit = _nsy_table(n, l, m, field)
    labels = [f"X[{i},{k};{r},{s}]" for (i, k, r, s) in tuples]
    alg = FinDimAlgebra(field, labels, structure, unit)
    return NsyPresentation(n, l, m, alg, index)


def reference_delta_one(nsy: NsyPresentation) -> Tensor2:
    """Closed-form image of 1 under the canonical comultiplication.

    Sum over i, r < m[i], k < l of
    X[i,k;r,0] (x) X[i+k-l+1, l-1-k; 0,r], first subscripts mod n.
    """
    n, l, m = nsy.n, nsy.l, nsy.m
    field = nsy.algebra.field
    coeffs: dict = {}
    for i in range(n):
        for r in range(m[i]):
            for k in range(l):
                a = nsy.x(i, k, r, 0)
                b = nsy.x(i + k - l + 1, l - 1 - k, 0, r)
                coeffs[(a, b)] = field.one
    return Tensor2(nsy.algebra, coeffs)


def matrix_algebra(size: int, field: Field = QQ) -> FinDimAlgebra:
    """Full matrix algebra on the matrix-unit basis E[u,v]: the nsy table
    at (n, l, m) = (1, 1, (size,)), E[u,v] being X[0,0;u-1,v-1]."""
    if size < 1:
        raise BadParams("size must be >= 1")
    tuples, _, structure, unit = _nsy_table(1, 1, (size,), field)
    labels = [f"E[{u + 1},{v + 1}]" for _, _, u, v in tuples]
    return FinDimAlgebra(field, labels, structure, unit)


def field_product_algebra(copies: int, field: Field = QQ) -> FinDimAlgebra:
    """Direct product of `copies` copies of the ground field: the nsy table
    at l = 1 and every m(i) = 1, e[i] being X[i-1,0;0,0]."""
    if copies < 1:
        raise BadParams("copies must be >= 1")
    tuples, _, structure, unit = _nsy_table(copies, 1, (1,) * copies, field)
    labels = [f"e[{i + 1}]" for i, _, _, _ in tuples]
    return FinDimAlgebra(field, labels, structure, unit)


def group_algebra(factors, field: Field = QQ) -> FinDimAlgebra:
    """Group algebra of the abelian group Z_{d1} x ... x Z_{dk}."""
    factors = tuple(json_int(d, "cyclic factor size") for d in factors)
    if not factors or any(d < 1 for d in factors):
        raise BadParams("cyclic factor sizes must be >= 1")
    elements = list(iter_product(*(range(d) for d in factors)))
    index = {g: a for a, g in enumerate(elements)}
    labels = ["g" + "".join(f"[{c}]" for c in g) for g in elements]
    structure = []
    for g, a in index.items():
        for h, b in index.items():
            gh = tuple((x + y) % d for x, y, d in zip(g, h, factors))
            structure.append((a, b, index[gh], field.one))
    unit = [field.zero] * len(elements)
    unit[index[tuple(0 for _ in factors)]] = field.one
    return FinDimAlgebra(field, labels, structure, unit)


def path_algebra_a2(field: Field = QQ) -> FinDimAlgebra:
    """Path algebra of the linear two-vertex quiver (not self-injective)."""
    labels = ["e1", "e2", "a"]
    one = field.one
    # a is the path from vertex 1 to vertex 2: e1*a = a = a*e2
    structure = [
        (0, 0, 0, one),
        (1, 1, 1, one),
        (0, 2, 2, one),
        (2, 1, 2, one),
    ]
    unit = [one, one, field.zero]
    return FinDimAlgebra(field, labels, structure, unit)


@dataclass(frozen=True)
class CorpusEntry:
    algebra: FinDimAlgebra
    provenance: dict

    @property
    def key(self) -> str:
        prov = self.provenance
        bits = [prov["family"]] + [
            f"{k}={prov[k]}" for k in sorted(prov) if k != "family"
        ]
        return " ".join(bits)


SMALL_NSY_SHAPES = ((1, 1), (1, 2), (2, 2), (1, 3))
STANDARD_NSY_SHAPES = SMALL_NSY_SHAPES + ((2, 3), (3, 2), (3, 3))


def corpus(profile: str = "small") -> list:
    """Deterministic verification corpus; the `standard` profile extends
    `small` with longer oriented cycles and multiplicities up to 3."""
    if profile == "small":
        shapes, bound = SMALL_NSY_SHAPES, 2
    elif profile == "standard":
        shapes, bound = STANDARD_NSY_SHAPES, 3
    else:
        raise BadParams(f"unknown profile {profile!r}")
    entries = []
    for n, l in shapes:
        for m in iter_product(range(1, bound + 1), repeat=n):
            nsy = nsy_algebra(n, l, m)
            entries.append(
                CorpusEntry(nsy.algebra, {"family": "nsy", "n": n, "l": l, "m": list(m)})
            )
    entries.append(CorpusEntry(matrix_algebra(2), {"family": "matrix", "size": 2}))
    entries.append(CorpusEntry(field_product_algebra(2), {"family": "product", "copies": 2}))
    entries.append(
        CorpusEntry(group_algebra([2]), {"family": "group", "factors": [2], "field": "rational"})
    )
    entries.append(
        CorpusEntry(
            group_algebra([2], Field(2)), {"family": "group", "factors": [2], "field": 2}
        )
    )
    if profile == "standard":
        entries.append(
            CorpusEntry(
                group_algebra([3], Field(3)), {"family": "group", "factors": [3], "field": 3}
            )
        )
    return entries
