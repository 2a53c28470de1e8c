"""Structure-constant algebras, elements, functionals and sparse tensors.

A :class:`FinDimAlgebra` stores only the nonzero products of basis
pairs, as sparse rows that are their own index of nonzero pairs, so
every operation here reduces to exact sparse accumulation.  All
values are immutable after construction and all checks return ``None``
on success or a lowest-index witness on failure, so a failing report can
always point at concrete data.  Everything is pure; the associativity
sweep over triples with a nonzero product path and the per-basis
invariance checks may safely run concurrently if ever needed.
"""

from __future__ import annotations

from .errors import BadParams, DimensionMismatch, InvalidAlgebra
from .fields import Field, json_int, json_list, narrow_values
from .linalg import Matrix, Span, sparse_rank


def _accum(dst: dict, key, value, p):
    """dst[key] += value, reduced mod p over GF(p) (p None over QQ); a
    zero sum drops the key, so stored dicts stay zero-free."""
    w = dst.get(key, 0) + value
    if p:
        w %= p
    if w:
        dst[key] = w
    else:
        dst.pop(key, None)


class FinDimAlgebra:
    """Finite-dimensional unital associative algebra given by a basis."""

    __slots__ = ("field", "dim", "labels", "rows", "_unit", "_unit_coeffs")

    def __init__(self, field: Field, labels, structure, unit_coeffs):
        """structure: iterable of (i, j, k, scalar) with b_i b_j = sum_k c b_k,
        each (i, j, k) at most once, whatever its scalar."""
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        d = self.dim
        if d == 0:
            raise BadParams("algebra dimension must be positive")
        rows = [{} for _ in range(d)]
        for i, j, k, c in structure:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise BadParams(f"structure index out of range: {(i, j, k)}")
            prod = rows[i].setdefault(j, {})
            if k in prod:
                raise BadParams(f"duplicate structure entry {(i, j, k)}")
            prod[k] = field(c)
        # rows[i] = {j: {k: c}} over the nonzero products b_i b_j only, in
        # increasing j: the table is its own index of nonzero pairs
        self.rows = [
            {j: nz for j, prod in sorted(row.items())
             if (nz := {k: c for k, c in prod.items() if c})}
            for row in rows
        ]
        unit = [field(c) for c in unit_coeffs]
        if len(unit) != d:
            raise BadParams("unit vector length differs from dim")
        self._unit_coeffs = {k: c for k, c in enumerate(unit) if c}
        self._unit = Element(self, self._unit_coeffs)

    def validate(self):
        """Raise InvalidAlgebra, with a witness, unless the unit and
        associativity axioms hold.  `pipeline.analyze` calls it on the
        basic algebra, and on its input only when a step fails (the model
        map proves a valid input an algebra); construction does not."""
        w = check_unit(self)
        if w is not None:
            raise InvalidAlgebra(f"unit axiom fails at basis index {w}", witness=w)
        w = check_associativity(self)
        if w is not None:
            raise InvalidAlgebra(f"associativity fails at triple {w}", witness=w)

    @property
    def unit(self) -> "Element":
        return self._unit

    def zero(self) -> "Element":
        return Element(self, {})

    def basis_element(self, i: int) -> "Element":
        return Element(self, {i: self.field.one})

    def element(self, coeffs) -> "Element":
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        out = {}
        for i, c in items:
            c = self.field(c)
            if c:
                if not 0 <= i < self.dim:
                    raise BadParams(f"coefficient index {i} out of range")
                out[i] = c
        return Element(self, out)

    def is_commutative(self) -> bool:
        rows = self.rows
        return all(
            rows[j].get(i) == prod for i, row in enumerate(rows) for j, prod in row.items()
        )

    def same_space(self, other) -> bool:
        return self is other or (self.dim == other.dim and self.field == other.field)

    def to_json(self) -> dict:
        struct = []
        for i, row in enumerate(self.rows):
            for j, prod in row.items():
                for k in sorted(prod):
                    struct.append([i, j, k, self.field.format(prod[k])])
        unit = [
            self.field.format(self._unit_coeffs.get(k, self.field.zero))
            for k in range(self.dim)
        ]
        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "basis": list(self.labels),
            "unit": unit,
            "structure": struct,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FinDimAlgebra":
        try:
            field = Field.from_json(data["field"])
            dim = json_int(data["dim"], "dim")
            labels = [str(x) for x in json_list(data["basis"], "basis")]
            if len(labels) != dim:
                raise BadParams("basis label count differs from dim")
            unit = [
                field.parse(s) if isinstance(s, str) else field(s)
                for s in json_list(data["unit"], "unit")
            ]
            structure = [
                (
                    *(json_int(x, "structure index") for x in (i, j, k)),
                    field.parse(c) if isinstance(c, str) else field(c),
                )
                for i, j, k, c in json_list(data["structure"], "structure")
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadParams(f"malformed algebra JSON: {exc}") from exc
        return cls(field, labels, structure, unit)

    def __repr__(self):
        return f"FinDimAlgebra(dim={self.dim}, field={self.field!r})"


class Element:
    """Sparse algebra element; supports + and -, with products by
    `multiply` and scalar multiples by `scaled`."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: FinDimAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other):
        if not self.algebra.same_space(other.algebra):
            raise DimensionMismatch("elements of different algebras")

    def dense(self) -> tuple:
        z = self.algebra.field.zero
        return tuple(self.coeffs.get(i, z) for i in range(self.algebra.dim))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra.same_space(other.algebra) and self.coeffs == other.coeffs

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        p = self.algebra.field.p
        for i, c in other.coeffs.items():
            _accum(out, i, c, p)
        return Element(self.algebra, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        p = self.algebra.field.p
        for i, c in other.coeffs.items():
            _accum(out, i, -c, p)
        return Element(self.algebra, out)

    def scaled(self, c):
        field = self.algebra.field
        c, p = field(c), field.p
        if not c:
            return Element(self.algebra, {})
        return Element(
            self.algebra, {i: v * c % p if p else v * c for i, v in self.coeffs.items()}
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{c}*{self.algebra.labels[i]}" for i, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


class Functional:
    """Linear functional as a dense value row over the basis."""

    __slots__ = ("algebra", "values")

    def __init__(self, algebra: FinDimAlgebra, values):
        values = tuple(algebra.field(v) for v in values)
        if len(values) != algebra.dim:
            raise DimensionMismatch("functional length differs from dim")
        self.algebra = algebra
        self.values = values

    def __call__(self, a: Element):
        if not self.algebra.same_space(a.algebra):
            raise DimensionMismatch("functional applied across algebras")
        field = self.algebra.field
        acc = field.zero
        for i, c in a.coeffs.items():
            acc = acc + self.values[i] * c
        return acc if field.p is None else acc % field.p

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return self.algebra.same_space(other.algebra) and self.values == other.values

    def to_json(self):
        return [self.algebra.field.format(v) for v in self.values]

    @classmethod
    def from_json(cls, algebra, data):
        field = algebra.field
        try:
            values = [
                field.parse(c) if isinstance(c, str) else field(c)
                for c in json_list(data, "functional")
            ]
        except (TypeError, ValueError) as exc:
            raise BadParams(f"malformed functional JSON: {exc}") from exc
        return cls(algebra, values)

    def __repr__(self):
        return f"Functional({list(self.values)})"


class Tensor2:
    """Sparse element of A (x) A keyed by basis index pairs.

    Like every value here it is immutable after construction.  Two caches
    rely on that: the comultiplication table and the grouping of the terms
    by leg, each filled on first use and never invalidated.
    """

    __slots__ = ("algebra", "coeffs", "_delta", "_legs")

    def __init__(self, algebra: FinDimAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs
        self._delta = None
        self._legs = None

    def legs(self) -> tuple:
        """(by_left, by_right): the terms c u_alpha (x) v_beta grouped by
        left leg, {alpha: [(beta, c), ...]}, and by right leg,
        {beta: [(alpha, c), ...]}.  Computed on first use."""
        if self._legs is None:
            by_left: dict = {}
            by_right: dict = {}
            for (alpha, beta), c in self.coeffs.items():
                by_left.setdefault(alpha, []).append((beta, c))
                by_right.setdefault(beta, []).append((alpha, c))
            self._legs = (by_left, by_right)
        return self._legs

    def delta(self) -> list:
        """Comultiplication table: entry g holds the coefficients of b_g . x.

        Computed on first use and shared by every check that reads the
        images Delta(b_g) = b_g . x.
        """
        if self._delta is None:
            alg = self.algebra
            self._delta = [
                act_left(alg.basis_element(g), self).coeffs for g in range(alg.dim)
            ]
        return self._delta

    def __eq__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.algebra.same_space(other.algebra) and self.coeffs == other.coeffs

    def to_json(self):
        fmt = self.algebra.field.format
        return [[a, b, fmt(c)] for (a, b), c in sorted(self.coeffs.items())]

    @classmethod
    def from_json(cls, algebra, data):
        parse = algebra.field.parse
        out, seen = {}, set()
        try:
            for a, b, c in json_list(data, "tensor"):
                a, b = json_int(a, "tensor index"), json_int(b, "tensor index")
                if not (0 <= a < algebra.dim and 0 <= b < algebra.dim):
                    raise BadParams(f"tensor index ({a},{b}) out of range")
                # a repeated pair is refused whatever its scalars, zeros too
                if (a, b) in seen:
                    raise BadParams(f"duplicate tensor entry {(a, b)}")
                seen.add((a, b))
                c = parse(c) if isinstance(c, str) else algebra.field(c)
                if c:
                    out[(a, b)] = c
        except (TypeError, ValueError) as exc:
            raise BadParams(f"malformed tensor JSON: {exc}") from exc
        return cls(algebra, out)

    def __repr__(self):
        lbl = self.algebra.labels
        parts = [f"{c}*{lbl[a]}(x){lbl[b]}" for (a, b), c in sorted(self.coeffs.items())]
        return " + ".join(parts) if parts else "0"


# -- products and axioms ------------------------------------------------------


def multiply(a: Element, b: Element) -> Element:
    """Bilinear extension of the structure constants."""
    if not a.algebra.same_space(b.algebra):
        raise DimensionMismatch("product across algebras")
    rows = a.algebra.rows
    p = a.algebra.field.p
    out: dict = {}
    for i, ca in a.coeffs.items():
        row_i = rows[i]
        for j, cb in b.coeffs.items():
            prod = row_i.get(j)
            if prod is None:
                continue
            c = ca * cb
            for k, ck in prod.items():
                w = out.get(k, 0) + c * ck
                if p:
                    w %= p
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
    return Element(a.algebra, out)


def products(alg: FinDimAlgebra, xs, ys):
    """Yield, for each coefficient dict x of `xs` in order, {t: coefficients
    of x . ys[t]} over the t whose product is nonzero.

    Only the structure pairs (i, j) with b_i b_j != 0 are visited, each
    against the vectors of `ys` with a key j, so a batch over a sparse
    table costs its nonzero terms rather than |xs| |ys| products, and an
    empty `ys` costs no walk.
    """
    rows = alg.rows
    p = alg.field.p
    by_key: dict = {}
    for t, y in enumerate(ys):
        for j, c in y.items():
            by_key.setdefault(j, []).append((t, c))
    for x in xs:
        acc: dict = {}
        for i, ca in x.items() if by_key else ():
            for j, row in rows[i].items():
                terms = by_key.get(j)
                if terms is None:
                    continue
                for t, cb in terms:
                    c = ca * cb
                    out = acc.setdefault(t, {})
                    for k, ck in row.items():
                        _accum(out, k, c * ck, p)
        yield {t: out for t, out in acc.items() if out}


def tensor_image(field: Field, coeffs: dict, rows) -> dict:
    """sum of c . rows[a] (x) rows[b] over the terms ((a, b), c) of `coeffs`,
    zero-free and in the field's normal form: the one two-leg change of
    basis, read by the model map and by `PeirceCorners.tensor_components`."""
    p = field.p
    out: dict = {}
    for (a, b), c in coeffs.items():
        right = rows[b].items()
        for k1, c1 in rows[a].items():
            cc = c * c1
            for k2, c2 in right:
                _accum(out, (k1, k2), cc * c2, p)
    return out if p else narrow_values(out)


def combination(alg: FinDimAlgebra, vectors, coeffs) -> Element:
    """sum_t c_t v_t for coeffs a dict {t: c_t} or a list parallel to
    `vectors`, accumulated into one dict, in the field's normal form."""
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    norm, p = alg.field.normal, alg.field.p
    out: dict = {}
    for t, c in items:
        c = norm(c)
        if c:
            for k, v in vectors[t].coeffs.items():
                _accum(out, k, v * c, p)
    return Element(alg, out if p else narrow_values(out))


def gram_matrix(alg: FinDimAlgebra, f: Functional) -> Matrix:
    """G[a][b] = f(b_a b_b), as sparse rows over the nonzero products: the
    Gram matrix of a counit, and with f the traces the radical's trace form."""
    field, vals = alg.field, f.values
    rows = []
    for row in alg.rows:
        out = {}
        for b, prod in row.items():
            acc = field.zero
            for k, c in prod.items():
                if vals[k]:
                    acc = acc + c * vals[k]
            if acc and (acc := field.normal(acc)):
                out[b] = acc
        rows.append(out)
    return Matrix(field, rows, alg.dim)


def check_unit(alg: FinDimAlgebra):
    """None if 1*b_i = b_i = b_i*1 for all i, else the first failing index;
    one `products` walk per side."""
    one = [alg.unit.coeffs]
    basis = [{i: alg.field.one} for i in range(alg.dim)]
    [left] = products(alg, one, basis)
    for i, (b, right) in enumerate(zip(basis, products(alg, basis, one))):
        if left.get(i, {}) != b or right.get(0, {}) != b:
            return i
    return None


def check_associativity(alg: FinDimAlgebra):
    """None if all basis triples associate, else the first failing (i, j, k).

    Only triples with a nonzero product path are compared: some b_l in
    supp(b_i b_j) with b_l b_k != 0, or in supp(b_j b_k) with b_i b_l != 0.
    Every other triple has two zero sides.  Candidates go in lexicographic
    order, so the witness is the lowest failing triple.
    """
    rows = alg.rows
    p = alg.field.p
    producers: list = [[] for _ in rows]  # l -> (j, k) with b_l in supp(b_j b_k)
    for j, rows_j in enumerate(rows):
        for k, prod in rows_j.items():
            for l in prod:
                producers[l].append((j, k))
    for i, rows_i in enumerate(rows):
        pairs = set()
        for j, prod in rows_i.items():
            for l in prod:
                pairs.update((j, k) for k in rows[l])
        for l in rows_i:
            pairs.update(producers[l])
        for j, k in sorted(pairs):
            left: dict = {}
            for l, c in rows_i.get(j, {}).items():
                for m, c2 in rows[l].get(k, {}).items():
                    _accum(left, m, c * c2, p)
            right: dict = {}
            for l, c in rows[j].get(k, {}).items():
                for m, c2 in rows_i.get(l, {}).items():
                    _accum(right, m, c * c2, p)
            if left != right:
                return (i, j, k)
    return None


# -- bimodule action on tensors ----------------------------------------------


def act_left(a: Element, t: Tensor2) -> Tensor2:
    """a . (u (x) v) = (a u) (x) v, extended bilinearly, visiting only the
    left legs alpha with b_i b_alpha != 0 for the acting b_i."""
    if not a.algebra.same_space(t.algebra):
        raise DimensionMismatch("action across algebras")
    rows = t.algebra.rows
    p = t.algebra.field.p
    by_left = t.legs()[0]
    out: dict = {}
    for i, ca in a.coeffs.items():
        for alpha, prod in rows[i].items():
            terms = by_left.get(alpha)
            if terms is None:
                continue
            for k, ck in prod.items():
                cc = ca * ck
                for beta, c in terms:
                    key = (k, beta)
                    w = out.get(key, 0) + cc * c
                    if p:
                        w %= p
                    if w:
                        out[key] = w
                    else:
                        out.pop(key, None)
    return Tensor2(t.algebra, out)


def right_images(t: Tensor2) -> list:
    """Entry g holds the coefficients of t . b_g.  All are built in one walk
    of each right leg beta against the nonzero products b_beta b_g of its
    row, so no pair (beta, g) with b_beta b_g = 0 is visited."""
    rows = t.algebra.rows
    p = t.algebra.field.p
    images: list = [{} for _ in rows]
    for beta, terms in t.legs()[1].items():
        for g, prod in rows[beta].items():
            out = images[g]
            for k, ck in prod.items():
                for alpha, c in terms:
                    key = (alpha, k)
                    w = out.get(key, 0) + c * ck
                    if p:
                        w %= p
                    if w:
                        out[key] = w
                    else:
                        out.pop(key, None)
    return images


def is_invariant(t: Tensor2):
    """None when b.t = t.b for every basis element b, else a witness index.

    Invariance is linear in the acting element, so checking the basis is
    exhaustive for the whole algebra.
    """
    for g, (left, right) in enumerate(zip(t.delta(), right_images(t))):
        if left != right:
            return g
    return None


def check_coassociativity(x: Tensor2):
    """Compare (Delta (x) id) and (id (x) Delta) applied to x, exactly.

    Returns None on equality or the first differing triple.  Combined
    with invariance this certifies coassociativity of the induced map on
    the whole algebra.
    """
    table = x.delta()
    p = x.algebra.field.p
    diff: dict = {}  # (Delta (x) id)x - (id (x) Delta)x, zero-free
    for (alpha, beta), c in x.coeffs.items():
        for (u, v), cd in table[alpha].items():
            key = (u, v, beta)
            w = diff.get(key, 0) + c * cd
            if p:
                w %= p
            if w:
                diff[key] = w
            else:
                diff.pop(key, None)
        for (u, v), cd in table[beta].items():
            key = (alpha, u, v)
            w = diff.get(key, 0) - c * cd
            if p:
                w %= p
            if w:
                diff[key] = w
            else:
                diff.pop(key, None)
    return min(diff) if diff else None


def delta_rank(x: Tensor2) -> int:
    """Rank of the induced comultiplication, via sparse elimination."""
    return sparse_rank(x.algebra.field, x.delta())


def apply_functional(side: str, f: Functional, t: Tensor2) -> Element:
    """Contract one tensor leg with a functional: (f (x) id)t or (id (x) f)t."""
    if not f.algebra.same_space(t.algebra):
        raise DimensionMismatch("functional applied across algebras")
    vals = f.values
    p = t.algebra.field.p
    out: dict = {}
    if side == "left":
        for (alpha, beta), c in t.coeffs.items():
            v = vals[alpha]
            if v:
                _accum(out, beta, v * c, p)
    elif side == "right":
        for (alpha, beta), c in t.coeffs.items():
            v = vals[beta]
            if v:
                _accum(out, alpha, c * v, p)
    else:
        raise BadParams("side must be 'left' or 'right'")
    return Element(t.algebra, out)


def is_counit(f: Functional, t: Tensor2) -> bool:
    """The counit identities (f (x) id)t = 1 = (id (x) f)t."""
    unit = t.algebra.unit
    return apply_functional("left", f, t) == unit and apply_functional("right", f, t) == unit


# -- basis permutations -------------------------------------------------------


def permute_basis(alg: FinDimAlgebra, perm) -> FinDimAlgebra:
    """Relabelled copy whose basis b'_r equals b_{perm[r]} of the original."""
    perm = list(perm)
    d = alg.dim
    if sorted(perm) != list(range(d)):
        raise BadParams("not a permutation of the basis indices")
    inv = [0] * d
    for r, i in enumerate(perm):
        inv[i] = r
    structure = []
    for i, row in enumerate(alg.rows):
        for j, prod in row.items():
            for k, c in prod.items():
                structure.append((inv[i], inv[j], inv[k], c))
    unit = [alg.field.zero] * d
    for k, c in alg._unit_coeffs.items():
        unit[inv[k]] = c
    labels = [alg.labels[perm[r]] for r in range(d)]
    return FinDimAlgebra(alg.field, labels, structure, unit)


def minimal_polynomial(a: Element, unit: Element | None = None):
    """Monic minimal polynomial, little-endian coefficients.

    `unit` defaults to the algebra unit; pass a corner idempotent to work
    relative to a corner subalgebra (powers then stay inside the corner).
    """
    alg = a.algebra
    field = alg.field
    d = alg.dim
    span = Span(field)
    power = alg.unit if unit is None else unit
    for t in range(d + 1):
        # the power z^t carries the tag key d + t, above every coordinate key
        row = span.reduce({**power.coeffs, d + t: field.one})
        if min(row) >= d:
            # only tags are left: z^t + sum_{s<t} row[d + s] z^s = 0
            return tuple(row.get(d + s, field.zero) for s in range(t + 1))
        span.add(row)
        power = multiply(power, a)
    raise InvalidAlgebra("no minimal polynomial found; algebra data corrupt")
