"""Univariate polynomial arithmetic and small-degree exact factorization.

Polynomials are normalized little-endian coefficient tuples over a
:class:`~sialg.fields.Field`; the zero polynomial is ``()``.  Every
routine takes the field first: results pass through ``normalize``, which
reduces coefficients mod p over GF(p), and division inverts through
``Field.inv``.
Over GF(p) factorization runs squarefree / distinct-degree /
equal-degree splitting;
over the rationals it reduces mod one large prime and recombines factor
subsets (fine at the small degrees this pipeline produces, no attempt at
industrial-strength factoring).
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd as int_gcd, isqrt, lcm

from .errors import BadParams
from .fields import QQ, Field, next_prime


def normalize(field, coeffs) -> tuple:
    p = field.p
    coeffs = list(coeffs) if p is None else [c % p for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def degree(f) -> int:
    return len(f) - 1


def add(field, f, g) -> tuple:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = out[i] + c
    return normalize(field, out)


def sub(field, f, g) -> tuple:
    out = list(f) + [c * 0 for c in g[len(f):]]
    for i, c in enumerate(g):
        out[i] = out[i] - c
    return normalize(field, out)


def scale(field, f, c) -> tuple:
    if not c:
        return ()
    return normalize(field, [a * c for a in f])


def mul(field, f, g) -> tuple:
    if not f or not g:
        return ()
    out = [f[0] * g[0] * 0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
    return normalize(field, out)


def divmod_poly(field, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [g[-1] * 0] * max(len(f) - len(g) + 1, 0)
    inv_lead = field.inv(g[-1])
    for i in range(len(f) - len(g), -1, -1):
        # over GF(p) the quotient digit is tested once reduced; the
        # remainder is reduced by normalize
        c = field.normal(f[i + len(g) - 1] * inv_lead)
        if c:
            q[i] = c
            for j, b in enumerate(g):
                f[i + j] = f[i + j] - c * b
    return normalize(field, q), normalize(field, f)


def mod(field, f, g):
    return divmod_poly(field, f, g)[1]


def monic(field, f) -> tuple:
    if not f:
        return ()
    inv = field.inv(f[-1])
    return normalize(field, [c * inv for c in f])


def gcd(field, f, g) -> tuple:
    while g:
        f, g = g, mod(field, f, g)
    return monic(field, f)


def xgcd(field, f, g):
    """Monic g0 = gcd(f, g) together with u, v such that u*f + v*g = g0."""
    r0, r1 = f, g
    one = (field.one,) if f or g else ()
    s0, s1 = one, ()
    t0, t1 = (), one
    while r1:
        q, r = divmod_poly(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(field, s0, mul(field, q, s1))
        t0, t1 = t1, sub(field, t0, mul(field, q, t1))
    if not r0:
        return (), s0, t0
    inv = field.inv(r0[-1])
    return scale(field, r0, inv), scale(field, s0, inv), scale(field, t0, inv)


def derivative(field, f) -> tuple:
    return normalize(field, [i * c for i, c in enumerate(f)][1:])


def pow_mod(field, f, e: int, m) -> tuple:
    result = (field.one,)
    f = mod(field, f, m)
    while e:
        if e & 1:
            result = mod(field, mul(field, result, f), m)
        f = mod(field, mul(field, f, f), m)
        e >>= 1
    return result


def _squarefree(field: Field, f) -> list:
    """Yun's squarefree decomposition [(g, m), ...] of a monic f.

    Over GF(p) a vanishing derivative, or a remainder left when the loop
    ends, is a polynomial in x^p; its p-th root is read off every p-th
    coefficient (p-th roots of GF(p) coefficients are themselves).
    """
    p = field.p
    out = []
    if degree(f) < 1:
        return out
    d = derivative(field, f)
    if p and not d:
        return [(g, m * p) for g, m in _squarefree(field, normalize(field, f[::p]))]
    c = gcd(field, f, d)
    w = divmod_poly(field, f, c)[0]
    i = 1
    while degree(w) > 0:
        y = gcd(field, w, c)
        fac = divmod_poly(field, w, y)[0]
        if degree(fac) > 0:
            out.append((monic(field, fac), i))
        w = y
        c = divmod_poly(field, c, y)[0]
        i += 1
    if p and degree(c) > 0:
        out.extend((g, m * p) for g, m in _squarefree(field, normalize(field, c[::p])))
    return out


# -- factorization over GF(p) ------------------------------------------------


def _equal_degree_split(field: Field, f, d: int, rng) -> list:
    if degree(f) == d:
        return [f]
    p = field.p
    one = (field.one,)
    while True:
        a = normalize(field, [rng.randrange(p) for _ in range(degree(f))])
        if degree(a) < 1:
            continue
        if p == 2:
            t = a
            b = a
            for _ in range(d - 1):
                b = pow_mod(field, b, 2, f)
                t = add(field, t, b)
            h = gcd(field, t, f)
        else:
            b = pow_mod(field, a, (p**d - 1) // 2, f)
            h = gcd(field, sub(field, b, one), f)
        if 0 < degree(h) < degree(f):
            g = divmod_poly(field, f, h)[0]
            return _equal_degree_split(field, monic(field, h), d, rng) + _equal_degree_split(
                field, monic(field, g), d, rng
            )


def _factor_squarefree_fp(field: Field, f) -> list:
    p = field.p
    out = []
    x = (field.zero, field.one)
    h = x
    rest = f
    d = 1
    while degree(rest) >= 2 * d:
        h = pow_mod(field, h, p, rest)
        g = gcd(field, sub(field, h, x), rest)
        if degree(g) > 0:
            rng = random.Random(p * 1000003 + d * 101 + degree(rest))
            out.extend(_equal_degree_split(field, monic(field, g), d, rng))
            rest = divmod_poly(field, rest, g)[0]
            h = mod(field, h, rest) if rest else h
        d += 1
    if degree(rest) > 0:
        out.append(monic(field, rest))
    return out


# -- factorization over the rationals ----------------------------------------


def _primitive_int(f):
    """Scale a rational polynomial to primitive integer coefficients, lc > 0."""
    den = lcm(*(c.denominator for c in f)) if f else 1
    ints = [int(c * den) for c in f]
    content = 0
    for c in ints:
        content = int_gcd(content, c)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _max_norm(ints) -> int:
    return max(abs(c) for c in ints)


def _factor_squarefree_rational(f) -> list:
    """Monic rational irreducible factors of a squarefree monic-able f."""
    n = degree(f)
    if n == 1:
        return [monic(QQ, f)]
    g = _primitive_int(f)
    lead = g[-1]
    # coefficient bound for integer factors of lead*g, with generous slack
    bound = (n + 1) * (isqrt(n + 1) + 1) * (2**n) * _max_norm(g) * abs(lead)
    p = next_prime(max(2 * bound + 1, 101))
    while True:
        field = Field(p)
        if g[-1] % p:
            gp = normalize(field, g)
            if degree(gcd(field, gp, derivative(field, gp))) == 0:
                break
        p = next_prime(p + 1)
    pool = _factor_squarefree_fp(field, monic(field, gp))
    pool.sort()
    found = []
    current = list(g)

    def lift(mod_poly, lead_now):
        out = []
        for c in mod_poly:
            v = c * lead_now % p
            if v > p // 2:
                v -= p
            out.append(v)
        return normalize(QQ, out)

    k = 1
    while 2 * k <= len(pool):
        retry = False
        for idx in combinations(range(len(pool)), k):
            prod = (field.one,)
            for i in idx:
                prod = mul(field, prod, pool[i])
            lead_now = int(current[-1])
            cand = lift(prod, lead_now)
            cand = normalize(QQ, _primitive_int(cand))
            if not cand or degree(cand) < 1:
                continue
            q, r = divmod_poly(QQ, tuple(current), cand)
            if not r:
                found.append(monic(QQ, cand))
                current = list(q)
                pool = [pl for i, pl in enumerate(pool) if i not in idx]
                retry = True
                break
        if not retry:
            k += 1
    if degree(normalize(QQ, current)) > 0:
        found.append(monic(QQ, normalize(QQ, current)))
    return found


def factor(field: Field, f):
    """Factor f into monic irreducibles: returns (unit, [(factor, mult), ...]).

    The unit times the product of factor powers re-multiplies to f exactly.
    """
    f = normalize(field, [field(c) for c in f])
    if not f:
        raise BadParams("cannot factor the zero polynomial")
    unit = f[-1]
    f = monic(field, f)
    if degree(f) < 1:
        return unit, []
    out = []
    for g, m in _squarefree(field, f):
        if field.p is None:
            out.extend((h, m) for h in _factor_squarefree_rational(g))
        else:
            out.extend((h, m) for h in _factor_squarefree_fp(field, g))
    out.sort()
    return unit, out
