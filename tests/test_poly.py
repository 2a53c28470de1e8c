import random
from fractions import Fraction

import pytest

from sialg import poly
from sialg.fields import Field, QQ


def qp(*coeffs):
    return poly.normalize(QQ, [Fraction(c) for c in coeffs])


def test_factor_x2_minus_1_rational():
    unit, factors = poly.factor(QQ, qp(-1, 0, 1))
    assert unit == 1
    assert factors == [(qp(-1, 1), 1), (qp(1, 1), 1)]


def test_factor_x2_plus_1_rational_irreducible():
    unit, factors = poly.factor(QQ, qp(1, 0, 1))
    assert unit == 1
    assert factors == [(qp(1, 0, 1), 1)]


def test_factor_x2_plus_1_mod_5():
    field = Field(5)
    f = (field(1), field(0), field(1))
    # oracle: exhaustive root search mod 5
    roots = [r for r in range(5) if (r * r + 1) % 5 == 0]
    assert sorted(roots) == [2, 3]
    unit, factors = poly.factor(field, f)
    assert unit == field.one
    expected = sorted(((field(-r), field.one), 1) for r in roots)
    assert factors == expected


def _refactor_product(field, unit, factors):
    out = (unit,)
    for g, mult in factors:
        for _ in range(mult):
            out = poly.mul(field, out, g)
    return out


def test_factor_remultiplies_random():
    rng = random.Random(11)
    for field in (QQ, Field(2), Field(3), Field(7)):
        for _ in range(30):
            deg = rng.randint(1, 6)
            f = [field.random(rng, -3, 3) for _ in range(deg)] + [field.one]
            f = poly.normalize(field, f)
            if poly.degree(f) < 1:
                continue
            unit, factors = poly.factor(field, f)
            assert _refactor_product(field, unit, factors) == f
            for g, _ in factors:
                assert g[-1] == field.one


def test_factor_with_multiplicities():
    # (x-1)^2 (x+2) over Q
    f = poly.mul(QQ, poly.mul(QQ, qp(-1, 1), qp(-1, 1)), qp(2, 1))
    unit, factors = poly.factor(QQ, f)
    assert unit == 1
    assert factors == [(qp(-1, 1), 2), (qp(2, 1), 1)]


def test_factor_frobenius_power_mod_2():
    field = Field(2)
    # x^4 + x^2 = (x (x+1))^2 over GF(2)
    f = (field(0), field(0), field(1), field(0), field(1))
    unit, factors = poly.factor(field, f)
    assert _refactor_product(field, unit, factors) == poly.normalize(field, f)
    assert sorted(m for _, m in factors) == [2, 2]


def test_xgcd_identity():
    rng = random.Random(12)
    for field in (QQ, Field(5)):
        for _ in range(25):
            f = poly.normalize(field, [field.random(rng, -3, 3) for _ in range(4)])
            g = poly.normalize(field, [field.random(rng, -3, 3) for _ in range(3)])
            if not f or not g:
                continue
            d, u, v = poly.xgcd(field, f, g)
            # u f + v g = d
            assert poly.sub(field, d, poly.mul(field, u, f)) == poly.mul(field, v, g)
            if d:
                assert poly.mod(field, f, d) == () and poly.mod(field, g, d) == ()


def _general_factor(field, f):
    """factor's route for degree >= 3, run on any f: Yun's squarefree step,
    then the rational or modular splitting of each squarefree part."""
    f = poly.normalize(field, [field(c) for c in f])
    unit, f = f[-1], poly.monic(field, f)
    out = []
    for g, m in poly._squarefree(field, f):
        if field.p is None:
            parts = poly._factor_squarefree_rational(g)
        else:
            parts = poly._factor_squarefree_fp(field, g)
        out.extend((h, m) for h in parts)
    out.sort()
    return unit, out


def _is_normal(field, c):
    return type(c) is type(field.normal(c)) and c == field.normal(c)


def _quadratic(field, rng, kind):
    """a (x - r)(x - s) with a != 0 for kind "split" (r, s drawn independently)
    or "double" (s = r); any a x^2 + b x + c for kind "any"."""
    if field.p is None:
        def draw():
            return Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4, 6]))
        lead = rng.choice([1, -1, 2, Fraction(3, 2), Fraction(-2, 5), 7])
    else:
        def draw():
            return rng.randrange(field.p)
        lead = rng.randrange(1, field.p)
    if kind == "any":
        return [draw(), draw(), lead]
    r = draw()
    s = r if kind == "double" else draw()
    return [lead * r * s, -lead * (r + s), lead]


@pytest.mark.parametrize("p", [None, 2, 3, 101, 10007, 65537])
def test_quadratic_closed_form_matches_general_route(p):
    # 10007 = 3 (mod 4); 65537 - 1 = 2^16, so Tonelli-Shanks runs every loop
    field = Field(p)
    rng = random.Random(15 if p is None else p)
    shapes = set()
    for _ in range(400):
        f = _quadratic(field, rng, rng.choice(["split", "double", "any"]))
        if not field(f[2]):
            continue
        unit, factors = poly.factor(field, f)
        assert (unit, factors) == _general_factor(field, f), f
        assert all(_is_normal(field, c) for c in (unit, *(c for g, _ in factors for c in g)))
        shapes.add(tuple(sorted((poly.degree(g), m) for g, m in factors)))
    # two distinct roots, a double root and an irreducible quadratic
    assert shapes == {((1, 1), (1, 1)), ((1, 2),), ((2, 1),)}
