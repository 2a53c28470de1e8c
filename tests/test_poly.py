import random
from fractions import Fraction

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
            assert poly.add(field, poly.mul(field, u, f), poly.mul(field, v, g)) == d
            if d:
                assert poly.mod(field, f, d) == () and poly.mod(field, g, d) == ()
