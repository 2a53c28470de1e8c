import ast
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from sialg.errors import BadParams
from sialg.fields import Field, Fp, QQ, is_prime, narrow_values, next_prime


def test_primality():
    primes = [2, 3, 5, 7, 11, 101, 7919, 104729]
    for p in primes:
        assert is_prime(p)
    for n in [0, 1, 4, 9, 100, 7917, 104730]:
        assert not is_prime(n)
    assert next_prime(14) == 17


def test_narrow_values_keeps_an_int_dict_and_narrows_integral_fractions():
    ints = {1: 3, 5: -2, 7: 10**30}
    assert narrow_values(ints) is ints and narrow_values({}) == {}
    # a Fraction among the values, integral or not, sends the dict through
    # narrow; integral Fractions summing to an int are caught too
    mixed = {0: Fraction(4, 2), 1: Fraction(1, 2), 2: 7}
    out = narrow_values(mixed)
    assert out == mixed and [type(v) for v in out.values()] == [int, Fraction, int]
    pair = narrow_values({0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert [type(v) for v in pair.values()] == [Fraction, Fraction]
    whole = narrow_values({0: Fraction(3, 1), 1: Fraction(-3, 1)})
    assert list(whole.items()) == [(0, 3), (1, -3)]
    assert [type(v) for v in whole.values()] == [int, int]


# OEIS A014233: psi_k is the least odd composite that is a strong
# pseudoprime to each of the first k prime bases
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)


def test_primality_exact_below_psi13():
    # the 13 bases up to 41 refuse every psi_k with k <= 12; the 12 bases
    # up to 37 accepted psi_12 = 399165290221 * 798330580441
    assert 399165290221 * 798330580441 == PSI[-1]
    for psi in PSI:
        assert not is_prime(psi), psi
    with pytest.raises(BadParams):
        Field(PSI[-1])
    for n in range(20000):
        assert is_prime(n) == (n > 1 and all(n % q for q in range(2, isqrt(n) + 1))), n


def test_prime_field_requires_prime():
    with pytest.raises(BadParams):
        Field(6)


def test_fp_field_axioms_random():
    # over GF(p) a scalar is an int in range(p); arithmetic is int
    # arithmetic brought back into range(p) by field.normal
    rng = random.Random(1)
    for p in (2, 3, 5, 13):
        f = Field(p)
        assert (f.zero, f.one) == (0, 1)
        for _ in range(200):
            a, b, c = (f(rng.randrange(-3 * p, 3 * p)) for _ in range(3))
            assert all(type(x) is int and 0 <= x < p for x in (a, b, c))
            assert f.normal(a * (b + c)) == f.normal(a * b + a * c)
            if b:
                assert f.normal(a * f.inv(b) * b) == a
        assert f.normal(f.one + (p - 1)) == f.zero
        assert f.normal(-f.one) == p - 1


def test_fp_int_interop_and_order():
    # Fp survives as a tagged residue outside the package: the field takes
    # one and returns its int residue, and it multiplies with ints
    f = Field(5)
    x = Fp(8, 5)
    assert x.value == 3
    assert type(f(x)) is int and f(x) == 3
    assert (2 * x).value == 1 and (x * Fp(4, 5)).value == 2
    with pytest.raises(BadParams):
        x * Fp(1, 7)
    with pytest.raises(BadParams):
        Field(7)(x)
    with pytest.raises(BadParams):
        QQ(x)


def test_parse_format_round_trip():
    f = Field()
    for s in ("3", "-7/2", "0"):
        assert f.format(f.parse(s)) == str(Fraction(s))
    g = Field(7)
    assert g.parse("12 mod 7") == g(5)
    assert g.parse("12") == g(5)
    assert g.format(g(5)) == "5 mod 7"
    with pytest.raises(BadParams):
        g.parse("3 mod 11")


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("text", ["1e5", "1E-3", "0.5", ".5", "1_000", "1/-2", "2 mod", ""])
def test_parse_refuses_forms_outside_the_grammar(field, text):
    # Fraction() would expand "1e5" to 100000, and "1e1000000000" digit by digit
    with pytest.raises(BadParams):
        field.parse(text)


def test_parse_grammar():
    assert QQ.parse(" +5 ") == 5 and QQ.parse("-6/4") == Fraction(-3, 2)
    g = Field(7)
    assert g.parse("-1") == 6 and g.parse("1/2") == 4 and g.parse("3mod7") == 3
    with pytest.raises(BadParams):
        QQ.parse("3 mod 7")
    with pytest.raises(BadParams):
        g.parse("2/7")
    with pytest.raises(BadParams):  # past int()'s digit limit
        QQ.parse("9" * 5000)


def test_rational_coercion():
    assert QQ(Fraction(2, 4)) == Fraction(1, 2)
    assert type(QQ(Fraction(4, 2))) is int and QQ(Fraction(4, 2)) == 2
    f = Field(5)
    assert f(Fraction(1, 2)) == f(3)
    with pytest.raises(BadParams):
        f(Fraction(1, 5))


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("value", [0.1, 2.0, True])
def test_inexact_scalars_refused(field, value):
    with pytest.raises(BadParams):
        field(value)


def test_rational_scalars_are_ints_when_integral():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
    assert QQ.parse("1/2") == Fraction(1, 2)
    rng = random.Random(3)
    assert all(type(QQ.random(rng)) is int for _ in range(20))
    for x, text in ((2, "2"), (-1, "-1"), (Fraction(1, 2), "1/2")):
        assert QQ.format(QQ(x)) == text


def test_inv():
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(Fraction(1, 2))) is int and QQ.inv(Fraction(1, 2)) == 2
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    f = Field(5)
    # an int over GF(p) is inverted in GF(p), not over QQ, unreduced or not
    assert type(f.inv(f(2))) is int and f.inv(f(2)) == 3
    assert type(f.inv(2)) is int and f.inv(2) == 3
    assert f.inv(-3) == 3 and f.inv(7) == 3
    with pytest.raises(ZeroDivisionError):
        f.inv(10)
    for field in (QQ, f):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


def test_division_only_in_fields():
    # every `/` in the package is in fields.py, behind Field.inv and Fp, so
    # no `1 / c` on int scalars can bring floats back
    src = Path(__file__).resolve().parents[1] / "src" / "sialg"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(getattr(node, "op", None), ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(src.glob("*.py"))) > 1
    assert found == []


def test_field_json():
    assert Field.from_json("rational") == QQ
    assert Field.from_json({"prime": 3}) == Field(3)
    assert Field(3).to_json() == {"prime": 3}
    with pytest.raises(BadParams):
        Field.from_json({"weird": 1})
    for prime in (5.9, "7", True):
        with pytest.raises(BadParams, match="prime must be an integer"):
            Field.from_json({"prime": prime})
