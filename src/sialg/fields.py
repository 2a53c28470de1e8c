"""Exact scalar arithmetic over the rationals and prime fields.

Over QQ a scalar is a Python ``int`` or a ``fractions.Fraction``:
``Field.__call__``, :meth:`Field.normal`, :meth:`Field.inv`, the ``Span``
echelon forms and ``algebra.tensor_image`` narrow an integral value to
``int``, while the other inline accumulation kernels add without
narrowing and may keep an integral ``Fraction``; ``==``, ``hash`` and
:meth:`Field.format` treat both alike, so no report byte depends on it.
Over GF(p) a scalar is an ``int`` reduced into ``range(p)``.  Scalars
are plain Python numbers, so generic code adds and multiplies them
without branching on the field kind; over GF(p) every site that stores
a scalar, or tests one for zero or equality, first reduces it with
``% p`` (:meth:`Field.normal`).  The one division in the package is
:meth:`Field.inv`, so no float can arise from exact inputs; a float or
bool offered as a scalar is refused.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BadParams

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases up to 41: exact below
    3317044064679887385961981 (about 3.3e24), the least odd composite
    that is a strong pseudoprime to all of them; above that bound the
    answer is a strong-probable-prime test."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


class Fp:
    """A residue mod p tagged with its prime, for callers outside sialg:
    :meth:`Field.__call__` takes one and returns its ``int`` residue, the
    form sialg stores a scalar over GF(p) in."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def __mul__(self, other):
        return Fp(self.value * Field(self.p)(other), self.p)

    __rmul__ = __mul__


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; BadParams for anything else.

    ``int()`` would truncate 1.9 to 1 and accept "1" or true, so a file
    could name data it does not state.
    """
    if type(value) is not int:
        raise BadParams(f"{what} must be an integer, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """`value` if it is a JSON array; BadParams for anything else.

    A string is iterable too, so "1001" would read as four scalars.
    """
    if type(value) is not list:
        raise BadParams(f"{what} must be an array, got {type(value).__name__}")
    return value


def narrow(x):
    """An integral Fraction as the int it equals; any other scalar as is."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


# "a", "a/b" or "r mod p" in decimal digits: no exponent or decimal point,
# which Fraction would expand exactly however many digits they ask for
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+)|\s*mod\s*([0-9]+))?")


class Field:
    """Ground field descriptor: the rationals (``p is None``) or GF(p)."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise BadParams(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def __call__(self, n):
        """Coerce an int, Fraction or Fp into this field."""
        p = self.p
        if type(n) is int:
            return n if p is None else n % p
        if isinstance(n, (bool, float)):
            raise BadParams(f"scalar {n!r} is not exact: write an integer or a string 'a/b'")
        if p is None:
            if isinstance(n, Fp):
                raise BadParams("cannot coerce a prime-field residue into the rationals")
            return narrow(Fraction(n))
        if isinstance(n, Fp):
            if n.p != p:
                raise BadParams(f"mixed prime fields GF({p}), GF({n.p})")
            return n.value
        if isinstance(n, Fraction):
            if n.denominator % p == 0:
                raise BadParams(f"denominator of {n} vanishes mod {p}")
            return n.numerator * self.inv(n.denominator) % p
        return n % p

    def normal(self, x):
        """x in the form this field stores it: an integral Fraction as its
        int over QQ, the residue of an int in range(p) over GF(p)."""
        return narrow(x) if self.p is None else x % self.p

    def inv(self, x):
        """Multiplicative inverse of a nonzero scalar: the one division in sialg.

        Over QQ an int or Fraction gives an int when the inverse is
        integral; over GF(p) an int gives its inverse residue.  Zero raises
        ZeroDivisionError.
        """
        p = self.p
        if p is None:
            return narrow(Fraction(1, x))
        if x % p == 0:
            raise ZeroDivisionError(f"division by zero in GF({p})")
        return pow(x, p - 2, p)

    def parse(self, text: str):
        """Parse a scalar string: "a", "a/b" or, over GF(p), "r mod p", all
        integers; any other form, "1e5" or "0.5" included, is BadParams."""
        match = _SCALAR.fullmatch(text.strip())
        if match is None:
            raise BadParams(f"scalar '{text}' is not an integer, 'a/b' or 'r mod p'")
        try:
            num, den, mod = (None if g is None else int(g) for g in match.groups())
        except ValueError as exc:  # more digits than int() converts
            raise BadParams(f"scalar {text[:20]!r}... is too long: {exc}") from None
        if mod is not None:
            if mod != self.p:
                raise BadParams(f"scalar '{text}' does not live in {self!r}")
            return num % mod
        if den == 0:
            raise BadParams(f"scalar '{text}' has a zero denominator")
        return self(num if den is None else Fraction(num, den))

    def format(self, x) -> str:
        if self.p is None:
            return str(x)
        return f"{x % self.p} mod {self.p}"

    def random(self, rng, lo: int = -2, hi: int = 2):
        """Small deterministic scalar from a seeded rng."""
        if self.p is None:
            return rng.randint(lo, hi)
        return rng.randrange(self.p)

    def random_nonzero(self, rng):
        while True:
            x = self.random(rng, -3, 3)
            if x:
                return x

    def to_json(self):
        return "rational" if self.p is None else {"prime": self.p}

    @classmethod
    def from_json(cls, data) -> "Field":
        if data == "rational":
            return cls()
        if isinstance(data, dict) and set(data) == {"prime"}:
            return cls(json_int(data["prime"], "prime"))
        raise BadParams(f"bad field spec: {data!r}")

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()
