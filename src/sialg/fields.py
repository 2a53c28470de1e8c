"""Exact scalar arithmetic over the rationals and prime fields.

Over QQ a scalar is a Python ``int`` when it is integral and a
``fractions.Fraction`` otherwise; over GF(p) it is an :class:`Fp`
(residue mod p).  All are immutable, support the usual operators, mix
freely with Python ints, and order totally, so generic code never needs
to branch on the field kind.  The one division in the package is
:meth:`Field.inv`, so no float can arise from exact inputs; a float or
bool offered as a scalar is refused.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParams

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
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
    """Element of GF(p).  Ints coerce on the fly; p mismatch raises."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise BadParams(f"mixed prime fields GF({self.p}), GF({other.p})")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else Fp(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else Fp(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else Fp(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else Fp(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(self.value * pow(v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(v * pow(self.value, self.p - 2, self.p), self.p)

    def __pow__(self, e: int):
        if e < 0:
            return (Fp(1, self.p) / self) ** (-e)
        return Fp(pow(self.value, e, self.p), self.p)

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __lt__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.value < v

    def __le__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.value <= v

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} mod {self.p}"


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; BadParams for anything else.

    ``int()`` would truncate 1.9 to 1 and accept "1" or true, so a file
    could name data it does not state.
    """
    if type(value) is not int:
        raise BadParams(f"{what} must be an integer, got {value!r}")
    return value


def narrow(x):
    """An integral Fraction as the int it equals; any other scalar as is."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _fraction(text: str):
    try:
        return narrow(Fraction(text))
    except ZeroDivisionError:
        raise BadParams(f"scalar '{text}' has a zero denominator") from None


class Field:
    """Ground field descriptor: the rationals (``p is None``) or GF(p)."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise BadParams(f"{p} is not prime")
        self.p = p
        if p is None:
            self.zero = 0
            self.one = 1
        else:
            self.zero = Fp(0, p)
            self.one = Fp(1, p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def __call__(self, n):
        """Coerce an int, Fraction or Fp into this field."""
        if isinstance(n, (bool, float)):
            raise BadParams(f"scalar {n!r} is not exact: write an integer or a string 'a/b'")
        if self.p is None:
            if isinstance(n, Fp):
                raise BadParams("cannot coerce a prime-field residue into the rationals")
            return n if type(n) is int else narrow(Fraction(n))
        if isinstance(n, Fp):
            if n.p != self.p:
                raise BadParams(f"mixed prime fields GF({self.p}), GF({n.p})")
            return n
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise BadParams(f"denominator of {n} vanishes mod {self.p}")
            return Fp(n.numerator, self.p) / n.denominator
        return Fp(n, self.p)

    def inv(self, x):
        """Multiplicative inverse of a nonzero scalar: the one division in sialg.

        Over QQ an int or Fraction gives an int when the inverse is
        integral; over GF(p) an int or residue gives a residue.  Zero raises
        ZeroDivisionError.
        """
        if self.p is None:
            return narrow(Fraction(1, x))
        return self.one / x

    def parse(self, text: str):
        """Parse a scalar string: "a", "a/b" or "r mod p"."""
        text = text.strip()
        if self.p is None:
            return _fraction(text)
        if "mod" in text:
            r, p = (part.strip() for part in text.split("mod"))
            if int(p) != self.p:
                raise BadParams(f"scalar '{text}' does not live in GF({self.p})")
            return Fp(int(r), self.p)
        if "/" in text:
            return self(_fraction(text))
        return Fp(int(text), self.p)

    def format(self, x) -> str:
        if self.p is None:
            return str(x)
        return f"{x.value} mod {self.p}"

    def random(self, rng, lo: int = -2, hi: int = 2):
        """Small deterministic scalar from a seeded rng."""
        if self.p is None:
            return rng.randint(lo, hi)
        return Fp(rng.randrange(self.p), self.p)

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
