"""Exact octonion arithmetic over arbitrary-precision integers.

An octonion is stored as eight integer coefficients over the basis units
e0..e7, where e0 = 1 is the real unit.  Products of basis units come from a
signed 8x8 table built from the seven quaternionic triples, and the full
product is the bilinear extension of that table (64 multiplications).
The algebra is non-commutative and non-associative, but alternative, and
the Euclidean norm form is multiplicative.  The table's laws (e0 is the unit, e_i^2 = -1,
distinct imaginary units anticommute, each triple is cyclic) hold by
construction and are asserted by the test suite, not checked at import.

Exactness is the point of this module.  Coefficients are Python ints, so
nothing ever rounds or overflows; rational-valued octonions (needed by
identities that carry 1/7 or 1/49 factors) are handled by ScaledOctonion,
an integer octonion paired with a positive denominator kept in lowest
terms.  All values are immutable and all operations are pure, so everything
here is safe for unrestricted concurrent use.  Results of arithmetic, ints
combined with ints, skip the checks of ``Octonion(...)`` (``_octonion``).
"""

from __future__ import annotations

import re
from math import gcd
from operator import add, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

__all__ = [
    "SignedBasis",
    "MULTIPLICATION_TABLE",
    "basis_product",
    "Octonion",
    "ScaledOctonion",
]


class SignedBasis(NamedTuple):
    """A signed basis unit: the product of two basis units is always one of
    these.  ``index`` 0 with sign -1 encodes the square of an imaginary
    unit, e_i * e_i = -1."""

    sign: int
    index: int


# The seven cyclically oriented quaternionic triples (i, j, k): e_i e_j = e_k,
# e_j e_k = e_i, e_k e_i = e_j, and each reversed product is the negative.
# With e0 = 1 and e_i^2 = -1 they fix the whole table (the Fano-plane
# construction in J. Baez, "The Octonions", Bull. AMS 39 (2002)).
_QUATERNION_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7),
                       (2, 5, 7), (3, 6, 5), (1, 7, 6))


def _build_table() -> tuple[tuple[SignedBasis, ...], ...]:
    products = {(i, i): SignedBasis(-1, 0) for i in range(1, 8)}
    for s in range(8):
        products[0, s] = products[s, 0] = SignedBasis(+1, s)
    for triple in _QUATERNION_TRIPLES:
        for r in range(3):
            i, j, k = triple[r:] + triple[:r]
            products[i, j] = SignedBasis(+1, k)
            products[j, i] = SignedBasis(-1, k)
    return tuple(tuple(products[i, j] for j in range(8)) for i in range(8))


MULTIPLICATION_TABLE = _build_table()

# For each e_k, the pairs (i, j) with e_i e_j = +e_k and those with
# e_i e_j = -e_k: coefficient k of a product is the first sum less the second.
_PRODUCT_TERMS = tuple(
    tuple(tuple((i, j) for i in range(8) for j in range(8)
                if MULTIPLICATION_TABLE[i][j] == (sign, k))
          for sign in (+1, -1))
    for k in range(8)
)


# The most bits ``_decimal_str`` hands to ``str()``: at most 603 digits,
# under 640, the lowest digit limit CPython allows (4,300 by default).
_SPLIT_BITS = 2000


def _decimal_str(x: int, powers: Optional[dict[int, int]] = None) -> str:
    """``str(x)`` for an int of any size.

    An x of more than ``_SPLIT_BITS`` bits is split by 10**k into two
    halves, each written the same way, so ``str()`` never meets CPython's
    digit limit, which is never changed, and the split costs less than the
    quadratic ``str()`` of the whole.  k is 301 digits, doubled while
    10**(2k) is surely below x, so the halves are near even and values of
    like size split at the same k: ``powers`` keeps the powers of ten, for
    a caller that converts several values (Brent and Zimmermann, *Modern
    Computer Arithmetic*, 2010, section 1.7).
    """
    if x.bit_length() <= _SPLIT_BITS:
        return str(x)
    if x < 0:
        return "-" + _decimal_str(-x, powers)
    if powers is None:
        powers = {}
    k = 301
    # 6.65 exceeds 2*log2(10), so 10**(2k) < 2**(bits - 1) <= x.
    while 665 * k <= 100 * (x.bit_length() - 1):
        k *= 2
    if k not in powers:
        powers[k] = 10 ** k
    high, low = divmod(x, powers[k])
    return _decimal_str(high, powers) + _decimal_str(low, powers).zfill(k)


def _decimal_int(s: str) -> int:
    """``int(s)`` for a decimal string of any length, the inverse of
    ``_decimal_str``.

    Only a string that ``int()`` refuses and that is an optional ``-``
    followed by ASCII digits is split into two halves, each read the same
    way; anything else raises ``ValueError`` as ``int()`` does.
    """
    try:
        return int(s)
    except ValueError:
        if not re.fullmatch(r"-?[0-9]+", s):
            raise
    if s[0] == "-":
        return -_decimal_int(s[1:])
    k = len(s) // 2
    return _decimal_int(s[:k]) * 10 ** (len(s) - k) + _decimal_int(s[k:])


def basis_product(i: int, j: int) -> SignedBasis:
    """Return e_i * e_j as a signed basis unit, for i, j in 0..7."""
    if not (0 <= i <= 7 and 0 <= j <= 7):
        raise ValueError(f"basis indices must lie in 0..7, got ({i}, {j})")
    return MULTIPLICATION_TABLE[i][j]


class Octonion:
    """An octonion with exact integer coefficients.

    ``Octonion(c)`` takes the eight coefficients in basis order e0..e7;
    c[0] is the real part.  Instances are immutable.  ``*`` is the octonion
    product for two octonions and coefficient scaling for an int.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients: Iterable[int]) -> None:
        c = tuple(coefficients)
        if len(c) != 8:
            raise ValueError(f"an octonion has exactly 8 coefficients, got {len(c)}")
        for x in c:
            # Exactly int: a bool is an int subclass but not a coefficient.
            if type(x) is not int:
                raise TypeError(f"coefficients must be int, got {type(x).__name__}")
        self._c = c

    @classmethod
    def basis(cls, s: int) -> "Octonion":
        """The basis unit e_s."""
        if not 0 <= s <= 7:
            raise ValueError(f"basis index must lie in 0..7, got {s}")
        return cls(tuple(1 if t == s else 0 for t in range(8)))

    @classmethod
    def from_json(cls, values: Sequence[str]) -> "Octonion":
        """Parse the wire form: a list of 8 decimal strings."""
        return cls(tuple(_decimal_int(v) for v in values))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._c

    def __getitem__(self, s: int) -> int:
        return self._c[s]

    def __iter__(self) -> Iterator[int]:
        return iter(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Octonion):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"Octonion(({', '.join(map(_decimal_str, self._c))}))"

    def __add__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return NotImplemented
        return _octonion(tuple(map(add, self._c, other._c)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return NotImplemented
        return _octonion(tuple(map(sub, self._c, other._c)))

    def __neg__(self) -> "Octonion":
        return _octonion(tuple([-a for a in self._c]))

    def __mul__(self, other: Union["Octonion", int]):
        # Exactly int, as for a coefficient: a bool is refused.
        if type(other) is int:
            return _octonion(tuple([a * other for a in self._c]))
        if isinstance(other, Octonion):
            a, b = self._c, other._c
            return _octonion(tuple([sum([a[i] * b[j] for i, j in plus])
                                    - sum([a[i] * b[j] for i, j in minus])
                                    for plus, minus in _PRODUCT_TERMS]))
        return NotImplemented

    # Only an int reaches the reflected product, and scaling commutes.
    __rmul__ = __mul__

    def conjugate(self) -> "Octonion":
        """Real part kept, imaginary coefficients negated."""
        return _octonion((self._c[0], *[-a for a in self._c[1:]]))

    def norm_sq(self) -> int:
        """The Euclidean norm form: the sum of squared coefficients.

        Equals the real part of ``p * p.conjugate()`` (whose imaginary part
        vanishes) and is multiplicative over the product.
        """
        return sum(a * a for a in self._c)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self._c)

    def to_json(self) -> list[str]:
        """Wire form: a list of 8 decimal strings, index s = basis e_s."""
        powers: dict[int, int] = {}
        return [_decimal_str(a, powers) for a in self._c]


def _octonion(c: tuple[int, ...]) -> Octonion:
    """``Octonion(c)`` for a tuple ``c`` of eight ints, without its checks."""
    x = object.__new__(Octonion)
    x._c = c
    return x


class ScaledOctonion:
    """An exact rational octonion: integer numerator octonion over a
    positive integer denominator, always normalized so that the gcd of the
    denominator and all eight numerator coefficients is 1 (a zero numerator
    forces denominator 1).  Equality is cross-multiplied, so it is
    independent of representation and works against plain Octonions.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: Octonion, denominator: int = 1) -> None:
        if not isinstance(numerator, Octonion):
            raise TypeError("numerator must be an Octonion")
        if type(denominator) is not int or denominator <= 0:
            raise ValueError(f"denominator must be a positive integer, got {denominator!r}")
        g = gcd(denominator, *numerator.coefficients)
        if g > 1:
            numerator = _octonion(tuple([a // g for a in numerator.coefficients]))
            denominator //= g
        self._num = numerator
        self._den = denominator

    @classmethod
    def from_json(cls, obj: dict) -> "ScaledOctonion":
        return cls(Octonion.from_json(obj["num"]), _decimal_int(obj["den"]))

    @property
    def numerator(self) -> Octonion:
        return self._num

    @property
    def denominator(self) -> int:
        return self._den

    def _coerce(self, other: object) -> "ScaledOctonion | None":
        if isinstance(other, ScaledOctonion):
            return other
        if isinstance(other, Octonion):
            return ScaledOctonion(other)
        return None

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return all(
            a * rhs._den == b * self._den
            for a, b in zip(self._num.coefficients, rhs._num.coefficients)
        )

    def __hash__(self) -> int:
        # Hash-consistent with Octonion when the value is integral.
        if self._den == 1:
            return hash(self._num)
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"ScaledOctonion({self._num!r}, {_decimal_str(self._den)})"

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return ScaledOctonion(
            self._num * rhs._den + rhs._num * self._den, self._den * rhs._den
        )

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return ScaledOctonion(
            self._num * rhs._den - rhs._num * self._den, self._den * rhs._den
        )

    def __rsub__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __neg__(self) -> "ScaledOctonion":
        return ScaledOctonion(-self._num, self._den)

    def __mul__(self, other):
        if type(other) is int:
            return ScaledOctonion(self._num * other, self._den)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return ScaledOctonion(self._num * rhs._num, self._den * rhs._den)

    def __rmul__(self, other):
        # The product is order-sensitive: other * self.
        if type(other) is int:
            return ScaledOctonion(other * self._num, self._den)
        if isinstance(other, Octonion):
            return ScaledOctonion(other * self._num, self._den)
        return NotImplemented

    def conjugate(self) -> "ScaledOctonion":
        return ScaledOctonion(self._num.conjugate(), self._den)

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def is_integral(self) -> bool:
        return self._den == 1

    def to_json(self) -> dict:
        """Wire form: {"num": [...8 decimal strings...], "den": "7"}."""
        return {"num": self._num.to_json(), "den": _decimal_str(self._den)}
