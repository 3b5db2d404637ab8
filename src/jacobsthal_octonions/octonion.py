"""Exact octonion arithmetic over arbitrary-precision integers.

An octonion is stored as eight integer coefficients over the basis units
e0..e7, where e0 = 1 is the real unit.  Products of basis units come from a
fixed signed 8x8 table and the full product is the bilinear extension of
that table: the algebra is non-commutative and non-associative, but
alternative, and the Euclidean norm form is multiplicative.

Exactness is the point of this module.  Coefficients are Python ints, so
nothing ever rounds or overflows; rational-valued octonions (needed by
identities that carry 1/7 or 1/49 factors) are handled by ScaledOctonion,
an integer octonion paired with a positive denominator kept in lowest
terms.  All values are immutable and all operations are pure, so everything
here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import InconsistencyError

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


# Products e_i * e_j for the imaginary units, rows i = 1..7 by columns
# j = 1..7.  Each entry is (sign, index); index 0 is the real unit.
_IMAGINARY_TABLE = (
    ((-1, 0), (+1, 3), (-1, 2), (+1, 5), (-1, 4), (-1, 7), (+1, 6)),
    ((-1, 3), (-1, 0), (+1, 1), (+1, 6), (+1, 7), (-1, 4), (-1, 5)),
    ((+1, 2), (-1, 1), (-1, 0), (+1, 7), (-1, 6), (+1, 5), (-1, 4)),
    ((-1, 5), (-1, 6), (-1, 7), (-1, 0), (+1, 1), (+1, 2), (+1, 3)),
    ((+1, 4), (-1, 7), (+1, 6), (-1, 1), (-1, 0), (-1, 3), (+1, 2)),
    ((+1, 7), (+1, 4), (-1, 5), (-1, 2), (+1, 3), (-1, 0), (-1, 1)),
    ((-1, 6), (+1, 5), (+1, 4), (-1, 3), (-1, 2), (+1, 1), (-1, 0)),
)

MULTIPLICATION_TABLE: tuple[tuple[SignedBasis, ...], ...] = tuple(
    tuple(
        SignedBasis(+1, j) if i == 0
        else SignedBasis(+1, i) if j == 0
        else SignedBasis(*_IMAGINARY_TABLE[i - 1][j - 1])
        for j in range(8)
    )
    for i in range(8)
)

# The seven cyclically oriented quaternionic triples (i, j, k) implied by
# the table: e_i e_j = e_k, e_j e_k = e_i, e_k e_i = e_j.
_QUATERNION_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7),
                       (2, 5, 7), (3, 6, 5), (1, 7, 6))


def _check_table() -> None:
    """Audit the transcribed multiplication table at import time.

    Transcribing the 8x8 signed table is the single highest-risk step in
    this package, so its structural laws are machine-checked here rather
    than trusted: unit row/column, squares of imaginary units,
    anti-commutativity, and the seven quaternionic triples.
    """
    for s in range(8):
        if MULTIPLICATION_TABLE[0][s] != (1, s) or MULTIPLICATION_TABLE[s][0] != (1, s):
            raise InconsistencyError(f"e0 must act as the unit, broken at index {s}")
    for i in range(1, 8):
        if MULTIPLICATION_TABLE[i][i] != (-1, 0):
            raise InconsistencyError(f"e{i}^2 must be -1")
        for j in range(1, 8):
            if i == j:
                continue
            sij, kij = MULTIPLICATION_TABLE[i][j]
            sji, kji = MULTIPLICATION_TABLE[j][i]
            if kij == 0 or kij != kji or sij != -sji:
                raise InconsistencyError(
                    f"e{i}*e{j} and e{j}*e{i} must be opposite signed units"
                )
    for (i, j, k) in _QUATERNION_TRIPLES:
        if (MULTIPLICATION_TABLE[i][j] != (1, k)
                or MULTIPLICATION_TABLE[j][k] != (1, i)
                or MULTIPLICATION_TABLE[k][i] != (1, j)):
            raise InconsistencyError(f"triple ({i},{j},{k}) is not cyclic in the table")


_check_table()


def _decimal_str(x: int) -> str:
    """``str(x)`` for an int of any size.

    CPython refuses ``str()`` on an int with more digits than its limit
    (``sys.get_int_max_str_digits()``, 4,300 by default).  Such an x is split
    by a power of ten into two halves, each written the same way, so the
    process-wide limit is never changed.  Values within the limit cost one
    ``str()`` call.
    """
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + _decimal_str(-x)
    k = x.bit_length() * 3 // 20  # about half of x's decimal digits
    high, low = divmod(x, 10 ** k)
    return _decimal_str(high) + _decimal_str(low).zfill(k)


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
    def zero(cls) -> "Octonion":
        return cls((0,) * 8)

    @classmethod
    def one(cls) -> "Octonion":
        """The multiplicative unit e0."""
        return cls.basis(0)

    @classmethod
    def basis(cls, s: int) -> "Octonion":
        """The basis unit e_s."""
        if not 0 <= s <= 7:
            raise ValueError(f"basis index must lie in 0..7, got {s}")
        return cls(tuple(1 if t == s else 0 for t in range(8)))

    @classmethod
    def from_json(cls, values: Sequence[str]) -> "Octonion":
        """Parse the wire form: a list of 8 decimal strings."""
        return cls(tuple(int(v) for v in values))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._c

    @property
    def real(self) -> int:
        return self._c[0]

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
        return f"Octonion({self._c!r})"

    def __add__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return NotImplemented
        return Octonion(a + b for a, b in zip(self._c, other._c))

    def __sub__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return NotImplemented
        return Octonion(a - b for a, b in zip(self._c, other._c))

    def __neg__(self) -> "Octonion":
        return Octonion(-a for a in self._c)

    def __mul__(self, other: Union["Octonion", int]):
        if isinstance(other, Octonion):
            a, b = self._c, other._c
            out = [0] * 8
            for i in range(8):
                ai = a[i]
                if not ai:
                    continue
                row = MULTIPLICATION_TABLE[i]
                for j in range(8):
                    bj = b[j]
                    if not bj:
                        continue
                    sign, k = row[j]
                    out[k] += sign * ai * bj
            return Octonion(out)
        if isinstance(other, int):
            return Octonion(a * other for a in self._c)
        return NotImplemented

    def __rmul__(self, other: int):
        if isinstance(other, int):
            return Octonion(other * a for a in self._c)
        return NotImplemented

    def conjugate(self) -> "Octonion":
        """Real part kept, imaginary coefficients negated."""
        return Octonion((self._c[0],) + tuple(-a for a in self._c[1:]))

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
        return [_decimal_str(a) for a in self._c]


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
        g = denominator
        for a in numerator.coefficients:
            g = gcd(g, a)
        if g > 1:
            numerator = Octonion(a // g for a in numerator.coefficients)
            denominator //= g
        self._num = numerator
        self._den = denominator

    @classmethod
    def from_json(cls, obj: dict) -> "ScaledOctonion":
        return cls(Octonion.from_json(obj["num"]), int(obj["den"]))

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
        return f"ScaledOctonion({self._num!r}, {self._den})"

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
        if isinstance(other, int):
            return ScaledOctonion(self._num * other, self._den)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return ScaledOctonion(self._num * rhs._num, self._den * rhs._den)

    def __rmul__(self, other):
        # The product is order-sensitive: other * self.
        if isinstance(other, int):
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

    def to_octonion(self) -> Octonion:
        """The integer octonion this value equals; denominator must be 1."""
        if self._den != 1:
            raise InconsistencyError(
                f"value is not integral, denominator {self._den} remains"
            )
        return self._num

    def to_json(self) -> dict:
        """Wire form: {"num": [...8 decimal strings...], "den": "7"}."""
        return {"num": self._num.to_json(), "den": _decimal_str(self._den)}
