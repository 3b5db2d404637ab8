"""Jacobsthal-family integer sequences.

Four sequences are generated, all by their defining recurrences over exact
integers:

* Jacobsthal            J(n):   J(n+1) = J(n) + 2 J(n-1),  seeds 0, 1
* Jacobsthal-Lucas      JL(n):  same recurrence,           seeds 2, 1
* third-order Jacobsthal J3(n): x(n+3) = x(n+2) + x(n+1) + 2 x(n), seeds 0, 1, 1
* third-order Jacobsthal-Lucas JL3(n): same recurrence,    seeds 2, 1, 5

The two third-order sequences also have radical-free closed forms built on
the period-3 correction term V(n) in {2, -3, 1}: 7*J3(n) = 2^(n+1) - V(n)
and 7*JL3(n) = 2^(n+3) + 3*V(n).  ``seq_closed`` evaluates those exactly
and asserts the division by 7 leaves no remainder, which doubles as a
transcription self-check.

Negative indices are rejected everywhere: extending the recurrences
backwards yields non-integer values for the Lucas-type sequence, so the
domain is n >= 0 only.  Every function that computes a term, closed forms
and partial sums included, also refuses an index past ``_MAX_INDEX``.
The scalar identities these sequences obey are rows of the identity table
in ``identities``; ``scalar_identity_sides`` evaluates both sides of one
through ``identities.verify``.

Every function here is pure.  ``seq_terms`` reaches its first index by
powering and walks the recurrence on from there, holding only its last two
or three terms, and the others are built on it, so no term outlives the
call that computed it.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from typing import Iterator

from .errors import DomainError, InconsistencyError

__all__ = [
    "SequenceKind",
    "THIRD_ORDER_KINDS",
    "CORRECTION_TABLE",
    "correction",
    "seq_terms",
    "seq_value",
    "seq_closed",
    "partial_sum",
    "partial_sum_closed",
    "scalar_identity_sides",
]


class SequenceKind(Enum):
    """The four generated sequences; values double as CLI tags."""

    JACOBSTHAL = "jacobsthal"
    JACOBSTHAL_LUCAS = "jacobsthal-lucas"
    THIRD_ORDER_JACOBSTHAL = "j3"
    THIRD_ORDER_JACOBSTHAL_LUCAS = "jl3"


THIRD_ORDER_KINDS = (
    SequenceKind.THIRD_ORDER_JACOBSTHAL,
    SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS,
)

_SEEDS = {
    SequenceKind.JACOBSTHAL: (0, 1),
    SequenceKind.JACOBSTHAL_LUCAS: (2, 1),
    SequenceKind.THIRD_ORDER_JACOBSTHAL: (0, 1, 1),
    SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS: (2, 1, 5),
}

# Value of V(n) by n mod 3; V folds the complex-root part of the Binet
# forms (the cube-roots-of-unity contribution) into an integer of period 3.
CORRECTION_TABLE = (2, -3, 1)


def correction(n: int) -> int:
    """The period-3 correction term V(n) in {2, -3, 1}."""
    return CORRECTION_TABLE[n % 3]


# Past this index a term is refused rather than computed.  At 10^6,
# ``j3o seq`` takes about 1 s end to end and ``j3o oct --closed`` 8 s; at
# 10^7 they take 105 s and 13 minutes, mostly decimal output (README,
# "Index bound").  J3(10^9) alone is an int of 125 MB.
_MAX_INDEX = 10 ** 6


def _check_index(n: int) -> None:
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    if n > _MAX_INDEX:
        raise DomainError(f"sequence index must be <= {_MAX_INDEX}, got {n}")


def _x_power(kind: SequenceKind, n: int) -> tuple[int, ...]:
    """x^n modulo a multiple of the characteristic polynomial of ``kind``,
    as its coefficients from the constant up, by square-and-multiply (C. M.
    Fiduccia, "An efficient formula for linear recurrences", SIAM J.
    Comput. 14 (1985)).  Term n is then sum(c[i] * term(i)) for any sequence
    the multiple annihilates: x^2 - x - 2 for J and JL, and for J3 and JL3
    (x - 2)(x^3 - 1) = x^4 - 2x^3 - x + 2, of order 4 rather than 3 because
    its c1 and c2 are 0 or 1, so a squaring takes three large products, not
    six.  Its
    closed form, x^(n mod 3) + (2^n - 2^(n mod 3))/7 * (x^3 - 1), is the
    Binet form: a left side built on it would not be independent."""
    # One reduction per order, unrolled.  Each bit of n squares the residue,
    # then multiplies it by x when the bit is set.
    if kind in THIRD_ORDER_KINDS:
        # x^4 = 2x^3 + x - 2; e5, e4: the square's x^5, x^4 once x^6, x^5 fold down.
        c0, c1, c2, c3 = 1, 0, 0, 0
        for bit in bin(n)[2:]:
            d6 = c3 * c3
            e5 = 2 * (c2 * c3 + d6)
            e4 = c2 * c2 + 2 * (c1 * c3 + e5)
            c0, c1, c2, c3 = (c0 * c0 - 2 * e4, 2 * c0 * c1 + e4 - 2 * e5,
                              c1 * c1 + 2 * c0 * c2 + e5 - 2 * d6,
                              2 * (c0 * c3 + c1 * c2 + e4) + d6)
            if bit == "1":
                c0, c1, c2, c3 = -2 * c3, c0 + c3, c1, c2 + 2 * c3
        return c0, c1, c2, c3
    # x^2 = x + 2.
    c0, c1 = 1, 0
    for bit in bin(n)[2:]:
        d2 = c1 * c1
        c0, c1 = c0 * c0 + 2 * d2, 2 * c0 * c1 + d2
        if bit == "1":
            c0, c1 = 2 * c1, c0 + c1
    return c0, c1


def _state(kind: SequenceKind, n: int, size: int) -> list[int]:
    """Terms n, ..., n + size - 1 of ``kind``."""
    c = _x_power(kind, n)
    # The same residue shifts along the walk: term n + k is
    # sum(c[i] * term(i + k)).
    head = list(islice(_walk(*_SEEDS[kind]), len(c) + size - 1))
    return [sum(ci * t for ci, t in zip(c, head[k:])) for k in range(size)]


def _walk(a: int, b: int, c: int | None = None) -> Iterator[int]:
    """The recurrence walked on from the state (a, b) or (a, b, c)."""
    # One loop per order: a shared loop over a tuple window is about three
    # times slower per step.
    if c is not None:
        while True:
            yield a
            a, b, c = b, c, c + b + 2 * a
    while True:
        yield a
        a, b = b, b + 2 * a


def seq_terms(kind: SequenceKind, start: int = 0) -> Iterator[int]:
    """Terms start, start + 1, ... of ``kind``, without end, by its defining
    recurrence.  The walk begins at ``start``, reached in O(log start)
    products by powering, and holds only its last two or three terms."""
    _check_index(start)
    return _walk(*_state(kind, start, len(_SEEDS[kind])))


def seq_value(kind: SequenceKind, n: int) -> int:
    """The n-th term of ``kind``, computed from its defining recurrence by
    powering, in O(log n) products."""
    _check_index(n)
    return _state(kind, n, 1)[0]


def seq_closed(kind: SequenceKind, n: int) -> int:
    """The n-th third-order term by exact closed form.

    Uses the radical-free shape over 7 and verifies divisibility, so a
    wrong correction table cannot silently produce wrong values.
    """
    if kind not in THIRD_ORDER_KINDS:
        raise ValueError(f"closed form is defined for the third-order kinds, not {kind}")
    _check_index(n)
    if kind is SequenceKind.THIRD_ORDER_JACOBSTHAL:
        return _exact_div7(2 ** (n + 1) - correction(n))
    return _exact_div7(2 ** (n + 3) + 3 * correction(n))


def _exact_div7(x: int) -> int:
    """x / 7, which a closed form's numerator must divide into exactly."""
    q, r = divmod(x, 7)
    if r:
        raise InconsistencyError(f"closed-form numerator {x} is not divisible by 7")
    return q


def partial_sum(kind: SequenceKind, n: int) -> int:
    """The literal sum of terms 0..n of a third-order kind."""
    if kind not in THIRD_ORDER_KINDS:
        raise ValueError(f"partial sums are defined for the third-order kinds, not {kind}")
    _check_index(n)
    return sum(islice(seq_terms(kind), n + 1))


def partial_sum_closed(kind: SequenceKind, n: int) -> int:
    """The closed form of ``partial_sum``: a shifted term with a residue-
    dependent constant.  The shifted term comes from term n, so n reaches
    the index bound: J3(n+1) = 2*J3(n) + (1, -1, 0)[n mod 3] and JL3(n+1) =
    2*JL3(n) + (-3, 3, 0)[n mod 3], by the forms ``seq_closed`` evaluates."""
    if kind not in THIRD_ORDER_KINDS:
        raise ValueError(f"partial sums are defined for the third-order kinds, not {kind}")
    _check_index(n)
    if kind is SequenceKind.THIRD_ORDER_JACOBSTHAL:
        nxt = 2 * seq_value(kind, n) + (1, -1, 0)[n % 3]
        return nxt - 1 if n % 3 == 0 else nxt
    nxt = 2 * seq_value(kind, n) + (-3, 3, 0)[n % 3]
    return nxt + 1 if n % 3 == 0 else nxt - 2


def scalar_identity_sides(identity, n: int) -> tuple[int, int]:
    """Both sides of a scalar identity at index n, as ``verify`` reports
    them for its printed variant.  ``identity`` is the name of a scalar row
    of the identity table, or an enum member with that ``name``."""
    # Imported here, not at the top: ``identities`` imports this module.
    from .identities import _SCALAR_IDENTITIES, IdentityId, Variant, verify

    name = getattr(identity, "name", identity)
    if name not in _SCALAR_IDENTITIES:
        raise ValueError(f"unknown scalar identity {name!r}")
    report = verify(IdentityId[name], Variant.AS_PRINTED, n)
    return report.lhs, report.rhs
