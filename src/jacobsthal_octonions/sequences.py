"""Jacobsthal-family integer sequences and the scalar identities they obey.

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
domain is n >= 0 only.  ``SCALAR_IDENTITIES`` holds one row per scalar
identity, and ``scalar_identity_sides`` evaluates both sides of one; the
identities that reference index n-3 therefore require n >= 3.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable, NamedTuple

from .errors import DomainError, InconsistencyError

__all__ = [
    "SequenceKind",
    "THIRD_ORDER_KINDS",
    "CORRECTION_TABLE",
    "correction",
    "seq_value",
    "seq_closed",
    "partial_sum",
    "partial_sum_closed",
    "SCALAR_IDENTITIES",
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

# Monotonically growing per-kind caches; the lock keeps concurrent callers
# on pure-function semantics.
_cache: dict[SequenceKind, list[int]] = {k: list(s) for k, s in _SEEDS.items()}
_cache_lock = threading.Lock()


def correction(n: int) -> int:
    """The period-3 correction term V(n) in {2, -3, 1}."""
    return CORRECTION_TABLE[n % 3]


def seq_value(kind: SequenceKind, n: int) -> int:
    """The n-th term of ``kind``, computed by its defining recurrence."""
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    with _cache_lock:
        values = _cache[kind]
        if kind in THIRD_ORDER_KINDS:
            while len(values) <= n:
                values.append(values[-1] + values[-2] + 2 * values[-3])
        else:
            while len(values) <= n:
                values.append(values[-1] + 2 * values[-2])
        return values[n]


def seq_closed(kind: SequenceKind, n: int) -> int:
    """The n-th third-order term by exact closed form.

    Uses the radical-free shape over 7 and verifies divisibility, so a
    wrong correction table cannot silently produce wrong values.
    """
    if kind not in THIRD_ORDER_KINDS:
        raise ValueError(f"closed form is defined for the third-order kinds, not {kind}")
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    if kind is SequenceKind.THIRD_ORDER_JACOBSTHAL:
        numerator = 2 ** (n + 1) - correction(n)
    else:
        numerator = 2 ** (n + 3) + 3 * correction(n)
    q, r = divmod(numerator, 7)
    if r:
        raise InconsistencyError(f"closed-form numerator {numerator} is not divisible by 7")
    return q


def partial_sum(kind: SequenceKind, n: int) -> int:
    """The literal sum of terms 0..n of a third-order kind."""
    if kind not in THIRD_ORDER_KINDS:
        raise ValueError(f"partial sums are defined for the third-order kinds, not {kind}")
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    return sum(seq_value(kind, k) for k in range(n + 1))


def partial_sum_closed(kind: SequenceKind, n: int) -> int:
    """The closed form of ``partial_sum``: a shifted term with a residue-
    dependent constant."""
    if kind not in THIRD_ORDER_KINDS:
        raise ValueError(f"partial sums are defined for the third-order kinds, not {kind}")
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    nxt = seq_value(kind, n + 1)
    if kind is SequenceKind.THIRD_ORDER_JACOBSTHAL:
        return nxt - 1 if n % 3 == 0 else nxt
    return nxt + 1 if n % 3 == 0 else nxt - 2


def _j3(n: int) -> int:
    return seq_value(SequenceKind.THIRD_ORDER_JACOBSTHAL, n)


def _jl3(n: int) -> int:
    return seq_value(SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS, n)


class ScalarIdentity(NamedTuple):
    """One scalar identity: its statement, both sides as exact integers
    (the left side always from recurrence-generated values), and the least
    index at which every term it references exists."""

    statement: str
    sides: Callable[[int], tuple[int, int]]
    n_min: int = 0


# The scalar identities in report order; rows that reference index n-3
# start at n = 3.  EC5, E6 and E8 have period-3 right sides.
SCALAR_IDENTITIES = {
    "E4": ScalarIdentity(
        "3*J3(n) + JL3(n) = 2^(n+1)",
        lambda n: (3 * _j3(n) + _jl3(n), 2 ** (n + 1))),
    "E5": ScalarIdentity(
        "JL3(n) - 3*J3(n) = 2*JL3(n-3)",
        lambda n: (_jl3(n) - 3 * _j3(n), 2 * _jl3(n - 3)), n_min=3),
    "EC5": ScalarIdentity(
        "J3(n+2) - 4*J3(n) is -2 when n = 1 (mod 3), else 1",
        lambda n: (_j3(n + 2) - 4 * _j3(n), -2 if n % 3 == 1 else 1)),
    "E6": ScalarIdentity(
        "JL3(n) - 4*J3(n) = V(n), the period-3 correction",
        lambda n: (_jl3(n) - 4 * _j3(n), correction(n))),
    "E7": ScalarIdentity(
        "JL3(n+1) + JL3(n) = 3*J3(n+2)",
        lambda n: (_jl3(n + 1) + _jl3(n), 3 * _j3(n + 2))),
    "E8": ScalarIdentity(
        "JL3(n) - J3(n+2) cycles 1, -1, 0 with n mod 3",
        lambda n: (_jl3(n) - _j3(n + 2), (1, -1, 0)[n % 3])),
    "E9": ScalarIdentity(
        "JL3(n-3)^2 + 3*J3(n)*JL3(n) = 4^n",
        lambda n: (_jl3(n - 3) ** 2 + 3 * _j3(n) * _jl3(n), 4 ** n), n_min=3),
    "E10": ScalarIdentity(
        "sum of J3(0..n) = J3(n+1), minus 1 when n = 0 (mod 3)",
        lambda n: (partial_sum(SequenceKind.THIRD_ORDER_JACOBSTHAL, n),
                   partial_sum_closed(SequenceKind.THIRD_ORDER_JACOBSTHAL, n))),
    "E11": ScalarIdentity(
        "sum of JL3(0..n) = JL3(n+1) - 2, or + 1 when n = 0 (mod 3)",
        lambda n: (partial_sum(SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS, n),
                   partial_sum_closed(SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS, n))),
    "E12": ScalarIdentity(
        "JL3(n)^2 - 9*J3(n)^2 = 2^(n+2)*JL3(n-3)",
        lambda n: (_jl3(n) ** 2 - 9 * _j3(n) ** 2, 2 ** (n + 2) * _jl3(n - 3)), n_min=3),
    "JSUM": ScalarIdentity(
        "J3(n+2) + J3(n+1) + J3(n) = 2^(n+1)",
        lambda n: (_j3(n + 2) + _j3(n + 1) + _j3(n), 2 ** (n + 1))),
}


def scalar_identity_sides(identity, n: int) -> tuple[int, int]:
    """Both sides of a scalar identity at index n, evaluated exactly.

    ``identity`` is one of the names in SCALAR_IDENTITIES (an enum member
    with that ``name`` is accepted too).  Returns (lhs, rhs) rather than a
    boolean so that a discrepancy report can carry the witness values.
    """
    name = getattr(identity, "name", identity)
    try:
        row = SCALAR_IDENTITIES[name]
    except KeyError:
        raise ValueError(f"unknown scalar identity {name!r}") from None
    if n < row.n_min:
        raise DomainError(f"identity {name} is defined for n >= {row.n_min}, got {n}")
    return row.sides(n)
