"""Octonion-valued sequences built from the third-order scalar sequences.

The n-th third-order Jacobsthal octonion JO(n) has coefficient s equal to
J3(n+s) for s = 0..7, and likewise jO(n) is built from JL3.  Two structural
constants drive all of their closed forms:

* alpha, the octonion with coefficient 2^s at basis index s, and
* eps(n), the period-3 octonion correction whose coefficient s is the
  scalar correction V(n+s).

The radical-free closed forms are then 7*JO(n) = 2^(n+1)*alpha - eps(n) and
7*jO(n) = 2^(n+3)*alpha + 3*eps(n).  The BINET rows check their right sides,
``_closed_numerator``, over 7; ``oct_seq_closed`` divides them by 7, raising
on a remainder (``sequences._exact_div7``).  The linkage jO(n) - 4*JO(n) =
eps(n) holds for every n.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice

from .octonion import Octonion, _octonion
from .sequences import CORRECTION_TABLE, SequenceKind, _check_index, _exact_div7, seq_terms

__all__ = [
    "OctonionSequenceKind",
    "ALPHA",
    "EPSILON_HAT_ROWS",
    "epsilon_hat",
    "oct_seq",
    "oct_seq_closed",
]


class OctonionSequenceKind(Enum):
    """The two octonion sequences; values double as CLI tags."""

    JACOBSTHAL = "JO"
    JACOBSTHAL_LUCAS = "jO"


_SCALAR_FOR = {
    OctonionSequenceKind.JACOBSTHAL: SequenceKind.THIRD_ORDER_JACOBSTHAL,
    OctonionSequenceKind.JACOBSTHAL_LUCAS: SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS,
}

# The closed-form constant alpha, with coefficient 2^s at basis index s.
ALPHA = Octonion(tuple(2 ** s for s in range(8)))


def _period3_rows(pattern: tuple[int, int, int]) -> tuple[Octonion, ...]:
    """Row r, for n = r (mod 3), has coefficient s equal to pattern[(r + s) % 3]."""
    return tuple(Octonion(tuple(pattern[(r + s) % 3] for s in range(8))) for r in range(3))


EPSILON_HAT_ROWS = _period3_rows(CORRECTION_TABLE)


def epsilon_hat(n: int) -> Octonion:
    """The period-3 octonion correction term; eps(n) = eps(n + 3)."""
    return EPSILON_HAT_ROWS[n % 3]


def oct_seq(kind: OctonionSequenceKind, n: int) -> Octonion:
    """The n-th octonion of ``kind`` from recurrence-generated scalars: the
    eight consecutive terms of one walk that begins at index n."""
    return Octonion(islice(seq_terms(_SCALAR_FOR[kind], n), 8))


def _closed_numerator(kind: OctonionSequenceKind, n: int) -> Octonion:
    """7 times the n-th octonion of ``kind``, by its closed form."""
    if kind is OctonionSequenceKind.JACOBSTHAL:
        return ALPHA * 2 ** (n + 1) - epsilon_hat(n)
    return ALPHA * 2 ** (n + 3) + epsilon_hat(n) * 3


def oct_seq_closed(kind: OctonionSequenceKind, n: int) -> Octonion:
    """The n-th octonion of ``kind`` by exact radical-free closed form."""
    _check_index(n)
    return _octonion(tuple(map(_exact_div7, _closed_numerator(kind, n).coefficients)))
