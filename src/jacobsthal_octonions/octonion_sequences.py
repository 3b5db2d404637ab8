"""Octonion-valued sequences built from the third-order scalar sequences.

The n-th third-order Jacobsthal octonion JO(n) has coefficient s equal to
J3(n+s) for s = 0..7, and likewise jO(n) is built from JL3.  Two structural
constants drive all of their closed forms:

* alpha, the octonion with coefficient 2^s at basis index s, and
* eps(n), the period-3 octonion correction whose coefficient s is the
  scalar correction V(n+s).

The radical-free closed forms are then 7*JO(n) = 2^(n+1)*alpha - eps(n) and
7*jO(n) = 2^(n+3)*alpha + 3*eps(n); ``oct_seq_closed`` evaluates them with
an exact division by 7, raising if a remainder appears.  The linkage
jO(n) - 4*JO(n) = eps(n) holds for every n.
"""

from __future__ import annotations

from enum import Enum

from .errors import DomainError, InconsistencyError
from .octonion import Octonion
from .sequences import SequenceKind, correction, seq_value

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

EPSILON_HAT_ROWS = tuple(
    Octonion(tuple(correction(r + s) for s in range(8))) for r in range(3)
)


def epsilon_hat(n: int) -> Octonion:
    """The period-3 octonion correction term; eps(n) = eps(n + 3)."""
    return EPSILON_HAT_ROWS[n % 3]


def oct_seq(kind: OctonionSequenceKind, n: int) -> Octonion:
    """The n-th octonion of ``kind`` from recurrence-generated scalars."""
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    scalar = _SCALAR_FOR[kind]
    return Octonion(tuple(seq_value(scalar, n + s) for s in range(8)))


def _exact_div7(p: Octonion) -> Octonion:
    out = []
    for x in p.coefficients:
        q, r = divmod(x, 7)
        if r:
            raise InconsistencyError(f"closed-form coefficient {x} is not divisible by 7")
        out.append(q)
    return Octonion(out)


def oct_seq_closed(kind: OctonionSequenceKind, n: int) -> Octonion:
    """The n-th octonion of ``kind`` by exact radical-free closed form."""
    if n < 0:
        raise DomainError(f"sequence index must be >= 0, got {n}")
    if kind is OctonionSequenceKind.JACOBSTHAL:
        return _exact_div7(ALPHA * 2 ** (n + 1) - epsilon_hat(n))
    return _exact_div7(ALPHA * 2 ** (n + 3) + epsilon_hat(n) * 3)
