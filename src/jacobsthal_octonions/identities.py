"""Registry and verifier for every identity the package knows about.

Each identity is one row of a table keyed by its name, holding its
statement, its domain of validity and two independent computation paths:

* the left side is always ground truth: recurrence-generated scalars
  combined with exact octonion arithmetic, never a closed form;
* the right side is the as-printed closed form (and, for the two
  identities whose printed forms do not survive exact verification, an
  oracle-validated corrected variant as well).

``verify`` compares the two paths at one index and reports exact witness
values; ``verify_range`` and ``run_suite`` aggregate over index ranges,
recording out-of-domain indices as skips, never as failures.  There are no
tolerances anywhere: passed means the delta is exactly zero.

Errata policy: printed forms are never silently repaired.  The corrected
variants (for T5_QUAD and T6_QUAD) are separate, labeled objects whose own
correctness is asserted against the ground-truth path by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Collection, Optional, Union

from .errors import DomainError, InconsistencyError, UnknownVariantError
from .octonion import Octonion, ScaledOctonion
from .octonion_sequences import (
    ALPHA,
    EPSILON_HAT_ROWS,
    OctonionSequenceKind,
    epsilon_hat,
    oct_seq,
    oct_seq_closed,
)
from .sequences import SCALAR_IDENTITIES, correction, scalar_identity_sides

__all__ = [
    "IdentityId",
    "Variant",
    "ProductOrder",
    "IdentityDescriptor",
    "VerificationReport",
    "RangeReport",
    "REGISTRY",
    "verify",
    "verify_range",
    "run_suite",
    "closed_product",
    "bilinear_product",
    "BILINEAR_W",
    "BILINEAR_U",
    "value_to_json",
]

# A verified value is an exact integer, an exact rational scalar, or an
# exact (possibly rational) octonion.
Value = Union[int, Fraction, Octonion, ScaledOctonion]

# Both sides of one identity variant at index n: (lhs, rhs).
Sides = Callable[[int], tuple[Value, Value]]


class Variant(Enum):
    """Which right side is checked; values double as CLI tags."""

    AS_PRINTED = "printed"
    CORRECTED = "corrected"


class ProductOrder(Enum):
    """Operand order for the closed product forms and the scalar bilinear
    expansion (octonions do not commute, so the two orders are distinct
    identities)."""

    LUCAS_TIMES_JACOBSTHAL = "jO_times_JO"
    JACOBSTHAL_TIMES_LUCAS = "JO_times_jO"


# ---------------------------------------------------------------------------
# value helpers

def _sub_values(lhs: Value, rhs: Value) -> Value:
    if isinstance(lhs, (int, Fraction)) and isinstance(rhs, (int, Fraction)):
        return Fraction(lhs) - Fraction(rhs)
    if isinstance(lhs, (Octonion, ScaledOctonion)) and isinstance(rhs, (Octonion, ScaledOctonion)):
        left = lhs if isinstance(lhs, ScaledOctonion) else ScaledOctonion(lhs)
        return left - rhs
    raise TypeError(f"cannot subtract {type(rhs).__name__} from {type(lhs).__name__}")


def _is_zero(value: Value) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == 0
    return value.is_zero()


def value_to_json(value: Value):
    """Serialize an exact value: integers as decimal strings, octonions as
    8-string arrays, non-integral rationals as {"num": ..., "den": ...}."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, Octonion):
        return value.to_json()
    if isinstance(value, ScaledOctonion):
        if value.is_integral():
            return value.numerator.to_json()
        return value.to_json()
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity variant at one index, with exact
    witness values; ``passed`` holds exactly when ``delta`` is zero."""

    identity: IdentityId
    variant: Variant
    n: int
    passed: bool
    lhs: Value
    rhs: Value
    delta: Value

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lhs": value_to_json(self.lhs),
            "rhs": value_to_json(self.rhs),
            "delta": value_to_json(self.delta),
        }


@dataclass(frozen=True)
class RangeReport:
    """Aggregate of ``verify`` over [n_from, n_to]; indices outside the
    identity's domain are listed in ``skipped``, never failed."""

    identity: IdentityId
    variant: Variant
    n_from: int
    n_to: int
    total_checked: int
    skipped: tuple[int, ...]
    failures: tuple[VerificationReport, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "id": self.identity.name,
            "variant": self.variant.value,
            "n_from": self.n_from,
            "n_to": self.n_to,
            "checked": self.total_checked,
            "skipped": list(self.skipped),
            "failures": [f.to_json() for f in self.failures],
        }


# ---------------------------------------------------------------------------
# bilinear scalar product expansion

# W(m) folds the squared complex-root contribution a^2 w1^m + b^2 w2^m into
# a period-3 rational; U(d) = w1^d + w2^d depends only on r - s mod 3.
BILINEAR_W = {0: Fraction(-2, 3), 1: Fraction(-11, 3), 2: Fraction(13, 3)}
BILINEAR_U = {0: 2, 1: -1, 2: -1}


def bilinear_product(which: ProductOrder, n: int, r: int, s: int) -> int:
    """49 times the scalar product JL3(n+r)*J3(n+s) (or the mirrored order)
    evaluated through the period-3 expansion tables, not through the
    sequences themselves.  The result must be an integer; a fractional
    outcome means a table is wrong and raises."""
    if n < 0 or r < 0 or s < 0:
        raise DomainError(f"indices must be >= 0, got n={n}, r={r}, s={s}")
    w = 3 * BILINEAR_W[(2 * n + r + s) % 3] + 7 * BILINEAR_U[(r - s) % 3]
    if which is ProductOrder.LUCAS_TIMES_JACOBSTHAL:
        value = (Fraction(2 ** (2 * n + 4 + r + s))
                 - 2 ** (n + r + 3) * correction(n + s)
                 + 3 * 2 ** (n + s + 1) * correction(n + r)
                 - w)
    else:
        value = (Fraction(2 ** (2 * n + 4 + r + s))
                 + 3 * 2 ** (n + r + 1) * correction(n + s)
                 - 2 ** (n + s + 3) * correction(n + r)
                 - w)
    if value.denominator != 1:
        raise InconsistencyError(f"bilinear product came out non-integral: {value}")
    return value.numerator


# ---------------------------------------------------------------------------
# closed product forms

# Coefficient polynomials a*4^n + b*2^n + c, one (a, b, c) per basis index,
# all over a common denominator of 49.  Valid for n = 0 (mod 3) only.
_PRODUCT_POLYNOMIALS = {
    ProductOrder.LUCAS_TIMES_JACOBSTHAL: (
        (-349488, -520, 99),
        (64, -7842, 36),
        (128, 374, -12),
        (256, -4936, -24),
        (512, -3390, 36),
        (1024, -1110, -12),
        (2048, -5944, -24),
        (4096, 3414, 36),
    ),
    ProductOrder.JACOBSTHAL_TIMES_LUCAS: (
        (-349488, -520, 99),
        (64, 7838, 36),
        (128, -410, -12),
        (256, 4864, -24),
        (512, 3274, 36),
        (1024, 850, -12),
        (2048, 5424, -24),
        (4096, -4426, 36),
    ),
}


def closed_product(order: ProductOrder, n: int) -> ScaledOctonion:
    """The closed form of jO(n)*JO(n) or JO(n)*jO(n), defined only for
    n = 0 (mod 3): eight quadratic polynomials in 2^n over 49."""
    if n < 0 or n % 3 != 0:
        raise DomainError(f"closed products are defined for n = 0 (mod 3), got {n}")
    x = 2 ** n
    coefficients = tuple(a * x * x + b * x + c for (a, b, c) in _PRODUCT_POLYNOMIALS[order])
    return ScaledOctonion(Octonion(coefficients), 49)


# ---------------------------------------------------------------------------
# identity registry

_JO = OctonionSequenceKind.JACOBSTHAL
_JOL = OctonionSequenceKind.JACOBSTHAL_LUCAS

_ALPHA_SQ = ALPHA * ALPHA

# Period-3 right-hand octonion rows for the shift identities; row r applies
# when n = r (mod 3).
_JO_SHIFT4_ROWS = (
    Octonion((1, -2, 1, 1, -2, 1, 1, -2)),
    Octonion((-2, 1, 1, -2, 1, 1, -2, 1)),
    Octonion((1, 1, -2, 1, 1, -2, 1, 1)),
)
_JOL_SHIFT4_ROWS = (
    Octonion((-3, 6, -3, -3, 6, -3, -3, 6)),
    Octonion((6, -3, -3, 6, -3, -3, 6, -3)),
    Octonion((-3, -3, 6, -3, -3, 6, -3, -3)),
)
_JOL_MINUS_JO_SHIFT2_ROWS = (
    Octonion((1, -1, 0, 1, -1, 0, 1, -1)),
    Octonion((-1, 0, 1, -1, 0, 1, -1, 0)),
    Octonion((0, 1, -1, 0, 1, -1, 0, 1)),
)

# Residue-split norm closed forms: (b, c) in a*4^n + b*2^n + c over 49.
_JO_NORM_TAIL = {0: (1024, 41), 1: (4, 38), 2: (-1028, 33)}
_JOL_NORM_TAIL = {0: (-12288, 369), 1: (-48, 342), 2: (12336, 297)}


def _jo(n: int) -> Octonion:
    return oct_seq(_JO, n)


def _jol(n: int) -> Octonion:
    return oct_seq(_JOL, n)


def _norm_closed(lead: int, tail: dict[int, tuple[int, int]], n: int) -> Fraction:
    b, c = tail[n % 3]
    return Fraction(lead + b * 2 ** n + c, 49)


def _sides_oct_rec(n: int):
    # Both sequences obey the recurrence; report the first failing pair,
    # or the JO pair (zero delta) when both hold.
    for kind in (_JO, _JOL):
        lhs = oct_seq(kind, n + 2)
        rhs = oct_seq(kind, n + 1) + oct_seq(kind, n) + oct_seq(kind, n - 1) * 2
        if lhs != rhs:
            return lhs, rhs
    lhs = oct_seq(_JO, n + 2)
    return lhs, lhs


def _t5_lhs(n: int) -> Octonion:
    return _jol(n) * _jol(n) + (_jo(n + 3) * _jol(n + 3)) * 3


def _sides_t5_printed(n: int):
    eps = epsilon_hat(n)
    ae, ea = ALPHA * eps, eps * ALPHA
    rhs = (ScaledOctonion(_ALPHA_SQ * 4 ** (n + 3))
           + ScaledOctonion((ae * 25 - ea * 31) * (3 * 2 ** (n + 1)), 49))
    return _t5_lhs(n), rhs


def _sides_t5_corrected(n: int):
    # Commutator form: the 25/31 weights replaced by an equal-weight
    # commutator at a higher power of two.
    eps = epsilon_hat(n)
    ae, ea = ALPHA * eps, eps * ALPHA
    rhs = (ScaledOctonion(_ALPHA_SQ * 4 ** (n + 3))
           + ScaledOctonion((ae - ea) * (3 * 2 ** (n + 3)), 7))
    return _t5_lhs(n), rhs


def _t6_lhs(n: int) -> Octonion:
    return _jol(n) * _jol(n) - (_jo(n) * _jo(n)) * 9


def _sides_t6_printed(n: int):
    eps = epsilon_hat(n)
    anti = ALPHA * eps + eps * ALPHA
    rhs = ScaledOctonion((_ALPHA_SQ * 2 + anti * 3) * 2 ** (n + 1), 7)
    return _t6_lhs(n), rhs


def _sides_t6_corrected(n: int):
    # The constant coefficient 2 on the squared-alpha term replaced by the
    # index-dependent 2^(n+1).
    eps = epsilon_hat(n)
    anti = ALPHA * eps + eps * ALPHA
    rhs = ScaledOctonion((_ALPHA_SQ * 2 ** (n + 1) + anti * 3) * 2 ** (n + 1), 7)
    return _t6_lhs(n), rhs


@dataclass(frozen=True)
class IdentityDescriptor:
    """A registered identity: its statement, its evaluation paths and its
    domain, n >= n_min and, when ``residue`` is set, n = residue (mod 3)."""

    statement: str
    printed: Sides
    corrected: Optional[Sides] = None
    n_min: int = 0
    residue: Optional[int] = None

    @property
    def has_corrected(self) -> bool:
        return self.corrected is not None

    @property
    def variants(self) -> tuple[Variant, ...]:
        """The variants this identity is checked in, in report order."""
        if self.has_corrected:
            return (Variant.AS_PRINTED, Variant.CORRECTED)
        return (Variant.AS_PRINTED,)

    def in_domain(self, n: int) -> bool:
        if n < self.n_min:
            return False
        return self.residue is None or n % 3 == self.residue


# Every identity, one row each, in report order: the scalar rows from
# ``sequences`` first, then the octonion rows.  Scalar sides look up
# ``scalar_identity_sides`` at each call, so a wrapper installed on that
# module name (as the benchmark's tracer does) sees every scalar check.
_IDENTITIES: dict[str, IdentityDescriptor] = {
    **{name: IdentityDescriptor(row.statement,
                                lambda n, name=name: scalar_identity_sides(name, n),
                                n_min=row.n_min)
       for name, row in SCALAR_IDENTITIES.items()},
    "OCT_REC": IdentityDescriptor(
        "octonion recurrence X(n+2) = X(n+1) + X(n) + 2*X(n-1) for JO and jO",
        _sides_oct_rec, n_min=1),
    "BINET_JO": IdentityDescriptor(
        "JO(n) equals its closed form (2^(n+1)*alpha - eps(n))/7",
        lambda n: (oct_seq(_JO, n), oct_seq_closed(_JO, n))),
    "BINET_JOL": IdentityDescriptor(
        "jO(n) equals its closed form (2^(n+3)*alpha + 3*eps(n))/7",
        lambda n: (oct_seq(_JOL, n), oct_seq_closed(_JOL, n))),
    "T1_SUM": IdentityDescriptor(
        "JO(n+2) + JO(n+1) + JO(n) = 2^(n+1)*alpha",
        lambda n: (_jo(n + 2) + _jo(n + 1) + _jo(n), ALPHA * 2 ** (n + 1))),
    "T1_SHIFT4": IdentityDescriptor(
        "JO(n+2) - 4*JO(n) equals a period-3 octonion row",
        lambda n: (_jo(n + 2) - _jo(n) * 4, _JO_SHIFT4_ROWS[n % 3])),
    "T1_NORM": IdentityDescriptor(
        "Nr2(JO(n)) equals a residue-split quadratic in 2^n over 49",
        lambda n: (_jo(n).norm_sq(), _norm_closed(87380 * 4 ** n, _JO_NORM_TAIL, n))),
    "T2_SUM": IdentityDescriptor(
        "jO(n+2) + jO(n+1) + jO(n) = 2^(n+3)*alpha",
        lambda n: (_jol(n + 2) + _jol(n + 1) + _jol(n), ALPHA * 2 ** (n + 3))),
    "T2_SHIFT4": IdentityDescriptor(
        "jO(n+2) - 4*jO(n) equals a period-3 octonion row",
        lambda n: (_jol(n + 2) - _jol(n) * 4, _JOL_SHIFT4_ROWS[n % 3])),
    "T2_NORM": IdentityDescriptor(
        "Nr2(jO(n)) equals a residue-split quadratic in 2^n over 49",
        lambda n: (_jol(n).norm_sq(),
                   _norm_closed(21845 * 2 ** (2 * n + 6), _JOL_NORM_TAIL, n))),
    "T3_A": IdentityDescriptor(
        "jO(n+3) - 3*JO(n+3) = 2*jO(n)",
        lambda n: (_jol(n + 3) - _jo(n + 3) * 3, _jol(n) * 2)),
    "T3_B": IdentityDescriptor(
        "jO(n) + jO(n+1) = 3*JO(n+2)",
        lambda n: (_jol(n) + _jol(n + 1), _jo(n + 2) * 3)),
    "T3_C": IdentityDescriptor(
        "jO(n) - JO(n+2) equals a period-3 octonion row",
        lambda n: (_jol(n) - _jo(n + 2), _JOL_MINUS_JO_SHIFT2_ROWS[n % 3])),
    "T3_D": IdentityDescriptor(
        "jO(n) - 4*JO(n) = eps(n)",
        lambda n: (_jol(n) - _jo(n) * 4, EPSILON_HAT_ROWS[n % 3])),
    "T4_PROD_JOJ": IdentityDescriptor(
        "49*(jO(n)*JO(n)) equals quadratic polynomials in 2^n, n = 0 (mod 3)",
        lambda n: (_jol(n) * _jo(n), closed_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, n)),
        residue=0),
    "T4_PROD_JJO": IdentityDescriptor(
        "49*(JO(n)*jO(n)) equals quadratic polynomials in 2^n, n = 0 (mod 3)",
        lambda n: (_jo(n) * _jol(n), closed_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, n)),
        residue=0),
    "T5_QUAD": IdentityDescriptor(
        "jO(n)^2 + 3*JO(n+3)*jO(n+3) against the printed right side",
        _sides_t5_printed, corrected=_sides_t5_corrected),
    "T6_QUAD": IdentityDescriptor(
        "jO(n)^2 - 9*JO(n)^2 against the printed right side",
        _sides_t6_printed, corrected=_sides_t6_corrected),
}

IdentityId = Enum("IdentityId", [(name, name) for name in _IDENTITIES], module=__name__)
IdentityId.__doc__ = "Every registered identity, in fixed report order."

REGISTRY: dict[IdentityId, IdentityDescriptor] = {
    identity: _IDENTITIES[identity.name] for identity in IdentityId
}


# ---------------------------------------------------------------------------
# verification

def _descriptor(identity: IdentityId, variant: Variant) -> IdentityDescriptor:
    """The registry row of ``identity``, which must have ``variant``."""
    descriptor = REGISTRY[identity]
    if variant not in descriptor.variants:
        raise UnknownVariantError(f"{identity.name} has no corrected variant")
    return descriptor


def verify(identity: IdentityId, variant: Variant, n: int) -> VerificationReport:
    """Check one identity variant at index n with exact arithmetic."""
    descriptor = _descriptor(identity, variant)
    if not descriptor.in_domain(n):
        if descriptor.residue is not None and (n < 0 or n % 3 != descriptor.residue):
            raise DomainError(
                f"{identity.name} is defined for n = {descriptor.residue} (mod 3), got {n}"
            )
        raise DomainError(f"{identity.name} is defined for n >= {descriptor.n_min}, got {n}")
    sides = descriptor.corrected if variant is Variant.CORRECTED else descriptor.printed
    lhs, rhs = sides(n)
    delta = _sub_values(lhs, rhs)
    return VerificationReport(
        identity=identity,
        variant=variant,
        n=n,
        passed=_is_zero(delta),
        lhs=lhs,
        rhs=rhs,
        delta=delta,
    )


def verify_range(identity: IdentityId, variant: Variant,
                 n_from: int, n_to: int) -> RangeReport:
    """Apply ``verify`` at every n in [n_from, n_to], collecting skips for
    out-of-domain indices and reports for exact failures."""
    if n_from < 0 or n_to < n_from:
        raise ValueError(f"need 0 <= n_from <= n_to, got [{n_from}, {n_to}]")
    descriptor = _descriptor(identity, variant)
    skipped: list[int] = []
    failures: list[VerificationReport] = []
    checked = 0
    for n in range(n_from, n_to + 1):
        if not descriptor.in_domain(n):
            skipped.append(n)
            continue
        report = verify(identity, variant, n)
        checked += 1
        if not report.passed:
            failures.append(report)
    return RangeReport(
        identity=identity,
        variant=variant,
        n_from=n_from,
        n_to=n_to,
        total_checked=checked,
        skipped=tuple(skipped),
        failures=tuple(failures),
    )


def run_suite(variants: Collection[Variant], n_to: int,
              n_from: int = 0) -> list[RangeReport]:
    """Run every registered identity over [n_from, n_to] in each of
    ``variants`` that it has, in registry order.  Ordering is fixed so
    suite outputs diff cleanly across runs."""
    if n_to < 0:
        raise ValueError(f"n_to must be >= 0, got {n_to}")
    return [verify_range(identity, variant, n_from, n_to)
            for identity, descriptor in REGISTRY.items()
            for variant in descriptor.variants if variant in variants]
