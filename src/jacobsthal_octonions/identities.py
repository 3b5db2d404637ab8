"""Registry and verifier for every identity the package knows about.

Each identity, scalar (between J3 and JL3) or octonion, is one row of a
table keyed by its name, holding its statement, its domain of validity and
two independent computation paths over the terms ``_term_lists`` builds:

* the left side is always ground truth: recurrence-generated scalars
  combined with exact octonion arithmetic, never a closed form.  The
  running sums of E10 and E11 are read off two terms by the summed
  recurrence.  A quadratic left side, such as JO(n)*jO(n), a square or a
  norm, is read off a window of products of two terms with small weights
  that the recurrence and the octonion table give at import; a range
  seeds the window once a chunk and then moves it along the recurrence
  by additions (``_window``, ``_step``);
* the right side is the as-printed closed form (and, for the two
  identities whose printed forms do not survive exact verification, an
  oracle-validated corrected variant as well), as an integer numerator
  over the row's ``den``, which a check compares with ``lhs * den``.

``verify`` compares the two paths at one index and reports exact witness
values; ``verify_ranges`` (``verify_range`` for one variant) and
``run_suite`` aggregate over index ranges, evaluating each left side once
for every variant and recording out-of-domain indices as skips, never as
failures.  ``_tally`` is the one count over a request, of failures or of
what a caller keeps of their reports: it walks the range's terms once for
every row of the request, from n_from - 3 and a chunk of indices at a
time, so it holds O(n) bits of terms at index n, and it builds a report
only for a failing index.  ``j3o verify`` tallies in up to one process per
CPU, each of which walks the whole range but evaluates only alternate
chunks of it; the chunks are sized so that each part gets nearly as many
indices.  There are no tolerances anywhere: passed means the delta is
exactly zero.

Errata policy: printed forms are never silently repaired.  The corrected
variants (for T5_QUAD and T6_QUAD) are separate, labeled right sides whose
own correctness is asserted against the ground-truth path by the test
suite.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from operator import mul
from typing import (TYPE_CHECKING, Callable, Collection, Iterator, NamedTuple, Optional,
                    Sequence, Union)

from . import _IDENTITIES_ALL
from .errors import DomainError, UnknownVariantError
from .octonion import _PRODUCT_TERMS, Octonion, ScaledOctonion, _decimal_str, _octonion
from .octonion_sequences import (
    ALPHA,
    EPSILON_HAT_ROWS,
    OctonionSequenceKind,
    _closed_numerator,
    _period3_rows,
)
from .sequences import (
    THIRD_ORDER_KINDS,
    SequenceKind,
    _check_index,
    _walk,
    correction,
    partial_sum_closed,
    seq_terms,
)

# The package lists the public names, so that it can resolve them before
# it loads this module.
__all__ = list(_IDENTITIES_ALL)

if TYPE_CHECKING:
    from decimal import Context, Decimal
    from fractions import Fraction

# A verified value is an exact integer, an exact rational scalar, or an
# exact (possibly rational) octonion.
Value = Union[int, "Fraction", Octonion, ScaledOctonion]


# The most indices a chunk of a range evaluates: it holds the terms of at
# most _CHUNK + 13 indices per kind, however long the range.  Each chunk
# costs a few list operations, so any size from 32 to 256 runs a suite
# equally fast; a small one keeps a deep range's window of n-bit terms
# small.  ``_tally`` sizes a request's chunks from its length and part
# count, so that every part gets as many chunks and nearly as many
# indices.
_CHUNK = 64


def _term_lists(n_from: int, n_to: int, size: int = _CHUNK) -> Iterator[tuple[range, list, list]]:
    """The indices of [n_from, n_to] a chunk of ``size`` at a time, each
    with the J3 and JL3 terms j and l that identity sides read at them.

    No side reads below index n - 3 (E5, E9 and E12) or above n + 10 (the
    last coefficient of JO(n+3) in T3_A and T5_QUAD).  Each kind is walked
    once, from n_from - 3, which powering reaches directly.  The term lists
    keep their absolute indices, j[n] = J3(n) and l[n] = JL3(n), so sides
    read them with no offset: they are one list per kind, None outside the
    current chunk's window, so a range holds O(n) bits of terms at index n
    rather than every term it passed.  A range that ends past the index
    bound is refused before any walk.
    """
    _check_index(n_to)
    low = max(n_from - 3, 0)
    lists = [[None] * (n_to + 11) for _ in THIRD_ORDER_KINDS]
    walks = [seq_terms(kind, low) for kind in THIRD_ORDER_KINDS]
    cleared = filled = low
    for first in range(n_from, n_to + 1, size):
        end = min(first + size, n_to + 1)
        keep = max(first - 3, 0)
        for terms, walk in zip(lists, walks):
            terms[cleared:keep] = [None] * (keep - cleared)
            terms[filled:end + 10] = islice(walk, end + 10 - filled)
        cleared, filled = keep, end + 10
        yield range(first, end), *lists


# The sides of one identity at index n from the J3 and JL3 terms j and l
# of the chunk that ``_term_lists`` yields for n:
# sides(j, l, n) is the left side, then the numerator over the row's
# ``den`` of one right side per variant of the identity, in the order of
# its ``variants``: (lhs, printed) or (lhs, printed, corrected).  The
# sides of a row with a window also take it, sides(j, l, n, w).
Sides = Callable[..., tuple[Value, ...]]


class Variant(Enum):
    """Which right side is checked; values double as CLI tags."""

    AS_PRINTED = "printed"
    CORRECTED = "corrected"


class ProductOrder(Enum):
    """Operand order for the closed product forms (octonions do not
    commute, so the two orders are distinct identities)."""

    LUCAS_TIMES_JACOBSTHAL = "jO_times_JO"
    JACOBSTHAL_TIMES_LUCAS = "JO_times_jO"


# ---------------------------------------------------------------------------
# value helpers

def value_to_json(value: Value):
    """Serialize an exact value: integers as decimal strings, octonions as
    8-string arrays, non-integral rationals as {"num": ..., "den": ...}.
    A bool is an int subclass but not a value, and is refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return _decimal_str(value)
    if isinstance(value, Octonion):
        return value.to_json()
    if isinstance(value, ScaledOctonion):
        if value.is_integral():
            return value.numerator.to_json()
        return value.to_json()
    from fractions import Fraction
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _decimal_str(value.numerator)
        return {"num": _decimal_str(value.numerator), "den": _decimal_str(value.denominator)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# reports

class VerificationReport(NamedTuple):
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
        """``value_to_json`` of each value; an octonion witness writes its
        values as ``_witness_json`` does, on its own."""
        if isinstance(self.lhs, Octonion):
            return {"n": self.n, **_witness_json(self.lhs, self.rhs, self.delta, self.n, {})}
        return {
            "n": self.n,
            "lhs": value_to_json(self.lhs),
            "rhs": value_to_json(self.rhs),
            "delta": value_to_json(self.delta),
        }


def _witness_writer() -> Callable[[VerificationReport], dict]:
    """A writer of ``VerificationReport.to_json`` for the failures of one
    request, given in order of n.  It keeps, for each stream of octonion
    witnesses (one identity and variant), the values it wrote at the last
    9 indices, from which ``_witness_json`` derives later ones: it holds
    O(n) bits at index n, and a new writer starts empty."""
    streams: dict[tuple[IdentityId, Variant], dict] = {}

    def write(report: VerificationReport) -> dict:
        if not isinstance(report.lhs, Octonion):
            return report.to_json()
        earlier = streams.setdefault((report.identity, report.variant), {})
        return {"n": report.n,
                **_witness_json(report.lhs, report.rhs, report.delta, report.n, earlier)}

    return write


def _fraction_of(value: Value) -> Optional[tuple[tuple[int, ...], int]]:
    """An octonion value's numerator coefficients and denominator."""
    if isinstance(value, ScaledOctonion):
        return value.numerator.coefficients, value.denominator
    return (value.coefficients, 1) if isinstance(value, Octonion) else None


def _witness_json(lhs: Octonion, rhs: Value, delta: Value, n: int, earlier: dict) -> dict:
    """``value_to_json`` of lhs, rhs and delta, the witness at n.

    lhs = rhs + delta holds for every report ``_check`` builds, so over
    their one denominator the larger of rhs and delta has the numerator
    lhs*den less the smaller's: exact decimal arithmetic derives it from
    the other two in linear time, where converting an int takes quadratic
    time.  lhs and the smaller are derived too, where ``earlier`` holds
    their values at n - 3, n - 6 and n - 9 (``_span_decimals``).  The
    identity is first confirmed in integers, so a report built by hand
    that does not add up has each value converted."""
    r, d = _fraction_of(rhs), _fraction_of(delta)
    powers: dict[int, int] = {}
    if (r is None or d is None or r[1] != d[1]
            or any(a * r[1] != b + c for a, b, c in zip(lhs.coefficients, r[0], d[0]))):
        return {"lhs": [_decimal_str(a, powers) for a in lhs.coefficients],
                "rhs": value_to_json(rhs), "delta": value_to_json(delta)}
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact, InvalidOperation, Rounded

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                    traps=[Inexact, Rounded, InvalidOperation])
    den = r[1]
    rhs_smaller = sum(map(int.bit_length, r[0])) < sum(map(int.bit_length, d[0]))
    values = [_span_decimals(exact, powers, earlier, n, "lhs", lhs.coefficients),
              _span_decimals(exact, powers, earlier, n, (rhs_smaller, den),
                             (r if rhs_smaller else d)[0])]
    for key in [key for key in earlier if not n - 9 < key[1] <= n]:
        del earlier[key]
    values.append([exact.subtract(exact.multiply(a, den), b) for a, b in zip(*values)])
    lhs_text, small, large = ([str(x) for x in value] for value in values)
    rhs_text, delta_text = (small, large) if rhs_smaller else (large, small)
    if den > 1:
        den_text = _decimal_str(den)
        rhs_text, delta_text = ({"num": text, "den": den_text} for text in (rhs_text, delta_text))
    return {"lhs": lhs_text, "rhs": rhs_text, "delta": delta_text}


def _span_decimals(exact: Context, powers: dict[int, int], earlier: dict, n: int, tag: object,
                   coefficients: tuple[int, ...]) -> list[Decimal]:
    """The ``Decimal``s of ``coefficients``, the value ``tag`` of a witness
    at n, which ``earlier`` then keeps under (tag, n).

    Every side of every row obeys x(n) = 73 x(n-3) - 584 x(n-6) + 512
    x(n-9) coefficient by coefficient (C-finite closure: Kauers and Paule,
    *The Concrete Tetrahedron*, 2011, ch. 4).  Where ``earlier`` holds the
    value's ints and ``Decimal``s at those three indices, under the same
    tag, and its ints obey the recurrence, which costs small
    multiplications, its ``Decimal``s are the same sum of theirs, exact in
    the context ``exact``, which traps any rounding: linear time.  Any
    other value, a stream's first 9 indices after a gap or a change of
    tag among them, is converted.  So every value is exact, by induction."""
    back = [earlier.get((tag, n - step)) for step in (3, 6, 9)]
    if None not in back and all(
            x == 73 * a - 584 * b + 512 * c
            for x, a, b, c in zip(coefficients, *(ints for ints, _ in back))):
        decimals = [exact.add(exact.subtract(exact.multiply(a, 73), exact.multiply(b, 584)),
                              exact.multiply(c, 512))
                    for a, b, c in zip(*(decimals for _, decimals in back))]
    else:
        decimals = [exact.create_decimal(_decimal_str(x, powers)) for x in coefficients]
    earlier[tag, n] = coefficients, decimals
    return decimals


class RangeReport(NamedTuple):
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
        """The wire form; each failure's is ``VerificationReport.to_json``."""
        write = _witness_writer()
        return _range_json(self.identity, self.variant, self.n_from, self.n_to,
                           self.total_checked, self.skipped,
                           [write(f) for f in self.failures])


def _range_json(identity: IdentityId, variant: Variant, n_from: int, n_to: int,
                checked: int, skipped: Sequence[int], failures: list[dict]) -> dict:
    """The wire form of a ``RangeReport`` with these fields, its failures
    given already in theirs (``VerificationReport.to_json``)."""
    return {
        "id": identity.name,
        "variant": variant.value,
        "n_from": n_from,
        "n_to": n_to,
        "checked": checked,
        "skipped": list(skipped),
        "failures": failures,
    }


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


def _product_numerator(order: ProductOrder, n: int) -> Octonion:
    """49 times the closed form of ``order`` at n = 0 (mod 3)."""
    x, square = 2 ** n, 4 ** n
    return _octonion(tuple([a * square + b * x + c
                            for (a, b, c) in _PRODUCT_POLYNOMIALS[order]]))


def closed_product(order: ProductOrder, n: int) -> ScaledOctonion:
    """The closed form of jO(n)*JO(n) or JO(n)*jO(n), defined only for
    n = 0 (mod 3): eight quadratic polynomials in 2^n over 49."""
    if n < 0 or n % 3 != 0:
        raise DomainError(f"closed products are defined for n = 0 (mod 3), got {n}")
    _check_index(n)
    return ScaledOctonion(_product_numerator(order, n), 49)


# ---------------------------------------------------------------------------
# identity registry

_JO = OctonionSequenceKind.JACOBSTHAL
_JOL = OctonionSequenceKind.JACOBSTHAL_LUCAS

_ALPHA_SQ = ALPHA * ALPHA
# alpha*eps(n) and eps(n)*alpha for the T5/T6 right sides; row r applies
# when n = r (mod 3).
_ALPHA_EPS_ROWS = tuple(ALPHA * eps for eps in EPSILON_HAT_ROWS)
_EPS_ALPHA_ROWS = tuple(eps * ALPHA for eps in EPSILON_HAT_ROWS)
# Their combinations in the numerators of the T5 right sides, printed and
# corrected, and of both T6 ones, by n mod 3; and alpha^2 as they scale it.
_T5_PRINTED_ROWS, _T5_CORRECTED_ROWS, _T6_ROWS = zip(*(
    ((ae * 25 - ea * 31) * 3, (ae - ea) * 21, (ae + ea) * 3)
    for ae, ea in zip(_ALPHA_EPS_ROWS, _EPS_ALPHA_ROWS)))
_ALPHA_SQ_49 = _ALPHA_SQ * 49
_ALPHA_SQ_2 = _ALPHA_SQ * 2

# Period-3 right sides of the shift identities, by n mod 3: EC5 and E8
# read a pattern, and T1_SHIFT4, T2_SHIFT4 and T3_C the octonions built
# from it.
_JO_SHIFT4 = (1, -2, 1)
_JOL_SHIFT4 = (-3, 6, -3)
_JOL_MINUS_JO_SHIFT2 = (1, -1, 0)
_JO_SHIFT4_ROWS = _period3_rows(_JO_SHIFT4)
_JOL_SHIFT4_ROWS = _period3_rows(_JOL_SHIFT4)
_JOL_MINUS_JO_SHIFT2_ROWS = _period3_rows(_JOL_MINUS_JO_SHIFT2)

# Residue-split norm closed forms: (b, c) in a*4^n + b*2^n + c over 49.
_JO_NORM_TAIL = {0: (1024, 41), 1: (4, 38), 2: (-1028, 33)}
_JOL_NORM_TAIL = {0: (-12288, 369), 1: (-48, 342), 2: (12336, 297)}


def _oct(terms: list, n: int) -> Octonion:
    """JO(n) from the J3 terms, or jO(n) from the JL3 terms."""
    return _octonion(tuple(terms[n:n + 8]))


# x(n+s) = a*x(n) + b*x(n+1) + c*x(n+2), as (a, b, c) for s = 0..7, for
# any x of the J3 recurrence: the recurrence walked from each unit state.
_SHIFT_ROWS = tuple(zip(*(islice(_walk(*unit), 8)
                          for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))))

# Coefficient k of X(n)*Y(n), for octonions X and Y built from two such
# sequences x and y, is sum(w * x(n+p)*y(n+q)) over the nine (p, q) in
# p-major order: the octonion table's x(n+i)*y(n+j) terms, each factor
# put in terms of its sequence's first three.
_PRODUCT_WEIGHTS = tuple(
    tuple(sum(sign * _SHIFT_ROWS[i][p] * _SHIFT_ROWS[j][q]
              for sign, pairs in ((1, plus), (-1, minus)) for i, j in pairs)
          for p in range(3) for q in range(3))
    for plus, minus in _PRODUCT_TERMS)

# Nr2(X(n)), the sum of x(n+s)^2 over s < 8, with the same weights.
_NORM_WEIGHTS = tuple(sum(row[p] * row[q] for row in _SHIFT_ROWS)
                      for p in range(3) for q in range(3))


# ---------------------------------------------------------------------------
# product windows
#
# A quadratic left side is a sum of products of two terms.  Its row keeps
# a window W(n), the nine products x(n+p)*y(n+q), p, q < 3, in p-major
# order, of two lists x and y of J3 or JL3 terms, or a sum of such
# windows with integer weights, and reads each coefficient of its side
# off W(n) with small weights (``_PRODUCT_WEIGHTS``, ``_NORM_WEIGHTS``).
# A range seeds a row's window from the terms once a chunk (``_window``)
# and then moves it on an index at a time by the recurrence alone
# (``_step``): termwise products of C-finite sequences are C-finite
# (Kauers and Paule, *The Concrete Tetrahedron*, 2011, ch. 4), so after
# the seed no index takes a large product.  The weights come from the
# recurrence and the octonion table only, so the left side stays
# independent of the closed forms.

def _window(x: list, y: list, n: int) -> list:
    """W(n) of the term lists x and y: nine large products, or six for a
    square (x is y), whose window is symmetric."""
    if x is y:
        a, b, c = x[n:n + 3]
        ab, ac, bc = a * b, a * c, b * c
        return [a * a, ab, ac, ab, b * b, bc, ac, bc, c * c]
    return [a * b for a in x[n:n + 3] for b in y[n:n + 3]]


def _step(w: list) -> list:
    """W(n + 1) from W(n) = ``w``, each factor moved on by x(k+3) = x(k+2)
    + x(k+1) + 2*x(k): four entries shift, four are sums of three, and the
    corner x(n+3)*y(n+3), a sum of all nine with weights 1, 2 and 4, is
    taken through the two new entries beside it.  The step is linear, so
    it moves a weighted sum of windows as it moves each one."""
    w00, w01, w02, w10, w11, w12, w20, w21, w22 = w
    x3y1 = w21 + w11 + 2 * w01
    x3y2 = w22 + w12 + 2 * w02
    return [w11, w12, w12 + w11 + 2 * w10,
            w21, w22, w22 + w21 + 2 * w20,
            x3y1, x3y2, x3y2 + x3y1 + 2 * (w20 + w10 + 2 * w00)]


def _read(weights: tuple[int, ...], w: list):
    """The sum of the entries of ``w`` with ``weights``."""
    return sum(map(mul, weights, w))


def _read_octonion(w: list) -> Octonion:
    """The octonion whose coefficient k is ``_PRODUCT_WEIGHTS[k]`` read off
    w: X(n)*Y(n) from the window of x and y."""
    return _octonion(tuple([_read(weights, w) for weights in _PRODUCT_WEIGHTS]))


def _combined(w: list, k: int, v: list) -> list:
    """The window w + k*v, in the list w, so that no third window is held."""
    for i, b in enumerate(v):
        w[i] += k * b
    return w


def _norm_closed(lead: int, tail: dict[int, tuple[int, int]], n: int) -> int:
    b, c = tail[n % 3]
    return lead + b * 2 ** n + c


def _sides_oct_rec(j: list, l: list, n: int):
    # Both sequences obey the recurrence; report the first failing pair,
    # or the JO pair (zero delta) when both hold.
    for terms in (j, l):
        lhs = _oct(terms, n + 2)
        rhs = _oct(terms, n + 1) + _oct(terms, n) + _oct(terms, n - 1) * 2
        if lhs != rhs:
            return lhs, rhs
    lhs = _oct(j, n + 2)
    return lhs, lhs


def _sides_t5(j: list, l: list, n: int, w: list):
    # jO(n)^2 + 3*JO(n+3)*jO(n+3), read off W_ll(n) + 3*W_jl(n+3).
    # Numerators over 49 of the printed right side, alpha^2*4^(n+3) +
    # 3*(25*alpha*eps - 31*eps*alpha)*2^(n+1)/49, and of its corrected
    # form: the 25/31 weights replaced by an equal-weight commutator at a
    # higher power of two, 3*(alpha*eps - eps*alpha)*2^(n+3)/7.
    square = _ALPHA_SQ_49 * 4 ** (n + 3)
    return (_read_octonion(w),
            square + _T5_PRINTED_ROWS[n % 3] * 2 ** (n + 1),
            square + _T5_CORRECTED_ROWS[n % 3] * 2 ** (n + 3))


def _sides_t6(j: list, l: list, n: int, w: list):
    # jO(n)^2 - 9*JO(n)^2, read off W_ll(n) - 9*W_jj(n).
    # Numerators over 7 of (2*alpha^2 + 3*(alpha*eps + eps*alpha))*2^(n+1)/7
    # as printed, and of its corrected form, which replaces the constant
    # coefficient 2 on the squared-alpha term by the index-dependent 2^(n+1).
    power = 2 ** (n + 1)
    anti = _T6_ROWS[n % 3] * power
    return (_read_octonion(w),
            _ALPHA_SQ_2 * power + anti,
            _ALPHA_SQ * (power * power) + anti)


class IdentityDescriptor(NamedTuple):
    """A registered identity: its statement, its evaluation paths, the
    variants it is checked in (in report order, one right side each from
    ``sides``), its domain, n >= n_min and, when ``residue`` is set,
    n = residue (mod 3), the denominator ``den`` that its right sides'
    numerators are over, and, for a row whose left side is quadratic, its
    ``window(j, l, n)``, the window W(n) that the left side reads off.  A
    range seeds that window once a chunk and steps it (``_evaluated``);
    ``sides`` take it as a fourth argument, and seed it when it is left
    out (``_windowed``)."""

    statement: str
    sides: Sides
    variants: tuple[Variant, ...] = (Variant.AS_PRINTED,)
    n_min: int = 0
    residue: Optional[int] = None
    den: int = 1
    window: Optional[Callable[[list, list, int], list]] = None

    def in_domain(self, n: int) -> bool:
        if n < self.n_min:
            return False
        return self.residue is None or n % 3 == self.residue


def _windowed(statement: str, window: Callable[[list, list, int], list],
              sides: Callable[..., tuple[Value, ...]], **fields) -> IdentityDescriptor:
    """The row of ``window`` whose sides are ``sides(j, l, n, w)`` for its
    window w at n, which they seed from the terms when called without it."""
    return IdentityDescriptor(
        statement, lambda j, l, n, w=None: sides(j, l, n, window(j, l, n) if w is None else w),
        window=window, **fields)


def _squares_window(j: list, l: list, n: int) -> list:
    """W_ll(n) - 9*W_jj(n), the window of T6_QUAD and E12."""
    return _combined(_window(l, l, n), -9, _window(j, j, n))


# The scalar identities between J3 and JL3 in report order; rows that
# reference index n-3 start at n = 3.  EC5, E6 and E8 have period-3 right
# sides.  E10 and E11 read the running sum S(n) = x(0) + ... + x(n) of J3
# or JL3 off two terms: the recurrence x(k+3) = x(k+2) + x(k+1) + 2*x(k)
# summed over k = 0..n telescopes to 3*S(n) = x(n+2) + 2*x(n) + x(0) -
# x(2), where x(0) - x(2) is -1 for J3 and -3 for JL3.
_SCALAR_IDENTITIES = {
    "E4": IdentityDescriptor(
        "3*J3(n) + JL3(n) = 2^(n+1)",
        lambda j, l, n: (3 * j[n] + l[n], 2 ** (n + 1))),
    "E5": IdentityDescriptor(
        "JL3(n) - 3*J3(n) = 2*JL3(n-3)",
        lambda j, l, n: (l[n] - 3 * j[n], 2 * l[n - 3]), n_min=3),
    "EC5": IdentityDescriptor(
        "J3(n+2) - 4*J3(n) is -2 when n = 1 (mod 3), else 1",
        lambda j, l, n: (j[n + 2] - 4 * j[n], _JO_SHIFT4[n % 3])),
    "E6": IdentityDescriptor(
        "JL3(n) - 4*J3(n) = V(n), the period-3 correction",
        lambda j, l, n: (l[n] - 4 * j[n], correction(n))),
    "E7": IdentityDescriptor(
        "JL3(n+1) + JL3(n) = 3*J3(n+2)",
        lambda j, l, n: (l[n + 1] + l[n], 3 * j[n + 2])),
    "E8": IdentityDescriptor(
        "JL3(n) - J3(n+2) cycles 1, -1, 0 with n mod 3",
        lambda j, l, n: (l[n] - j[n + 2], _JOL_MINUS_JO_SHIFT2[n % 3])),
    "E9": _windowed(
        "JL3(n-3)^2 + 3*J3(n)*JL3(n) = 4^n",
        lambda j, l, n: _combined(_window(l, l, n - 3), 3, _window(j, l, n)),
        lambda j, l, n, w: (w[0], 4 ** n), n_min=3),
    "E10": IdentityDescriptor(
        "sum of J3(0..n) = J3(n+1), minus 1 when n = 0 (mod 3)",
        lambda j, l, n: ((j[n + 2] + 2 * j[n] - 1) // 3,
                      partial_sum_closed(SequenceKind.THIRD_ORDER_JACOBSTHAL, n))),
    "E11": IdentityDescriptor(
        "sum of JL3(0..n) = JL3(n+1) - 2, or + 1 when n = 0 (mod 3)",
        lambda j, l, n: ((l[n + 2] + 2 * l[n] - 3) // 3,
                      partial_sum_closed(SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS, n))),
    "E12": _windowed(
        "JL3(n)^2 - 9*J3(n)^2 = 2^(n+2)*JL3(n-3)",
        _squares_window, lambda j, l, n, w: (w[0], 2 ** (n + 2) * l[n - 3]), n_min=3),
    "JSUM": IdentityDescriptor(
        "J3(n+2) + J3(n+1) + J3(n) = 2^(n+1)",
        lambda j, l, n: (j[n + 2] + j[n + 1] + j[n], 2 ** (n + 1))),
}

# Every identity, one row each, in report order: the scalar rows first,
# then the octonion rows.
_IDENTITIES: dict[str, IdentityDescriptor] = {
    **_SCALAR_IDENTITIES,
    "OCT_REC": IdentityDescriptor(
        "octonion recurrence X(n+2) = X(n+1) + X(n) + 2*X(n-1) for JO and jO",
        _sides_oct_rec, n_min=1),
    "BINET_JO": IdentityDescriptor(
        "JO(n) equals its closed form (2^(n+1)*alpha - eps(n))/7",
        lambda j, l, n: (_oct(j, n), _closed_numerator(_JO, n)), den=7),
    "BINET_JOL": IdentityDescriptor(
        "jO(n) equals its closed form (2^(n+3)*alpha + 3*eps(n))/7",
        lambda j, l, n: (_oct(l, n), _closed_numerator(_JOL, n)), den=7),
    "T1_SUM": IdentityDescriptor(
        "JO(n+2) + JO(n+1) + JO(n) = 2^(n+1)*alpha",
        lambda j, l, n: (_oct(j, n + 2) + _oct(j, n + 1) + _oct(j, n), ALPHA * 2 ** (n + 1))),
    "T1_SHIFT4": IdentityDescriptor(
        "JO(n+2) - 4*JO(n) equals a period-3 octonion row",
        lambda j, l, n: (_oct(j, n + 2) - _oct(j, n) * 4, _JO_SHIFT4_ROWS[n % 3])),
    "T1_NORM": _windowed(
        "Nr2(JO(n)) equals a residue-split quadratic in 2^n over 49",
        lambda j, l, n: _window(j, j, n),
        lambda j, l, n, w: (_read(_NORM_WEIGHTS, w),
                            _norm_closed(87380 * 4 ** n, _JO_NORM_TAIL, n)),
        den=49),
    "T2_SUM": IdentityDescriptor(
        "jO(n+2) + jO(n+1) + jO(n) = 2^(n+3)*alpha",
        lambda j, l, n: (_oct(l, n + 2) + _oct(l, n + 1) + _oct(l, n), ALPHA * 2 ** (n + 3))),
    "T2_SHIFT4": IdentityDescriptor(
        "jO(n+2) - 4*jO(n) equals a period-3 octonion row",
        lambda j, l, n: (_oct(l, n + 2) - _oct(l, n) * 4, _JOL_SHIFT4_ROWS[n % 3])),
    "T2_NORM": _windowed(
        "Nr2(jO(n)) equals a residue-split quadratic in 2^n over 49",
        lambda j, l, n: _window(l, l, n),
        lambda j, l, n, w: (_read(_NORM_WEIGHTS, w),
                            _norm_closed(21845 * 2 ** (2 * n + 6), _JOL_NORM_TAIL, n)),
        den=49),
    "T3_A": IdentityDescriptor(
        "jO(n+3) - 3*JO(n+3) = 2*jO(n)",
        lambda j, l, n: (_oct(l, n + 3) - _oct(j, n + 3) * 3, _oct(l, n) * 2)),
    "T3_B": IdentityDescriptor(
        "jO(n) + jO(n+1) = 3*JO(n+2)",
        lambda j, l, n: (_oct(l, n) + _oct(l, n + 1), _oct(j, n + 2) * 3)),
    "T3_C": IdentityDescriptor(
        "jO(n) - JO(n+2) equals a period-3 octonion row",
        lambda j, l, n: (_oct(l, n) - _oct(j, n + 2), _JOL_MINUS_JO_SHIFT2_ROWS[n % 3])),
    "T3_D": IdentityDescriptor(
        "jO(n) - 4*JO(n) = eps(n)",
        lambda j, l, n: (_oct(l, n) - _oct(j, n) * 4, EPSILON_HAT_ROWS[n % 3])),
    "T4_PROD_JOJ": _windowed(
        "49*(jO(n)*JO(n)) equals quadratic polynomials in 2^n, n = 0 (mod 3)",
        lambda j, l, n: _window(l, j, n),
        lambda j, l, n, w: (_read_octonion(w),
                            _product_numerator(ProductOrder.LUCAS_TIMES_JACOBSTHAL, n)),
        residue=0, den=49),
    "T4_PROD_JJO": _windowed(
        "49*(JO(n)*jO(n)) equals quadratic polynomials in 2^n, n = 0 (mod 3)",
        lambda j, l, n: _window(j, l, n),
        lambda j, l, n, w: (_read_octonion(w),
                            _product_numerator(ProductOrder.JACOBSTHAL_TIMES_LUCAS, n)),
        residue=0, den=49),
    "T5_QUAD": _windowed(
        "jO(n)^2 + 3*JO(n+3)*jO(n+3) against the printed right side",
        lambda j, l, n: _combined(_window(l, l, n), 3, _window(j, l, n + 3)),
        _sides_t5, variants=tuple(Variant), den=49),
    "T6_QUAD": _windowed(
        "jO(n)^2 - 9*JO(n)^2 against the printed right side",
        _squares_window, _sides_t6, variants=tuple(Variant), den=7),
}

IdentityId = Enum("IdentityId", [(name, name) for name in _IDENTITIES], module=__name__)
IdentityId.__doc__ = "Every registered identity, in fixed report order."

REGISTRY: dict[IdentityId, IdentityDescriptor] = {
    identity: _IDENTITIES[identity.name] for identity in IdentityId
}


# ---------------------------------------------------------------------------
# verification

def _columns(identity: IdentityId, variants: Sequence[Variant]) -> list[int]:
    """Where the right side of each of ``variants`` sits in the sides of
    ``identity``; every one of them must be a variant it has."""
    own = REGISTRY[identity].variants
    for variant in variants:
        if variant not in own:
            raise UnknownVariantError(f"{identity.name} has no corrected variant")
    return [own.index(variant) + 1 for variant in variants]


def _rhs(numerator: Union[int, Octonion], den: int) -> Value:
    """``numerator`` over ``den`` in lowest terms; a range builds one, and
    loads ``fractions``, only for a failing index."""
    if den == 1:
        return numerator
    if isinstance(numerator, Octonion):
        return ScaledOctonion(numerator, den)
    from fractions import Fraction
    return Fraction(numerator, den)


def _check(identity: IdentityId, variant: Variant, n: int,
           lhs: Value, numerator: Union[int, Octonion], den: int) -> VerificationReport:
    """The report of ``lhs`` against ``numerator`` over ``den``: it passes
    when lhs*den - numerator is zero, which over ``den`` is its delta."""
    scaled = lhs * den
    return VerificationReport(
        identity=identity,
        variant=variant,
        n=n,
        passed=scaled == numerator,
        lhs=lhs,
        rhs=_rhs(numerator, den),
        delta=_rhs(scaled - numerator, den),
    )


def verify(identity: IdentityId, variant: Variant, n: int) -> VerificationReport:
    """Check one identity variant at index n with exact arithmetic."""
    (column,) = _columns(identity, (variant,))
    descriptor = REGISTRY[identity]
    if not descriptor.in_domain(n):
        if descriptor.residue is not None and (n < 0 or n % 3 != descriptor.residue):
            raise DomainError(
                f"{identity.name} is defined for n = {descriptor.residue} (mod 3), got {n}"
            )
        raise DomainError(f"{identity.name} is defined for n >= {descriptor.n_min}, got {n}")
    ((indices, j, l),) = _term_lists(n, n)
    ((_, sides),) = _evaluated(descriptor, indices, j, l)
    return _check(identity, variant, n, sides[0], sides[column], descriptor.den)


def _evaluated(descriptor: IdentityDescriptor, indices: range, j: list,
               l: list) -> Iterator[tuple[int, tuple[Value, ...]]]:
    """(n, the sides at n) of a row, for each n of ``indices``, one chunk's,
    in its domain.  A row with a window seeds it at the first of them and
    steps it to each later index, through the others too, so it takes no
    large product after the first; it holds one window."""
    sides, window, in_domain = descriptor.sides, descriptor.window, descriptor.in_domain
    w = None
    for n in indices:
        if w is not None:
            w = _step(w)
        if in_domain(n):
            if window is None:
                yield n, sides(j, l, n)
                continue
            if w is None:
                w = window(j, l, n)
            yield n, sides(j, l, n, w)


def _tally(targets: Sequence[tuple[IdentityId, Sequence[Variant]]], n_from: int, n_to: int,
           part: int = 0, parts: int = 1,
           keep: Optional[Callable[[VerificationReport], object]] = None,
           before_chunk: Optional[Callable[[], object]] = None) -> list[list]:
    """[checked, then the failures of each of its variants] for each
    ``(identity, variants)`` of ``targets``, in order, over [n_from, n_to].

    The terms are walked once for every target, and each target's sides
    are evaluated once per index of its domain (``_evaluated``, which
    seeds a quadratic row's window once a chunk), so its variants share the
    left side, which is scaled once by the row's ``den`` and compared with
    each variant's numerator: a passing index builds no rational value.
    Only the chunks ``part``, ``part + parts``, ... of the range are
    evaluated; the walk passes the others by, so ``parts`` processes can
    share a range.  The failures are counted or, with ``keep``, listed as
    what it makes of each one's report, in order of n.  Counting builds no
    report and computes no delta, so a range holds no witness, and a
    caller holds what it keeps and one chunk of terms.

    The range is cut into a multiple of ``parts`` chunks of at most
    ``_CHUNK`` indices and of nearly equal size, so that every part gets
    as many chunks and nearly as many indices.  ``before_chunk``, if
    given, is called before each chunk this part evaluates.  A request of
    no target checks its range's bound and walks nothing."""
    rows = [(identity, REGISTRY[identity], variants, _columns(identity, variants))
            for identity, variants in targets]
    if not rows:
        _check_index(n_to)
        return []
    length = n_to - n_from + 1
    chunks = parts * -(-length // (_CHUNK * parts))
    size = -(-length // chunks)
    tallies = [[0, *([] if keep else 0 for _ in variants)] for _, variants in targets]
    for k, (indices, j, l) in enumerate(_term_lists(n_from, n_to, size)):
        if k % parts != part:
            continue
        if before_chunk is not None:
            before_chunk()
        for (identity, descriptor, variants, columns), tally in zip(rows, tallies):
            den = descriptor.den
            for n, sides in _evaluated(descriptor, indices, j, l):
                tally[0] += 1
                scaled = sides[0] * den if den > 1 else sides[0]
                for i, column in enumerate(columns):
                    if scaled != sides[column]:
                        tally[1 + i] += ([keep(_check(identity, variants[i], n, sides[0],
                                                      sides[column], den))]
                                         if keep else 1)
                # The next index is evaluated without this one's values.
                del sides, scaled
    return tallies


def _range_reports(targets: Sequence[tuple[IdentityId, Sequence[Variant]]],
                   n_from: int, n_to: int) -> list[RangeReport]:
    """One ``RangeReport`` for each variant of each ``(identity,
    variants)`` of ``targets``, in order, from one ``_tally`` of them all."""
    if n_from < 0 or n_to < n_from:
        raise ValueError(f"need 0 <= n_from <= n_to, got [{n_from}, {n_to}]")
    tallies = _tally(targets, n_from, n_to, keep=lambda report: report)
    return [RangeReport(identity=identity, variant=variant, n_from=n_from, n_to=n_to,
                        total_checked=checked, skipped=_skipped(identity, n_from, n_to),
                        failures=tuple(failed))
            for (identity, variants), (checked, *failures) in zip(targets, tallies)
            for variant, failed in zip(variants, failures)]


def verify_ranges(identity: IdentityId, variants: Sequence[Variant],
                  n_from: int, n_to: int) -> list[RangeReport]:
    """Apply ``verify`` at every n in [n_from, n_to] for each of
    ``variants``, collecting skips for out-of-domain indices and reports
    for exact failures: one report per variant, in the order given.  The
    terms are generated once for the whole range, and the sides once per
    index, so the left side is shared by every variant."""
    return _range_reports([(identity, variants)], n_from, n_to)


def _skipped(identity: IdentityId, n_from: int, n_to: int) -> tuple[int, ...]:
    """The indices of [n_from, n_to] outside the domain of ``identity``."""
    descriptor = REGISTRY[identity]
    return tuple(n for n in range(n_from, n_to + 1) if not descriptor.in_domain(n))


def verify_range(identity: IdentityId, variant: Variant,
                 n_from: int, n_to: int) -> RangeReport:
    """``verify_ranges`` for one variant."""
    return verify_ranges(identity, (variant,), n_from, n_to)[0]


def _suite_targets(variants: Collection[Variant]) -> list[tuple[IdentityId, list[Variant]]]:
    """Every registered identity that has one of ``variants``, in registry
    order, with those of them that it has, in its own order."""
    targets = []
    for identity, descriptor in REGISTRY.items():
        wanted = [variant for variant in descriptor.variants if variant in variants]
        if wanted:
            targets.append((identity, wanted))
    return targets


def run_suite(variants: Collection[Variant], n_to: int,
              n_from: int = 0) -> list[RangeReport]:
    """Run every registered identity over [n_from, n_to] in each of
    ``variants`` that it has, in registry order, from one walk of the
    range's terms.  Ordering is fixed so suite outputs diff cleanly across
    runs."""
    return _range_reports(_suite_targets(variants), n_from, n_to)
