import copy
import os
import random
import sys
from fractions import Fraction
from itertools import accumulate, islice

import pytest

from jacobsthal_octonions import identities, sequences
from jacobsthal_octonions.errors import DomainError, UnknownVariantError
from jacobsthal_octonions.identities import (
    IdentityId,
    ProductOrder,
    RangeReport,
    REGISTRY,
    Variant,
    VerificationReport,
    closed_product,
    run_suite,
    value_to_json,
    verify,
    verify_range,
    verify_ranges,
    _ALPHA_EPS_ROWS,
    _CHUNK,
    _EPS_ALPHA_ROWS,
    _NORM_WEIGHTS,
    _oct,
    _read,
    _read_octonion,
    _step,
    _term_lists,
    _window,
)
from jacobsthal_octonions.octonion import Octonion, ScaledOctonion
from jacobsthal_octonions.octonion_sequences import (
    ALPHA,
    OctonionSequenceKind,
    epsilon_hat,
    oct_seq,
)
from jacobsthal_octonions.sequences import (
    THIRD_ORDER_KINDS,
    SequenceKind,
    partial_sum,
    partial_sum_closed,
    seq_terms,
)

PRINTED = Variant.AS_PRINTED
CORRECTED = Variant.CORRECTED


def test_registry_covers_every_id_in_order():
    assert list(REGISTRY) == list(IdentityId)
    assert len(REGISTRY) == 28


def test_every_row_is_defined_in_identities():
    # One table: no row's sides come from another module.
    for identity, descriptor in REGISTRY.items():
        assert descriptor.sides.__module__ == "jacobsthal_octonions.identities", identity


def test_only_the_two_quadratic_ids_have_corrections():
    with_corrected = {i for i in IdentityId if Variant.CORRECTED in REGISTRY[i].variants}
    assert with_corrected == {IdentityId.T5_QUAD, IdentityId.T6_QUAD}


# --- verify ---------------------------------------------------------------


def test_verify_scalar_identity():
    report = verify(IdentityId.E4, PRINTED, 4)
    assert report.passed
    assert (report.lhs, report.rhs) == (32, 32)
    assert report.delta == 0


def test_verify_norm_identity_at_zero():
    report = verify(IdentityId.T1_NORM, PRINTED, 0)
    assert report.passed
    assert report.lhs == 1805
    assert report.rhs == Fraction(1805)


def test_verify_product_identity_at_zero():
    report = verify(IdentityId.T4_PROD_JOJ, PRINTED, 0)
    assert report.passed
    scaled = report.lhs * 49
    assert scaled[0] == -349909
    assert scaled[1] == -7742


def test_verify_unknown_variant():
    with pytest.raises(UnknownVariantError):
        verify(IdentityId.E4, CORRECTED, 0)


@pytest.mark.parametrize("identity,n", [
    (IdentityId.E5, 2),
    (IdentityId.E9, 0),
    (IdentityId.E12, 1),
    (IdentityId.OCT_REC, 0),
    (IdentityId.T4_PROD_JOJ, 1),
    (IdentityId.T4_PROD_JJO, 5),
])
def test_verify_domain_errors(identity, n):
    with pytest.raises(DomainError):
        verify(identity, PRINTED, n)


def test_oct_rec_verifies_both_sequences():
    report = verify(IdentityId.OCT_REC, PRINTED, 1)
    assert report.passed
    assert report.lhs == oct_seq(OctonionSequenceKind.JACOBSTHAL, 3)


def test_oct_rec_reports_the_jo_pair_only_when_jo_alone_breaks():
    # Term n + 9 is the last coefficient of X(n+2) and in no other
    # octonion of the recurrence, so raising it by one breaks that
    # sequence's recurrence by e7.  The first broken pair is reported, JO's
    # before jO's, and JO's when both hold.
    n = 5
    j, l = [list(islice(seq_terms(kind), n + 11)) for kind in THIRD_ORDER_KINDS]
    broken_j, broken_l = j.copy(), l.copy()
    broken_j[n + 9] += 1
    broken_l[n + 9] += 1
    jo = oct_seq(OctonionSequenceKind.JACOBSTHAL, n + 2)
    jol = oct_seq(OctonionSequenceKind.JACOBSTHAL_LUCAS, n + 2)
    e7 = Octonion.basis(7)
    sides = REGISTRY[IdentityId.OCT_REC].sides
    assert sides(j, l, n) == (jo, jo)
    assert sides(j, broken_l, n) == (jol + e7, jol)
    assert sides(broken_j, l, n) == sides(broken_j, broken_l, n) == (jo + e7, jo)
    report = identities._check(IdentityId.OCT_REC, PRINTED, n, *sides(j, broken_l, n), 1)
    assert (report.passed, report.lhs, report.delta) == (False, jol + e7, e7)


# --- the printed quadratic identities fail, their corrections pass --------


def test_t5_printed_fails_at_zero_with_exact_witness():
    report = verify(IdentityId.T5_QUAD, PRINTED, 0)
    assert not report.passed
    assert report.lhs[0] == -1397952
    delta = report.delta
    assert isinstance(delta, ScaledOctonion)
    assert Fraction(delta.numerator[0], delta.denominator) == Fraction(9360, 49)
    # rhs real part is lhs real part shifted by exactly that delta
    rhs = report.rhs
    assert Fraction(rhs.numerator[0], rhs.denominator) == -1397952 - Fraction(9360, 49)


def test_t5_corrected_passes():
    for n in range(0, 30):
        assert verify(IdentityId.T5_QUAD, CORRECTED, n).passed


def test_t6_printed_passes_only_at_zero():
    assert verify(IdentityId.T6_QUAD, PRINTED, 0).passed
    for n in range(1, 12):
        assert not verify(IdentityId.T6_QUAD, PRINTED, n).passed


def test_t6_corrected_passes():
    for n in range(0, 30):
        assert verify(IdentityId.T6_QUAD, CORRECTED, n).passed


def test_failure_delta_is_lhs_minus_rhs():
    report = verify(IdentityId.T6_QUAD, PRINTED, 2)
    assert ScaledOctonion(report.lhs) - report.rhs == report.delta
    assert not report.delta.is_zero()


# --- right sides as numerators over each row's denominator --------------------

DENOMINATORS = {IdentityId.BINET_JO: 7, IdentityId.BINET_JOL: 7,
                IdentityId.T1_NORM: 49, IdentityId.T2_NORM: 49, IdentityId.T4_PROD_JOJ: 49,
                IdentityId.T4_PROD_JJO: 49, IdentityId.T5_QUAD: 49, IdentityId.T6_QUAD: 7}


def rational_right_sides(identity, n):
    """The right sides of a row over a denominator, one per variant, as the
    ``Fraction`` and ``ScaledOctonion`` arithmetic of the printed forms
    gives them."""
    ae, ea, square = ALPHA * epsilon_hat(n), epsilon_hat(n) * ALPHA, ALPHA * ALPHA
    if identity is IdentityId.BINET_JO:
        return (ScaledOctonion(ALPHA * 2 ** (n + 1) - epsilon_hat(n), 7),)
    if identity is IdentityId.BINET_JOL:
        return (ScaledOctonion(ALPHA * 2 ** (n + 3) + epsilon_hat(n) * 3, 7),)
    if identity in (IdentityId.T1_NORM, IdentityId.T2_NORM):
        jo = identity is IdentityId.T1_NORM
        b, c = (identities._JO_NORM_TAIL if jo else identities._JOL_NORM_TAIL)[n % 3]
        lead = 87380 * 4 ** n if jo else 21845 * 2 ** (2 * n + 6)
        return (Fraction(lead + b * 2 ** n + c, 49),)
    if identity is IdentityId.T4_PROD_JOJ:
        return (closed_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, n),)
    if identity is IdentityId.T4_PROD_JJO:
        return (closed_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, n),)
    if identity is IdentityId.T5_QUAD:
        scaled = ScaledOctonion(square * 4 ** (n + 3))
        return (scaled + ScaledOctonion((ae * 25 - ea * 31) * (3 * 2 ** (n + 1)), 49),
                scaled + ScaledOctonion((ae - ea) * (3 * 2 ** (n + 3)), 7))
    anti = (ae + ea) * 3
    return (ScaledOctonion((square * 2 + anti) * 2 ** (n + 1), 7),
            ScaledOctonion((square * 2 ** (n + 1) + anti) * 2 ** (n + 1), 7))


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.name)
def test_numerators_over_den_check_and_witness_as_the_rationals_do(identity):
    # lhs * den == numerator holds exactly when lhs equals the rational
    # right side, and a report's rhs and delta, built from the numerator,
    # are that side and lhs minus it, in value, type and wire form (whose
    # decimal strings are left out near 10^5, where they cost seconds).
    descriptor = REGISTRY[identity]
    den = DENOMINATORS.get(identity, 1)
    assert descriptor.den == den
    for n in (*range(41), 3000, random.Random(20).randrange(99000, 10 ** 5)):
        if not descriptor.in_domain(n):
            continue
        ((_, j, l),) = _term_lists(n, n)
        lhs, *numerators = descriptor.sides(j, l, n)
        rationals = rational_right_sides(identity, n) if den > 1 else numerators
        for variant, numerator, rhs in zip(descriptor.variants, numerators, rationals):
            assert (lhs * den == numerator) is (lhs == rhs), (variant, n)
            report = verify(identity, variant, n)
            assert report.passed is (lhs == rhs)
            assert (report.lhs, report.rhs, report.delta) == (lhs, rhs, lhs - rhs)
            assert [type(report.rhs), type(report.delta)] == [type(rhs), type(lhs - rhs)]
            if n <= 3000:
                assert report.to_json() == {"n": n, "lhs": value_to_json(lhs),
                                            "rhs": value_to_json(rhs),
                                            "delta": value_to_json(lhs - rhs)}


# --- verify_range ---------------------------------------------------------


def test_range_scalar_full_pass():
    report = verify_range(IdentityId.E4, PRINTED, 0, 100)
    assert report.total_checked == 101
    assert report.skipped == ()
    assert report.failures == ()
    assert report.passed


def test_range_residue_filter():
    report = verify_range(IdentityId.T4_PROD_JOJ, PRINTED, 0, 10)
    assert report.total_checked == 4
    assert report.skipped == (1, 2, 4, 5, 7, 8, 10)
    assert report.failures == ()


def test_range_min_index_skips():
    report = verify_range(IdentityId.E5, PRINTED, 0, 50)
    assert report.skipped == (0, 1, 2)
    assert report.total_checked == 48


def test_range_counts_add_up():
    for identity in (IdentityId.E9, IdentityId.OCT_REC, IdentityId.T4_PROD_JJO):
        report = verify_range(identity, PRINTED, 0, 37)
        assert report.total_checked + len(report.skipped) == 38


def test_range_t6_failures():
    report = verify_range(IdentityId.T6_QUAD, PRINTED, 0, 10)
    assert [f.n for f in report.failures] == list(range(1, 11))
    assert report.total_checked == 11


def test_range_rejects_bad_bounds():
    with pytest.raises(ValueError):
        verify_range(IdentityId.E4, PRINTED, 5, 4)
    with pytest.raises(ValueError):
        verify_range(IdentityId.E4, PRINTED, -1, 4)


def test_range_unknown_variant_propagates():
    with pytest.raises(UnknownVariantError):
        verify_range(IdentityId.T1_SUM, CORRECTED, 0, 5)


# --- verify_ranges: one pass for every variant ---------------------------------


@pytest.mark.parametrize("identity", [IdentityId.T5_QUAD, IdentityId.T6_QUAD])
def test_both_variants_cost_the_products_of_one(identity, window_products):
    # The sides are evaluated once per index, so the left side's products
    # are not repeated for the second variant; they are its window's seed,
    # so a range takes those of its first index.
    counts = {}
    for variants in ((PRINTED,), (CORRECTED,), (PRINTED, CORRECTED)):
        window_products[0] = 0
        verify_ranges(identity, variants, 30, 35)
        counts[variants] = window_products[0]
    window_products[0] = 0
    verify_ranges(identity, (PRINTED,), 30, 30)
    assert counts[(PRINTED, CORRECTED)] == counts[(PRINTED,)] == counts[(CORRECTED,)] \
        == window_products[0] > 0


@pytest.mark.parametrize("identity", [IdentityId.T5_QUAD, IdentityId.T6_QUAD])
@pytest.mark.parametrize("n_from, n_to", [(0, 12), (3000, 3003)])
def test_both_variant_reports_equal_single_variant_reports(identity, n_from, n_to):
    both = verify_ranges(identity, (PRINTED, CORRECTED), n_from, n_to)
    assert both == [verify_range(identity, PRINTED, n_from, n_to),
                    verify_range(identity, CORRECTED, n_from, n_to)]
    assert verify_ranges(identity, (CORRECTED, PRINTED), n_from, n_to) == both[::-1]
    printed, corrected = both
    assert corrected.passed and corrected.total_checked == n_to - n_from + 1
    # T6's printed form holds at n = 0 only; T5's fails everywhere.
    holds = {0} if identity is IdentityId.T6_QUAD else set()
    assert [f.n for f in printed.failures] == [
        n for n in range(n_from, n_to + 1) if n not in holds]


def test_unknown_variant_raises_before_any_term(monkeypatch):
    def no_terms(*args):
        raise AssertionError("terms were built")

    monkeypatch.setattr(identities, "_term_lists", no_terms)
    with pytest.raises(UnknownVariantError, match="^E4 has no corrected variant$"):
        verify_ranges(IdentityId.E4, (CORRECTED,), 0, 5)
    with pytest.raises(UnknownVariantError, match="^E4 has no corrected variant$"):
        verify_ranges(IdentityId.E4, (PRINTED, CORRECTED), 0, 5)


def test_range_past_the_index_bound_is_refused_before_any_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a term was computed")

    monkeypatch.setattr(sequences, "_walk", no_walk)
    monkeypatch.setattr(sequences, "_x_power", no_walk)
    with pytest.raises(DomainError, match="must be <= 1000000, got 1000006"):
        verify_ranges(IdentityId.T3_D, (PRINTED,), 1000005, 1000006)
    with pytest.raises(DomainError, match="must be <= 1000000, got 1000001"):
        verify(IdentityId.E4, PRINTED, 1000001)


def test_range_builds_a_report_only_for_a_failing_index(monkeypatch):
    built = []
    check = identities._check

    def counted(identity, variant, n, lhs, numerator, den):
        built.append(n)
        return check(identity, variant, n, lhs, numerator, den)

    monkeypatch.setattr(identities, "_check", counted)
    report = verify_range(IdentityId.T5_QUAD, CORRECTED, 3000, 3003)
    assert report.passed and report.total_checked == 4
    assert built == []
    report = verify_range(IdentityId.T6_QUAD, PRINTED, 1, 4)
    assert [f.n for f in report.failures] == built == [1, 2, 3, 4]


# --- run_suite -------------------------------------------------------------


def test_suite_printed_only():
    reports = run_suite({PRINTED}, 30)
    assert len(reports) == 28
    failing = {r.identity for r in reports if r.failures}
    assert failing == {IdentityId.T5_QUAD, IdentityId.T6_QUAD}


def test_suite_with_corrected_rows():
    reports = run_suite({PRINTED, CORRECTED}, 30)
    assert len(reports) == 30
    corrected = [r for r in reports if r.variant is CORRECTED]
    assert {r.identity for r in corrected} == {IdentityId.T5_QUAD, IdentityId.T6_QUAD}
    assert all(not r.failures for r in corrected)


def test_suite_corrected_only():
    reports = run_suite({CORRECTED}, 10)
    assert [(r.identity, r.variant) for r in reports] == [
        (IdentityId.T5_QUAD, CORRECTED), (IdentityId.T6_QUAD, CORRECTED)]
    assert all(r.passed and r.total_checked == 11 for r in reports)


def test_suite_at_zero():
    reports = {r.identity: r for r in run_suite({PRINTED}, 0)}
    assert reports[IdentityId.T6_QUAD].passed
    assert not reports[IdentityId.T5_QUAD].passed
    # ids whose domain excludes n=0 check nothing but do not fail
    assert reports[IdentityId.E5].total_checked == 0
    assert reports[IdentityId.E5].skipped == (0,)


def test_suite_order_is_stable():
    first = [(r.identity, r.variant) for r in run_suite({PRINTED, CORRECTED}, 3)]
    second = [(r.identity, r.variant) for r in run_suite({PRINTED, CORRECTED}, 3)]
    assert first == second


def test_suite_of_no_variant_still_checks_its_range():
    # No row is run, but the range is checked as for every other request.
    with pytest.raises(DomainError):
        run_suite(set(), 10 ** 7)
    with pytest.raises(ValueError):
        run_suite(set(), 5, 10)
    assert run_suite(set(), 10) == []


def test_a_tally_of_no_target_walks_nothing(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked the terms of no row")

    monkeypatch.setattr(identities, "_term_lists", no_walk)
    assert run_suite(set(), 30000) == []
    assert identities._tally([], 0, 10 ** 6) == []
    with pytest.raises(DomainError):
        identities._tally([], 0, 10 ** 6 + 1)


class RecordingTerms(list):
    """A list of terms that records every index it is read at.  A slice
    records the range of its own bounds, so one that starts below 0 is
    seen as such, not wrapped round to the end of the list."""

    def __init__(self, terms):
        super().__init__(terms)
        self.read = set()

    def __getitem__(self, key):
        if isinstance(key, slice):
            assert key.step is None
            self.read.update(range(key.start, key.stop))
        else:
            self.read.add(key)
        return super().__getitem__(key)

    def __iter__(self):
        raise AssertionError("the terms were iterated")


def test_every_side_reads_only_its_window_of_terms():
    # _term_lists holds the terms n - 3 .. n + 10 of an index n, and the
    # least index a row reads at its n_min is a term that exists.
    for identity, descriptor in REGISTRY.items():
        offsets = set()
        for n in (descriptor.n_min, 3000):
            assert descriptor.in_domain(n)
            terms = [RecordingTerms(islice(seq_terms(kind), n + 40)) for kind in THIRD_ORDER_KINDS]
            descriptor.sides(*terms, n)
            read = terms[0].read | terms[1].read
            assert read and read <= set(range(n - 3, n + 11)), (identity, n)
            offsets |= {k - n for k in read}
        assert descriptor.n_min + min(offsets) >= 0, identity


def test_every_side_obeys_the_span_recurrence():
    # Each side is built from J3, JL3 (2^n and a period-3 part), 2^n and 1,
    # with at most two factors, so along steps of 3 it is a combination of
    # 1, 8^k and 64^k.  It then obeys x(n+9) = 73 x(n+6) - 584 x(n+3) +
    # 512 x(n), whose polynomial is (y - 1)(y - 8)(y - 64) in y = x^3.  A
    # row outside that span fails here.  Residue rows take only the indices
    # of their class, which steps of 3 keep.
    seeded = 3 * random.Random(16).randrange(1000, 3334)
    for identity, descriptor in REGISTRY.items():
        starts = [n for n in (*range(2000, 2009), seeded) if descriptor.in_domain(n)]
        assert len(starts) == (10 if descriptor.residue is None else 4)
        for variant in descriptor.variants:
            for n in starts:
                reports = [verify(identity, variant, n + 3 * k) for k in range(4)]
                for side in ("lhs", "rhs"):
                    x = [getattr(report, side) for report in reports]
                    assert x[3] == x[2] * 73 - x[1] * 584 + x[0] * 512, (identity, variant, n)


# --- closed products --------------------------------------------------------


def test_closed_product_values_at_zero():
    product = closed_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, 0)
    assert product == ScaledOctonion(
        Octonion((-349909, -7742, 490, -4704, -2842, -98, -3920, 7546)), 49)
    assert product.numerator[1] == -158  # -7742 / 49
    mirrored = closed_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, 0)
    assert mirrored.numerator[0] == product.numerator[0]


def test_closed_product_matches_direct_product():
    jo = OctonionSequenceKind.JACOBSTHAL
    jol = OctonionSequenceKind.JACOBSTHAL_LUCAS
    for n in range(0, 31, 3):
        assert closed_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, n) == \
            oct_seq(jol, n) * oct_seq(jo, n)
        assert closed_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, n) == \
            oct_seq(jo, n) * oct_seq(jol, n)


def test_closed_product_domain():
    with pytest.raises(DomainError):
        closed_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, 1)
    with pytest.raises(DomainError):
        closed_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, -3)


def test_closed_product_past_the_bound_is_refused():
    # 10^6 + 2 is the first index past the bound in the product's domain.
    for order in ProductOrder:
        with pytest.raises(DomainError, match="must be <= 1000000, got 1000002"):
            closed_product(order, 10 ** 6 + 2)


# --- report serialization ---------------------------------------------------


def test_range_report_json_schema():
    report = verify_range(IdentityId.T6_QUAD, PRINTED, 0, 3)
    payload = report.to_json()
    assert payload["id"] == "T6_QUAD"
    assert payload["variant"] == "printed"
    assert payload["n_from"] == 0 and payload["n_to"] == 3
    assert payload["checked"] == 4
    assert payload["skipped"] == []
    failure = payload["failures"][0]
    assert set(failure) == {"n", "lhs", "rhs", "delta"}
    assert failure["n"] == 1
    assert isinstance(failure["lhs"], list) and len(failure["lhs"]) == 8
    assert set(failure["delta"]) == {"num", "den"}


def test_value_serialization_shapes():
    assert value_to_json(5) == "5"
    assert value_to_json(Fraction(10, 2)) == "5"
    assert value_to_json(Fraction(-9360, 49)) == {"num": "-9360", "den": "49"}
    assert value_to_json(Octonion((0,) * 8)) == ["0"] * 8
    scaled = ScaledOctonion(Octonion((1, 0, 0, 0, 0, 0, 0, 0)), 7)
    assert value_to_json(scaled) == {"num": ["1", "0", "0", "0", "0", "0", "0", "0"], "den": "7"}
    integral = ScaledOctonion(Octonion((7, 0, 0, 0, 0, 0, 0, 0)), 7)
    assert value_to_json(integral) == ["1", "0", "0", "0", "0", "0", "0", "0"]


@pytest.mark.parametrize("value", [True, False])
def test_value_serialization_refuses_a_bool(value):
    with pytest.raises(TypeError, match="bool"):
        value_to_json(value)


# --- octonion witnesses: the larger of rhs and delta derived ------------------

def lhs_at_n_min(identity):
    descriptor = REGISTRY[identity]
    n = next(n for n in range(descriptor.n_min, descriptor.n_min + 3) if descriptor.in_domain(n))
    ((_, j, l),) = _term_lists(n, n)
    return descriptor.sides(j, l, n)[0]


OCTONION_ROWS = [identity for identity in IdentityId
                 if isinstance(lhs_at_n_min(identity), Octonion)]


def wire(report):
    """A report's wire form built from ``value_to_json`` of each value."""
    return {"n": report.n, "lhs": value_to_json(report.lhs),
            "rhs": value_to_json(report.rhs), "delta": value_to_json(report.delta)}


def numerator_bits(value):
    num = value.numerator if isinstance(value, ScaledOctonion) else value
    return sum(abs(c).bit_length() for c in num)


def perturbed_witnesses(identity, n):
    """Reports of ``identity`` at n against numerators moved off the true
    one: a little (rhs the larger), to a small octonion with zero and
    negative coefficients (delta the larger), to den times that (both
    reduce to den 1), and to lhs*den but for one coefficient (a delta with
    seven zero coefficients)."""
    descriptor = REGISTRY[identity]
    ((_, j, l),) = _term_lists(n, n)
    lhs, numerator, *_ = descriptor.sides(j, l, n)
    den = descriptor.den
    small = Octonion((3, -1, 0, 4, -1, 0, 5, -9))
    for moved in (numerator + small, small, small * den, lhs * den - Octonion.basis(n % 8)):
        yield identities._check(identity, PRINTED, n, lhs, moved, den)


@pytest.mark.parametrize("identity", OCTONION_ROWS, ids=lambda i: i.name)
def test_an_octonion_witness_is_written_as_each_value_would_be(identity):
    descriptor = REGISTRY[identity]
    larger = set()
    for n in (*range(41), 3000):
        if not descriptor.in_domain(n):
            continue
        for report in perturbed_witnesses(identity, n):
            assert isinstance(report.lhs, Octonion)
            assert report.to_json() == wire(report), (n, report.rhs)
            larger.add("rhs" if numerator_bits(report.rhs) > numerator_bits(report.delta)
                       else "delta")
            integral = [isinstance(v, Octonion) or v.is_integral()
                        for v in (report.rhs, report.delta)]
            assert integral[0] == integral[1]
    assert larger == {"rhs", "delta"}


def test_a_witness_derived_past_the_digit_limit_is_exact():
    rng = random.Random(4301)
    lhs = Octonion(tuple(rng.randint(-10 ** 5000, 10 ** 5000) for _ in range(8)))
    for numerator in (lhs * 49 + Octonion(tuple(rng.randint(-10 ** 2500, 10 ** 2500)
                                                for _ in range(8))),
                      Octonion(tuple(rng.randint(-10 ** 4400, 10 ** 4400) for _ in range(8)))):
        report = identities._check(IdentityId.T5_QUAD, PRINTED, 3000, lhs, numerator, 49)
        assert max(numerator_bits(report.rhs), numerator_bits(report.delta)) > 14300 * 8
        assert report.to_json() == wire(report)


def test_a_witness_that_does_not_add_up_is_written_as_stored():
    # A report built by hand need not satisfy lhs = rhs + delta: its values
    # are then each converted, so what it holds is what it shows.
    ((_, j, l),) = _term_lists(3000, 3000)
    lhs, numerator, _ = REGISTRY[IdentityId.T5_QUAD].sides(j, l, 3000)
    report = identities._check(IdentityId.T5_QUAD, PRINTED, 3000, lhs, numerator, 49)
    one = Octonion.basis(3)
    wrong = [
        report._replace(delta=ScaledOctonion(report.delta.numerator + one, 49)),
        report._replace(rhs=ScaledOctonion(report.rhs.numerator - one, 49)),
        # over two denominators
        report._replace(rhs=report.rhs.numerator),
        report._replace(delta=lhs - report.rhs.numerator),
        report._replace(delta=5),
    ]
    for bad in wrong:
        assert bad.to_json() == wire(bad)
    assert wrong[0].to_json()["delta"] != report.to_json()["delta"]


def test_an_octonion_witness_converts_only_lhs_and_the_smaller_side(monkeypatch):
    converted = []
    decimal_str = identities._decimal_str

    def recording(x, powers=None):
        converted.append(x)
        return decimal_str(x, powers)

    monkeypatch.setattr(identities, "_decimal_str", recording)
    for identity in (IdentityId.T5_QUAD, IdentityId.T6_QUAD):
        report = verify(identity, PRINTED, 3000)
        smaller = min(report.rhs, report.delta, key=numerator_bits)
        converted.clear()
        text = report.to_json()
        # Both are ScaledOctonions; T6's are integral there.
        den = [smaller.denominator] if smaller.denominator > 1 else []
        assert converted == [*report.lhs, *smaller.numerator, *den]
        assert text == wire(report)


# --- octonion witnesses: derived along the span recurrence ------------------

QUAD_ROWS = [IdentityId.T5_QUAD, IdentityId.T6_QUAD]
# Near 10**4 a T5 or T6 witness's values pass 4,300 digits.
DEEP = random.Random(26).randrange(9500, 10500)
SPAN_RANGES = [(0, 80), (2990, 3030), (DEEP, DEEP + 29)]


def recording_conversions(monkeypatch):
    """The ints ``identities._decimal_str`` converts from now on."""
    converted = []
    decimal_str = identities._decimal_str

    def recording(x, powers=None):
        converted.append(x)
        return decimal_str(x, powers)

    monkeypatch.setattr(identities, "_decimal_str", recording)
    return converted


@pytest.mark.parametrize("limit", [None, 640])
@pytest.mark.parametrize("identity", QUAD_ROWS, ids=lambda i: i.name)
def test_a_range_writes_each_witness_as_it_is_written_on_its_own(identity, limit):
    # A range's writer derives a witness from those 3, 6 and 9 indices
    # back; each one's is what it writes on its own, under the lowest
    # digit limit CPython allows too.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if limit is not None and set_limit is None:
        pytest.skip("no int-to-str digit limit before CPython 3.11")
    old = sys.get_int_max_str_digits() if set_limit else None
    try:
        if limit is not None:
            set_limit(limit)
        for n_from, n_to in SPAN_RANGES:
            report = verify_range(identity, PRINTED, n_from, n_to)
            failures = report.to_json()["failures"]
            assert failures == [f.to_json() for f in report.failures], (n_from, n_to)
            assert len(failures) >= n_to - n_from
        assert max(len(text) for text in failures[-1]["lhs"]) > 4300
    finally:
        if limit is not None:
            set_limit(old)


def on_span(n, *scales):
    """An octonion of n on the span recurrence: each coefficient a sum of
    ``scales`` times 1, 2**n and 4**n, zero and negative ones included."""
    return Octonion(tuple(a + b * 2 ** n + c * 4 ** n for a, b, c in scales))


SPAN_COEFFICIENTS = [(0, 0, 0), (-1, 0, 0), (5, -1, 0), (0, 0, -1),
                     (0, 1, -1), (7, 0, 3), (0, 0, 0), (-3, 2, 1)]


def synthetic(n, den=49, numerator_scales=SPAN_COEFFICIENTS[::-1]):
    """A report of T5_QUAD at n whose values are on the span recurrence,
    with zero and negative coefficients; delta is the smaller."""
    lhs = on_span(n, *((4 * a, 5 * b, 3 * c) for a, b, c in SPAN_COEFFICIENTS))
    return identities._check(IdentityId.T5_QUAD, PRINTED, n, lhs,
                             lhs * den - on_span(n, *numerator_scales), den)


def stream_cases():
    t5 = [verify(IdentityId.T5_QUAD, PRINTED, n) for n in range(3000, 3031)]
    t6 = [verify(IdentityId.T6_QUAD, PRINTED, n) for n in range(3000, 3031)]
    one = Octonion.basis(2)
    off = t5[15]
    yield "gapped n, and n going back", [*t5[:9], *t5[10:14], *t5[17:], *t5[3:12]]
    yield "a den change", [*(synthetic(n) for n in range(40, 55)),
                           *(synthetic(n, den=7) for n in range(55, 70)),
                           *(synthetic(n) for n in range(70, 85))]
    yield "a report off the recurrence", [
        *t5[:15],
        identities._check(IdentityId.T5_QUAD, PRINTED, off.n, off.lhs + one,
                          off.rhs.numerator, 49),
        *t5[16:21],
        off._replace(lhs=off.lhs + one, delta=off.delta + one),
        *t5[21:]]
    yield "zero and negative coefficients", [synthetic(n) for n in range(0, 40)]
    # The smaller is delta up to 3015, then rhs: its numerator is delta's.
    yield "a flip of the smaller side", [
        *t5[:16], *(identities._check(r.identity, r.variant, r.n, r.lhs, r.delta.numerator, 49)
                    for r in t5[16:])]
    yield "two streams", [r for pair in zip(t5, t6) for r in pair]


@pytest.mark.parametrize("case, reports", list(stream_cases()),
                         ids=[case for case, _ in stream_cases()])
def test_a_writer_writes_each_witness_as_it_is_written_on_its_own(monkeypatch, case, reports):
    alone = [r.to_json() for r in reports]
    converted = recording_conversions(monkeypatch)
    write = identities._witness_writer()
    assert [write(r) for r in reports] == alone
    # Some values were derived, not converted.
    assert len(converted) < sum(16 + (r.rhs.denominator > 1) for r in reports)


def test_a_writer_derives_a_stream_past_its_first_9_indices(monkeypatch):
    reports = [synthetic(n) for n in range(100, 140)]
    alone = [r.to_json() for r in reports]
    converted = recording_conversions(monkeypatch)
    write = identities._witness_writer()
    assert [write(r) for r in reports] == alone
    # lhs, the smaller side and den at each of the first 9; den after.
    seeds = [x for r in reports[:9] for x in (*r.lhs, *r.delta.numerator, 49)]
    assert converted == seeds + [49] * 31


def test_a_json_window_in_one_part_converts_only_its_first_9_indices(capsys, monkeypatch):
    # One part walks the window's chunks in order, so only the stream's
    # first 9 indices are converted; each index converts its den.
    from jacobsthal_octonions import cli

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    converted = recording_conversions(monkeypatch)
    argv = "verify --identity T5_QUAD --variant both --from 3000 --to 3063 --format json"
    assert cli.main(argv.split()) == 1
    out = capsys.readouterr().out
    assert out.count('"n": ') == 64
    assert converted.count(49) == 64
    assert len(converted) - 64 == 9 * 16


@pytest.mark.parametrize("record, field", [
    (verify(IdentityId.T6_QUAD, PRINTED, 1), "passed"),
    (verify_range(IdentityId.T6_QUAD, PRINTED, 0, 3), "failures"),
    (REGISTRY[IdentityId.T5_QUAD], "variants"),
], ids=["VerificationReport", "RangeReport", "IdentityDescriptor"])
def test_records_are_immutable_and_hashable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.unknown_field = 0
    assert hash(record) == hash(copy.copy(record))


def test_descriptor_lookup():
    descriptor = REGISTRY[IdentityId.T4_PROD_JOJ]
    assert descriptor.residue == 0
    assert Variant.CORRECTED not in descriptor.variants
    assert REGISTRY[IdentityId.OCT_REC].n_min == 1


def test_range_reports_match_single_checks():
    # verify_range reads the terms a chunk at a time, with nothing held
    # outside the chunk's window; every report must equal the one verify
    # builds on its own.
    for identity, descriptor in REGISTRY.items():
        for variant in descriptor.variants:
            report = verify_range(identity, variant, 40, 45)
            alone = [verify(identity, variant, n) for n in range(40, 46)
                     if descriptor.in_domain(n)]
            assert report.total_checked == len(alone)
            assert report.failures == tuple(r for r in alone if not r.passed)


def test_alpha_epsilon_rows_match_products():
    # The T5/T6 right sides read these rows instead of multiplying.
    for n in range(6):
        assert _ALPHA_EPS_ROWS[n % 3] == ALPHA * epsilon_hat(n)
        assert _EPS_ALPHA_ROWS[n % 3] == epsilon_hat(n) * ALPHA


# --- products of two term windows --------------------------------------------


@pytest.mark.parametrize("x_kind", THIRD_ORDER_KINDS)
@pytest.mark.parametrize("y_kind", THIRD_ORDER_KINDS)
def test_window_product_equals_the_table_product(x_kind, y_kind):
    # The window's products of the first three terms and the import-time
    # weights against the 64-product bilinear table and the norm form, at
    # small, witness-sized and deep indices.
    x, y = (list(islice(seq_terms(kind), 48)) for kind in (x_kind, y_kind))
    if x_kind is y_kind:
        y = x
    for n in range(41):
        assert _read_octonion(_window(x, y, n)) == _oct(x, n) * _oct(y, n), n
        if x is y:
            assert _read(_NORM_WEIGHTS, _window(x, x, n)) == _oct(x, n).norm_sq(), n
    for n in (3000, random.Random(5).randrange(99000, 10 ** 5)):
        x, y = (list(islice(seq_terms(kind, n), 8)) for kind in (x_kind, y_kind))
        assert _read_octonion(_window(x, y, 0)) == _oct(x, 0) * _oct(y, 0), n
        assert _read(_NORM_WEIGHTS, _window(x, x, 0)) == _oct(x, 0).norm_sq(), n


@pytest.mark.parametrize("x_kind", THIRD_ORDER_KINDS)
@pytest.mark.parametrize("y_kind", THIRD_ORDER_KINDS)
def test_a_stepped_window_is_its_products_at_every_entry(x_kind, y_kind):
    # Each step moves both factors on by the recurrence: every entry equals
    # the product of the terms, from n = 0 and from witness-sized and deep
    # seeds, for two lists and for a square.
    rng = random.Random(14)
    for start, steps in ((0, 40), (3000, 12), (rng.randrange(99000, 10 ** 5), 4)):
        x, y = (list(islice(seq_terms(kind, start), steps + 3)) for kind in (x_kind, y_kind))
        if x_kind is y_kind:
            y = x
        w = _window(x, y, 0)
        for k in range(steps + 1):
            assert w == [x[k + p] * y[k + q] for p in range(3) for q in range(3)], (start, k)
            w = _step(w)


# The left side of each row with a window, from the terms by the octonion
# product, the norm form or integer products, with no window.
DIRECT_LEFT_SIDES = {
    IdentityId.E9: lambda j, l, n: l[n - 3] * l[n - 3] + 3 * j[n] * l[n],
    IdentityId.E12: lambda j, l, n: l[n] * l[n] - 9 * j[n] * j[n],
    IdentityId.T1_NORM: lambda j, l, n: _oct(j, n).norm_sq(),
    IdentityId.T2_NORM: lambda j, l, n: _oct(l, n).norm_sq(),
    IdentityId.T4_PROD_JOJ: lambda j, l, n: _oct(l, n) * _oct(j, n),
    IdentityId.T4_PROD_JJO: lambda j, l, n: _oct(j, n) * _oct(l, n),
    IdentityId.T5_QUAD: lambda j, l, n: (_oct(l, n) * _oct(l, n)
                                         + _oct(j, n + 3) * _oct(l, n + 3) * 3),
    IdentityId.T6_QUAD: lambda j, l, n: _oct(l, n) * _oct(l, n) - _oct(j, n) * _oct(j, n) * 9,
}


def test_the_rows_with_a_window_are_the_quadratic_ones():
    assert {identity for identity, descriptor in REGISTRY.items()
            if descriptor.window is not None} == set(DIRECT_LEFT_SIDES)


@pytest.mark.parametrize("identity", DIRECT_LEFT_SIDES, ids=lambda i: i.name)
def test_a_stepped_row_window_is_its_seed(identity):
    # A row's window is a weighted sum of windows, which the step moves as
    # it moves each: stepped from the row's first index, it equals the
    # window seeded afresh at every later one.
    descriptor = REGISTRY[identity]
    j, l = (list(islice(seq_terms(kind), 60)) for kind in THIRD_ORDER_KINDS)
    w = descriptor.window(j, l, descriptor.n_min)
    for n in range(descriptor.n_min, 41):
        assert w == descriptor.window(j, l, n), n
        w = _step(w)


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("identity", DIRECT_LEFT_SIDES, ids=lambda i: i.name)
def test_every_quadratic_left_side_in_a_tally_is_its_direct_product(
        monkeypatch, identity, parts):
    # The row's right side is replaced by its left side taken directly, so
    # a tally passes exactly where every stepped window reads the direct
    # value: at n = 0..40, across every chunk boundary of a range of three
    # chunks in one part and four in two, near 3000 and near 10^5.
    descriptor = REGISTRY[identity]
    direct = DIRECT_LEFT_SIDES[identity]
    monkeypatch.setitem(REGISTRY, identity, descriptor._replace(
        sides=lambda j, l, n, w=None: (descriptor.sides(j, l, n, w)[0], direct(j, l, n)),
        variants=(PRINTED,), den=1))
    deep = 3 * random.Random(27).randrange(33000, 33334)
    for n_from, n_to in ((0, 40), (_CHUNK - 3, 3 * _CHUNK + 2), (2995, 3004), (deep - 1, deep + 1)):
        tallies = [identities._tally([(identity, [PRINTED])], n_from, n_to, part, parts,
                                     keep=lambda report: report.n)[0]
                   for part in range(parts)]
        assert sum(checked for checked, _ in tallies) == len(
            [n for n in range(n_from, n_to + 1) if descriptor.in_domain(n)])
        assert [failed for _, failed in tallies] == [[]] * parts, (n_from, n_to)


def test_window_products_leave_nothing_to_the_octonion_product(octonion_products,
                                                               window_products):
    # Every quadratic left side reads a window, which takes its large
    # products once, at the range's first index in the row's domain: T4's
    # nine, and T5's six for jO(n)^2 and nine for JO(n+3)*jO(n+3).  Later
    # indices take none, and no row takes an octonion product.
    for identity in (IdentityId.T4_PROD_JOJ, IdentityId.T4_PROD_JJO):
        window_products[0] = 0
        assert verify_range(identity, PRINTED, 0, 30).passed
        assert window_products[0] == 9
    window_products[0] = 0
    verify_ranges(IdentityId.T5_QUAD, (PRINTED, CORRECTED), 30, 35)
    assert window_products[0] == 6 + 9
    assert octonion_products[0] == 0


# --- E10/E11: running sums ----------------------------------------------------


def test_partial_sum_rows_walk_each_term_once(monkeypatch):
    # The left side reads the running sum of one walk per range; re-walking
    # 0..n at every n would yield about two million terms here.
    yielded = [0]
    walk = identities.seq_terms

    def counting(kind, start=0):
        for x in walk(kind, start):
            yielded[0] += 1
            yield x

    monkeypatch.setattr(identities, "seq_terms", counting)
    for identity in (IdentityId.E10, IdentityId.E11):
        yielded[0] = 0
        report = verify_range(identity, PRINTED, 0, 2000)
        assert report.passed and report.total_checked == 2001
        assert 0 < yielded[0] <= 3 * 2000


@pytest.mark.parametrize("identity, kind", [
    (IdentityId.E10, SequenceKind.THIRD_ORDER_JACOBSTHAL),
    (IdentityId.E11, SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS),
])
def test_partial_sum_rows_far_from_zero(identity, kind):
    report = verify_range(identity, PRINTED, 5000, 5010)
    assert report.passed and report.total_checked == 11
    for n in range(5000, 5011):
        checked = verify(identity, PRINTED, n)
        assert checked.passed and checked.lhs == partial_sum(kind, n)


# --- windowed terms against the from-zero construction ------------------------


def reference_ranges(identity, variants, n_from, n_to):
    """``verify_ranges`` as it was first built: every term from index 0 to
    n_to + 10 in full lists, and a report with its delta at every index,
    kept when the delta is not zero.  A right side is its numerator over
    the row's ``den``, as a ``Fraction`` or ``ScaledOctonion`` unless
    ``den`` is 1."""
    j, l = [list(islice(seq_terms(kind), n_to + 11)) for kind in THIRD_ORDER_KINDS]
    descriptor = REGISTRY[identity]
    skipped, failures, checked = [], [[] for _ in variants], 0
    for n in range(n_from, n_to + 1):
        if not descriptor.in_domain(n):
            skipped.append(n)
            continue
        checked += 1
        sides = descriptor.sides(j, l, n)
        for variant, failed in zip(variants, failures):
            lhs, rhs = sides[0], sides[descriptor.variants.index(variant) + 1]
            if descriptor.den > 1:
                scaled = ScaledOctonion if isinstance(rhs, Octonion) else Fraction
                rhs = scaled(rhs, descriptor.den)
            if lhs != rhs:
                failed.append(VerificationReport(identity, variant, n, False, lhs, rhs, lhs - rhs))
    return [RangeReport(identity, variant, n_from, n_to, checked, tuple(skipped), tuple(failed))
            for variant, failed in zip(variants, failures)]


WINDOW_RANGES = [
    (0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
    (0, 20), (1, 20), (2, 20), (3, 20),
    (_CHUNK - 1, _CHUNK - 1), (_CHUNK, _CHUNK), (_CHUNK + 1, _CHUNK + 1),
    (_CHUNK - 3, _CHUNK + 3), (2 * _CHUNK - 1, 2 * _CHUNK),
    (0, _CHUNK - 2), (0, _CHUNK - 1), (0, _CHUNK), (1, _CHUNK + 1),
    (5, 2 * _CHUNK + 7),
    (5000, 5000), (4996, 5006),
]


@pytest.mark.parametrize("n_from, n_to", WINDOW_RANGES)
def test_windowed_ranges_equal_the_from_zero_construction(n_from, n_to):
    for identity, descriptor in REGISTRY.items():
        variants = descriptor.variants
        if n_to - n_from > 40 and len(variants) > 1:
            # The long ranges of T5/T6 cost seconds; their short ones suffice.
            continue
        assert verify_ranges(identity, variants, n_from, n_to) == \
            reference_ranges(identity, variants, n_from, n_to), identity


@pytest.mark.parametrize("identity", [IdentityId.T5_QUAD, IdentityId.T6_QUAD])
@pytest.mark.parametrize("variants", [(PRINTED, CORRECTED), (CORRECTED, PRINTED)])
@pytest.mark.parametrize("n_from, n_to", [(0, 5), (_CHUNK - 2, _CHUNK + 1), (5000, 5001)])
def test_windowed_quadratic_rows_in_both_variant_orders(identity, variants, n_from, n_to):
    assert verify_ranges(identity, variants, n_from, n_to) == \
        reference_ranges(identity, variants, n_from, n_to)


@pytest.mark.parametrize("n_from, n_to", [(0, 3 * _CHUNK + 5), (1000, 1000 + 2 * _CHUNK)])
def test_term_lists_hold_one_window(n_from, n_to):
    # Each chunk holds the terms n - 3 .. n + 10 of its indices and nothing
    # else, however far the range runs.
    seen = []
    for indices, j, l in _term_lists(n_from, n_to):
        seen += indices
        assert len(indices) <= _CHUNK
        window = range(max(indices[0] - 3, 0), indices[-1] + 11)
        for kind, terms in zip(THIRD_ORDER_KINDS, (j, l)):
            assert [k for k, x in enumerate(terms) if x is not None] == list(window)
            assert terms[window[0]:window[-1] + 1] == list(
                islice(seq_terms(kind, window[0]), len(window)))
    assert seen == list(range(n_from, n_to + 1))


@pytest.mark.parametrize("kind", THIRD_ORDER_KINDS)
def test_running_sums_by_powering_equal_the_literal_sum(kind):
    # The left side of E10 (J3) or E11 (JL3) reads the running sum S(n) off
    # the terms n and n + 2 of one window, by the summed recurrence, with
    # no prefix walk; partial_sum adds the terms one by one.
    sides = REGISTRY[IdentityId.E10 if kind is THIRD_ORDER_KINDS[0] else IdentityId.E11].sides

    def running_sum(n):
        ((_, j, l),) = _term_lists(n, n)
        return sides(j, l, n)[0]

    sums = list(accumulate(islice(seq_terms(kind), 400)))
    assert [running_sum(n) for n in range(400)] == sums
    for n in random.Random(11).sample(range(400, 10 ** 4), 12) + [10 ** 4]:
        assert running_sum(n) == partial_sum(kind, n), n
    # The largest n that E10 and E11 accept, against the closed form.
    assert running_sum(10 ** 6) == partial_sum_closed(kind, 10 ** 6)
