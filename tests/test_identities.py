from fractions import Fraction

import pytest

from jacobsthal_octonions.errors import DomainError, UnknownVariantError
from jacobsthal_octonions.identities import (
    BILINEAR_U,
    BILINEAR_W,
    IdentityId,
    ProductOrder,
    REGISTRY,
    Variant,
    bilinear_product,
    closed_product,
    run_suite,
    value_to_json,
    verify,
    verify_range,
)
from jacobsthal_octonions.octonion import Octonion, ScaledOctonion
from jacobsthal_octonions.octonion_sequences import OctonionSequenceKind, oct_seq
from jacobsthal_octonions.sequences import SequenceKind, seq_value

PRINTED = Variant.AS_PRINTED
CORRECTED = Variant.CORRECTED


def test_registry_covers_every_id_in_order():
    assert list(REGISTRY) == list(IdentityId)
    assert len(REGISTRY) == 28


def test_only_the_two_quadratic_ids_have_corrections():
    with_corrected = {i for i in IdentityId if REGISTRY[i].has_corrected}
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


# --- closed products and the bilinear expansion ----------------------------


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


def test_bilinear_tables():
    assert sum(BILINEAR_W.values()) == 0
    assert BILINEAR_W[0] == Fraction(-2, 3)
    assert BILINEAR_U == {0: 2, 1: -1, 2: -1}


def test_bilinear_product_spot_values():
    assert bilinear_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, 0, 0, 0) == 0
    assert bilinear_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, 0, 0, 1) == 98
    assert bilinear_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, 0, 3, 3) == 980


def test_bilinear_product_matches_sequences():
    j3 = SequenceKind.THIRD_ORDER_JACOBSTHAL
    jl3 = SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS
    for n in range(0, 11):
        for r in range(8):
            for s in range(8):
                direct_jj = 49 * seq_value(jl3, n + r) * seq_value(j3, n + s)
                assert bilinear_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, n, r, s) == direct_jj
                direct_jj = 49 * seq_value(j3, n + r) * seq_value(jl3, n + s)
                assert bilinear_product(ProductOrder.JACOBSTHAL_TIMES_LUCAS, n, r, s) == direct_jj


def test_bilinear_product_domain():
    with pytest.raises(DomainError):
        bilinear_product(ProductOrder.LUCAS_TIMES_JACOBSTHAL, -1, 0, 0)


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
    assert value_to_json(Octonion.zero()) == ["0"] * 8
    scaled = ScaledOctonion(Octonion((1, 0, 0, 0, 0, 0, 0, 0)), 7)
    assert value_to_json(scaled) == {"num": ["1", "0", "0", "0", "0", "0", "0", "0"], "den": "7"}
    integral = ScaledOctonion(Octonion((7, 0, 0, 0, 0, 0, 0, 0)), 7)
    assert value_to_json(integral) == ["1", "0", "0", "0", "0", "0", "0", "0"]


def test_descriptor_lookup():
    descriptor = REGISTRY[IdentityId.T4_PROD_JOJ]
    assert descriptor.residue == 0
    assert not descriptor.has_corrected
    assert REGISTRY[IdentityId.OCT_REC].n_min == 1
