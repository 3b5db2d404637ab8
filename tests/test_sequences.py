from concurrent.futures import ThreadPoolExecutor

import pytest

from jacobsthal_octonions.errors import DomainError
from jacobsthal_octonions.sequences import (
    SCALAR_IDENTITIES,
    SequenceKind,
    THIRD_ORDER_KINDS,
    correction,
    partial_sum,
    partial_sum_closed,
    scalar_identity_sides,
    seq_closed,
    seq_value,
)

J3 = SequenceKind.THIRD_ORDER_JACOBSTHAL
JL3 = SequenceKind.THIRD_ORDER_JACOBSTHAL_LUCAS


def test_third_order_initial_runs():
    assert [seq_value(J3, n) for n in range(10)] == [0, 1, 1, 2, 5, 9, 18, 37, 73, 146]
    assert [seq_value(JL3, n) for n in range(10)] == [2, 1, 5, 10, 17, 37, 74, 145, 293, 586]


def test_classic_initial_runs():
    assert [seq_value(SequenceKind.JACOBSTHAL, n) for n in range(10)] == \
        [0, 1, 1, 3, 5, 11, 21, 43, 85, 171]
    assert [seq_value(SequenceKind.JACOBSTHAL_LUCAS, n) for n in range(10)] == \
        [2, 1, 5, 7, 17, 31, 65, 127, 257, 511]


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_recurrences_hold(kind):
    if kind in THIRD_ORDER_KINDS:
        for n in range(80):
            assert seq_value(kind, n + 3) == (seq_value(kind, n + 2)
                                              + seq_value(kind, n + 1)
                                              + 2 * seq_value(kind, n))
    else:
        for n in range(80):
            assert seq_value(kind, n + 2) == seq_value(kind, n + 1) + 2 * seq_value(kind, n)


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        seq_value(J3, -1)
    with pytest.raises(DomainError):
        seq_closed(JL3, -4)


def test_correction_values_and_period():
    assert correction(0) == 2
    assert correction(4) == -3
    assert correction(8) == 1
    for n in range(60):
        assert correction(n) == correction(n + 3)
    assert sum(correction(r) for r in range(3)) == 0


def test_closed_form_matches_recurrence():
    for kind in THIRD_ORDER_KINDS:
        for n in range(200):
            assert seq_closed(kind, n) == seq_value(kind, n)


def test_closed_form_spot_values():
    assert seq_closed(J3, 9) == 146  # (2^10 - 2) / 7
    assert seq_closed(JL3, 0) == 2
    assert seq_closed(JL3, 8) == 293  # (2^11 + 3) / 7


def test_closed_form_restricted_to_third_order():
    with pytest.raises(ValueError):
        seq_closed(SequenceKind.JACOBSTHAL, 5)


def test_correction_balances_power_of_two():
    # 7*J3(n) + V(n) = 2^(n+1) is the testable shape of the growth law.
    for n in range(120):
        assert 7 * seq_value(J3, n) + correction(n) == 2 ** (n + 1)


# --- partial sums ---------------------------------------------------------


def test_partial_sum_examples():
    assert partial_sum(J3, 3) == 4
    assert partial_sum_closed(J3, 3) == 4
    assert partial_sum(JL3, 2) == 8
    assert partial_sum_closed(JL3, 2) == 8
    assert partial_sum(J3, 0) == 0
    assert partial_sum_closed(J3, 0) == 0


def test_partial_sum_agrees_with_closed_form():
    for kind in THIRD_ORDER_KINDS:
        for n in range(100):
            assert partial_sum(kind, n) == partial_sum_closed(kind, n)


def test_partial_sum_difference_is_term():
    for kind in THIRD_ORDER_KINDS:
        for n in range(1, 60):
            assert partial_sum(kind, n) - partial_sum(kind, n - 1) == seq_value(kind, n)


def test_partial_sum_restricted_to_third_order():
    with pytest.raises(ValueError):
        partial_sum(SequenceKind.JACOBSTHAL, 3)


# --- scalar identity sides ------------------------------------------------


def test_identity_sides_spot_values():
    assert scalar_identity_sides("E4", 4) == (32, 32)
    assert scalar_identity_sides("E9", 3) == (64, 64)
    assert scalar_identity_sides("E8", 1) == (-1, -1)


@pytest.mark.parametrize("name", SCALAR_IDENTITIES)
def test_identity_sides_agree_over_range(name):
    for n in range(SCALAR_IDENTITIES[name].n_min, 200):
        lhs, rhs = scalar_identity_sides(name, n)
        assert lhs == rhs, f"{name} differs at n={n}: {lhs} != {rhs}"


@pytest.mark.parametrize("name", ["E5", "E9", "E12"])
def test_identity_sides_reject_low_index(name):
    with pytest.raises(DomainError):
        scalar_identity_sides(name, 2)


def test_identity_sides_accept_enum_like_ids():
    from jacobsthal_octonions.identities import IdentityId

    assert scalar_identity_sides(IdentityId.E4, 4) == (32, 32)


def test_identity_sides_unknown_name():
    with pytest.raises(ValueError):
        scalar_identity_sides("E99", 0)


def test_concurrent_generation_is_consistent():
    expected = [seq_value(J3, n) for n in range(400)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda n: seq_value(J3, n), range(400)))
    assert results == expected
