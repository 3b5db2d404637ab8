import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

import pytest

import jacobsthal_octonions
from jacobsthal_octonions import sequences
from jacobsthal_octonions.errors import DomainError
from jacobsthal_octonions.identities import _SCALAR_IDENTITIES
from jacobsthal_octonions.sequences import (
    SequenceKind,
    THIRD_ORDER_KINDS,
    correction,
    partial_sum,
    partial_sum_closed,
    scalar_identity_sides,
    seq_closed,
    seq_terms,
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


@pytest.mark.parametrize("name", _SCALAR_IDENTITIES)
def test_identity_sides_agree_over_range(name):
    for n in range(_SCALAR_IDENTITIES[name].n_min, 200):
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
    # An octonion row is not a scalar identity either.
    for name in ("E99", "T1_SUM"):
        with pytest.raises(ValueError):
            scalar_identity_sides(name, 0)


def test_concurrent_generation_is_consistent():
    expected = [seq_value(J3, n) for n in range(400)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda n: seq_value(J3, n), range(400)))
    assert results == expected


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_term_walk_matches_single_terms(kind):
    assert list(islice(seq_terms(kind), 201)) == [seq_value(kind, n) for n in range(201)]


@pytest.mark.parametrize("n", [14300, 30000, sequences._MAX_INDEX])
def test_recurrence_matches_closed_form_at_large_n(n):
    for kind in THIRD_ORDER_KINDS:
        assert seq_value(kind, n) == seq_closed(kind, n)


def test_cold_term_keeps_linear_memory():
    # A fresh process, so that no other test's values are counted.  Holding
    # every term up to 20,000 would take about 26 MB.
    code = ("import tracemalloc\n"
            "from jacobsthal_octonions.sequences import SequenceKind, seq_value\n"
            "tracemalloc.start()\n"
            "seq_value(SequenceKind.THIRD_ORDER_JACOBSTHAL, 20000)\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    src = Path(jacobsthal_octonions.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert int(result.stdout) < 1_000_000


# --- single terms by powering -----------------------------------------------


def _walked(kind, indices):
    """The terms at ``indices`` from one walk of the recurrence from 0."""
    wanted = set(indices)
    found = {}
    for n, x in enumerate(islice(seq_terms(kind), max(wanted) + 1)):
        if n in wanted:
            found[n] = x
    return found


def _closed(kind, n):
    """Term n from its closed form: seq_closed for the third-order kinds,
    the Binet forms of J and JL computed here for the others."""
    if kind in THIRD_ORDER_KINDS:
        return seq_closed(kind, n)
    if kind is SequenceKind.JACOBSTHAL:
        q, r = divmod(2 ** n - (-1) ** n, 3)
        assert r == 0
        return q
    return 2 ** n + (-1) ** n


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_powering_matches_walk_and_closed_form(kind):
    rng = random.Random(1985)
    indices = [*range(61), *rng.sample(range(61, 10 ** 5 + 1), 4)]
    walked = _walked(kind, indices)
    for n in indices:
        assert seq_value(kind, n) == walked[n] == _closed(kind, n), n


def test_third_order_residue_has_constant_middle_coefficients():
    # x^n modulo (x - 2)(x^3 - 1) is x^(n mod 3) plus a multiple of x^3 - 1,
    # so c1 and c2 are 0 or 1: a squaring has three large products, not six.
    rng = random.Random(1985)
    for kind in THIRD_ORDER_KINDS:
        for n in [*range(30), *rng.sample(range(30, 10 ** 5 + 1), 30)]:
            assert sequences._x_power(kind, n)[1:3] == ((0, 0), (1, 0), (0, 1))[n % 3], n


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_walk_from_start_matches_walk_from_zero(kind):
    head = list(islice(seq_terms(kind), 60))
    for start in range(51):
        assert list(islice(seq_terms(kind, start), 10)) == head[start:start + 10]


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_negative_start_is_refused(kind):
    with pytest.raises(DomainError):
        seq_terms(kind, -1)


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_index_past_the_bound_is_refused_before_any_work(kind, monkeypatch):
    def no_power(*args):
        raise AssertionError("a term past the bound was computed")

    monkeypatch.setattr(sequences, "_x_power", no_power)
    for n in (sequences._MAX_INDEX + 1, 10 ** 9):
        with pytest.raises(DomainError, match="<= 1000000"):
            seq_value(kind, n)
        with pytest.raises(DomainError, match="<= 1000000"):
            seq_terms(kind, n)


@pytest.mark.parametrize("kind", THIRD_ORDER_KINDS)
def test_closed_form_past_the_bound_is_refused(kind):
    with pytest.raises(DomainError, match="must be <= 1000000, got 1000001"):
        seq_closed(kind, sequences._MAX_INDEX + 1)


@pytest.mark.parametrize("kind", THIRD_ORDER_KINDS)
def test_partial_sum_past_the_bound_is_refused_before_any_walk(kind, monkeypatch):
    def no_walk(*args):
        raise AssertionError("a term was computed")

    monkeypatch.setattr(sequences, "_walk", no_walk)
    with pytest.raises(DomainError, match="must be <= 1000000, got 1000001"):
        partial_sum(kind, sequences._MAX_INDEX + 1)
    # The closed form names the index it was given, not the n + 1 it reads.
    with pytest.raises(DomainError, match="must be <= 1000000, got 1000001$"):
        partial_sum_closed(kind, sequences._MAX_INDEX + 1)
