import random

import pytest

from jacobsthal_octonions import octonion_sequences, sequences
from jacobsthal_octonions.errors import DomainError, InconsistencyError
from jacobsthal_octonions.identities import REGISTRY, IdentityId, _term_lists
from jacobsthal_octonions.octonion import Octonion
from jacobsthal_octonions.octonion_sequences import (
    ALPHA,
    EPSILON_HAT_ROWS,
    OctonionSequenceKind,
    _closed_numerator,
    _period3_rows,
    epsilon_hat,
    oct_seq,
    oct_seq_closed,
)
from jacobsthal_octonions.sequences import THIRD_ORDER_KINDS, seq_closed

JO = OctonionSequenceKind.JACOBSTHAL
JOL = OctonionSequenceKind.JACOBSTHAL_LUCAS


def test_alpha_constant():
    assert ALPHA == Octonion((1, 2, 4, 8, 16, 32, 64, 128))
    c = ALPHA.coefficients
    for s in range(7):
        assert c[s + 1] == 2 * c[s]


def test_epsilon_rows():
    assert EPSILON_HAT_ROWS[0] == Octonion((2, -3, 1, 2, -3, 1, 2, -3))
    assert EPSILON_HAT_ROWS[1] == Octonion((-3, 1, 2, -3, 1, 2, -3, 1))
    assert EPSILON_HAT_ROWS[2] == Octonion((1, 2, -3, 1, 2, -3, 1, 2))
    assert epsilon_hat(0) == EPSILON_HAT_ROWS[0]
    assert epsilon_hat(5) == epsilon_hat(2)
    for n in range(40):
        assert epsilon_hat(n) == epsilon_hat(n + 3)


def test_oct_seq_values():
    assert oct_seq(JO, 0) == Octonion((0, 1, 1, 2, 5, 9, 18, 37))
    assert oct_seq(JOL, 0) == Octonion((2, 1, 5, 10, 17, 37, 74, 145))
    assert oct_seq(JO, 3) == Octonion((2, 5, 9, 18, 37, 73, 146, 293))


def test_oct_seq_rejects_negative_index():
    with pytest.raises(DomainError):
        oct_seq(JO, -1)
    with pytest.raises(DomainError):
        oct_seq_closed(JOL, -2)


@pytest.mark.parametrize("kind", [JO, JOL])
def test_closed_form_past_the_bound_is_refused(kind):
    with pytest.raises(DomainError, match="must be <= 1000000, got 1000001"):
        oct_seq_closed(kind, 10 ** 6 + 1)


def test_closed_form_equals_recurrence():
    for kind in (JO, JOL):
        for n in range(80):
            assert oct_seq_closed(kind, n) == oct_seq(kind, n)


def test_closed_form_spot_values():
    assert oct_seq_closed(JO, 0) == Octonion((0, 1, 1, 2, 5, 9, 18, 37))
    assert oct_seq_closed(JOL, 0) == Octonion((2, 1, 5, 10, 17, 37, 74, 145))
    assert oct_seq_closed(JO, 1)[0] == 1  # (4*1 - (-3)) / 7


@pytest.mark.parametrize("kind, row", [(JO, IdentityId.BINET_JO), (JOL, IdentityId.BINET_JOL)])
def test_the_closed_form_is_the_binet_rows_numerator_over_7(kind, row):
    # One numerator: oct_seq_closed divides it by 7, and the BINET row
    # checks it over its den of 7.
    descriptor = REGISTRY[row]
    assert descriptor.den == 7
    for n in (*range(41), 3000, random.Random(21).randrange(99000, 10 ** 5)):
        numerator = _closed_numerator(kind, n)
        assert oct_seq_closed(kind, n) * 7 == numerator
        ((_, j, l),) = _term_lists(n, n)
        assert descriptor.sides(j, l, n)[1] == numerator


def test_a_remainder_in_either_closed_form_raises(monkeypatch):
    # A mistyped correction pattern, (3, -3, 1) for (2, -3, 1), leaves the
    # numerators 2 - 3 = -1 and 8 + 3*3 = 17 at n = 0.
    monkeypatch.setattr(sequences, "CORRECTION_TABLE", (3, -3, 1))
    monkeypatch.setattr(octonion_sequences, "EPSILON_HAT_ROWS", _period3_rows((3, -3, 1)))
    for kinds, closed in ((THIRD_ORDER_KINDS, seq_closed), ((JO, JOL), oct_seq_closed)):
        for kind, numerator in zip(kinds, (-1, 17)):
            with pytest.raises(InconsistencyError,
                               match=f"^closed-form numerator {numerator} is not divisible by 7$"):
                closed(kind, 0)


def test_octonion_recurrence():
    for kind in (JO, JOL):
        for n in range(1, 40):
            assert oct_seq(kind, n + 2) == (oct_seq(kind, n + 1) + oct_seq(kind, n)
                                            + oct_seq(kind, n - 1) * 2)


def test_epsilon_linkage():
    # jO(n) - 4*JO(n) = eps(n): the structural link between the sequences.
    for n in range(60):
        assert oct_seq(JOL, n) - oct_seq(JO, n) * 4 == epsilon_hat(n)


def test_conjugate_and_norm():
    p = oct_seq(JO, 0)
    conj, norm = p.conjugate(), p.norm_sq()
    assert norm == 1805
    assert conj == Octonion((0, -1, -1, -2, -5, -9, -18, -37))
    norm = oct_seq(JOL, 1).norm_sq()
    assert norm == 114134


def test_norm_agrees_with_product_form():
    for kind in (JO, JOL):
        for n in range(20):
            p = oct_seq(kind, n)
            product = p * p.conjugate()
            assert product[0] == p.norm_sq()
            assert all(product[s] == 0 for s in range(1, 8))
