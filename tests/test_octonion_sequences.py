import pytest

from jacobsthal_octonions.errors import DomainError
from jacobsthal_octonions.octonion import Octonion
from jacobsthal_octonions.octonion_sequences import (
    ALPHA,
    EPSILON_HAT_ROWS,
    OctonionSequenceKind,
    epsilon_hat,
    oct_seq,
    oct_seq_closed,
)

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


def test_closed_form_equals_recurrence():
    for kind in (JO, JOL):
        for n in range(80):
            assert oct_seq_closed(kind, n) == oct_seq(kind, n)


def test_closed_form_spot_values():
    assert oct_seq_closed(JO, 0) == Octonion((0, 1, 1, 2, 5, 9, 18, 37))
    assert oct_seq_closed(JOL, 0) == Octonion((2, 1, 5, 10, 17, 37, 74, 145))
    assert oct_seq_closed(JO, 1)[0] == 1  # (4*1 - (-3)) / 7


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
