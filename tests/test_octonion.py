import random

import pytest

from jacobsthal_octonions.errors import InconsistencyError
from jacobsthal_octonions.octonion import (
    MULTIPLICATION_TABLE,
    Octonion,
    ScaledOctonion,
    basis_product,
)
from jacobsthal_octonions.octonion_sequences import (
    EPSILON_HAT_ROWS,
    OctonionSequenceKind,
    oct_seq,
)

E = [Octonion.basis(s) for s in range(8)]


def random_octonion(rng, bound=10 ** 6):
    return Octonion(tuple(rng.randint(-bound, bound) for _ in range(8)))


# --- basis products and table structure ---------------------------------


def test_basis_product_spot_values():
    assert basis_product(1, 2) == (1, 3)
    assert basis_product(0, 5) == (1, 5)
    assert basis_product(4, 4) == (-1, 0)


def test_basis_product_rejects_out_of_range():
    with pytest.raises(ValueError):
        basis_product(8, 0)
    with pytest.raises(ValueError):
        basis_product(0, -1)


def test_unit_row_and_column():
    for s in range(8):
        assert basis_product(0, s) == (1, s)
        assert basis_product(s, 0) == (1, s)


def test_imaginary_squares_are_minus_one():
    for i in range(1, 8):
        assert basis_product(i, i) == (-1, 0)


def test_anticommutativity_of_distinct_imaginary_units():
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            sign_ij, k_ij = basis_product(i, j)
            sign_ji, k_ji = basis_product(j, i)
            assert k_ij == k_ji and sign_ij == -sign_ji


def test_table_row_e1():
    # basis row e1 against columns e1..e7: -1, e3, -e2, e5, -e4, -e7, e6
    assert MULTIPLICATION_TABLE[1][1:] == (
        (-1, 0), (1, 3), (-1, 2), (1, 5), (-1, 4), (-1, 7), (1, 6))


def test_quaternionic_triples_are_cyclic():
    for (i, j, k) in ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7),
                      (2, 5, 7), (3, 6, 5), (1, 7, 6)):
        assert E[i] * E[j] == E[k]
        assert E[j] * E[k] == E[i]
        assert E[k] * E[i] == E[j]


# --- construction and basic arithmetic -----------------------------------


def test_construction_validates_shape_and_type():
    with pytest.raises(ValueError):
        Octonion((1, 2, 3))
    with pytest.raises(TypeError):
        Octonion((1.0, 0, 0, 0, 0, 0, 0, 0))


def test_construction_rejects_bool_coefficients():
    with pytest.raises(TypeError):
        Octonion((True,) * 8)
    with pytest.raises(TypeError):
        Octonion((0, 0, 0, 0, 0, 0, 0, False))


def test_add_sub_componentwise():
    assert E[0] + E[1] == Octonion((1, 1, 0, 0, 0, 0, 0, 0))
    rng = random.Random(7)
    p = random_octonion(rng)
    assert (p - p).is_zero()
    assert -p + p == Octonion.zero()


def test_sequence_octonion_sum():
    jo0 = oct_seq(OctonionSequenceKind.JACOBSTHAL, 0)
    jol0 = oct_seq(OctonionSequenceKind.JACOBSTHAL_LUCAS, 0)
    assert jo0 + jol0 == Octonion((2, 2, 6, 12, 22, 46, 92, 182))


def test_scalar_multiplication():
    rng = random.Random(8)
    p = random_octonion(rng)
    assert 0 * p == Octonion.zero()
    assert 1 * p == p
    assert p * 3 == Octonion(tuple(3 * x for x in p))
    jol0 = oct_seq(OctonionSequenceKind.JACOBSTHAL_LUCAS, 0)
    assert 2 * jol0 == Octonion((4, 2, 10, 20, 34, 74, 148, 290))


def test_unit_law():
    rng = random.Random(9)
    one = Octonion.one()
    for _ in range(20):
        p = random_octonion(rng)
        assert one * p == p
        assert p * one == p


def test_product_not_commutative_on_units():
    assert E[1] * E[2] == E[3]
    assert E[2] * E[1] == -E[3]


def test_non_associativity_witness():
    # (e1*e2)*e4 = e7 but e1*(e2*e4) = -e7
    assert (E[1] * E[2]) * E[4] == E[7]
    assert E[1] * (E[2] * E[4]) == -E[7]


def test_scaled_product_of_sequence_octonions():
    jo0 = oct_seq(OctonionSequenceKind.JACOBSTHAL, 0)
    jol0 = oct_seq(OctonionSequenceKind.JACOBSTHAL_LUCAS, 0)
    product = (jol0 * jo0) * 49
    assert product[0] == -349909
    assert product[1] == -7742


# --- conjugation and norm -------------------------------------------------


def test_conjugate_basics():
    rng = random.Random(10)
    p = random_octonion(rng)
    assert p.conjugate().conjugate() == p
    assert E[0].conjugate() == E[0]
    jo0 = oct_seq(OctonionSequenceKind.JACOBSTHAL, 0)
    assert jo0.conjugate() == Octonion((0, -1, -1, -2, -5, -9, -18, -37))


def test_norm_sq_values():
    assert Octonion.zero().norm_sq() == 0
    assert oct_seq(OctonionSequenceKind.JACOBSTHAL, 0).norm_sq() == 1805
    assert oct_seq(OctonionSequenceKind.JACOBSTHAL_LUCAS, 0).norm_sq() == 28289


def test_norm_form_and_algebra_laws():
    """Alternativity, norm multiplicativity, the conjugation
    anti-automorphism and the norm form, over seeded random pairs."""
    rng = random.Random(1202)
    for _ in range(200):
        p = random_octonion(rng)
        q = random_octonion(rng)
        pq = p * q
        assert p * (p * q) == (p * p) * q
        assert (p * q) * q == p * (q * q)
        assert (p * q) * p == p * (q * p)
        assert pq.norm_sq() == p.norm_sq() * q.norm_sq()
        assert pq.conjugate() == q.conjugate() * p.conjugate()
        n = p.norm_sq()
        expected = Octonion((n, 0, 0, 0, 0, 0, 0, 0))
        assert p * p.conjugate() == expected
        assert p.conjugate() * p == expected


# --- ScaledOctonion -------------------------------------------------------


def test_scaled_normalization():
    p = ScaledOctonion(Octonion((2, 4, 6, 8, 10, 12, 14, 16)), 4)
    assert p.numerator == Octonion((1, 2, 3, 4, 5, 6, 7, 8))
    assert p.denominator == 2
    zero = ScaledOctonion(Octonion.zero(), 30)
    assert zero.denominator == 1 and zero.is_zero()


def test_scaled_denominator_must_be_positive():
    with pytest.raises(ValueError):
        ScaledOctonion(Octonion.zero(), 0)
    with pytest.raises(ValueError):
        ScaledOctonion(Octonion.zero(), -7)


def test_scaled_denominator_rejects_bool():
    with pytest.raises(ValueError):
        ScaledOctonion(Octonion.one(), True)


def test_scaled_equality_is_cross_multiplied():
    p = Octonion((1, 2, 3, 4, 5, 6, 7, 8))
    assert ScaledOctonion(p * 3, 6) == ScaledOctonion(p, 2)
    assert ScaledOctonion(p, 1) == p
    assert p == ScaledOctonion(p, 1)
    assert ScaledOctonion(p, 2) != ScaledOctonion(p, 3)


def test_scaled_integer_embedding():
    rng = random.Random(11)
    p, q = random_octonion(rng), random_octonion(rng)
    assert ScaledOctonion(p) + ScaledOctonion(q) == ScaledOctonion(p + q)
    half = ScaledOctonion(p, 2)
    assert (half - half).is_zero()


def test_scaled_denominator_cancellation():
    eps0 = EPSILON_HAT_ROWS[0]
    assert ScaledOctonion(eps0, 7) * 7 == ScaledOctonion(eps0, 1)
    assert (ScaledOctonion(eps0, 7) * 7).denominator == 1


def test_scaled_product_matches_integer_product():
    rng = random.Random(12)
    p, q = random_octonion(rng, 100), random_octonion(rng, 100)
    assert ScaledOctonion(p, 3) * ScaledOctonion(q, 5) == ScaledOctonion(p * q, 15)
    # order is preserved when mixing with plain octonions
    assert p * ScaledOctonion(q, 5) == ScaledOctonion(p * q, 5)
    assert ScaledOctonion(p, 5) * q == ScaledOctonion(p * q, 5)


def test_scaled_to_octonion_requires_integrality():
    p = Octonion((1, 2, 3, 4, 5, 6, 7, 8))
    assert ScaledOctonion(p * 2, 2).to_octonion() == p
    with pytest.raises(InconsistencyError):
        ScaledOctonion(p, 3).to_octonion()


# --- serialization --------------------------------------------------------


def test_octonion_json_round_trip():
    p = Octonion((0, 1, -1, 2, -5, 9, -18, 37))
    wire = p.to_json()
    assert wire == ["0", "1", "-1", "2", "-5", "9", "-18", "37"]
    assert Octonion.from_json(wire) == p


def test_scaled_json_round_trip():
    p = ScaledOctonion(EPSILON_HAT_ROWS[0], 7)
    wire = p.to_json()
    assert wire == {"num": ["2", "-3", "1", "2", "-3", "1", "2", "-3"], "den": "7"}
    assert ScaledOctonion.from_json(wire) == p
