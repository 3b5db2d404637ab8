import random

import pytest

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


# --- the product against its basis expansion -----------------------------


def reference_product(p, q):
    """The product as a double loop over the basis expansion: the sum of
    a_i * b_j * (e_i * e_j), each basis product read from the table."""
    a, b = p.coefficients, q.coefficients
    out = [0] * 8
    for i in range(8):
        ai = a[i]
        if not ai:
            continue
        row = MULTIPLICATION_TABLE[i]
        for j in range(8):
            bj = b[j]
            if not bj:
                continue
            sign, k = row[j]
            out[k] += sign * ai * bj
    return Octonion(out)


def sparse_octonion(rng, bits):
    """Coefficients of up to ``bits`` bits, of either sign, about a quarter
    of them zero."""
    return Octonion(tuple(0 if rng.random() < 0.25 else rng.randint(-2 ** bits, 2 ** bits)
                          for _ in range(8)))


@pytest.mark.parametrize("bits, pairs", [(64, 100), (1024, 40), (10240, 8)])
def test_product_matches_basis_expansion(bits, pairs):
    rng = random.Random(bits)
    for _ in range(pairs):
        p, q = sparse_octonion(rng, bits), sparse_octonion(rng, bits)
        for x, y in ((p, q), (q, p), (p, p), (p, -q)):
            assert x * y == reference_product(x, y)
        assert p * p == p * Octonion(p.coefficients)
    zero = Octonion((0,) * 8)
    assert p * zero == zero * p == reference_product(p, zero) == zero


# --- squares ----------------------------------------------------------------


@pytest.mark.parametrize("coefficients, square", [
    ((0,) * 8, (0,) * 8),
    ((-7, 0, 0, 0, 0, 0, 0, 0), (49, 0, 0, 0, 0, 0, 0, 0)),
    ((0, 1, -2, 3, 0, 0, 5, -1), (-40, 0, 0, 0, 0, 0, 0, 0)),
    ((-3, 1, -2, 3, 4, 0, 5, -1), (-47, -6, 12, -18, -24, 0, -30, 6)),
])
def test_square_special_values(coefficients, square):
    # Zero, a real-only octonion, a pure-imaginary one (its square is
    # -|v|^2) and a negative real part.
    x = Octonion(coefficients)
    assert x * x == Octonion(square) == x * Octonion(coefficients)


def test_scaled_square_matches_product_with_copy():
    rng = random.Random(13)
    for bits in (64, 1024):
        p = sparse_octonion(rng, bits)
        s = ScaledOctonion(p * 3, 21)
        copy = ScaledOctonion(Octonion(s.numerator.coefficients), s.denominator)
        square, product = s * s, s * copy
        assert (square.numerator, square.denominator) == (product.numerator,
                                                          product.denominator)
        assert square == ScaledOctonion(reference_product(p, p), 49)


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


def test_arithmetic_results_equal_checked_octonions():
    # Results of arithmetic skip the constructor's checks; each is still an
    # Octonion of eight ints, equal and hash-equal to the checked one.
    rng = random.Random(20)
    p, q = random_octonion(rng), random_octonion(rng)
    results = (p + q, p - q, -p, p * q, p * p, p * 3, 3 * p, p.conjugate(),
               ScaledOctonion(p * 6, 4).numerator, oct_seq(OctonionSequenceKind.JACOBSTHAL, 9))
    for result in results:
        checked = Octonion(list(result))
        assert type(result) is Octonion and type(result.coefficients) is tuple
        assert len(result.coefficients) == 8 and all(type(a) is int for a in result)
        assert result == checked and hash(result) == hash(checked)
    # The constructor itself still checks.
    with pytest.raises(ValueError):
        Octonion(range(9))
    with pytest.raises(TypeError):
        Octonion(list(p)[:7] + [True])


def test_add_sub_componentwise():
    assert E[0] + E[1] == Octonion((1, 1, 0, 0, 0, 0, 0, 0))
    rng = random.Random(7)
    p = random_octonion(rng)
    assert (p - p).is_zero()
    assert -p + p == Octonion((0,) * 8)


def test_sequence_octonion_sum():
    jo0 = oct_seq(OctonionSequenceKind.JACOBSTHAL, 0)
    jol0 = oct_seq(OctonionSequenceKind.JACOBSTHAL_LUCAS, 0)
    assert jo0 + jol0 == Octonion((2, 2, 6, 12, 22, 46, 92, 182))


def test_scalar_multiplication():
    rng = random.Random(8)
    p = random_octonion(rng)
    assert 0 * p == Octonion((0,) * 8)
    assert 1 * p == p
    assert p * 3 == Octonion(tuple(3 * x for x in p))
    jol0 = oct_seq(OctonionSequenceKind.JACOBSTHAL_LUCAS, 0)
    assert 2 * jol0 == Octonion((4, 2, 10, 20, 34, 74, 148, 290))
    assert -3 * p == p * -3
    with pytest.raises(TypeError):
        2.5 * p
    with pytest.raises(TypeError):
        p * 2.5


def test_unit_law():
    rng = random.Random(9)
    one = Octonion.basis(0)
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
    assert Octonion((0,) * 8).norm_sq() == 0
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
    zero = ScaledOctonion(Octonion((0,) * 8), 30)
    assert zero.denominator == 1 and zero.is_zero()


def test_scaled_denominator_must_be_positive():
    with pytest.raises(ValueError):
        ScaledOctonion(Octonion((0,) * 8), 0)
    with pytest.raises(ValueError):
        ScaledOctonion(Octonion((0,) * 8), -7)


def test_scaled_denominator_rejects_bool():
    with pytest.raises(ValueError):
        ScaledOctonion(Octonion.basis(0), True)


@pytest.mark.parametrize("scale", [
    lambda x, flag: x * flag,
    lambda x, flag: flag * x,
])
@pytest.mark.parametrize("value", [
    Octonion((1, 2, 3, 4, 5, 6, 7, 8)),
    ScaledOctonion(Octonion((1, 2, 3, 4, 5, 6, 7, 8)), 7),
])
def test_scaling_by_a_bool_is_refused(value, scale):
    # A bool is an int subclass, but neither a coefficient nor a denominator.
    for flag in (True, False):
        with pytest.raises(TypeError):
            scale(value, flag)
    assert scale(value, 1) == value


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
