"""Algebra laws of the octonion product as property tests, on integer and
rational octonions with coefficients of up to 2,048 bits: the Moufang
identities and alternativity (J. Baez, "The Octonions", Bull. AMS 39 (2002)),
norm multiplicativity and the conjugation anti-automorphism."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from jacobsthal_octonions.octonion import Octonion, ScaledOctonion

coefficients = st.one_of(st.integers(-2 ** 64, 2 ** 64),
                         st.integers(-2 ** 2048, 2 ** 2048))
octonions = st.lists(coefficients, min_size=8, max_size=8).map(Octonion)
scaled_octonions = st.builds(ScaledOctonion, octonions, st.integers(1, 2 ** 128))

# Products of 2,048-bit values take milliseconds each, so no per-example deadline.
laws = settings(max_examples=30, deadline=None)
both_kinds = pytest.mark.parametrize("values", [octonions, scaled_octonions],
                                     ids=["Octonion", "ScaledOctonion"])


def norm(x):
    """The norm form N(x), the sum of squared coefficients, as a rational."""
    if isinstance(x, ScaledOctonion):
        return Fraction(x.numerator.norm_sq(), x.denominator ** 2)
    return Fraction(x.norm_sq())


@both_kinds
@laws
@given(data=st.data())
def test_moufang_identities(values, data):
    x, y, z = (data.draw(values) for _ in range(3))
    assert z * (x * (z * y)) == ((z * x) * z) * y
    assert x * (z * (y * z)) == ((x * z) * y) * z
    assert (z * x) * (y * z) == (z * (x * y)) * z
    assert (z * x) * (y * z) == z * ((x * y) * z)


@both_kinds
@laws
@given(data=st.data())
def test_alternativity(values, data):
    x, y = data.draw(values), data.draw(values)
    assert x * (x * y) == (x * x) * y
    assert (y * x) * x == y * (x * x)
    assert (x * y) * x == x * (y * x)


@both_kinds
@laws
@given(data=st.data())
def test_norm_is_multiplicative(values, data):
    x, y = data.draw(values), data.draw(values)
    assert norm(x * y) == norm(x) * norm(y)


@both_kinds
@laws
@given(data=st.data())
def test_conjugation_reverses_products(values, data):
    x, y = data.draw(values), data.draw(values)
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()
    assert x.conjugate().conjugate() == x
