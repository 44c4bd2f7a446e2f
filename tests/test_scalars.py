"""Tests for the exact scalar tower: Fraction and Q(i, sqrt2)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from baxter.scalars import Ext, IM, SQRT2, is_exact_scalar

# Primitive eighth root of unity (1 + i)/sqrt2.
OMEGA = Ext(0, Fraction(1, 2), 0, Fraction(1, 2))


def test_generator_squares():
    assert SQRT2 * SQRT2 == 2
    assert IM * IM == -1
    assert (SQRT2 * IM) ** 2 == -2
    # (1+i)/sqrt2 is a primitive eighth root of unity
    assert OMEGA ** 2 == IM
    assert OMEGA ** 4 == -1
    assert OMEGA ** 8 == 1


def test_mixed_products_by_hand():
    # (1 + sqrt2) * (1 - sqrt2) = -1
    a = Ext(1, 1, 0, 0)
    b = Ext(1, -1, 0, 0)
    assert a * b == -1
    # (1 + i sqrt2)(1 - i sqrt2) = 1 + 2 = 3
    c = Ext(1, 0, 0, 1)
    assert c * c.conj_i() == 3
    # (sqrt2 + i)^2 = 2 - 1 + 2 i sqrt2
    d = SQRT2 + IM
    assert d * d == Ext(1, 0, 0, 2)


def test_rational_demotion_and_equality():
    x = Ext.of(Fraction(3, 4))
    assert x.is_rational
    assert x == Fraction(3, 4)
    assert x.as_fraction() == Fraction(3, 4)
    assert hash(x) == hash(Fraction(3, 4))
    assert Ext.of(5) == 5
    with pytest.raises(ValueError):
        SQRT2.as_fraction()


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        parts = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
        z = Ext(*parts)
        if not z:
            continue
        w = z.inverse()
        assert z * w == 1
        assert 1 / z == w
        assert z / z == 1


def test_conjugations_are_ring_maps():
    rng = random.Random(11)
    for _ in range(25):
        z = Ext(*[Fraction(rng.randint(-4, 4)) for _ in range(4)])
        w = Ext(*[Fraction(rng.randint(-4, 4)) for _ in range(4)])
        assert (z * w).conj_i() == z.conj_i() * w.conj_i()
        assert (z + w).conj_i() == z.conj_i() + w.conj_i()
    assert IM.conj_i() == -IM
    assert SQRT2.conj_i() == SQRT2


def test_arithmetic_with_plain_rationals():
    z = Ext(1, 2, 3, 4)
    assert z + 1 == Ext(2, 2, 3, 4)
    assert 1 + z == z + 1
    assert z - Fraction(1, 2) == Ext(Fraction(1, 2), 2, 3, 4)
    assert 2 * z == z + z
    assert z / 2 == Ext(Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert Fraction(1, 3) / Ext.of(3) == Fraction(1, 9)
    assert -z == Ext(-1, -2, -3, -4)
    assert bool(Ext(0, 0, 0, 0)) is False


def test_power():
    assert SQRT2 ** 0 == 1
    assert SQRT2 ** 5 == Ext(0, 4, 0, 0)
    assert SQRT2 ** -1 == SQRT2 / 2
    assert SQRT2 ** -2 == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        Ext(0, 0, 0, 0) ** -1


def test_inexact_inputs_rejected():
    with pytest.raises(TypeError):
        Ext.of(0.5)
    with pytest.raises(TypeError):
        Ext.of(True)
    with pytest.raises(TypeError):
        Ext(1, 2, 3, 0.25)


def test_immutable():
    z = Ext(1, 0, 0, 0)
    with pytest.raises(AttributeError):
        z.a = Fraction(2)


def test_helpers():
    assert is_exact_scalar(Fraction(1, 2))
    assert is_exact_scalar(3)
    assert is_exact_scalar(SQRT2)
    assert not is_exact_scalar(0.5)


def test_repr_is_readable():
    assert "sqrt2" in repr(SQRT2)
    assert "i" in repr(IM)


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
EXTS = st.builds(Ext, RATIONALS, RATIONALS, RATIONALS, RATIONALS)


@settings(max_examples=100, deadline=None)
@given(EXTS, EXTS, EXTS, RATIONALS)
def test_field_axioms(x, y, z, q):
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x + (-x) == 0 and x - y == x + (-y)
    # rationals act through the embedding Q -> Q(i, sqrt2)
    assert x + q == x + Ext.of(q) == q + x and x * q == x * Ext.of(q) == q * x
    if x:
        assert x * x.inverse() == 1 and (y / x) * x == y
        if y:
            assert (x * y).inverse() == x.inverse() * y.inverse()
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
