"""Tests for sparse exact polynomials in at most two variables."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from baxter.poly import Poly
from baxter.scalars import Ext, SQRT2

U = Poly.variable("u")
V = Poly.variable("v")


def rand_poly(rng, names, degree=3):
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, degree) for _ in names)
        coeffs[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(tuple(names), coeffs)


def test_construction_canonicalizes():
    p = Poly(("u",), {(0,): 1, (2,): 0, (1,): Fraction(0)})
    assert p.coeffs == {(0,): 1}
    assert Poly(("u",), {}).is_zero()
    assert Poly.univariate("u", [1, 0, 2]) == 1 + 2 * U ** 2
    assert Poly.lift(5, ("u",)).is_constant()
    assert Poly.lift(U) is U


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Poly(("u", "v", "w"), {})
    with pytest.raises(ValueError):
        Poly(("v", "u"), {})  # must be sorted
    with pytest.raises(ValueError):
        Poly(("u",), {(-1,): 1})
    with pytest.raises(ValueError):
        Poly(("u",), {(1, 2): 1})
    with pytest.raises(TypeError):
        Poly(("u",), {(1,): 0.5})


def test_degree_and_coefficient():
    p = 2 * U ** 3 - U + Fraction(1, 2)
    assert p.degree() == 3
    assert p.degree("u") == 3
    assert p.coefficient(3) == 2
    assert p.coefficient(2) == 0
    assert p.coefficient(0) == Fraction(1, 2)
    assert Poly(("u",), {}).degree() == 0
    q = U * V ** 2
    assert q.degree() == 3
    assert q.degree("u") == 1
    assert q.degree("v") == 2


def test_ring_axioms_on_random_samples():
    rng = random.Random(3)
    for _ in range(30):
        a = rand_poly(rng, ("u",))
        b = rand_poly(rng, ("u", "v"))
        c = rand_poly(rng, ("v",))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == Poly(("u",), {})
        assert (a * b) * c == a * (b * c)


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
SCALARS = st.one_of(st.integers(-3, 3), RATIONALS,
                    st.builds(Ext, RATIONALS, RATIONALS, RATIONALS, RATIONALS))


@st.composite
def polys(draw):
    names = draw(st.sampled_from([(), ("u",), ("v",), ("u", "v")]))
    exps = st.tuples(*(st.integers(0, 2) for _ in names))
    return Poly(names, draw(st.dictionaries(exps, SCALARS, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), polys(), SCALARS)
def test_ring_axioms(a, b, c, s):
    zero, one = Poly(), Poly.lift(1)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a and a - a == zero and a + (-a) == zero
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a and a * zero == zero
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    # scalars act as constant polynomials, on either side
    assert a * s == s * a == a * Poly.lift(s)
    assert a + s == s + a == a + Poly.lift(s)
    assert hash(a * b) == hash(b * a)


def test_mixed_variable_unification():
    p = U + V
    assert p.vars == ("u", "v")
    assert p.coefficient((1, 0)) == 1
    assert p.coefficient((0, 1)) == 1
    # equality across variable sets
    assert Poly(("u", "v"), {(0, 0): 3}) == Poly.lift(3, ("u",))
    assert Poly(("u",), {}) == 0


def test_scalar_mixing():
    p = (U + 1) * Fraction(1, 2)
    assert p.coefficient(0) == Fraction(1, 2)
    assert 1 + U == U + 1
    assert (SQRT2 * U) * (SQRT2 * U) == 2 * U ** 2
    assert (U + SQRT2) * (U - SQRT2) == U ** 2 - 2


def test_division_by_scalar_only():
    p = 2 * U + 4
    assert p / 2 == U + 2
    assert p / Poly.lift(2, ("u",)) == U + 2
    with pytest.raises(ValueError):
        p / U


def test_power():
    assert (U + 1) ** 0 == 1
    assert (U + 1) ** 3 == U ** 3 + 3 * U ** 2 + 3 * U + 1
    with pytest.raises(ValueError):
        (U + 1) ** -1
    with pytest.raises(TypeError):
        (U + 1) ** Fraction(1, 2)


def test_substitution():
    p = U ** 2 + 3 * U * V + 2
    assert p.substitute({"u": 1, "v": 2}) == 9
    partial = p.substitute({"u": 2})
    assert isinstance(partial, Poly)
    assert partial == 6 * V + 6
    # polynomial substitution
    shifted = p.substitute({"u": U + 1, "v": Poly.lift(0, ())})
    assert shifted == U ** 2 + 2 * U + 3
    with pytest.raises(ValueError):
        p.substitute({"w": 1})


def test_substitute_returns_scalar_when_constant():
    out = (U ** 2 - 1).substitute({"u": 3})
    assert out == 8
    assert not isinstance(out, Poly)


def test_monomials_sorted():
    p = U ** 2 + 3 + U
    assert p.monomials() == [((0,), 3), ((1,), 1), ((2,), 1)]


def test_is_constant_and_value():
    assert Poly.lift(4, ("u",)).constant_value() == 4
    with pytest.raises(ValueError):
        (U + 1).constant_value()


def test_hash_consistent_with_eq():
    assert hash(Poly.lift(3, ("u",))) == hash(Poly.lift(3, ("v",)))
    assert hash(U + 1 - U) == hash(Poly.lift(1, ()))


def test_immutable():
    with pytest.raises(AttributeError):
        U.coeffs = {}


if __name__ == "__main__":
    test_ring_axioms_on_random_samples()
