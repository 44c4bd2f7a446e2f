"""Tests for the solution families: triangular, yangian, twisted orthogonal."""

from fractions import Fraction

import pytest

from baxter.poly import Poly
from baxter.scalars import Ext
from baxter.solutions import (Realization, SpectralRMatrix, apply_twist,
                              baxterize, conjugator_T, example1_R, example1_r,
                              example2_solution, orthogonal_half_level,
                              realization_form, so_jordanian_data,
                              yangian_sl_R, yangian_so_R)
from baxter.tensor import (TensorMatrix, anti_diagonal_form, kron,
                           permutation_op, swap_factors)
from baxter.verify import (check_classical_limit, check_regularity,
                           check_unitarity, check_ybe)

IM = Ext(0, 0, 1, 0)


def test_constant_solution_frozen():
    half = Fraction(1, 2)
    want = [[0, half, -half, 0],
            [0, 0, 0, half],
            [0, 0, 0, -half],
            [0, 0, 0, 0]]
    assert example1_r(2).data.tolist() == want


def test_constant_solution_skew_nilpotent():
    for n in range(2, 7):
        r = example1_r(n)
        assert swap_factors(r) == -r
        sq = r @ r
        assert not sq.is_zero()
        assert (sq @ r).is_zero()
    with pytest.raises(ValueError):
        example1_r(1)


def test_exponential_frozen():
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    want = [[1, half, -half, quarter],
            [0, 1, 0, half],
            [0, 0, 1, -half],
            [0, 0, 0, 1]]
    assert example1_R(2).data.tolist() == want


def test_exponential_is_truncated_series():
    for n in (2, 3):
        r = example1_r(n)
        one = TensorMatrix.identity(n, 2)
        assert example1_R(n) == one + r + (r @ r) * Fraction(1, 2)
        s = Fraction(3)
        assert example1_R(n, scale=s) == one + r * s + (r @ r) * (s * s / 2)


def test_exponential_one_parameter_group():
    for n in (2, 3):
        a = example1_R(n, scale=2)
        b = example1_R(n, scale=5)
        assert a @ b == example1_R(n, scale=7)
        assert example1_R(n) @ example1_R(n, scale=-1) \
            == TensorMatrix.identity(n, 2)


def test_constant_solution_properties():
    for n in (2, 3, 4):
        R = example1_R(n)
        assert check_ybe(R, mode="constant").passed
        rep = check_unitarity(R)
        assert rep.passed and rep.scalar_factor == 1


def test_baxterize():
    b = baxterize(example1_R(2))
    assert b.denominator == Poly.lift(1, ("u",))
    assert b.evaluate(0) == permutation_op(2)
    assert b.label == "baxterized"
    assert check_ybe(b).passed
    assert check_regularity(b).passed
    with pytest.raises(ValueError):
        baxterize(TensorMatrix.identity(2, 1))


def test_yangian_sl():
    y = yangian_sl_R(2)
    assert y.variable == "u"
    assert y.denominator == Poly.variable("u")
    assert y.evaluate(0) == permutation_op(2)
    u = Poly.variable("u")
    assert y.numerator == TensorMatrix.identity(2, 2) * u + permutation_op(2)


def test_half_level():
    for n in range(3, 9):
        k = orthogonal_half_level(n)
        assert k == Fraction(n - 2, 2)
        assert isinstance(k, Fraction)


def test_yangian_so():
    for n in (4, 5):
        y = yangian_so_R(n)
        k = orthogonal_half_level(n)
        u = Poly.variable("u")
        assert y.denominator == Poly.lift(k, ("u",)) + u
        assert y.evaluate(0) == permutation_op(n) * k
        rep = check_unitarity(y)
        one = Poly.lift(1, ("u",))
        kk = Poly.lift(k * k, ("u",))
        assert rep.passed
        assert rep.scalar_factor == (kk - u * u) * (one - u * u)


def test_jordanian_relations():
    for n in (4, 5, 6):
        for realization in (Realization.ANTIDIAG, Realization.SKEW):
            d = so_jordanian_data(n, realization)
            assert d.dim == n and d.realization is realization
            assert d.h @ d.e - d.e @ d.h == d.e
            assert (d.e @ d.e).is_zero()
            one = TensorMatrix.identity(n, 2)
            assert d.f0 == one + kron(d.h, d.e)
            assert d.f0_inverse_swapped == one - kron(d.e, d.h)
            assert swap_factors(d.f0) @ d.f0_inverse_swapped == one
            assert d.r0 == kron(d.h, d.e) - kron(d.e, d.h)
    with pytest.raises(ValueError):
        so_jordanian_data(3)


def test_jordanian_elements_in_orthogonal_algebra():
    # antidiagonal realization: Jx is skew; skew realization: x itself is
    for n in (4, 5):
        j = anti_diagonal_form(n)
        d = so_jordanian_data(n)
        for x in (d.h, d.e):
            jx = j @ x
            assert (jx + jx.transpose()).is_zero()
        d = so_jordanian_data(n, Realization.SKEW)
        for x in (d.h, d.e):
            assert (x + x.transpose()).is_zero()


def test_realizations_conjugate():
    for n in (4, 5):
        t = conjugator_T(n)
        tinv = t.inverse()
        anti = so_jordanian_data(n)
        skew = so_jordanian_data(n, Realization.SKEW)
        assert skew.h == t @ anti.h @ tinv
        assert skew.e == t @ anti.e @ tinv


def test_conjugator():
    for n in (4, 5):
        t = conjugator_T(n)
        assert t == t.transpose()
        assert t.transpose() @ t == anti_diagonal_form(n) * IM
    # odd size pins the middle entry
    t = conjugator_T(5)
    omega = (Ext.of(1) + IM) * (Ext(0, 1, 0, 0) / 2)
    assert t.data[2, 2] == omega
    assert omega ** 8 == Ext.of(1)


def test_realization_form():
    assert realization_form(Realization.ANTIDIAG, 3) == anti_diagonal_form(3)
    assert realization_form(Realization.SKEW, 3) is None


def test_twist_route_matches_closed_form():
    for n in (4, 5):
        d = so_jordanian_data(n)
        closed = example2_solution(n)
        routed = apply_twist(yangian_so_R(n), d.f0)
        assert closed.numerator == routed.numerator
        assert closed.denominator == routed.denominator
        assert routed.label.startswith("twisted")


def test_twist_by_identity_is_identity_map():
    y = yangian_so_R(4)
    routed = apply_twist(y, TensorMatrix.identity(4, 2))
    assert routed.numerator == y.numerator
    assert routed.denominator == y.denominator
    r = example1_r(2)
    assert apply_twist(r, TensorMatrix.identity(2, 2)) == r


def test_twist_refuses_a_spectral_cocycle():
    f0 = permutation_op(2) * Poly.variable("u") + TensorMatrix.identity(2, 2)
    for target in (example1_R(2), yangian_sl_R(2)):
        with pytest.raises(ValueError, match="the twist cocycle must be constant"):
            apply_twist(target, f0)


def test_twisted_solution_properties():
    e2 = example2_solution(4)
    assert check_ybe(e2).passed
    rep = check_unitarity(e2)
    k = orthogonal_half_level(4)
    u = Poly.variable("u")
    one = Poly.lift(1, ("u",))
    kk = Poly.lift(k * k, ("u",))
    assert rep.passed
    assert rep.scalar_factor == (kk - u * u) * (one - u * u)


def test_conjugation_maps_antidiag_to_skew():
    t = conjugator_T(4)
    pair = kron(t, t)
    anti = example2_solution(4)
    skew = example2_solution(4, Realization.SKEW)
    assert pair @ anti.numerator @ pair.inverse() == skew.numerator
    assert anti.denominator == skew.denominator


def test_classical_limit_of_twist_family():
    d = so_jordanian_data(4)
    xi = Poly.variable("xi")
    one = TensorMatrix.identity(4, 2)
    family = (one - kron(d.e, d.h) * xi) @ (one + kron(d.h, d.e) * xi)
    assert check_classical_limit(family, d.r0).passed


def test_two_entry_variables_rejected():
    bad = SpectralRMatrix(permutation_op(2) * Poly.variable("u"),
                          Poly.variable("v"))
    with pytest.raises(ValueError):
        bad.variable


if __name__ == "__main__":
    test_twist_route_matches_closed_form()
