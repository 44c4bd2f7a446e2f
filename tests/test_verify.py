"""Tests for the identity verifiers: YBE, classical YBE, unitarity."""

import random
from fractions import Fraction

import numpy as np
import pytest

from baxter import linalg
from baxter.poly import Poly
from baxter.scalars import IM, SQRT2, Ext
from baxter.tensor import (TensorMatrix, kron, matrix_unit, permutation_op,
                           structure_op)
from baxter.verify import (VerificationReport, Witness, check_classical_limit,
                           check_cybe, check_regularity, check_unitarity,
                           check_ybe, evaluate_matrix, grid_report,
                           int_coefficients, int_values, interpolate_grid,
                           uniform_int_scale)
from baxter.solutions import example1_r, example1_R, yangian_sl_R, yangian_so_R

E11 = matrix_unit(2, 1, 1)
E12 = matrix_unit(2, 1, 2)
E21 = matrix_unit(2, 2, 1)
H = matrix_unit(2, 1, 1) - matrix_unit(2, 2, 2)


def test_report_invariant():
    with pytest.raises(ValueError):
        VerificationReport("x", True, Witness(0, 0, (), 1))
    with pytest.raises(ValueError):
        VerificationReport("x", False)
    rep = VerificationReport("x", False, Witness(0, 1, (2, 0), Fraction(1, 3)))
    assert "witness" in str(rep) and "FAIL" in str(rep)


def test_uniform_int_scale():
    m = TensorMatrix(2, 1, np.array(
        [[Fraction(1, 2), Fraction(1, 3)], [0, 1]], dtype=object))
    scale, data = uniform_int_scale(m)
    assert scale == 6
    assert data[0, 0] == 3 and data[0, 1] == 2 and data[1, 1] == 6
    eye = TensorMatrix.identity(2, 1)
    assert uniform_int_scale(eye)[0] == 1


def test_interpolate_grid():
    # plant p(x, y) = 2 + x*y - 3*y^2, read coefficients back from values
    def p(x, y):
        return 2 + x * y - 3 * y ** 2
    xs, ys = [0, 1], [0, 1, 2]
    table = [[p(x, y) for y in ys] for x in xs]
    coeff = interpolate_grid(xs, ys, table)
    assert coeff[0][0] == 2 and coeff[1][1] == 1 and coeff[0][2] == -3
    assert coeff[1][0] == 0 and coeff[0][1] == 0 and coeff[1][2] == 0


def test_constant_ybe():
    p = permutation_op(2)
    assert check_ybe(p, mode="constant").passed
    assert check_ybe(example1_R(2)).passed
    bad = example1_r(2) + kron(E12, E12)
    rep = check_ybe(bad, mode="constant")
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col) == (0, 7)
    assert rep.witness.value == Fraction(1, 2)
    assert rep.witness.exponents == ()


def test_constant_cybe():
    assert check_cybe(example1_r(2)).passed
    rep = check_cybe(permutation_op(2))
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col, rep.witness.value) == (1, 2, -1)
    sym = kron(H, E12) + kron(E12, H)
    rep = check_cybe(sym)
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col, rep.witness.value) == (0, 3, -4)


def test_rational_cybe():
    omega = structure_op("casimir_sl", 2)
    r = example1_r(2)
    assert check_cybe(r, omega=omega, mode="rational").passed
    sym = kron(H, E12) + kron(E12, H)
    rep = check_cybe(sym, omega=omega, mode="rational")
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col) == (0, 1)
    assert rep.witness.exponents == (1, 1)
    assert rep.witness.value == 2


def test_rational_cybe_validation():
    r = example1_r(2)
    with pytest.raises(ValueError):
        check_cybe(r, mode="rational")
    with pytest.raises(ValueError):
        check_cybe(r, omega=permutation_op(3), mode="rational")
    with pytest.raises(ValueError):
        check_cybe(TensorMatrix.identity(2, 1))
    with pytest.raises(ValueError):
        check_cybe(r, mode="sideways")


def test_cybe_conjugation_invariance():
    # the identity is preserved by x -> (Q tensor Q) x (Q tensor Q)^-1
    rng = random.Random(31)
    r = example1_r(2)
    omega = permutation_op(2)
    for _ in range(3):
        while True:
            q = TensorMatrix(2, 1, np.array(
                [[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                 for _ in range(2)], dtype=object))
            if q.data[0, 0] * q.data[1, 1] - q.data[0, 1] * q.data[1, 0]:
                break
        qq = kron(q, q)
        conj = qq @ r @ qq.inverse()
        assert check_cybe(conj).passed
        assert check_cybe(conj, omega=omega, mode="rational").passed


def test_spectral_ybe_grid():
    rep = check_ybe(yangian_sl_R(2))
    assert rep.passed
    assert rep.grid_size == (4, 4)
    rep = check_ybe(yangian_sl_R(2), grid_margin=2)
    assert rep.passed and rep.grid_size == (5, 5)


def test_spectral_ybe_grid_poly_agree():
    u = Poly.variable("u")
    good = yangian_sl_R(2).numerator
    planted = (TensorMatrix.identity(2, 2) + kron(E12, E12)) * u \
        + permutation_op(2)
    for m in (good, planted):
        grid = check_ybe(m, method="grid")
        poly = check_ybe(m, method="poly")
        assert grid.passed == poly.passed
        if not grid.passed:
            for w in (grid.witness, poly.witness):
                assert (w.row, w.col) == (0, 3)
                assert w.exponents == (1, 1)
                assert w.value == 2


def test_ybe_validation():
    with pytest.raises(ValueError):
        check_ybe(TensorMatrix.identity(2, 1))
    with pytest.raises(ValueError):
        check_ybe(yangian_sl_R(2), method="montecarlo")
    with pytest.raises(ValueError):
        check_ybe(permutation_op(2), mode="slanted")


def test_unitarity():
    rep = check_unitarity(example1_R(2))
    assert rep.passed and rep.scalar_factor == 1
    u = Poly.variable("u")
    rep = check_unitarity(yangian_sl_R(2))
    assert rep.passed
    assert rep.scalar_factor == Poly.lift(1, ("u",)) - u * u
    rep = check_unitarity(TensorMatrix.identity(2, 2) + kron(E12, E12))
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col, rep.witness.value) == (0, 3, 2)
    assert rep.scalar_factor == 1


def test_regularity():
    rep = check_regularity(yangian_sl_R(2))
    assert rep.passed and rep.scalar_factor == 1
    u = Poly.variable("u")
    bad = TensorMatrix.identity(2, 2) * u + kron(E12, E12)
    rep = check_regularity(bad)
    assert not rep.passed
    assert (rep.witness.row, rep.witness.col, rep.witness.value) == (0, 3, 1)
    assert rep.scalar_factor is None


def test_classical_limit():
    r = example1_r(2)
    xi = Poly.variable("xi")
    family = TensorMatrix.identity(2, 2) + r * xi
    assert check_classical_limit(family, r).passed
    rep = check_classical_limit(family, r * 2)
    assert not rep.passed and rep.witness.exponents == (1,)
    with pytest.raises(ValueError):
        check_classical_limit(family * 2, r)


if __name__ == "__main__":
    test_spectral_ybe_grid_poly_agree()


# -- integer grid engine --------------------------------------------------------


def test_int_values_match_evaluate_matrix():
    u = Poly.variable("u")
    rng = random.Random(5)
    scalars = [0, 1, -2, Fraction(3, 4), Fraction(-1, 6), SQRT2 * Fraction(1, 2), IM * 3]
    for _ in range(10):
        entries = [[sum((rng.choice(scalars) * u ** k for k in range(3)), Poly())
                    if rng.random() < 0.7 else rng.choice(scalars)
                    for _ in range(4)] for _ in range(4)]
        m = TensorMatrix(2, 2, entries)
        scale, stack = int_coefficients(m, "u")
        assert scale == uniform_int_scale(m)[0]
        for t in (0, 1, 5, -3):
            want = evaluate_matrix(uniform_int_scale(m)[1], "u", t)
            got = int_values(stack, t)
            for (i, j), value in np.ndenumerate(want):
                parts = [int(c[i, j]) for c in got]
                assert (Ext(*parts) if len(parts) == 4 else parts[0]) == value


def test_grid_and_poly_agree_on_perturbations():
    u = Poly.variable("u")
    rational = yangian_sl_R(2).numerator + kron(E12, E11) * (3 * u)
    extension = yangian_sl_R(2).numerator + kron(E11, E11) * (IM * u)
    for m in (rational, extension):
        grid = check_ybe(m, method="grid")
        poly = check_ybe(m, method="poly")
        assert not grid.passed and not poly.passed
        assert grid.witness == poly.witness
    assert isinstance(check_ybe(extension).witness.value, Ext)


def test_forced_overflow_takes_python_int_fallback(monkeypatch):
    # The braid identity is homogeneous, so 2**40 times a solution is one;
    # its grid products exceed the int64 bound and must run in Python ints.
    dtypes = []
    product = linalg.int_product

    def spy(a, b):
        out = product(a, b)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(linalg, "int_product", spy)
    assert check_ybe(yangian_so_R(4)).passed
    assert set(dtypes) == {np.dtype(np.int64)}
    dtypes.clear()
    big = yangian_so_R(4).numerator * 2 ** 40
    assert check_ybe(big).passed
    assert np.dtype(object) in dtypes
    u = Poly.variable("u")
    bad = big + kron(matrix_unit(4, 1, 1), matrix_unit(4, 2, 2)) * u
    grid = check_ybe(bad)
    assert not grid.passed
    assert grid.witness == check_ybe(bad, method="poly").witness


def test_grid_margin_below_zero_is_rejected():
    with pytest.raises(ValueError):
        check_ybe(yangian_sl_R(2), grid_margin=-1)
    with pytest.raises(ValueError):
        grid_report("x", lambda x, y: [np.zeros((1, 1), dtype=np.int64)], 2, 0,
                    grid_margin=-1)
