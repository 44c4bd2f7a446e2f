"""Tests for subalgebra closure, 2-cocycles, and induced r-matrices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baxter import linalg, serialize
from baxter.frobenius import (CocycleMatrix, DependentBasis, LinearFunctional,
                              NotClosed, SingularCocycle, SubalgebraBasis,
                              anti_diagonal_functional, check_cocycle,
                              closure_and_structure, cocycle_from_functional,
                              example1_basis, example1_pair, r_from_cocycle)
from baxter.scalars import Ext
from baxter.tensor import ShapeError, TensorMatrix, kron, matrix_unit
from baxter.solutions import example1_r
from baxter.verify import VerificationReport, Witness, check_cybe


def test_closure_structure_constants():
    # two-element case by hand: [H, E] = 2E
    basis = closure_and_structure(example1_basis(2))
    assert basis.dim == 2
    assert list(basis.structure[0, 1]) == [0, 2]
    assert list(basis.structure[1, 0]) == [0, -2]
    assert basis.structure[0, 0, 0] == 0


def test_not_closed():
    e12 = matrix_unit(2, 1, 2)
    e21 = matrix_unit(2, 2, 1)
    with pytest.raises(NotClosed) as err:
        closure_and_structure([e12, e21])
    assert err.value.pair == (0, 1)


def test_dependent_basis():
    e12 = matrix_unit(2, 1, 2)
    with pytest.raises(DependentBasis):
        closure_and_structure([e12, e12 * 2])


def test_basis_dimensions():
    for n in range(2, 9):
        basis = example1_basis(n)
        assert basis.dim == n // 2 + n * (n - 1) // 2
        assert basis.site_dim == n
    with pytest.raises(ValueError):
        example1_basis(1)


def test_functional_evaluates_antidiagonal():
    f = anti_diagonal_functional(3)
    m = matrix_unit(3, 1, 3) * 5 + matrix_unit(3, 2, 2) * 7 + matrix_unit(3, 1, 1)
    assert f(m) == 12


def test_cocycle_matrix_frozen():
    basis, f = example1_pair(2)
    co = cocycle_from_functional(basis, f)
    assert co.matrix.tolist() == [[0, 2], [-2, 0]]
    rep = check_cocycle(co)
    assert rep.passed
    assert rep.details["nondegenerate"]
    assert rep.details["determinant"] == 4


def test_cocycle_checks_pass():
    for n in (2, 3, 4):
        basis, f = example1_pair(n)
        co = cocycle_from_functional(basis, f)
        rep = check_cocycle(co)
        assert rep.passed and rep.details["nondegenerate"]


def test_cocycle_cyclic_failure():
    basis, _ = example1_pair(3)
    m = basis.dim
    bad = np.zeros((m, m), dtype=object)
    bad[0, 1], bad[1, 0] = 1, -1
    bad[2, 3], bad[3, 2] = 1, -1
    rep = check_cocycle(CocycleMatrix(basis, bad))
    assert not rep.passed
    w = rep.witness
    assert (w.row, w.col, w.exponents, w.value) == (0, 2, (3,), 3)


def test_zero_functional_is_degenerate():
    basis, _ = example1_pair(2)
    zero = LinearFunctional(TensorMatrix.zero(2, 1))
    co = cocycle_from_functional(basis, zero)
    rep = check_cocycle(co)
    assert rep.passed  # cyclic identity holds trivially
    assert not rep.details["nondegenerate"]
    with pytest.raises(SingularCocycle):
        r_from_cocycle(co)


def test_r_from_cocycle_matches_closed_form():
    basis, f = example1_pair(2)
    r = r_from_cocycle(cocycle_from_functional(basis, f))
    assert r == example1_r(2) * -1
    basis, f = example1_pair(3)
    r = r_from_cocycle(cocycle_from_functional(basis, f))
    assert r == example1_r(3) * -1


def test_r_from_cocycle_solves_cybe():
    for n in (2, 3):
        basis, f = example1_pair(n)
        r = r_from_cocycle(cocycle_from_functional(basis, f))
        assert check_cybe(r).passed


def test_closure_accepts_plain_list():
    h = matrix_unit(2, 1, 1) - matrix_unit(2, 2, 2)
    e = matrix_unit(2, 1, 2)
    basis = closure_and_structure([h, e])
    assert basis.dim == 2
    co = cocycle_from_functional([h, e], anti_diagonal_functional(2))
    assert co.matrix.tolist() == [[0, 2], [-2, 0]]


def test_oversized_sizes_are_refused_before_anything_is_built(monkeypatch):
    # n = 14 is the largest example1_basis whose closure system fits
    assert example1_basis(14).dim == 98
    with pytest.raises(ShapeError, match="above the limit"):
        example1_basis(15)

    def refuse(*args):
        raise AssertionError("the closure system was not bounded first")
    monkeypatch.setattr(linalg, "clear", refuse)
    monkeypatch.setattr(linalg, "int_product", refuse)
    with pytest.raises(ShapeError, match="above the limit"):
        closure_and_structure([matrix_unit(15, 1, 1)] * 112)


# -- the object routines the integer kernel replaced -------------------------
#
# Closure, the cocycle, the cyclic identity and the induced r-matrix as they
# were decided before they ran on the cleared basis stack: commutators by
# TensorMatrix @, the rank and the pivots by separate row reductions, the
# functional entry by entry, the cyclic sum by a loop over index triples and
# r by a sum of Kronecker products.  They are the slow exact path the
# integer routines are tested against.


def _reference_commutator(a, b):
    return a @ b - b @ a


def reference_closure(elements) -> SubalgebraBasis:
    m = len(elements)
    span = np.empty((elements[0].size ** 2, m), dtype=object)
    for k, x in enumerate(elements):
        span[:, k] = x.data.reshape(-1)
    if len(linalg.rref(span)[1]) != m:
        raise DependentBasis(f"{m} elements span a smaller space")
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rhs = np.empty((span.shape[0], len(pairs)), dtype=object)
    for col, (i, j) in enumerate(pairs):
        rhs[:, col] = _reference_commutator(elements[i], elements[j]).data.reshape(-1)
    reduced, pivots = linalg.rref(np.concatenate([span, rhs], axis=1))
    for p in pivots:
        if p >= m:
            raise NotClosed(pairs[p - m])
    structure = np.zeros((m, m, m), dtype=object)
    for col, (i, j) in enumerate(pairs):
        for row, p in enumerate(pivots):
            structure[i, j, p] = reduced[row, m + col]
            structure[j, i, p] = -reduced[row, m + col]
    return SubalgebraBasis(tuple(elements), structure)


def reference_cocycle(basis, functional) -> CocycleMatrix:
    m = basis.dim
    matrix = np.zeros((m, m), dtype=object)
    for i in range(m):
        for j in range(i + 1, m):
            value = functional(_reference_commutator(basis.elements[i], basis.elements[j]))
            matrix[i, j], matrix[j, i] = value, -value
    return CocycleMatrix(basis, matrix)


def reference_check(cocycle) -> VerificationReport:
    struct, b, m = cocycle.basis.structure, cocycle.matrix, cocycle.basis.dim

    def paired(i, j, k):
        total = 0
        for s in range(m):
            if struct[i, j, s]:
                total = total + struct[i, j, s] * b[s, k]
        return total

    witness = None
    for i in range(m):
        for j in range(m):
            for k in range(m):
                value = paired(i, j, k) + paired(k, i, j) + paired(j, k, i)
                if value and witness is None:
                    witness = Witness(i, j, (k,), value)
    determinant = linalg.det(b)
    details = {"nondegenerate": bool(determinant), "determinant": determinant}
    return VerificationReport("cocycle", witness is None, witness, details=details)


def reference_r(cocycle) -> TensorMatrix:
    inv = linalg.inverse(cocycle.matrix)
    elements = cocycle.basis.elements
    total = TensorMatrix.zero(cocycle.basis.site_dim, 2)
    for (i, j), weight in np.ndenumerate(inv):
        if weight:
            total = total + weight * kron(elements[i], elements[j])
    return total


def _scalars(ext: bool):
    rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    if not ext:
        return rational
    return st.one_of(rational, st.builds(Ext, rational, rational, rational, rational))


def _matrix(draw, n, scalars):
    return TensorMatrix(n, 1, [[draw(scalars) for _ in range(n)] for _ in range(n)])


@st.composite
def cocycle_cases(draw):
    """(elements, functional, skew B): example1_basis(n) conjugated by an
    invertible g = lower unitriangular x diagonal x upper unitriangular, over
    Q or Q(i, sqrt2); in one draw of five one element is perturbed or made a
    multiple of another, so the list may be dependent or not closed."""
    n, ext = draw(st.sampled_from([2, 3])), draw(st.booleans())
    change = draw(st.sampled_from(["none"] * 8 + ["perturb", "duplicate"]))
    scalars = _scalars(ext)
    g = TensorMatrix.identity(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                g = g @ (TensorMatrix.identity(n) + matrix_unit(n, i + 1, j + 1) * draw(scalars))
    g = g @ TensorMatrix.from_entries(n, 1, {(i, i): draw(st.sampled_from(
        [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])) for i in range(n)})
    inverse = g.inverse()
    elements = [g @ x @ inverse for x in example1_basis(n).elements]
    m = len(elements)
    k = draw(st.integers(0, m - 1))
    if change == "perturb":
        elements[k] = elements[k] + _matrix(draw, n, scalars)
    elif change == "duplicate":
        other = draw(st.integers(0, m - 2))
        elements[k] = elements[other + (other >= k)] * draw(st.sampled_from([1, -2]))
    skew = np.zeros((m, m), dtype=object)
    for i in range(m):
        for j in range(i + 1, m):
            value = draw(scalars)
            skew[i, j], skew[j, i] = value, -value
    return elements, LinearFunctional(_matrix(draw, n, scalars)), skew


def _outcome(run, *args):
    """What run returns, or the class and pair of the closure error it raises."""
    try:
        return run(*args)
    except (NotClosed, DependentBasis) as err:
        return type(err), getattr(err, "pair", None)


def _rendered(report):
    return str(report), serialize.encode(report)


@settings(max_examples=60, deadline=None)
@given(cocycle_cases())
def test_integer_routines_match_the_object_reference(case):
    elements, functional, skew = case
    basis = _outcome(closure_and_structure, elements)
    expected = _outcome(reference_closure, elements)
    if not isinstance(expected, SubalgebraBasis):
        assert basis == expected
        return
    assert basis.structure.tolist() == expected.structure.tolist()
    cocycle = cocycle_from_functional(basis, functional)
    assert cocycle.matrix.tolist() == reference_cocycle(expected, functional).matrix.tolist()
    for matrix in (cocycle.matrix, skew):
        got = check_cocycle(CocycleMatrix(basis, matrix))
        assert _rendered(got) == _rendered(reference_check(CocycleMatrix(expected, matrix)))
        if got.details["nondegenerate"]:
            r = r_from_cocycle(CocycleMatrix(basis, matrix))
            want = reference_r(CocycleMatrix(expected, matrix))
            assert r == want and serialize.encode(r) == serialize.encode(want)


@pytest.mark.parametrize("factor", [3 ** 30, Fraction(1, 3 ** 30) + 2 ** 35 * Ext(0, 1)])
def test_entries_past_int64_match_the_object_reference(factor):
    # commutators at scale^2 and the cyclic sums leave int64 here, so the
    # kernel runs in Python ints
    elements = [x * factor for x in example1_basis(3).elements]
    basis, expected = closure_and_structure(elements), reference_closure(elements)
    assert basis.structure.tolist() == expected.structure.tolist()
    functional = LinearFunctional(anti_diagonal_functional(3).coefficients * 5 ** 20)
    cocycle = cocycle_from_functional(basis, functional)
    assert cocycle.matrix.tolist() == reference_cocycle(expected, functional).matrix.tolist()
    upper = np.triu(np.full((4, 4), 7 ** 25, dtype=object), 1)
    bad = cocycle.matrix + upper - upper.T
    assert not check_cocycle(CocycleMatrix(basis, bad)).passed
    for matrix in (cocycle.matrix, bad):
        assert _rendered(check_cocycle(CocycleMatrix(basis, matrix))) == _rendered(
            reference_check(CocycleMatrix(expected, matrix)))
    r = r_from_cocycle(cocycle)
    assert serialize.encode(r) == serialize.encode(reference_r(cocycle))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_example1_pairs_match_the_object_reference(n):
    basis, functional = example1_pair(n)
    expected = reference_closure(example1_basis(n).elements)
    assert basis.structure.tolist() == expected.structure.tolist()
    cocycle = cocycle_from_functional(basis, functional)
    values = cocycle.matrix.ravel().tolist()
    assert values == reference_cocycle(expected, functional).matrix.ravel().tolist()
    assert {type(v) for v in values} == {int}
    assert _rendered(check_cocycle(cocycle)) == _rendered(
        reference_check(reference_cocycle(expected, functional)))
    r = r_from_cocycle(cocycle)
    assert serialize.encode(r) == serialize.encode(reference_r(cocycle))


if __name__ == "__main__":
    test_r_from_cocycle_matches_closed_form()
