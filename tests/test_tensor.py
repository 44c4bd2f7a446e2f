"""Tests for tensor-leg matrices: kron, embeddings, structure operators."""

import random
from fractions import Fraction

import numpy as np
import pytest

from baxter.poly import Poly
from baxter.tensor import (
    MAX_DENSE_DIM,
    TensorMatrix,
    anti_diagonal_form,
    dense_dim,
    embed_pair,
    embed_two_leg,
    form_transpose_first,
    kron,
    matrix_unit,
    partial_transpose_first,
    permutation_op,
    structure_op,
    swap_factors,
)
from baxter.verify import check_ybe

HALF = Fraction(1, 2)


def rand_matrix(rng, n, legs=1):
    size = n ** legs
    data = np.array([[Fraction(rng.randint(-4, 4)) for _ in range(size)]
                     for _ in range(size)], dtype=object)
    return TensorMatrix(n, legs, data)


def test_matrix_unit_and_diagonal():
    e = matrix_unit(3, 1, 2)
    assert e.data[0, 1] == 1
    assert sum(1 for x in e.data.flat if x) == 1
    d = TensorMatrix.from_entries(3, 1, {(i, i): i + 1 for i in range(3)})
    assert d.data[2, 2] == 3
    j = anti_diagonal_form(3)
    assert j.data[0, 2] == 1 and j.data[1, 1] == 1 and j.data[2, 0] == 1


def test_immutability():
    m = permutation_op(2)
    with pytest.raises(ValueError):
        m.data[0, 0] = 5


def test_kron_against_triple_loop():
    rng = random.Random(4)
    for n in (2, 3):
        for _ in range(4):
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            got = kron(a, b)
            assert got.legs == 2 and got.site_dim == n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            assert (got.data[i * n + k, j * n + l]
                                    == a.data[i, j] * b.data[k, l])


def test_permutation_rows_frozen():
    # P(e_i tensor e_j) = e_j tensor e_i; at n=2 the middle two rows swap
    p = permutation_op(2)
    assert p.data.tolist() == [
        [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    for n in (2, 3):
        p = permutation_op(n)
        assert p @ p == TensorMatrix.identity(n, 2)


def test_swap_factors_is_permutation_conjugation():
    rng = random.Random(8)
    for n in (2, 3):
        m = rand_matrix(rng, n, legs=2)
        p = permutation_op(n)
        assert swap_factors(m) == p @ m @ p
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    assert swap_factors(kron(a, b)) == kron(b, a)


def embed_oracle(m, total, pair):
    """Independent construction: loop over all basis states."""
    n = m.site_dim
    s, t = pair
    size = n ** total
    data = np.zeros((size, size), dtype=object)
    for row in range(size):
        digits_r = []
        rest = row
        for _ in range(total):
            digits_r.append(rest % n)
            rest //= n
        digits_r.reverse()
        for col in range(size):
            digits_c = []
            rest = col
            for _ in range(total):
                digits_c.append(rest % n)
                rest //= n
            digits_c.reverse()
            if any(digits_r[k] != digits_c[k]
                   for k in range(total) if k not in (s - 1, t - 1)):
                continue
            mr = digits_r[s - 1] * n + digits_r[t - 1]
            mc = digits_c[s - 1] * n + digits_c[t - 1]
            data[row, col] = m.data[mr, mc]
    return TensorMatrix(n, total, data)


def test_embed_two_leg_against_oracle():
    rng = random.Random(12)
    for pair in [(1, 2), (2, 3), (1, 3), (3, 1), (2, 1)]:
        m = rand_matrix(rng, 2, legs=2)
        assert embed_two_leg(m, 3, pair) == embed_oracle(m, 3, pair)
    m = rand_matrix(rng, 2, legs=2)
    assert embed_two_leg(m, 4, (2, 4)) == embed_oracle(m, 4, (2, 4))


def test_embed_pair_validates():
    m = permutation_op(2)
    for pair in [(1, 2), (1, 3), (2, 3)]:
        assert embed_pair(m, pair) == embed_two_leg(m, 3, pair)
    with pytest.raises(ValueError):
        embed_pair(m, (3, 1))


def test_embed_identity_gives_identity():
    eye2 = TensorMatrix.identity(2, 2)
    assert embed_two_leg(eye2, 3, (1, 3)) == TensorMatrix.identity(2, 3)


def test_partial_transpose_first():
    rng = random.Random(14)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    assert partial_transpose_first(kron(a, b)) == kron(a.transpose(), b)


def test_form_transpose_first():
    rng = random.Random(15)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
    j = anti_diagonal_form(2)
    jinv = j.inverse()
    got = form_transpose_first(kron(a, b), j)
    want = kron(j @ a.transpose() @ jinv, b)
    assert got == want


def test_structure_operators_plain():
    for n in (2, 3, 4):
        p = permutation_op(n)
        k = structure_op("K", n)
        eye = TensorMatrix.identity(n, 2)
        assert structure_op("casimir_so", n) == p - k
        assert p @ k == k and k @ p == k
        assert k @ k == k * n
        # K is the partial transpose of P
        assert partial_transpose_first(p) == k


def test_k_antidiagonal_frozen():
    # with the anti-diagonal form at n=2 the nonzero block moves inward:
    # K_J = sum_{ij} J e_ij tensor J e_ij has ones on rows/cols {1, 2}
    k = structure_op("K", 2, anti_diagonal_form(2))
    want = [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]
    assert k.data.tolist() == want
    assert k @ k == k * 2
    p = permutation_op(2)
    assert p @ k == k and k @ p == k


def test_hand_checked_generator_product():
    h = matrix_unit(2, 1, 1) - matrix_unit(2, 2, 2)
    e = matrix_unit(2, 1, 2)
    he = kron(h, e)
    assert he.data[0, 1] == 1
    assert he.data[2, 3] == -1
    assert sum(1 for x in he.data.flat if x) == 2


def test_arithmetic_and_power():
    p = permutation_op(2)
    eye = TensorMatrix.identity(2, 2)
    assert p @ p == eye
    assert (p + p) == p * 2
    assert p - p == TensorMatrix.zero(2, 2)
    assert (-p) * -1 == p
    assert p.inverse() == p


def test_reindex_round_trip():
    rng = random.Random(21)
    m = rand_matrix(rng, 2, legs=2)
    # swapping legs is the same as permuting composite row/column labels
    # the row-major composite index of (j, i) on two sites is 2 j + i (0-based)
    perm = np.array([2 * j + i for i in (0, 1) for j in (0, 1)])
    assert m.reindexed(perm) == swap_factors(m)
    inv = np.argsort(perm)
    assert m.reindexed(perm).reindexed(inv) == m


def test_poly_entries_and_substitute():
    u = Poly.variable("u")
    p = permutation_op(2)
    family = TensorMatrix.identity(2, 2) * u + p
    assert family.variables() == ("u",)
    assert len(family.cleared(("u",))[1][0]) == 2  # layers for u^0 and u^1
    assert family.substitute({"u": 0}) == p
    assert family.coefficient("u", 1) == TensorMatrix.identity(2, 2)
    shifted = family.substitute({"u": Poly.variable("a") + Poly.variable("b")})
    assert shifted.variables() == ("a", "b")
    assert shifted.substitute({"a": 1, "b": 2}) == family.substitute({"u": 3})


def test_cleared_in_more_names_adds_unit_axes_without_rebuilding(monkeypatch):
    from baxter import linalg, serialize
    u = Poly.variable("u")
    cases = [(permutation_op(2) * Fraction(1, 3), ("u",)),
             (permutation_op(2) * Fraction(1, 3), ("a", "u")),
             (TensorMatrix.identity(2, 2) * u + permutation_op(2) * Fraction(2, 7), ("a", "u")),
             (TensorMatrix.identity(2, 2) * u + permutation_op(2) * Fraction(2, 7), ("u", "v"))]
    for m, names in cases:
        want = linalg.clear(m.data, names)
        decoded = serialize.decode(serialize.encode(m))
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rebuild", None)
            scale, stack = decoded.cleared(names)
        assert scale == want[0] and len(stack) == len(want[1])
        for got, c in zip(stack, want[1]):
            assert got.dtype == c.dtype and got.shape == c.shape and (got == c).all()
    # a name the matrix lacks is no licence to drop one it has
    with pytest.raises(ValueError, match="depends on"):
        serialize.decode(serialize.encode(cases[2][0])).cleared(("a",))


def test_shape_validation():
    with pytest.raises(ValueError):
        TensorMatrix(2, 2, np.zeros((3, 3), dtype=object))
    with pytest.raises(TypeError):
        TensorMatrix(2, 1, np.array([[0.5, 0], [0, 0]], dtype=object))
    # the dense-size ceiling, checked before anything is allocated
    assert dense_dim(2, 12) == MAX_DENSE_DIM == 4096 and dense_dim(1, 10 ** 9) == 1
    for build in (lambda: TensorMatrix.zero(2, 40), lambda: TensorMatrix.identity(4097),
                  lambda: permutation_op(65), lambda: kron(TensorMatrix.identity(2, 6),
                                                           TensorMatrix.identity(2, 7))):
        with pytest.raises(ValueError, match="dense limit"):
            build()
    with pytest.raises(ValueError, match="dense limit"):
        check_ybe(TensorMatrix.zero(17, 2))


def test_entries_are_checked_once(monkeypatch):
    rng = random.Random(5)
    a, b = rand_matrix(rng, 2, 2), rand_matrix(rng, 2, 2)
    one = rand_matrix(rng, 2)
    perm = np.array([3, 1, 2, 0])
    checked = []
    init = TensorMatrix.__init__

    def spy(self, *args):
        checked.append(args)
        init(self, *args)

    monkeypatch.setattr(TensorMatrix, "__init__", spy)
    # results of ring operations on checked matrices skip the entry loop
    # and so do multiples by a scalar, which is checked itself
    derived = [a @ b, a + b, a - b, -a, a.transpose(), a.reindexed(perm), kron(one, one),
               a * 2]
    assert checked == []
    for m in derived:
        assert not m.data.flags.writeable
    assert derived[0] == TensorMatrix(2, 2, [[sum(a.data[i, k] * b.data[k, j] for k in range(4))
                                              for j in range(4)] for i in range(4)])
    assert derived[-1] == TensorMatrix(2, 2, [[2 * x for x in row] for row in a.data])
    with pytest.raises(TypeError):
        a * 0.5
    # anything built from outside is still checked: substitute's assignment
    # comes from the caller
    checked.clear()
    a.substitute({"u": 1}), permutation_op(2)
    assert len(checked) == 2
    with pytest.raises(TypeError, match="inexact"):
        TensorMatrix(1, 1, [[0.5]])
    with pytest.raises(ValueError, match="expected 4x4"):
        a.reindexed(np.array([0, 1, 2]))


if __name__ == "__main__":
    test_embed_two_leg_against_oracle()
