"""Tests for exact dense linear algebra over the scalar tower."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baxter import linalg
from baxter.poly import Poly
from baxter.scalars import IM, Ext, SQRT2
from baxter.tensor import TensorMatrix, embed_two_leg
from conftest import naive_matmul


def rand_frac_matrix(rng, n, span=9):
    rows = [[Fraction(rng.randint(-span, span), rng.randint(1, 4))
             for _ in range(n)] for _ in range(n)]
    return linalg.object_matrix(rows)


def naive_scale_to_int(a):
    scale = 1
    for x in a.flat:
        if isinstance(x, Fraction):
            scale = math.lcm(scale, x.denominator)
    out = np.empty(a.shape, dtype=object)
    for idx, x in np.ndenumerate(a):
        v = x * scale
        out[idx] = int(v) if isinstance(v, Fraction) else v
    return out, scale


def test_matmul_matches_naive_rational():
    rng = random.Random(1)
    for _ in range(15):
        a = rand_frac_matrix(rng, 4)
        b = rand_frac_matrix(rng, 4)
        assert (linalg.matmul(a, b) == naive_matmul(a, b)).all()
    # a product of integer matrices comes back as Python ints
    ints = linalg.object_matrix([[1, -2], [3, 0]])
    assert all(type(x) is int for x in linalg.matmul(ints, ints).flat)


def test_matmul_matches_naive_extension():
    rng = random.Random(2)
    for _ in range(8):
        a = np.array([[Ext(*[Fraction(rng.randint(-3, 3)) for _ in range(4)])
                       for _ in range(3)] for _ in range(3)], dtype=object)
        b = np.array([[Ext(*[Fraction(rng.randint(-3, 3)) for _ in range(4)])
                       for _ in range(3)] for _ in range(3)], dtype=object)
        got = linalg.matmul(a, b)
        want = naive_matmul(a, b)
        assert (got == want).all()
    for _ in range(8):
        a = np.array([[Ext(*[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                             for _ in range(4)]) for _ in range(3)]
                      for _ in range(2)], dtype=object)
        b = np.array([[rng.choice([Fraction(1, 3), 2, SQRT2 * Fraction(5, 6)])
                       for _ in range(2)] for _ in range(3)], dtype=object)
        assert (linalg.matmul(a, b) == naive_matmul(a, b)).all()
    # rational results come back as Fractions, not as rational Ext values
    root = np.array([[SQRT2, 1]], dtype=object)
    square = linalg.matmul(root, root.T)
    assert type(square[0, 0]) is Fraction and square[0, 0] == 3


def test_matmul_matches_naive_poly():
    u = Poly.variable("u")
    a = linalg.object_matrix([[u, 1], [0, u ** 2]])
    b = linalg.object_matrix([[1, u], [u, 2]])
    assert (linalg.matmul(a, b) == naive_matmul(a, b)).all()


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
COEFFS = st.one_of(SMALL, st.builds(Ext, SMALL, SMALL, SMALL, SMALL))


def polys(names):
    """Poly values in the given variables, the zero Poly among them."""
    exps = st.tuples(*(st.integers(0, 2) for _ in names))
    return st.builds(lambda table: Poly(names, table),
                     st.dictionaries(exps, COEFFS, max_size=3))


# One case uses the variable u or the variables a and b, never all three,
# which the entries of one product could not hold.
ENTRY_KINDS = {
    "u": st.one_of(polys(("u",)), polys(())),
    "ab": st.one_of(polys(("a",)), polys(("b",)), polys(("a", "b")), polys(())),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ENTRY_KINDS)), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.data())
def test_matmul_matches_naive_on_mixed_entries(kind, m, k, n, data):
    entries = st.one_of(st.integers(-4, 4), SMALL, COEFFS, ENTRY_KINDS[kind])

    def matrix(rows, cols):
        values = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        out = np.empty(rows * cols, dtype=object)
        out[:] = values
        return out.reshape(rows, cols)

    a, b = matrix(m, k), matrix(k, n)
    got, want = linalg.matmul(a, b), naive_matmul(a, b)
    # one rule for every entry: a Poly in all the variables of the factors'
    # Poly entries when they have any, else a scalar
    names = tuple(sorted({v for x in [*a.flat, *b.flat] if isinstance(x, Poly)
                          for v in x.vars}))
    for idx, w in np.ndenumerate(want):
        g = got[idx]
        assert g == w
        assert isinstance(g, Poly) == bool(names)
        if names:
            assert g.vars == names


def test_matmul_rejects_three_variables_like_the_object_product():
    u, a, b = (Poly.variable(x) for x in "uab")
    left = linalg.object_matrix([[u, 1]])
    right = linalg.object_matrix([[1], [a * b]])
    for product in (linalg.matmul, naive_matmul):
        with pytest.raises(ValueError, match="more than 2 variables"):
            product(left, right)


def test_int_matmul_overflow_falls_back_exactly():
    # entries big enough that n * max_a * max_b overflows int64
    big = 2 ** 40
    a = linalg.object_matrix([[big, big], [big, big]])
    b = linalg.object_matrix([[big, -big], [big, big]])
    got = linalg.matmul(a, b)
    assert got[0, 0] == 2 * big * big
    assert got[0, 1] == 0


def test_int_matmul_one_sided_overflow():
    # one factor tiny, the other beyond the int64 conversion range
    big = 2 ** 70
    a = linalg.object_matrix([[1, 0], [0, 1]])
    b = linalg.object_matrix([[big, 0], [0, big]])
    assert (linalg.matmul(a, b) == b).all()


def test_classify():
    a = rand_frac_matrix(random.Random(0), 2)
    assert linalg.classify(a) == "rational"
    e = np.array([[SQRT2]], dtype=object)
    assert linalg.classify(a, e) == "ext"
    p = np.array([[Poly.variable("u")]], dtype=object)
    assert linalg.classify(p) == "poly"
    assert linalg.classify(p, e) == "poly"


def test_scale_to_int():
    a = linalg.object_matrix([[Fraction(1, 2), Fraction(1, 3)], [2, 0]])
    scaled, scale = linalg.scale_to_int(a)
    assert scale == 6
    assert scaled.tolist() == [[3, 2], [12, 0]]
    a = linalg.object_matrix([[Fraction(-3, 4), True], [Fraction(5, 2), -1]])
    scaled, scale = linalg.scale_to_int(a)
    assert scale == 4
    assert scaled.tolist() == [[-3, 4], [10, -4]]
    assert all(type(x) is int for x in scaled.flat)
    a = linalg.object_matrix([[2, -7], [False, 0]])
    scaled, scale = linalg.scale_to_int(a)
    assert scale == 1
    assert scaled.tolist() == [[2, -7], [0, 0]]
    assert all(type(x) is int for x in scaled.flat)
    for bad in (SQRT2, Poly.variable("u")):
        with pytest.raises(TypeError):
            linalg.scale_to_int(linalg.object_matrix([[Fraction(1, 2), bad]]))
    rng = random.Random(7)
    for _ in range(20):
        a = linalg.object_matrix(
            [[rng.choice([0, 0, 1, -3, True, Fraction(rng.randint(-9, 9),
                                                         rng.randint(1, 12))])
              for _ in range(5)] for _ in range(3)])
        scaled, scale = linalg.scale_to_int(a)
        want, want_scale = naive_scale_to_int(a)
        assert scale == want_scale
        assert scaled.tolist() == want.tolist()
        assert [type(x) for x in scaled.flat] == [type(x) for x in want.flat]


def test_rref_and_rank():
    a = linalg.object_matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    reduced, pivots = linalg.rref(a)
    assert len(linalg.rref(a)[1]) == 2
    assert pivots == [0, 1]
    assert reduced[0].tolist() == [1, 0, -1]
    assert reduced[1].tolist() == [0, 1, 2]


def test_inverse_round_trip_random():
    rng = random.Random(6)
    eye = np.zeros((4, 4), dtype=object)
    for i in range(4):
        eye[i, i] = Fraction(1)
    tried = 0
    while tried < 10:
        a = rand_frac_matrix(rng, 4)
        try:
            inv = linalg.inverse(a)
        except linalg.SingularMatrixError:
            continue
        tried += 1
        assert (linalg.matmul(a, inv) == eye).all()
        assert (linalg.matmul(inv, a) == eye).all()


def test_inverse_over_extension():
    a = np.array([[SQRT2, 1], [0, SQRT2]], dtype=object)
    inv = linalg.inverse(a)
    prod = linalg.matmul(a, inv)
    assert prod[0, 0] == 1 and prod[1, 1] == 1
    assert prod[0, 1] == 0 and prod[1, 0] == 0


def test_lagrange_weights_are_the_cleared_vandermonde_inverse():
    # the reference: the Vandermonde matrix on 0..k-1 inverted by exact
    # Gauss-Jordan, then brought over its least common denominator
    for k in range(1, 13):
        vandermonde = linalg.object_matrix([[Fraction(x) ** j for j in range(k)]
                                            for x in range(k)])
        want, want_denominator = linalg.scale_to_int(linalg.inverse(vandermonde))
        weights, denominator = linalg.lagrange_weights(k)
        assert denominator == want_denominator, k
        assert weights.dtype == object and weights.shape == (k, k)
        assert weights.tolist() == want.tolist(), k
        assert all(type(w) is int for w in weights.flat)


def test_singular_matrix_raises():
    a = linalg.object_matrix([[1, 2], [2, 4]])
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(a)
    assert linalg.det(a) == 0


def test_det_known_values_and_multiplicativity():
    a = linalg.object_matrix([[1, 2], [3, 4]])
    assert linalg.det(a) == -2
    rng = random.Random(9)
    for _ in range(10):
        x = rand_frac_matrix(rng, 3)
        y = rand_frac_matrix(rng, 3)
        assert linalg.det(linalg.matmul(x, y)) == linalg.det(x) * linalg.det(y)


def test_solve():
    a = linalg.object_matrix([[1, 1], [1, -1]])
    b = linalg.object_matrix([[3], [1]])
    x = linalg.solve(a, b)
    assert x[0, 0] == 2 and x[1, 0] == 1
    # inconsistent system
    a2 = linalg.object_matrix([[1, 1], [2, 2]])
    b2 = linalg.object_matrix([[1], [3]])
    assert linalg.solve(a2, b2) is None
    # underdetermined but consistent: a particular solution is returned
    b3 = linalg.object_matrix([[1], [2]])
    x3 = linalg.solve(a2, b3)
    assert (linalg.matmul(a2, x3) == b3).all()


# The entry-by-entry Fraction/Ext elimination that linalg.rref, det, solve
# and inverse ran before one Gauss-Jordan routine served all four: the
# reference their answers, entry types and pivots are held to.

def ref_field(a):
    out = np.empty(a.shape, dtype=object)
    for idx, x in np.ndenumerate(a):
        out[idx] = Fraction(x) if isinstance(x, int) else x
    return out


def ref_reciprocal(x):
    return x.inverse() if isinstance(x, Ext) else 1 / Fraction(x)


def ref_rref(a):
    m = ref_field(a.copy())
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i, c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        inv = ref_reciprocal(m[r, c])
        for j in range(c, cols):
            m[r, j] = m[r, j] * inv
        for i in range(rows):
            if i != r and m[i, c]:
                factor = m[i, c]
                for j in range(c, cols):
                    m[i, j] = m[i, j] - factor * m[r, j]
                m[i, c] = 0 * m[i, c]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def ref_solve(a, b):
    aug = np.concatenate([a, b], axis=1)
    r, pivots = ref_rref(aug)
    n = a.shape[1]
    if any(p >= n for p in pivots):
        return None
    x = np.empty((n, b.shape[1]), dtype=object)
    x[:] = Fraction(0)
    for row, p in enumerate(pivots):
        for k in range(b.shape[1]):
            x[p, k] = r[row, n + k]
    return x


def ref_inverse(a):
    n = a.shape[0]
    eye = np.empty((n, n), dtype=object)
    eye[:] = Fraction(0)
    for i in range(n):
        eye[i, i] = Fraction(1)
    r, pivots = ref_rref(np.concatenate([a, eye], axis=1))
    if pivots != list(range(n)):
        raise linalg.SingularMatrixError("matrix is singular over its field")
    return r[:, n:]


def ref_det(a):
    n = a.shape[0]
    work = ref_field(a.copy())
    sign = 1
    value = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i, c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[[c, pivot]] = work[[pivot, c]]
            sign = -sign
        value = value * work[c, c]
        inv = ref_reciprocal(work[c, c])
        for i in range(c + 1, n):
            if work[i, c]:
                factor = work[i, c] * inv
                for j in range(c, n):
                    work[i, j] = work[i, j] - factor * work[c, j]
    return sign * value


def typed(values):
    return [(type(x), x) for x in np.asarray(values, dtype=object).flat]


# sparse entries, so that leading zeros force row swaps; over Q(i, sqrt2)
# ints, Fractions and Ext values mix, the zero Ext among them
VALUES = {ext: st.one_of(st.integers(-3, 3), COEFFS if ext else SMALL) for ext in (False, True)}
SPARSE = {ext: st.one_of(st.just(0), values) for ext, values in VALUES.items()}


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(1, 5), st.integers(1, 5), st.data())
def test_gauss_jordan_matches_the_entrywise_reference(ext, rows, cols, data):
    values = data.draw(st.lists(SPARSE[ext], min_size=rows * (cols + 1),
                                max_size=rows * (cols + 1)))
    aug = np.empty(rows * (cols + 1), dtype=object)
    aug[:] = values
    aug = aug.reshape(rows, cols + 1)
    if rows > 1 and data.draw(st.booleans()):  # rank-deficient: one row a multiple of another
        i, j = data.draw(st.permutations(range(rows)))[:2]
        aug[j] = aug[i] * data.draw(VALUES[ext])
    a, b = aug[:, :cols], aug[:, cols:]
    for m in (a, aug):
        (got, pivots), (want, want_pivots) = linalg.rref(m), ref_rref(m)
        assert pivots == want_pivots
        assert typed(got) == typed(want)
    got, want = linalg.solve(a, b), ref_solve(a, b)
    assert (got is None) == (want is None)
    if want is not None:
        assert typed(got) == typed(want)
    k = min(rows, cols + 1)
    square = aug[:k, :k]
    for m in (square, square[::-1]):
        assert typed(linalg.det(m)) == typed(ref_det(m))
    try:
        want = ref_inverse(square)
    except linalg.SingularMatrixError:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse(square)
    else:
        assert typed(linalg.inverse(square)) == typed(want)


# -- integer kernel -----------------------------------------------------------


def components(a):
    """Integer component list of an object matrix: 1 if rational, else 4."""
    if not any(isinstance(x, Ext) for x in a.flat):
        return [a.astype(object)]
    parts = [np.empty(a.shape, dtype=object) for _ in range(4)]
    for idx, x in np.ndenumerate(a):
        for part, value in zip(parts, Ext.of(x).components()):
            part[idx] = int(value)
    return parts


def assemble(comps):
    """Object matrix of exact scalars from an integer component list."""
    if len(comps) == 1:
        return comps[0].astype(object)
    out = np.empty(comps[0].shape, dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = Ext(*(int(c[idx]) for c in comps))
    return out


def int_entries(ext, big):
    """Small entries, or big ones (big=True) whose products cross the
    kernel's int64 bound 2**62, or (big="near") entries of absolute value
    3 * 2**13 to 2**15: a product of two stays within the kernel's int32
    bound 2**30, and a sum of a few reaches 2**31, where int32 wraps."""
    if big == "near":
        near = st.integers(3 * 2 ** 13, 2 ** 15)
        ints = st.one_of(near, near.map(lambda v: -v))
    else:
        limit = 2 ** 40 if big else 3
        ints = st.integers(-limit, limit)
    if not ext:
        return ints
    return st.builds(Ext, ints, ints, ints, ints)


SIZES = st.sampled_from([False, "near", True])


@st.composite
def leg_cases(draw):
    legs = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3 if legs < 4 else 2))
    cols = draw(st.integers(1, 4))
    big = draw(st.booleans())
    r_entries = int_entries(draw(st.booleans()), big)
    x_entries = int_entries(draw(st.booleans()), big)
    r = np.array(draw(st.lists(r_entries, min_size=n ** 4, max_size=n ** 4)),
                 dtype=object).reshape(n * n, n * n)
    size = n ** legs
    x = np.array(draw(st.lists(x_entries, min_size=size * cols, max_size=size * cols)),
                 dtype=object).reshape(size, cols)
    pair = draw(st.permutations(range(1, legs + 1)))[:2]
    return n, legs, r, x, tuple(pair)


@settings(max_examples=80, deadline=None)
@given(leg_cases())
def test_apply_two_leg_matches_dense_embedding(case):
    n, legs, r, x, pair = case
    # the entry-by-entry object product of the dense embedding, which
    # shares no code with the kernel; pairs may be out of order, as (3, 1)
    want = naive_matmul(embed_two_leg(TensorMatrix(n, 2, r), legs, pair).data, x)
    xs = [c.reshape((n,) * legs + (-1,)) for c in components(x)]
    got = linalg.apply_legs(components(r), xs, pair)
    got = assemble([c.reshape(n ** legs, -1) for c in got])
    assert (got == want).all()


def index_embedding(m, n, count, legs):
    """The n^count square matrix acting as m on legs (1-based, in order) and
    as the identity elsewhere, entry by entry from the multi-indices."""
    size = n ** count
    out = np.zeros((size, size), dtype=object)
    at = [leg - 1 for leg in legs]
    for i in range(size):
        for j in range(size):
            row, col = np.unravel_index(i, (n,) * count), np.unravel_index(j, (n,) * count)
            if all(row[k] == col[k] for k in range(count) if k not in at):
                out[i, j] = m[np.ravel_multi_index([row[k] for k in at], (n,) * len(at)),
                              np.ravel_multi_index([col[k] for k in at], (n,) * len(at))]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.booleans(), st.data())
def test_apply_legs_matches_index_embedding(count, n, ext, big, data):
    # any number of legs, in any order, against an embedding that shares no
    # code with the kernel or with tensor's leg reorder
    legs = tuple(data.draw(st.permutations(range(1, count + 1)))[:data.draw(
        st.integers(1, count))])
    side = n ** len(legs)
    r = np.array(data.draw(st.lists(int_entries(ext, big), min_size=side * side,
                                    max_size=side * side)), dtype=object).reshape(side, side)
    x = np.array(data.draw(st.lists(int_entries(not ext, big), min_size=n ** count * 2,
                                    max_size=n ** count * 2)), dtype=object).reshape(-1, 2)
    want = naive_matmul(index_embedding(r, n, count, legs), x)
    xs = [c.reshape((n,) * count + (-1,)) for c in components(x)]
    got = linalg.apply_legs(components(r), xs, legs)
    assert (assemble([c.reshape(n ** count, -1) for c in got]) == want).all()


def einsum_product(a, b):
    """int_product with every dense product, however small, contracted by
    np.einsum in the tier its bound picks, as products of SMALL_PRODUCT
    multiply-adds and more are."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "SMALL_PRODUCT", 0)
        return linalg.int_product(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.booleans(), st.data())
def test_int_product_matches_object_product(size, ext_a, ext_b, data):
    def matrix(ext):
        big = data.draw(SIZES)
        values = data.draw(st.lists(int_entries(ext, big), min_size=size * size,
                                    max_size=size * size))
        return np.array(values, dtype=object).reshape(size, size)

    a, b = matrix(ext_a), matrix(ext_b)
    want = naive_matmul(a, b)
    for product in (linalg.int_product, einsum_product):
        assert (assemble(product(components(a), components(b))) == want).all()


def test_int_product_bound_edge():
    # inner * max|a| * max|b| just below 2**62 runs in int64, at 2**62 it
    # falls back to Python ints, and both are exact
    a = np.full((4, 4), 2 ** 30, dtype=object)
    below = np.full((4, 4), 2 ** 30 - 1, dtype=object)
    at = np.full((4, 4), 2 ** 30, dtype=object)
    low = linalg.int_product([a], [below])[0]
    assert low.dtype == np.int64
    assert (low == 4 * 2 ** 30 * (2 ** 30 - 1)).all()
    high = linalg.int_product([a], [at])[0]
    assert high.dtype == object
    assert (high == 2 ** 62).all()


def test_int_product_ext_bound_sums_rule_coefficients():
    # one component product fits, but the 1*1 + 2*1 + 1*1 + 2*1 = 6 terms
    # of the rational component do not: the whole product goes to Python ints
    m = 2 ** 30
    assert 2 * m * m < 2 ** 62 <= 6 * 2 * m * m
    a = [np.full((2, 2), m, dtype=object) for _ in range(4)]
    got = linalg.int_product(a, a)
    assert all(c.dtype == object for c in got)
    want = naive_matmul(assemble(a), assemble(a))
    assert (assemble(got) == want).all()


@pytest.fixture
def einsum_dtypes(monkeypatch):
    """The operand dtypes of every np.einsum call, in order."""
    seen, einsum = [], np.einsum

    def spy(spec, *operands, **kwargs):
        seen.append({x.dtype for x in operands})
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return seen


def test_small_dense_products_stay_on_int64_matmul(einsum_dtypes):
    # below SMALL_PRODUCT multiply-adds, einsum's dispatch and the int32
    # conversions cost more than they save
    a = np.full((4, 4), 3, dtype=np.int64)
    cols = linalg.SMALL_PRODUCT // 16
    small = linalg.int_product([a], [np.ones((4, cols - 1), dtype=np.int64)])[0]
    assert not einsum_dtypes
    assert small.dtype == np.int64 and (small == 12).all()
    large = linalg.int_product([a], [np.ones((4, cols), dtype=np.int64)])[0]
    assert einsum_dtypes.pop() == {np.dtype(np.int32)}
    assert large.dtype == np.int64 and (large == 12).all()


def test_int_product_int32_edge(einsum_dtypes):
    # inner * max|a| * max|b| below 2**30 contracts in int32; above it, in
    # int64, here with products that reach 2**31, where int32 wraps
    cols = linalg.SMALL_PRODUCT // 16
    a = np.full((4, 4), 2 ** 14, dtype=np.int64)
    below = np.full((4, cols), 2 ** 14 - 1, dtype=np.int64)
    at = np.full((4, cols), 2 ** 15, dtype=np.int64)
    low = linalg.int_product([a], [below])[0]
    assert einsum_dtypes.pop() == {np.dtype(np.int32)}
    assert low.dtype == np.int64 and (low == 4 * 2 ** 14 * (2 ** 14 - 1)).all()
    high = linalg.int_product([a], [at])[0]
    assert einsum_dtypes.pop() == {np.dtype(np.int64)}
    assert high.dtype == np.int64 and (high == 2 ** 31).all()
    assert (linalg.int_product([-a], [at])[0] == -2 ** 31).all()


def test_padded_int32_bound_counts_row_slots(einsum_dtypes):
    # one nonzero per row of 16: 2**15 * (2**15 - 1) fits int32's bound
    # once, not 16 times; two per row of 2**15 * 2**15 reach 2**31
    m, big = 16, 2 ** 15
    r = np.zeros((m, m), dtype=np.int64)
    r[np.arange(m), (3 * np.arange(m)) % m] = big
    # wide enough that the dense product is not a small one
    x = np.full((m, linalg.SMALL_PRODUCT // m ** 2), big - 1, dtype=np.int64)
    rows = linalg.Padded.of([r])
    assert rows.cols.shape == (m, 1)
    low = linalg.int_product(rows, [x])[0]
    assert einsum_dtypes.pop() == {np.dtype(np.int32)}
    assert low.dtype == np.int64 and (low == big * (big - 1)).all()
    linalg.int_product([r], [x])
    assert einsum_dtypes.pop() == {np.dtype(np.int64)}
    r[np.arange(m), (3 * np.arange(m) + 1) % m] = big
    rows = linalg.Padded.of([r])
    assert rows.cols.shape == (m, 2)
    high = linalg.int_product(rows, [x + 1])[0]
    assert einsum_dtypes.pop() == {np.dtype(np.int64)}
    assert high.dtype == np.int64 and (high == 2 ** 31).all()


def test_ext_int32_bound_sums_rule_coefficients(einsum_dtypes):
    # each component product of 2 * 2**28 = 2**29 fits int32's bound, but the
    # i component sums 1 + 1 + 2 + 2 = 6 of them, 3 * 2**30, past 2**31
    for m, dtype in ((2 ** 13, np.int32), (2 ** 14, np.int64)):
        a = [np.full((2, 2), m, dtype=np.int64) for _ in range(4)]
        b = [np.full((2, linalg.SMALL_PRODUCT // 4), m, dtype=np.int64) for _ in range(4)]
        got = linalg.int_product(a, b)
        assert {d for seen in einsum_dtypes for d in seen} == {np.dtype(dtype)}
        einsum_dtypes.clear()
        assert all(c.dtype == np.int64 for c in got)
        assert (assemble(got) == naive_matmul(assemble(a), assemble(b))).all()
        assert got[2][0, 0] == 6 * 2 * m * m


def test_no_int32_array_leaves_the_kernel():
    # small entries contract in int32; numpy 2 would keep an int32 result
    # int32 in arithmetic with Python ints and wrap, so it comes back int64
    r = np.zeros((16, 16), dtype=np.int64)
    r[np.arange(16), np.arange(16)] = 3
    x = np.arange(16 * 64, dtype=np.int64).reshape(16, 64)
    assert r.size * x.shape[1] >= linalg.SMALL_PRODUCT
    ext = [x, x, -x, x]
    held = linalg.hold([r])
    assert held.op[0].dtype == np.int32
    tensor = [x.reshape(4, 4, 64)]
    memo = {}
    for got in (linalg.int_product([r], [x]), linalg.int_product(linalg.padded([r]), [x]),
                linalg.int_product([r, r, r, r], ext), linalg.int_product([r], ext),
                linalg.int_product([r, r, r, r], [np.zeros_like(x)]),
                linalg.apply_legs([r], tensor, (1, 2)),
                linalg.apply_legs(linalg.padded([r]), ext, (1,)),
                # a word of held int32 factors on a held int32 tensor, with
                # and without its first application memoised
                linalg.apply_word([(held, (1, 2)), (held, (2, 1))], linalg.hold(tensor)),
                linalg.apply_word([(held, (1, 2))], linalg.hold(tensor), memo),
                linalg.apply_word([(held, (1, 2)), (held, (1, 2))], linalg.hold(tensor), memo),
                linalg.apply_word([(linalg.hold(linalg.padded([r])), (1,))], ext)):
        assert all(c.dtype == np.int64 for c in got)
    # the memo keeps the held first application, which never leaves
    assert [c.dtype for c in memo[held, (1, 2)].op] == [np.dtype(np.int32)]


def test_max_abs_at_the_int64_edges():
    # -2**63 has no int64 absolute value, nor -2**31 an int32 one; max_abs
    # returns them as Python ints, on small arrays (np.abs) and on large ones
    # (two reductions) alike
    edge = 2 ** 62 - 1
    for values, want, dtype in (([edge, -3], edge, np.int64), ([3, -edge], edge, np.int64),
                                ([np.iinfo(np.int64).min, 1], 2 ** 63, np.int64),
                                ([np.iinfo(np.int64).max, 0], 2 ** 63 - 1, np.int64),
                                ([np.iinfo(np.int32).min, 1], 2 ** 31, np.int32),
                                ([np.iinfo(np.int32).max, 0], 2 ** 31 - 1, np.int32),
                                ([-5, 2 ** 30 - 1], 2 ** 30 - 1, np.int32)):
        for pad in (0, 2 ** 12):
            a = np.array(values + [-2] * pad, dtype=dtype)
            assert linalg.max_abs(a) == want
            assert linalg.max_abs(a.astype(object)) == want
            # a strided view, as a transposed word is
            assert linalg.max_abs(np.stack([a, a])[:, ::-1].T) == want
    assert linalg.max_abs(np.zeros((0, 3), dtype=np.int64)) == 0
    assert linalg.max_abs(np.array(-7, dtype=np.int64)) == 7


def test_large_python_int_products_contract_with_matmul(monkeypatch):
    # numpy's object einsum loop is about 1.4x slower than its object matmul,
    # so a dense product in Python ints takes np.matmul whatever its size
    calls = []
    for name in ("einsum", "matmul"):
        def spy(*args, original=getattr(np, name), name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    rng = random.Random(7)
    for width in (1, 4):
        a = np.array([rng.randrange(-2 ** 40, 2 ** 40) for _ in range(8 * 8)],
                     dtype=object).reshape(8, 8)
        b = np.array([rng.randrange(-2 ** 40, 2 ** 40) for _ in range(8 * 300)],
                     dtype=object).reshape(8, 300)
        assert a.shape[0] * a.shape[1] * b.shape[1] >= linalg.SMALL_PRODUCT
        comps_a = [a * (k + 1) for k in range(width)]
        comps_b = [b - k for k in range(width)]
        calls.clear()
        got = linalg.int_product(comps_a, comps_b)
        assert calls and set(calls) == {"matmul"}
        assert all(c.dtype == object for c in got)
        assert (assemble(got) == naive_matmul(assemble(comps_a), assemble(comps_b))).all()
    # an int64 product of the same size still contracts with einsum
    calls.clear()
    linalg.int_product([np.ones((8, 8), dtype=np.int64)], [np.ones((8, 300), dtype=np.int64)])
    assert calls == ["einsum"]


def test_int_sum_pads_widths_and_guards_the_bound():
    a = [np.full((2, 2), 2 ** 60, dtype=np.int64)]
    b = [np.full((2, 2), 2 ** 60 - 1, dtype=np.int64), np.ones((2, 2), dtype=np.int64),
         np.zeros((2, 2), dtype=np.int64), np.full((2, 2), -3, dtype=np.int64)]
    low = linalg.int_sum([-c for c in a], b)
    assert [c.dtype for c in low] == [np.dtype(np.int64)] * 4
    assert [int(c[0, 1]) for c in low] == [-1, 1, 0, -3]
    # 2**61 + 2**61 reaches 2**62: the sum runs in Python ints and is exact
    high = linalg.int_sum([a[0] * 2], [a[0] * 2])
    assert high[0].dtype == object and high[0][1, 1] == 2 ** 62


def test_narrow():
    small = np.array([[2 ** 62 - 1, -(2 ** 62 - 1)]], dtype=object)
    assert [c.dtype for c in linalg.narrow([small, small])] == [np.dtype(np.int64)] * 2
    big = np.array([[2 ** 62, 0]], dtype=object)
    # one dtype for the whole component list, set by its largest entry
    wide = linalg.narrow([small.astype(np.int64), big])
    assert [c.dtype for c in wide] == [np.dtype(object)] * 2 and wide[1][0, 0] == 2 ** 62
    assert wide[0].tolist() == small.tolist()


@pytest.mark.parametrize("value, dtype", [(2 ** 62 - 1, np.int64), (1 - 2 ** 62, np.int64),
                                          (2 ** 62, object), (-2 ** 62, object)])
def test_clear_is_int64_below_the_kernel_bound(value, dtype):
    """One dtype covers the whole stack: int64 when every entry is below
    2**62 in absolute value, Python ints otherwise, whether the entries are
    ints, Fractions, Q(i, sqrt2) values with small extension parts, or
    polynomials."""
    u = Poly.variable("u")
    for entries, names in (([[value, 1], [0, 2]], ()),
                           ([[Fraction(value), Fraction(1)], [0, 3]], ()),
                           ([[Ext(value, 1, -2, 3), 1], [0, IM]], ()),
                           ([[u * value + 1, u], [1, 0]], ("u",)),
                           ([[Ext(value, 0, 1, 0) * u, 1], [IM, 0]], ("u",))):
        scale, stack = linalg.clear(linalg.object_matrix(entries), names)
        assert scale == 1
        assert [c.dtype for c in stack] == [np.dtype(dtype)] * len(stack), entries
        assert value in stack[0].ravel().tolist(), entries
    big = linalg.clear(linalg.object_matrix([[Ext(2 ** 70, 1, 2, 3)]]))[1]
    assert [c.dtype for c in big] == [np.dtype(object)] * 4
    assert [c.tolist() for c in big] == [[[2 ** 70]], [[1]], [[2]], [[3]]]


def test_lowest_terms_of_a_zero_stack_over_a_huge_scale():
    # the gcd of zero int64 components and the scale is the scale itself,
    # above what int64 division takes
    stack = [np.zeros((3, 2, 2), dtype=np.int64) for _ in range(4)]
    scale, lowest = linalg.lowest_terms(2 ** 80 + 2 ** 64, stack)
    assert scale == 1 and len(lowest) == 1
    assert (lowest[0].dtype, lowest[0].shape) == (np.dtype(np.int64), (1, 2, 2))
    assert not lowest[0].any()


# -- padded rows ----------------------------------------------------------------


def scatter(rows, values):
    """The dense (m, m) matrices of padded slot values, entry by entry from
    the slot columns; slots of one row must name distinct columns."""
    m, width = rows.cols.shape
    out = np.zeros(values.shape[:-2] + (m, m), dtype=object)
    for lead in np.ndindex(values.shape[:-2]):
        for i in range(m):
            for k in range(width):
                j = int(rows.cols[i, k])
                assert out[lead + (i, j)] == 0
                out[lead + (i, j)] = values[lead + (i, k)]
    return out


@st.composite
def sparse_stacks(draw, layers=1):
    """A component list of shape (layers, m, m): each row has its own number
    of nonzeros, some rows none, and now and then the matrix is all zero."""
    m = draw(st.integers(1, 6))
    ext, big = draw(st.booleans()), draw(SIZES)
    entries = int_entries(ext, big)
    empty = draw(st.integers(0, 9)) == 0
    out = np.zeros((layers, m, m), dtype=object)
    for i in range(m):
        for j in sorted(draw(st.sets(st.integers(0, m - 1), max_size=0 if empty else m))):
            at = draw(st.integers(0, layers - 1))
            out[at, i, j] = draw(entries.filter(bool))
    return components(out)


@settings(max_examples=80, deadline=None)
@given(sparse_stacks(layers=3))
def test_padded_layout_is_the_union_of_every_layer_and_component(stack):
    rows = linalg.Padded.of(stack)
    m = stack[0].shape[-1]
    nonzero = np.zeros((m, m), dtype=bool)
    for c in stack:
        nonzero |= (c != 0).any(axis=0)
    # K is the longest row, exactly
    assert rows.cols.shape == (m, int(nonzero.sum(axis=1).max()))
    for c, v in zip(stack, rows.vals):
        assert v.shape == (3,) + rows.cols.shape
        assert (scatter(rows, v) == c).all()


@settings(max_examples=80, deadline=None)
@given(sparse_stacks(), st.integers(1, 4), st.booleans(), SIZES, st.data())
def test_padded_product_matches_dense_and_object_products(stack, cols, ext, big, data):
    m = stack[0].shape[-1]
    r = [c[0] for c in stack]
    x = np.array(data.draw(st.lists(int_entries(ext, big), min_size=m * cols,
                                    max_size=m * cols)), dtype=object).reshape(m, cols)
    rows = linalg.Padded.of(r)
    got = assemble(linalg.int_product(rows, components(x)))
    for product in (linalg.int_product, einsum_product):
        assert (got == assemble(product(r, components(x)))).all()
    assert (got == naive_matmul(assemble(r), x)).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_padded_apply_legs_matches_index_embedding(count, n, ext, data):
    legs = tuple(data.draw(st.permutations(range(1, count + 1)))[:data.draw(
        st.integers(1, count))])
    side = n ** len(legs)
    r = np.zeros((side, side), dtype=object)
    for i in range(side):
        for j in data.draw(st.sets(st.integers(0, side - 1), max_size=3)):
            r[i, j] = data.draw(int_entries(ext, False).filter(bool))
    x = np.array(data.draw(st.lists(int_entries(not ext, False), min_size=n ** count * 2,
                                    max_size=n ** count * 2)), dtype=object).reshape(-1, 2)
    want = naive_matmul(index_embedding(r, n, count, legs), x)
    xs = [c.reshape((n,) * count + (-1,)) for c in components(x)]
    got = linalg.apply_legs(linalg.Padded.of(components(r)), xs, legs)
    assert (assemble([c.reshape(n ** count, -1) for c in got]) == want).all()


def test_padded_bound_counts_row_slots_not_the_inner_dimension():
    # one nonzero per row of 16: 2**30 * 2**30 fits once, not 16 times
    m, big = 16, 2 ** 30
    r = np.zeros((m, m), dtype=object)
    r[np.arange(m), (3 * np.arange(m)) % m] = big
    x = np.full((m, 2), big, dtype=object)
    rows = linalg.Padded.of([r])
    assert rows.cols.shape == (m, 1)
    assert linalg.int_product([r], [x])[0].dtype == object
    low = linalg.int_product(rows, [x])[0]
    assert low.dtype == np.int64
    assert (low == naive_matmul(r, x)).all()
    # four per row reach 4 * 2**60 = 2**62: the product runs in Python ints
    for k in range(1, 4):
        r[np.arange(m), (3 * np.arange(m) + k) % m] = big
    rows = linalg.Padded.of([r])
    assert rows.cols.shape == (m, 4)
    high = linalg.int_product(rows, [x])[0]
    assert high.dtype == object
    assert (high == naive_matmul(r, x)).all() and high[0, 0] == 2 ** 62


def test_padded_rule_takes_sparse_rows_of_sixteen_or_more():
    def band(m, width):
        out = np.zeros((m, m), dtype=np.int64)
        for k in range(width):
            out[np.arange(m), (np.arange(m) + k) % m] = k + 1
        return [out]

    assert linalg.padded(band(16, 8)).cols.shape == (16, 8)
    assert linalg.padded(band(16, 9)) is None
    assert linalg.padded(band(9, 1)) is None
    assert linalg.padded([np.zeros((16, 16), dtype=np.int64)]).cols.shape == (16, 0)
