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
    limit = 2 ** 40 if big else 3
    ints = st.integers(-limit, limit)
    if not ext:
        return ints
    return st.builds(Ext, ints, ints, ints, ints)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.booleans(), st.data())
def test_int_product_matches_object_product(size, ext_a, ext_b, data):
    def matrix(ext):
        big = data.draw(st.booleans())
        values = data.draw(st.lists(int_entries(ext, big), min_size=size * size,
                                    max_size=size * size))
        return np.array(values, dtype=object).reshape(size, size)

    a, b = matrix(ext_a), matrix(ext_b)
    got = assemble(linalg.int_product(components(a), components(b)))
    assert (got == naive_matmul(a, b)).all()


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
    ext, big = draw(st.booleans()), draw(st.booleans())
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
@given(sparse_stacks(), st.integers(1, 4), st.booleans(), st.booleans(), st.data())
def test_padded_product_matches_dense_and_object_products(stack, cols, ext, big, data):
    m = stack[0].shape[-1]
    r = [c[0] for c in stack]
    x = np.array(data.draw(st.lists(int_entries(ext, big), min_size=m * cols,
                                    max_size=m * cols)), dtype=object).reshape(m, cols)
    rows = linalg.Padded.of(r)
    got = assemble(linalg.int_product(rows, components(x)))
    assert (got == assemble(linalg.int_product(r, components(x)))).all()
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
