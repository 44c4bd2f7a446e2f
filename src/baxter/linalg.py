"""Exact dense linear algebra on numpy object arrays.

Entries are ints, Fractions, Ext values, or Poly values.  Every product
takes one route: each operand is cleared once (clear) to integer
coefficient arrays indexed by monomial exponents, with one component over
Q or four over Q(i, sqrt2) and one common denominator; the coefficient
arrays are convolved over monomials by the integer kernel, and the entries
are rebuilt once (rebuild).  A rational or Q(i, sqrt2) matrix is the
degree-0 case.

The integer kernel (int_product, int_sum, apply_legs) works on matrices
already cleared to integers, given as component lists: one array for a
rational matrix, four for a Q(i, sqrt2) matrix on the basis (1, sqrt2, i,
i*sqrt2).  A sparse left factor may come in padded rows instead (Padded,
chosen by padded).  A product runs in int64 when a bound proves it cannot
overflow, and in Python ints otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial
from itertools import product

import numpy as np

from .poly import Poly
from .scalars import Ext

INT64_SAFE = 2 ** 62


class SingularMatrixError(ValueError):
    pass


def object_matrix(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            out[i, j] = value
    return out


def classify(*matrices) -> str:
    """The widest entry kind present: 'rational', 'ext', or 'poly'.

    Nothing in src calls it; it stays only because perfbench/trace.py's
    TRACED wraps it by name, until ROADMAP item 2a replaces that tracer."""
    kinds = set()
    for m in matrices:
        kinds.update(map(type, m.ravel().tolist()))
    if any(issubclass(k, Poly) for k in kinds):
        return "poly"
    if any(issubclass(k, Ext) for k in kinds):
        return "ext"
    return "rational"


def _rational_ints(values: list):
    """(numerators over the common denominator, that denominator) of a list
    of ints and Fractions."""
    scale = math.lcm(*{x.denominator for x in values if type(x) is not int})
    return [x.numerator * (scale // x.denominator) for x in values], scale


def scale_to_int(a: np.ndarray):
    """(integer matrix, s) with matrix = s * original and s a positive int."""
    values = a.ravel().tolist()
    # One type check per distinct entry type, not per entry: isinstance
    # against the Fraction ABC is slow, and most entries are plain ints.
    if not all(issubclass(k, (Fraction, int)) for k in set(map(type, values))):
        bad = next(x for x in values if not isinstance(x, (Fraction, int)))
        raise TypeError(f"rational entry expected, got {type(bad).__name__}")
    ints, scale = _rational_ints(values)
    out = np.empty(len(values), dtype=object)
    out[:] = ints
    return out.reshape(a.shape), scale


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer object matrices; int64 when provably safe.

    Nothing in src calls it; it stays only because perfbench/trace.py's
    TRACED wraps it by name, until ROADMAP item 2a replaces that tracer."""
    return int_product([a], [b])[0].astype(object)


# basis_i * basis_j = coefficient * basis_k on the basis (1, sqrt2, i, i*sqrt2).
_EXT_RULE = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, 2), (1, 2): (3, 1), (1, 3): (2, 2),
    (2, 0): (2, 1), (2, 1): (3, 1), (2, 2): (0, -1), (2, 3): (1, -1),
    (3, 0): (3, 1), (3, 1): (2, 2), (3, 2): (1, -1), (3, 3): (0, -2),
}


def max_abs(a: np.ndarray) -> int:
    """Largest absolute entry of an integer array (int64 or Python ints)."""
    if a.dtype == object:
        return max(map(abs, a.ravel().tolist()), default=0)
    return int(np.abs(a).max()) if a.size else 0


def kernel_dtype(bound: int):
    """int64 for integers below 2**62 in absolute value, the kernel's
    bound, else Python-int objects."""
    return np.int64 if bound < INT64_SAFE else object


def narrow(stack: list) -> list:
    """A component list of integer arrays in one dtype: int64 when every
    entry of every component is below 2**62 in absolute value, else
    Python-int objects."""
    dtype = kernel_dtype(max(map(max_abs, stack)))
    return [c.astype(dtype, copy=False) for c in stack]


def scaled(stack: list, factor: int) -> list:
    """factor * stack for a component list and a positive int factor, in
    int64 when every product stays below 2**62, else in Python ints."""
    if factor == 1:
        return stack
    dtype = kernel_dtype(max(1, *map(max_abs, stack)) * factor)
    return [c.astype(dtype, copy=False) * factor for c in stack]


class Padded:
    """Square integer matrices stored by rows, in the spirit of ELLPACK.

    Slot k of row i holds column cols[i, k], of shape (m, K) for K the
    longest row; vals is a component list (see int_product) of the slot
    values, each of shape (..., m, K) with any leading stack axes.  A row
    with fewer than K nonzeros is padded with distinct columns that are zero
    in every matrix, so no two slots of a row name the same column.
    """
    __slots__ = ("cols", "vals")

    def __init__(self, cols: np.ndarray, vals: list):
        self.cols, self.vals = cols, vals

    @classmethod
    def of(cls, stack: list) -> "Padded":
        """The layout of a component list of shape (..., m, m): the union of
        the nonzeros of every matrix in the stack and every component."""
        m = stack[0].shape[-1]
        nonzero = np.logical_or.reduce([c.reshape(-1, m, m) != 0 for c in stack]).any(axis=0)
        width = int(nonzero.sum(axis=1).max())
        # a stable sort puts each row's nonzero columns first, in order
        cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
        rows = np.arange(m)[:, None]
        return cls(cols, [c[..., rows, cols] for c in stack])


def padded(stack: list):
    """stack in padded rows when that pays, else None.

    This is the one sparse-or-dense rule of the kernel: padded rows pay
    when the longest row needs at most half of the m slots, 2K <= m, and
    m >= 16; below that one dense @ is at least as fast.
    """
    m = stack[0].shape[-1]
    if m < 16:
        return None
    rows = Padded.of(stack)
    return rows if 2 * rows.cols.shape[1] <= m else None


def int_product(a, b: list) -> list:
    """Exact product of integer matrices given as component lists.

    Each operand is a list of one (rational) or four (Q(i, sqrt2))
    integer arrays, int64 or Python-int objects; a may also be a Padded
    matrix, applied as one gathered contraction over its K slots per row.
    The product runs in int64 when every operand entry and inner * sum
    |coefficient| * max|a_i| * max|b_j| for each output component stay
    below 2**62, inner being K for a Padded a, and in Python ints
    otherwise.  The result has four components when either operand has.
    """
    if isinstance(a, Padded):
        rows, a, inner = a, a.vals, a.cols.shape[1]
    else:
        rows, inner = None, a[0].shape[1]
    max_a = [max_abs(x) for x in a]
    max_b = [max_abs(x) for x in b]
    width = max(len(a), len(b))
    bound = [0] * width
    for i, ma in enumerate(max_a):
        for j, mb in enumerate(max_b):
            k, coeff = _EXT_RULE[i, j]
            bound[k] += abs(coeff) * ma * mb
    dtype = kernel_dtype(max(*max_a, *max_b, inner * max(bound)))
    if rows is None:
        contract = np.matmul
    else:
        contract = partial(np.einsum, "ik,ikc->ic")
    if width == 1:
        x = b[0].astype(dtype, copy=False)
        return [contract(a[0].astype(dtype, copy=False), x if rows is None else x[rows.cols])]
    cols = b[0].shape[1]
    out = [np.zeros((a[0].shape[0], cols), dtype=dtype) for _ in range(width)]
    # a component that is zero throughout adds nothing: the twisted
    # solutions over Q(i, sqrt2) have no sqrt2 parts
    live = [j for j, mb in enumerate(max_b) if mb]
    if not live:
        return out
    stacked = np.concatenate([b[j].astype(dtype, copy=False) for j in live], axis=1)
    if rows is not None:
        stacked = stacked[rows.cols]
    for i, x in enumerate(a):
        if not max_a[i]:
            continue
        prod = contract(x.astype(dtype, copy=False), stacked)
        for slot, j in enumerate(live):
            k, coeff = _EXT_RULE[i, j]
            out[k] += coeff * prod[:, slot * cols:(slot + 1) * cols]
    return out


def apply_legs(r, x: list, legs) -> list:
    """R applied on the given legs of an integer tensor, component-wise.

    x holds the components of a tensor of shape (n,) * count + (cols,), one
    axis per leg, and legs names k of them (1-based, in any order); r holds
    those of an (n^k, n^k) matrix whose i-th tensor factor acts on legs[i],
    or is that matrix as Padded.  The legs are moved to the front and
    contracted over n^k by int_product, so no n^count x n^count embedding
    is built and a product costs n^(count + k) * cols, or K n^count * cols
    in padded rows.
    """
    at = tuple(leg - 1 for leg in legs)
    axes = at + tuple(k for k in range(x[0].ndim) if k not in at)
    moved = [c.transpose(axes) for c in x]
    shape = moved[0].shape
    flat = [c.reshape(math.prod(shape[:len(at)]), -1) for c in moved]
    back = np.argsort(axes)
    return [c.reshape(shape).transpose(back) for c in int_product(r, flat)]


def int_sum(*terms) -> list:
    """Exact sum of integer component lists, the narrower ones padded with
    zeros; int64 when the sum of the terms' largest entries stays below
    2**62, Python ints otherwise."""
    dtype = kernel_dtype(sum(max_abs(c) for term in terms for c in term))
    out = [np.zeros(terms[0][0].shape, dtype=dtype) for _ in range(max(map(len, terms)))]
    for term in terms:
        for acc, c in zip(out, term):
            acc += c.astype(dtype, copy=False)
    return out


def ext_value(parts, scale: int = 1):
    """The scalar with integer components parts / scale on the basis
    (1, sqrt2, i, i*sqrt2): a Fraction when it is rational, else an Ext."""
    if not any(parts[1:]):
        return Fraction(parts[0], scale)
    return Ext(*(Fraction(p, scale) for p in parts))


def clear(a: np.ndarray, names=()):
    """(scale, stack): the integer coefficients of scale * a, scale being the
    least common denominator of every coefficient component.

    stack is a component list of the kernel (see int_product): one
    (rational) or four (Q(i, sqrt2)) integer arrays of shape grid + a.shape,
    one grid axis per variable in names as long as its highest power plus
    one; element (e, i, j) is the coefficient of x^e in scale * a[i, j].
    The arrays are int64 when every entry of the stack is below 2**62 in
    absolute value, and Python-int objects otherwise (narrow).  Entries in
    a variable outside names raise ValueError.
    """
    values = a.ravel().tolist()
    return _clear(values, set(map(type, values)), a.shape, names)


def _clear(values: list, kinds: set, shape: tuple, names):
    """clear for the flat entries of a matrix of that shape whose entry
    types, kinds, the caller has already collected."""
    if kinds <= {int, Fraction}:
        # integers need no common denominator
        ints, scale = (values, 1) if kinds <= {int} else _rational_ints(values)
        out = np.array(ints, dtype=kernel_dtype(max(map(abs, ints), default=0)))
        return scale, [out.reshape((1,) * len(names) + shape)]
    terms, origin = [], (0,) * len(names)
    for idx, x in enumerate(values):
        if not isinstance(x, Poly):
            if x:
                terms.append((origin + (idx,), x))
            continue
        for exps, coeff in x.coeffs.items():
            power = dict(zip(x.vars, exps))
            if any(power[v] for v in x.vars if v not in names):
                raise ValueError(f"entry {idx} depends on {x.vars}, expected "
                                 f"{', '.join(names) or 'a constant'}")
            terms.append((tuple(power.get(v, 0) for v in names) + (idx,), coeff))
    width = 4 if any(isinstance(c, Ext) for _, c in terms) else 1
    parts = np.empty((width, len(terms)), dtype=object)
    parts[:] = list(zip(*(c.components() if isinstance(c, Ext) else (c, 0, 0, 0)
                          for _, c in terms)))[:width]
    ints, scale = scale_to_int(parts)
    at = np.array([e for e, _ in terms], dtype=np.intp).reshape(-1, len(names) + 1).T
    grid = tuple(max(row, default=0) + 1 for row in at[:-1].tolist())
    stack = np.zeros((width,) + grid + (len(values),), dtype=kernel_dtype(max_abs(ints)))
    stack[(slice(None), *at)] = ints
    return scale, list(stack.reshape((width,) + grid + shape))


def lowest_terms(scale: int, stack: list):
    """(scale, stack) as clear returns it, in one variable var, for the
    matrix rebuild(scale, (var,), stack), every entry of which is a Poly in
    var: the scale and every coefficient divided by their gcd, the trailing
    layers that are zero throughout dropped (one layer stays), the extension
    components dropped when all three are zero throughout, and the result
    narrowed."""
    g = math.gcd(scale, *(int(np.gcd.reduce(c, axis=None)) for c in stack))
    if g > 1:
        # a stack that is zero throughout has the scale as its gcd, which
        # int64 division cannot take above the kernel's bound
        scale = scale // g
        stack = [(c if g < INT64_SAFE else c.astype(object)) // g for c in stack]
    live = np.logical_or.reduce([c != 0 for c in stack]).reshape(len(stack[0]), -1).any(axis=1)
    layers = int(np.flatnonzero(live)[-1]) + 1 if live.any() else 1
    stack = [c[:layers] for c in stack]
    if len(stack) == 4 and not any(c.any() for c in stack[1:]):
        stack = stack[:1]
    return scale, narrow(stack)


def rebuild(scale: int, names, stack: list) -> np.ndarray:
    """The object matrix stack / scale for a stack laid out as clear's: every
    entry a Poly in names when there are names, else a scalar.  Scalars and
    coefficients are Python ints when the stack is rational and scale is 1,
    else ext_value's; equal values and equal Poly entries are built once
    and shared."""
    m, n = stack[0].shape[len(names):]
    layers = [c.reshape(-1, m * n) for c in stack]
    plain = len(stack) == 1 and scale == 1
    value = cache(lambda parts: parts[0] if plain else ext_value(parts, scale))
    out = np.empty(m * n, dtype=object)
    if not names:
        out[:] = (layers[0][0].tolist() if plain else
                  list(map(value, zip(*(c[0].tolist() for c in layers)))))
        return out.reshape(m, n)
    exps = list(product(*map(range, stack[0].shape[:len(names)])))
    # an entry's key holds its coefficients by layer, one tuple per component
    poly = cache(lambda key: Poly(names, {e: value(parts) for e, parts in zip(exps, zip(*key))
                                          if any(parts)}))
    out[:] = list(map(poly, zip(*(map(tuple, c.T.tolist()) for c in layers))))
    return out.reshape(m, n)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two matrices of exact scalars or Poly values: both are
    cleared over the union of the variables of their Poly entries, and the
    coefficient of x^e in the product is the integer sum of A[ea] B[eb] over
    ea + eb = e.  Every entry of the product is a Poly in that union when it
    is not empty, and a scalar otherwise (rebuild)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    values_a, values_b = a.ravel().tolist(), b.ravel().tolist()
    kinds_a, kinds_b = set(map(type, values_a)), set(map(type, values_b))
    names = (tuple(sorted({v for x in values_a + values_b if type(x) is Poly for v in x.vars}))
             if Poly in kinds_a | kinds_b else ())
    scale_a, stack_a = _clear(values_a, kinds_a, a.shape, names)
    scale_b, stack_b = _clear(values_b, kinds_b, b.shape, names)
    return rebuild(scale_a * scale_b, names, stack_product(stack_a, stack_b, len(names)))


def stack_product(a: list, b: list, axes: int) -> list:
    """The product of two stacks laid out as clear's, each with axes leading
    monomial axes: the integer sum of a[ea] b[eb] over ea + eb = e is layer e
    of the result, whose grid is as long as both grids together minus one."""
    if not axes:
        return int_product(a, b)
    sums = {}
    for ea in product(*map(range, a[0].shape[:axes])):
        for eb in product(*map(range, b[0].shape[:axes])):
            e = tuple(x + y for x, y in zip(ea, eb))
            term = int_product([c[ea] for c in a], [c[eb] for c in b])
            sums[e] = int_sum(sums[e], term) if e in sums else term
    grid = tuple(x + 1 for x in max(sums))
    return [np.array(c).reshape(grid + c[0].shape)
            for c in zip(*(sums[e] for e in sorted(sums)))]


def _gauss_jordan(a: np.ndarray):
    """(R, pivots, d): the reduced row echelon form R of a by exact
    Gauss-Jordan, its pivot columns, and d the product of the pivots,
    negated once per row swap, which is det a when a is square of full rank.
    Int entries become Fractions; each pivot row is scaled by 1 / p and
    every other row with a nonzero in the pivot column is updated at once."""
    field = [Fraction(x) if isinstance(x, int) else x for x in a.ravel().tolist()]
    m = np.array(field, dtype=object).reshape(a.shape)
    rows, cols = m.shape
    pivots, d = [], Fraction(1)
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i, c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
            d = -d
        d = d * m[r, c]
        m[r, c:] = m[r, c:] * (1 / m[r, c])
        others = m[:, c].astype(bool)
        others[r] = False
        m[others, c:] = m[others, c:] - np.multiply.outer(m[others, c], m[r, c:])
        pivots.append(c)
    return m, pivots, d


def rref(a: np.ndarray):
    """Reduced row echelon form by exact Gauss-Jordan; returns (R, pivots)."""
    return _gauss_jordan(a)[:2]


def solve(a: np.ndarray, b: np.ndarray):
    """A particular exact solution X of A X = B, or None if inconsistent."""
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n = a.shape[1]
    reduced, pivots = rref(np.concatenate([a, b], axis=1))
    if any(p >= n for p in pivots):
        return None
    x = np.full((n, b.shape[1]), Fraction(0), dtype=object)
    x[pivots] = reduced[:len(pivots), n:]
    return x


def inverse(a: np.ndarray) -> np.ndarray:
    n, m = a.shape
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    reduced, pivots = rref(np.concatenate([a, np.eye(n, dtype=object)], axis=1))
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular over its field")
    return reduced[:, n:]


def lagrange_weights(k: int):
    """(weights, denominator): the inverse of the Vandermonde matrix [x**j] on
    the points 0..k-1, an integer object matrix over its least common
    denominator.  Column i is the Lagrange basis polynomial
    prod_{m != i} (t - m) / prod_{m != i} (i - m), over (k-1)!, which
    divides every i! (k-1-i)!; the common gcd is then removed."""
    full, cols = math.factorial(k - 1), []
    for i in range(k):
        coeffs, below = [1], 1
        for m in range(k):
            if m != i:  # times (t - m)
                coeffs = [a - m * b for a, b in zip([0] + coeffs, coeffs + [0])]
                below *= i - m
        cols.append([c * (full // below) for c in coeffs])
    g = math.gcd(full, *(c for col in cols for c in col))
    return object_matrix([[col[j] // g for col in cols] for j in range(k)]), full // g


def det(a: np.ndarray):
    n, m = a.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d = _gauss_jordan(a)
    return d if len(pivots) == n else Fraction(0)
