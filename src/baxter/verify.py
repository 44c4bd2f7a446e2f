"""Exact verifiers for the Yang-Baxter family of identities.

Identities are decided on integer layers cleared by linalg.clear, with
factors applied on their legs (linalg.apply_legs); only the constant braid
identity forms object products, of the integer numerator, whose entries
need no clearing.  The spectral braid identity is the braid
word W(x, y, z) = x12 y13 z23 - z23 y13 x12 at the points of a grid of
degree + 1 points in each variable, (2d+1)^2 for a numerator of degree d,
so vanishing there is identical vanishing; the witness is interpolated
from the grid with the integer Lagrange weights.  When R21 = R12 exactly
on the cleared numerator, the right-hand word at (x, y) is P13 L(y, x) P13 for
the left-hand word L(x, y) = R12(x) R13(x+y) R23(y), and the grid builds
left-hand words alone, two per pair of points mirrored in the diagonal.
The method "poly" and the classical identity compare every
(a, b)-coefficient instead, summed over the monomial layers with weights
a^x (a+b)^y b^z.

Scalar factors are handled by clearing denominators uniformly; every
identity here is invariant under per-factor scaling, and witnesses are
reported in unscaled numerator units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import product

import numpy as np

from . import linalg
from .poly import Poly
from .tensor import TensorMatrix, dense_dim, embed_pair


@dataclass(frozen=True)
class Witness:
    """First offending entry of a failed identity, in lexicographic order."""
    row: int
    col: int
    exponents: tuple
    value: object

    def __str__(self):
        where = f"entry ({self.row}, {self.col})"
        if any(self.exponents):
            where += f", monomial {self.exponents}"
        return f"{where}: {self.value}"


@dataclass(frozen=True)
class VerificationReport:
    identity_name: str
    passed: bool
    witness: Witness | None = None
    scalar_factor: object = None
    grid_size: tuple | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed != (self.witness is None):
            raise ValueError("witness must be present exactly on failure")

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.grid_size:
            extra += f" grid={'x'.join(map(str, self.grid_size))}"
        if self.scalar_factor is not None:
            extra += f" scalar={self.scalar_factor}"
        if self.witness is not None:
            extra += f" witness[{self.witness}]"
        return f"[{verdict}] {self.identity_name}{extra}"


# -- shared helpers ---------------------------------------------------------


def _numerator(r) -> TensorMatrix:
    return getattr(r, "numerator", r)


def _single_variable(m: TensorMatrix) -> str:
    names = m.variables()
    if len(names) != 1:
        raise ValueError(f"expected one entry variable, found {names or 'none'}")
    return names[0]


def uniform_int_scale(m: TensorMatrix):
    """(scale, scaled entries) with every coefficient an integer.

    Nothing in src calls it; it stays only because perfbench/trace.py's
    TRACED wraps it by name, until ROADMAP item 2a replaces that tracer."""
    scale = m.cleared(m.variables())[0]
    return scale, m.data if scale == 1 else (m * scale).data


def evaluate_matrix(data: np.ndarray, var: str, value: int) -> np.ndarray:
    """data with var set to value in every Poly entry.

    Nothing in src calls it; it stays only because perfbench/trace.py's
    TRACED wraps it by name, until ROADMAP item 2a replaces that tracer."""
    out = np.empty(data.shape, dtype=object)
    for idx, x in np.ndenumerate(data):
        if isinstance(x, Poly):
            # the other variable, if any, stays: a*b + b at a = 2 is 3b; a
            # constant comes back as a scalar
            x = x.substitute({var: value} if var in x.vars else {})
        out[idx] = x
    return out


def int_values(stack: list, value: int) -> list:
    """Components of the stacked polynomial matrix at var = value (Horner),
    narrowed to one dtype (linalg.narrow).  An int64 component is evaluated
    in int64 only when max|c| * sum |value|^k, a bound on every Horner step,
    stays below the kernel's bound."""
    out = []
    for comp in stack:
        if comp.dtype != object:
            steps = sum(abs(value) ** k for k in range(len(comp)))
            if linalg.max_abs(comp) * steps >= linalg.INT64_SAFE:
                comp = comp.astype(object)
        acc = comp[-1]
        for layer in comp[-2::-1]:
            acc = acc * value + layer
        out.append(acc)
    return linalg.narrow(out)


def _first_int_hit(arrays):
    """(row, col) of the first entry, in row-major order, that is nonzero in
    any of the integer arrays, or None."""
    hits = np.argwhere(np.logical_or.reduce([a != 0 for a in arrays]))
    return (int(hits[0][0]), int(hits[0][1])) if len(hits) else None


def _first_offence(layers: dict, scale: int):
    """The witness of every check but the spectral grid: the first entry, in
    row-major order, that is nonzero in some layer, at its lowest monomial,
    divided by scale, or None.  layers maps exponent tuples to component
    lists of integer matrices."""
    best = None
    for exps, comps in layers.items():
        hit = _first_int_hit(comps)
        if hit is not None and (best is None or (*hit, exps) < best[0]):
            best = ((*hit, exps), comps)
    if best is None:
        return None
    (row, col, exps), comps = best
    return Witness(row, col, exps, linalg.ext_value([int(c[row, col]) for c in comps], scale))


def _on_one_scale(*cleared) -> tuple:
    """(scale, stacks) for the (scale, stack) pairs of matrices cleared one
    by one: each stack brought to the lcm of the scales, the common
    denominator that clearing them jointly finds."""
    scale = math.lcm(*(s for s, _ in cleared))
    return scale, [linalg.scaled(stack, scale // s) for s, stack in cleared]


def _three_legs(n: int) -> list:
    """The identity on three legs of C^n, one int64 component of shape
    (n, n, n, n^3), refused above the dense limit before it is allocated."""
    return [np.eye(dense_dim(n, 3), dtype=np.int64).reshape(n, n, n, -1)]


@cache
def _weights(x: int, y: int, z: int) -> dict:
    """a^x (a+b)^y b^z as {(power of a, power of b): coefficient}."""
    return {(x + m, y - m + z): math.comb(y, m) for m in range(y + 1)}


def _add_weighted(sums: dict, weights: dict, term: list):
    """sums[e] += c * term for every monomial e with coefficient c in
    weights; c * term runs in Python ints where int64 could overflow."""
    for exps, c in weights.items():
        scaled = linalg.scaled(term, c)
        sums[exps] = linalg.int_sum(sums[exps], scaled) if exps in sums else scaled


def interpolate_grid(table: list):
    """(denominator, coefficients): denominator * c[i][j] for the exact
    bivariate coefficients c[i][j] of a polynomial, from its values on the
    grid 0..a-1 by 0..b-1 given as a component list of integer (a, b)
    tables (see linalg.int_product).  For the integer Lagrange weights W_k
    over their denominators d_k, the coefficients are W_a T W_b^T over
    d_a d_b."""
    (w_a, d_a), (w_b, d_b) = map(linalg.lagrange_weights, table[0].shape)
    rows = linalg.int_product(linalg.narrow([w_a]), table)
    return d_a * d_b, linalg.int_product(rows, linalg.narrow([w_b.T]))


def grid_report(identity_name, diff_at, degree_a, degree_b, scale=1) -> VerificationReport:
    """Check a bivariate polynomial matrix identity on a conclusive grid.

    diff_at(x, y) returns the integer components (see linalg.int_product)
    of the scaled difference matrix at integer points.  The grid is
    0..degree_a by 0..degree_b: a polynomial of degree at most degree_a in
    x and degree_b in y that vanishes there is zero (Alon, Combinatorial
    Nullstellensatz, Lemma 2.1), so all-zero on the grid proves the
    identity.  The witness is the first nonzero coefficient, in row-major
    order of its exponents, of the first offending entry, divided by scale
    to return to unscaled units.
    """
    grid = (degree_a + 1, degree_b + 1)
    # The witness entry is the first nonzero one, in row-major order, over
    # the whole grid.  No later entry can be it, so each point keeps only
    # its flat prefix up to the first nonzero entry seen so far, and a
    # point before the first nonzero one keeps nothing: it is zero there.
    first, kept = None, {}
    for x, y in product(*map(range, grid)):
        comps = diff_at(x, y)
        hit = _first_int_hit(comps)
        if hit is not None:
            cols = comps[0].shape[1]
            at = hit[0] * cols + hit[1]
            first = at if first is None else min(first, at)
        if first is not None:
            kept[x, y] = [c.reshape(-1)[:first + 1].copy() for c in comps]
    if first is None:
        return VerificationReport(identity_name, True, grid_size=grid)
    table = [np.zeros(grid, dtype=object) for _ in range(max(map(len, kept.values())))]
    for at, comps in kept.items():
        for t, c in zip(table, comps):
            t[at] = int(c[first])
    denominator, coeff = interpolate_grid(linalg.narrow(table))
    hit = _first_int_hit(coeff)
    if hit is None:
        raise AssertionError("nonzero grid value with zero interpolant")
    value = linalg.ext_value([int(c[hit]) for c in coeff], scale * denominator)
    row, col = divmod(first, cols)
    return VerificationReport(identity_name, False, Witness(row, col, hit, value),
                              grid_size=grid)


# -- Yang-Baxter -------------------------------------------------------------


def _ybe_constant(m: TensorMatrix) -> VerificationReport:
    """The braid identity on the integer numerator N = scale * m: it is
    homogeneous of degree 3, so it holds for m exactly when it holds for N,
    and a witness of N divided by scale^3 is the witness of m.  N's entries
    are ints over Q, Ext values with integer components over Q(i, sqrt2),
    and Polys in m's variables when it has any."""
    names = m.variables()
    scale, stack = m.cleared(names)
    num = TensorMatrix._checked(m.site_dim, m.legs, linalg.rebuild(1, names, stack))
    e12 = embed_pair(num, (1, 2))
    e13 = embed_pair(num, (1, 3))
    e23 = embed_pair(num, (2, 3))
    lhs = e12 @ e13 @ e23
    rhs = e23 @ e13 @ e12
    words, stack = linalg.clear(np.stack([lhs.data, rhs.data]), names)
    witness = _first_offence({e: [c[e][0] - c[e][1] for c in stack]
                              for e in np.ndindex(stack[0].shape[:-3])}, words * scale ** 3)
    return VerificationReport("ybe-constant", witness is None, witness)


def _left_word(x, y, z23: list) -> list:
    """x12 y13 z23 on three legs, for two-leg factors x and y as
    linalg.apply_legs takes them and z23, z applied on legs (2, 3) of the
    identity on three legs."""
    return linalg.apply_legs(x, linalg.apply_legs(y, z23, (1, 3)), (1, 2))


def _braid_word(x, y, z, z23: list, x12: list) -> list:
    """W(x, y, z) = x12 y13 z23 - z23 y13 x12 as (n^3, n^3) components, for
    two-leg factors x, y, z as linalg.apply_legs takes them; z23 and x12 are
    z and x already applied on their legs of the identity on three legs."""
    rhs = linalg.apply_legs(z, linalg.apply_legs(y, x12, (1, 3)), (2, 3))
    return [(p - q).reshape(-1, p.shape[-1]) for p, q in zip(_left_word(x, y, z23), rhs)]


def _leg_symmetric(stack: list, swap: np.ndarray) -> bool:
    """R21 = R12 exactly: every layer and component of the cleared two-leg
    stack is unchanged when the legs of its rows and of its columns swap
    (swap is the composite index map of P)."""
    return all(np.array_equal(c[:, swap][:, :, swap], c) for c in stack)


def _ybe_spectral_grid(num: TensorMatrix) -> VerificationReport:
    _single_variable(num)  # refuses a numerator in no variable or in two
    _, _, scale, stack, swap = _cleared_two_leg(num, "Yang-Baxter")
    degree = len(stack[0]) - 1
    symmetric = _leg_symmetric(stack, swap)
    rows = linalg.padded(stack)
    values, lefts, right = {}, {}, {}
    n = num.site_dim
    eye = _three_legs(n)

    def value_at(t):
        if t not in values:
            values[t] = (int_values(stack, t) if rows is None else
                         linalg.Padded(rows.cols, int_values(rows.vals, t)))
        return values[t]

    def first(memo, t, legs):
        """R(t) on legs of the identity, once per argument in memo."""
        if t not in memo:
            memo[t] = linalg.apply_legs(value_at(t), eye, legs)
        return memo[t]

    def diff_at(x, y):
        # W(R(x), R(x+y), R(y)): its outer factors depend on one argument
        # each and are built once by first().  x is grid_report's row, so
        # R12(x) on the identity is kept for one row.
        if x not in right:
            right.clear()
        return _braid_word(value_at(x), value_at(x + y), value_at(y),
                           first(lefts, y, (2, 3)), first(right, x, (1, 2)))

    # With R21 = R12, conjugation by P13 turns R12, R13, R23 into R23, R13,
    # R12, so the right-hand word at (x, y) is P13 L(y, x) P13 for the
    # left-hand word L(x, y) = R12(x) R13(x+y) R23(y): a pair of points
    # mirrored in the diagonal shares its two left-hand words.
    zero = np.broadcast_to(np.int64(0), (n ** 3, n ** 3))
    held = {}

    def word(x, y):
        """L(x, y) with one axis per leg of its rows and of its columns."""
        return [c.reshape((n,) * 6)
                for c in _left_word(value_at(x), value_at(x + y), first(lefts, y, (2, 3)))]

    def minus_mirror(p, q):
        """p - P13 q P13 as (n^3, n^3) components, or views of one zero when
        p = P13 q P13: P13 reverses the order of the legs of the rows and of
        the columns."""
        q = [b.transpose(2, 1, 0, 5, 4, 3) for b in q]
        if all(map(np.array_equal, p, q)):
            return [zero] * len(p)
        return [(a - b).reshape(n ** 3, -1) for a, b in zip(p, q)]

    def mirrored_diff_at(x, y):
        # grid_report walks its square grid row by row, so (y, x) below the
        # diagonal comes after (x, y) and takes the difference held there
        if x > y:
            return held.pop((x, y))
        here = word(x, y)
        if x == y:
            return minus_mirror(here, here)
        there = word(y, x)
        held[y, x] = minus_mirror(there, here)
        return minus_mirror(here, there)

    report = grid_report("ybe-spectral", mirrored_diff_at if symmetric else diff_at,
                         2 * degree, 2 * degree, scale=scale ** 3)
    if degree == 0 and report.witness is not None:
        # with no power of the variable every entry is a scalar, at no
        # monomial, as --method poly reports it
        report = replace(report, witness=replace(report.witness, exponents=()))
    return report


def _ybe_spectral_poly(num: TensorMatrix) -> VerificationReport:
    """Cross-check without a grid: for the cleared layers R_e of the
    numerator, the difference is the sum of a^i (a+b)^k b^l W(R_i, R_k, R_l),
    and every (a, b)-coefficient of it is compared with zero."""
    scale, stack = num.cleared((_single_variable(num),))
    layers = [[c[e] for c in stack] for e in range(len(stack[0]))]
    eye = _three_legs(num.site_dim)
    x12 = [linalg.apply_legs(r, eye, (1, 2)) for r in layers]
    z23 = [linalg.apply_legs(r, eye, (2, 3)) for r in layers]
    coefficients = {}
    for i, k, l in product(range(len(layers)), repeat=3):
        # with no power of the variable every entry is a scalar, at no monomial
        _add_weighted(coefficients, _weights(i, k, l) if len(layers) > 1 else {(): 1},
                      _braid_word(layers[i], layers[k], layers[l], z23[l], x12[i]))
    witness = _first_offence(coefficients, scale ** 3)
    return VerificationReport("ybe-spectral", witness is None, witness)


def check_ybe(r, mode: str | None = None, method: str = "grid") -> VerificationReport:
    """R12 R13 R23 = R23 R13 R12, constant or with spectral arguments.

    In spectral mode the identity is taken at arguments (a, a+b, b); the
    check runs on the cleared numerator, which decides the identity for
    the rational object as well.
    """
    num = _numerator(r)
    if mode is None:
        mode = "spectral" if num.variables() else "constant"
    if num.legs != 2:
        raise ValueError("Yang-Baxter check expects a two-leg matrix")
    dense_dim(num.site_dim, 3)
    if mode == "constant":
        return _ybe_constant(num)
    if mode == "spectral":
        if method == "poly":
            return _ybe_spectral_poly(num)
        if method == "grid":
            return _ybe_spectral_grid(num)
        raise ValueError(f"unknown method {method!r}")
    raise ValueError(f"unknown mode {mode!r}")


# -- classical Yang-Baxter ---------------------------------------------------


# b [X12(a), X13(a+b)] + (a+b) [X12(a), X23(b)] + a [X13(a+b), X23(b)]: the
# legs of each commutator's factors and, for their layers i and j, the
# exponents (x, y, z) of its weight a^x (a+b)^y b^z
_CYBE_TERMS = (((1, 2), (1, 3), lambda i, j: (i, j, 1)),
               ((1, 2), (2, 3), lambda i, j: (i, 1, j)),
               ((1, 3), (2, 3), lambda i, j: (1, i, j)))


def check_cybe(r: TensorMatrix, omega: TensorMatrix | None = None,
               mode: str = "constant") -> VerificationReport:
    """Classical Yang-Baxter identity for r, constant or rational.

    Rational mode checks X(u, v) = omega/(u - v) + r in the two difference
    variables a = u1 - u2, b = u2 - u3 after clearing a (a+b) b; with
    X(t) = omega + t r, of layers [omega, r], each (a, b)-coefficient of
    the residual (_CYBE_TERMS) is a weighted sum of commutators of layers.
    Constant mode has the one layer r and weight 1.  Both modes bring the
    memoised cleared layers to one common scale and apply each factor of a
    commutator on its legs in integers; only the witness becomes a scalar.
    """
    if r.legs != 2:
        raise ValueError("classical Yang-Baxter check expects a two-leg matrix")
    if mode == "rational":
        if omega is None:
            raise ValueError("rational mode needs the invariant tensor omega")
        if (omega.site_dim, omega.legs) != (r.site_dim, r.legs):
            raise ValueError("omega must match r in site_dim and legs")
    elif mode != "constant":
        raise ValueError(f"unknown mode {mode!r}")
    factors = [omega, r] if mode == "rational" else [r]
    scale, layers = _on_one_scale(*(m.cleared() for m in factors))
    eye = _three_legs(r.site_dim)
    on_legs = {(k, legs): linalg.apply_legs(x, eye, legs)
               for k, x in enumerate(layers) for legs in ((1, 2), (1, 3), (2, 3))}
    coefficients = {}
    for s, t, weight in _CYBE_TERMS:
        for i, j in product(range(len(layers)), repeat=2):
            xy = linalg.apply_legs(layers[i], on_legs[j, t], s)
            yx = linalg.apply_legs(layers[j], on_legs[i, s], t)
            _add_weighted(coefficients, _weights(*weight(i, j)) if mode == "rational"
                          else {(): 1}, linalg.int_sum(xy, [-c for c in yx]))
    witness = _first_offence({exps: [c.reshape(-1, c.shape[-1]) for c in comps]
                              for exps, comps in coefficients.items()}, scale ** 2)
    return VerificationReport(f"cybe-{mode}", witness is None, witness)


# -- unitarity, regularity, classical limit ----------------------------------


def _proportional(name: str, var: str, scale: int, stack: list, reference: np.ndarray,
                  spectral: bool) -> VerificationReport:
    """The report on stack / scale = c reference for stack in var, laid out as
    linalg.clear's, and c read at entry (0, 0), where reference is 1.  spectral
    tells whether the matrix compared holds a Poly in var, and so every entry
    as one (linalg.rebuild): its witness then names its power, else none."""
    diff = [c - c[:, :1, :1] * reference for c in stack]
    witness = _first_offence({(e,): [d[e] for d in diff] for e in range(len(diff[0]))}, scale)
    at = [linalg.ext_value(parts, scale) for parts in zip(*(c[:, 0, 0].tolist() for c in stack))]
    c = Poly((var,), {(e,): x for e, x in enumerate(at)}) if any(at[1:]) else at[0]
    if witness is None:
        if c:
            return VerificationReport(name, True, scalar_factor=c)
        witness = Witness(0, 0, (0,), 0)
    if not spectral:
        witness = replace(witness, exponents=())
    return VerificationReport(name, False, witness, scalar_factor=c if c else None)


def _cleared_two_leg(r, check: str):
    """(num, var, scale, stack, swap) for the numerator num of r: linalg.clear
    in its one variable var ("u" when it has none), and the index map of P,
    composite (i, j) -> (j, i)."""
    num = _numerator(r)
    if num.legs != 2:
        raise ValueError(f"{check} check expects a two-leg matrix")
    var, n = _single_variable(num) if num.variables() else "u", num.site_dim
    return (num, var, *num.cleared((var,)),
            np.arange(n * n).reshape(n, n).T.ravel())


def check_unitarity(r) -> VerificationReport:
    """R21 R = c 1, or spectrally R12(u) R21(-u) = f(u) 1 on the cleared
    numerator: R21 swaps the legs of the rows and columns of each layer, and
    -u negates the odd layers."""
    num, var, scale, stack, swap = _cleared_two_leg(r, "unitarity")
    swapped = [c[:, swap][:, :, swap] for c in stack]
    spectral = bool(num.variables())
    if spectral:
        sign = ((-1) ** np.arange(len(stack[0]))).reshape(-1, 1, 1)
        prod = linalg.stack_product(stack, [c * sign for c in swapped], 1)
    else:
        prod = linalg.stack_product(swapped, stack, 1)
    name = "unitarity-spectral" if spectral else "unitarity-constant"
    return _proportional(name, var, scale ** 2, prod, np.eye(len(swap), dtype=np.int64),
                         spectral)


def check_regularity(r) -> VerificationReport:
    """Numerator at u = 0, its layer 0, equals c P for a nonzero scalar c."""
    _, var, scale, stack, swap = _cleared_two_leg(r, "regularity")
    flip = np.eye(len(swap), dtype=np.int64)[swap]
    return _proportional("regularity", var, scale, [c[:1] for c in stack], flip, False)


def check_classical_limit(family: TensorMatrix, r: TensorMatrix) -> VerificationReport:
    """Degree-1 coefficient of a one-parameter family equals the constant r
    exactly.  The family and r are brought to one scale: layer 0 of the family
    must be scale * 1, and layer 1 is compared with r."""
    var = _single_variable(family)
    if r.legs != family.legs or r.site_dim != family.site_dim:
        raise ValueError("candidate classical limit has mismatched shape")
    if r.variables():
        raise ValueError("candidate classical limit must be constant")
    scale, (stack, limit) = _on_one_scale(family.cleared((var,)), r.cleared())
    eye = np.eye(family.size, dtype=object) * scale
    if (stack[0][0] != eye).any() or any(c[0].any() for c in stack[1:]):
        raise ValueError("family does not start at the identity")
    slope = [c[1] for c in stack] if len(stack[0]) > 1 else [np.zeros_like(stack[0][0])]
    witness = _first_offence({(1,): linalg.int_sum(slope, [-c for c in limit])}, scale)
    return VerificationReport("classical-limit", witness is None, witness)
