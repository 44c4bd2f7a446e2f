"""Exact verifiers for the Yang-Baxter family of identities.

Identities are decided on integer layers cleared by linalg.clear, with
factors applied on their legs by linalg.apply_word, which carries each
word's bounds from factor to factor; only the constant braid
identity forms object products, of the integer numerator, whose entries
need no clearing.  The braid and the classical identity are term tables,
_BRAID and _CLASSICAL, of weighted differences of words on three legs,
and one routine, _word, applies a word to the identity on three legs.
Every word is held on sector-packed columns (_Packed): the three-leg basis
states split into sectors, the connected components of the states that
some factor links (_sectors), every word is block diagonal by sector, and
row r keeps only the columns of r's sector, B slots for B the largest
sector, where a dense word keeps n^3.  Witnesses map a slot back to its
column.  Small identities hold every word at one sector, B = n^3, by a
measured rule (_three_legs).
The spectral grid takes the braid table at the points of a grid of
degree + 1 points in each variable, (2d+1)^2 for a numerator of degree d,
so vanishing there is identical vanishing; the witness is interpolated
from the grid with the integer Lagrange weights.  When R21 = R12 exactly
on the cleared numerator, the right-hand word at (x, y) is P13 L(y, x) P13
for the left-hand word L(x, y), and the grid builds left-hand words alone.
The method "poly" and the classical identity compare every
(a, b)-coefficient of their table over the monomial layers instead.

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
    nonzero = np.logical_or.reduce([a != 0 for a in arrays])
    # argmax finds the first True without listing every nonzero entry
    at = int(nonzero.argmax())
    return divmod(at, nonzero.shape[1]) if nonzero.flat[at] else None


def _first_offence(layers: dict, scale: int, columns=None):
    """The witness of every check but the spectral grid: the first entry, in
    row-major order, that is nonzero in some layer, at its lowest monomial,
    divided by scale, or None.  layers maps exponent tuples to component
    lists of integer matrices; with columns, they are packed words (see
    _Packed), whose slot j of row r is column columns[r, j]."""
    best = None
    for exps, comps in layers.items():
        hit = _first_int_hit(comps)
        if hit is not None and (best is None or (*hit, exps) < best[0]):
            best = ((*hit, exps), comps)
    if best is None:
        return None
    (row, col, exps), comps = best
    value = linalg.ext_value([int(c[row, col]) for c in comps], scale)
    return Witness(row, col if columns is None else int(columns[row, col]), exps, value)


def _on_one_scale(*cleared) -> tuple:
    """(scale, stacks) for the (scale, stack) pairs of matrices cleared one
    by one: each stack brought to the lcm of the scales, the common
    denominator that clearing them jointly finds."""
    scale = math.lcm(*(s for s, _ in cleared))
    return scale, [linalg.scaled(stack, scale // s) for s, stack in cleared]


# entries of a dense three-leg word times the square of the factors'
# layers, up to which every word is held at one sector (see _three_legs)
PACKED_WORK = 2 ** 12


def _sectors(n: int, layers: list) -> np.ndarray:
    """The sector of every three-leg basis state i1 n^2 + i2 n + i3, named by
    its smallest state.

    Two states are linked when a factor can connect them: some component
    of some layer, layers being component lists of (n^2, n^2) integer
    matrices, has a nonzero between them on legs (1, 2), (1, 3) or (2, 3).
    The sectors are the connected components of the links, read off the
    matrix: they are at least as fine as any additive grading, and exist
    where there is none.  Each pass takes, leg pair by leg pair, the
    smallest label among a state's neighbours and itself, and then the
    label of that label; labels only fall and stay states of their own
    sector, and a pass that changes nothing leaves every link joining equal
    labels."""
    m = n * n
    linked = np.logical_or.reduce([c != 0 for layer in layers for c in layer])
    linked = linked | linked.T | np.eye(m, dtype=bool)
    # every two-leg index links itself, so each has one run of links, in order
    near = linked.nonzero()[1]
    starts = np.concatenate(([0], linked.sum(axis=1).cumsum()[:-1]))
    labels = np.arange(m * n)
    while True:
        old = labels
        # legs (1, 2), (1, 3) and (2, 3) in turn, each as the rows of an
        # (n^2, n) view of the labels
        labels = np.minimum.reduceat(labels.reshape(m, n)[near], starts).ravel()
        labels = labels.reshape(n, n, n).transpose(0, 2, 1).reshape(m, n)
        labels = np.minimum.reduceat(labels[near], starts).reshape(n, n, n).transpose(0, 2, 1)
        labels = np.minimum.reduceat(labels.reshape(n, m).T[near], starts).T.ravel()
        labels = labels[labels]
        # all labels 0 is one sector, which no further pass changes
        if not labels.any() or np.array_equal(labels, old):
            return labels


class _Packed:
    """Three-leg words on sector-packed columns.

    Every factor of a word is a two-leg matrix whose nonzeros lie in the
    links _sectors reads, so it maps each sector's states into that sector:
    applied on any two legs, it mixes only rows of one sector.  The
    identity is block diagonal by sector, and a factor applied to a block
    diagonal matrix keeps it block diagonal, so by induction every word
    is.  Row r of a word therefore needs only the columns of r's sector:
    slot j of row r holds the j-th column of that sector, in ascending
    order (columns), and the B slots of a row, B the largest sector, are
    padded past its sector's size.  All rows of a sector share one column
    list, so a factor, mixing rows of one sector, mixes slots of one column
    each, and linalg.apply_word, padded rows and the carried bounds run on
    the (n, n, n, B) words as on dense ones.  Padding slots start at zero
    in the identity (eye) and stay zero: a padding slot of row r is a sum
    of the same slot over rows of r's sector, all padding.  Within a row,
    slot order is column order, so the first nonzero slot in row-major
    order is the first nonzero entry of the dense word, at the column its
    slot maps to."""
    __slots__ = ("n", "columns", "slot", "eye")

    def __init__(self, n: int, labels: np.ndarray):
        count = len(labels)
        order = np.argsort(labels, kind="stable")
        sizes = np.bincount(labels, minlength=count)
        # a state's slot is its rank in its sector, in ascending order
        rank = np.arange(count) - (sizes.cumsum() - sizes)[labels[order]]
        width = int(sizes.max())
        # row s lists the columns of the sector named s, then padding
        # columns n^3, n^3 + 1, ..., so slot order is column order
        table = np.tile(np.arange(count, count + width), (count, 1))
        table[labels[order], rank] = order
        self.n, self.columns, self.slot = n, table[labels], np.empty_like(rank)
        self.slot[order] = rank
        # the identity on three legs, one int64 component, read-only
        eye = np.zeros((count, width), dtype=np.int64)
        eye[np.arange(count), self.slot] = 1
        eye.flags.writeable = False
        self.eye = [eye.reshape(n, n, n, width)]

    def mirror(self) -> np.ndarray:
        """The flat positions of P13 W P13 in a packed word W, as an (n^3, B)
        index into W's flat entries.  (P13 W P13) at row r and column c is
        W at P13 r and P13 c, for P13 the swap of legs 1 and 3, so slot j of
        row r takes the slot of P13 columns[r, j] in row P13 r.  That slot
        lies in row P13 r's sector when P13 maps sectors to sectors, as it
        does when R21 = R12; a padding column is its own mirror."""
        n, (count, width) = self.n, self.columns.shape
        flip = np.arange(count).reshape(n, n, n).transpose(2, 1, 0).ravel()
        flip = np.concatenate([flip, np.arange(count, count + width)])
        slot = np.concatenate([self.slot, np.arange(width)])
        return flip[:count, None] * width + slot[flip[self.columns]]


@cache
def _one_sector(n: int) -> _Packed:
    """Every three-leg state of C^n in one sector, B = n^3: the dense
    layout, kept for each n as its identity is read-only."""
    return _Packed(n, np.zeros(n ** 3, dtype=np.intp))


def _three_legs(n: int, layers: list) -> _Packed:
    """The packed columns of the three-leg words of factors with the given
    layers (see _sectors), refused above the dense limit before anything is
    allocated.

    Sectors are sought when n^6 L^2 exceeds PACKED_WORK, for L layers:
    the entries of a dense word times a measure of how many words an
    identity builds, as the grid's (2L-1)^2 points and the classical
    modes' L^2 layer pairs grow.  Below it packing costs more than it
    saves (CHANGES.md gives the timings).  Otherwise, and when the sectors
    found are one, every word is held at one sector, B = n^3, by the same
    code."""
    count = dense_dim(n, 3)
    labels = _sectors(n, layers) if count * count * len(layers) ** 2 > PACKED_WORK else None
    return _one_sector(n) if labels is None or not labels.any() else _Packed(n, labels)


# The identities on three legs as sums of weighted differences of words.  A
# factor is (argument, legs), for the arguments a, a+b and b numbered 0, 1
# and 2; a term (weight, p, q) is a^x (a+b)^y b^z (p - q) for the powers
# (x, y, z) of its weight and the words p and q, their factors left to right.
_12A, _13AB, _23B = (0, (1, 2)), (1, (1, 3)), (2, (2, 3))
# R12(a) R13(a+b) R23(b) - R23(b) R13(a+b) R12(a)
_BRAID = (((0, 0, 0), (_12A, _13AB, _23B), (_23B, _13AB, _12A)),)
# b [X12(a), X13(a+b)] + (a+b) [X12(a), X23(b)] + a [X13(a+b), X23(b)]
_CLASSICAL = tuple((weight, (x, y), (y, x)) for weight, x, y in
                   (((0, 0, 1), _12A, _13AB), ((0, 1, 0), _12A, _23B), ((1, 0, 0), _13AB, _23B)))


def _word(word, point, value, eye, memo: dict) -> list:
    """The product of word's factors applied to eye, the identity on three
    legs, as components of shape (n, n, n, B) (see _Packed).  A factor
    (argument, legs) is value[point[argument]] on legs, value holding
    two-leg matrices held by linalg.hold.  linalg.apply_word applies the
    rightmost factor first, keeps that application in memo, and carries
    each product's bound to the next factor, so the word is scanned only
    where its bound cannot prove the int32 tier and is widened to int64
    once, as it leaves."""
    return linalg.apply_word([(value[point[arg]], legs) for arg, legs in reversed(word)],
                             eye, memo)


def _coefficients(terms, layers: list, eye, constant: bool) -> dict:
    """{monomial: (n^3, B) components}: every (a, b)-coefficient of the sum
    of the terms when each factor is X(t) = sum_e t^e layers[e] at its
    argument t.  The words of the layers (e_a, e_ab, e_b) of their arguments
    take the weight a^(x+e_a) (a+b)^(y+e_ab) b^(z+e_b) for their term's
    weight (x, y, z), and a^x (a+b)^y b^z is the sum of comb(y, m) a^(x+m)
    b^(y-m+z); with constant every weight is 1, at the one monomial ().
    A word's int64 entries are below 2**62 (linalg.int_product), so p - q
    is exact; the sums go to Python ints where int64 could overflow.  Each
    difference is scanned once, and each sum carries the sum of its terms'
    bounds, so no sum is rescanned as it grows."""
    sums, bounds, memo = {}, {}, {}
    layers, eye = [linalg.hold(layer) for layer in layers], linalg.hold(eye)
    for weight, left, right in terms:
        used = {arg for arg, _ in left}
        # an argument the term does not use stays at layer 0, of power 0
        for point in product(*(range(len(layers) if arg in used else 1) for arg in range(3))):
            x, y, z = [w + e for w, e in zip(weight, point)]
            # p and q stay held until the next pick: freed at once, their memory
            # went back to the system, and the rational classical identity at
            # n = 6 took twice the page faults
            p, q =_word(left, point, layers, eye, memo), _word(right, point, layers, eye, memo)
            diff = [(a - b).reshape(-1, a.shape[-1]) for a, b in zip(p, q)]
            top = max(map(linalg.max_abs, diff))
            for m in range(1 if constant else y + 1):
                at, times = () if constant else (x + m, y - m + z), math.comb(y, m)
                part = linalg.scaled(diff, times, top)
                if at in sums:
                    sums[at] = linalg.int_sum(sums[at], part, bounds=(bounds[at], top * times))
                    bounds[at] += top * times
                else:
                    sums[at], bounds[at] = part, top * times
    return sums


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


def grid_report(identity_name, diff_at, degree_a, degree_b, scale=1,
                columns=None) -> VerificationReport:
    """Check a bivariate polynomial matrix identity on a conclusive grid.

    diff_at(x, y) returns the integer components (see linalg.int_product)
    of the scaled difference matrix at integer points, or no components
    where it is known to be zero.  They are int64 or Python ints, as the
    kernel hands them out: the words behind them carry their bounds in
    int32 through linalg.apply_word and are widened once, as they leave.
    A point is first tested for zero by counting its nonzeros, and only a
    nonzero point has its first nonzero entry located.  The grid is
    0..degree_a by 0..degree_b: a polynomial of degree at most degree_a in
    x and degree_b in y that vanishes there is zero (Alon, Combinatorial
    Nullstellensatz, Lemma 2.1), so all-zero on the grid proves the
    identity.  The witness is the first nonzero coefficient, in row-major
    order of its exponents, of the first offending entry, divided by scale
    to return to unscaled units.  With columns, the components are packed
    words (see _Packed): slot order is column order within a row, so the
    first nonzero slot is the first nonzero entry, at column
    columns[row, slot].
    """
    grid = (degree_a + 1, degree_b + 1)
    # The witness entry is the first nonzero one, in row-major order, over
    # the whole grid.  No later entry can be it, so each point keeps only
    # its flat prefix up to the first nonzero entry seen so far, and a
    # point before the first nonzero one keeps nothing: it is zero there.
    first, kept = None, {}
    for x, y in product(*map(range, grid)):
        comps = diff_at(x, y)
        # most points are zero: a count of nonzeros, cheaper than .any() on
        # integer arrays, tells them apart before a hit is located
        hit = _first_int_hit(comps) if any(map(np.count_nonzero, comps)) else None
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
    if columns is not None:
        col = int(columns[row, col])
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
    n = num.site_dim
    packed = _three_legs(n, [[c[e] for c in stack] for e in range(degree + 1)])
    rows = linalg.padded(stack)
    # R at every argument the grid takes, x, y and x + y up to 4 degree,
    # scanned and converted once
    values = [linalg.hold(int_values(stack, t) if rows is None else
                          linalg.Padded(rows.cols, int_values(rows.vals, t)))
              for t in range(4 * degree + 1)]
    lefts, rights = {}, {}
    eye = linalg.hold(packed.eye)
    ((_, left, right),) = _BRAID

    def diff_at(x, y):
        # the braid table at (a, a+b, b) = (x, x+y, y).  Each word's first
        # factor is memoised: R23(y) for every y, and R12(x) for its row
        # only, which grid_report starts at y = 0.
        if y == 0:
            rights.clear()
        point = (x, x + y, y)
        return [(p - q).reshape(n ** 3, -1)
                for p, q in zip(_word(left, point, values, eye, lefts),
                                _word(right, point, values, eye, rights))]

    # With R21 = R12, conjugation by P13 turns R12, R13, R23 into R23, R13,
    # R12, so the right-hand word at (x, y) is P13 L(y, x) P13 for the
    # left-hand word L(x, y) = R12(x) R13(x+y) R23(y): a pair of points
    # mirrored in the diagonal shares its two left-hand words.
    held, mirror = {}, packed.mirror() if symmetric else None

    def word(x, y):
        """L(x, y) as (n^3, B) components."""
        return [c.reshape(n ** 3, -1) for c in _word(left, (x, x + y, y), values, eye, lefts)]

    def minus_mirror(p, q):
        """p - P13 q P13, or no components when they are equal (see
        _Packed.mirror)."""
        q = [b.reshape(-1)[mirror] for b in q]
        if all(map(np.array_equal, p, q)):
            return []
        return [a - b for a, b in zip(p, q)]

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
                         2 * degree, 2 * degree, scale=scale ** 3, columns=packed.columns)
    if degree == 0 and report.witness is not None:
        # with no power of the variable every entry is a scalar, at no
        # monomial, as --method poly reports it
        report = replace(report, witness=replace(report.witness, exponents=()))
    return report


def _ybe_spectral_poly(num: TensorMatrix) -> VerificationReport:
    """Cross-check without a grid: every (a, b)-coefficient of the braid
    table over the cleared layers of the numerator is compared with zero."""
    scale, stack = num.cleared((_single_variable(num),))
    layers = [[c[e] for c in stack] for e in range(len(stack[0]))]
    packed = _three_legs(num.site_dim, layers)
    # with no power of the variable every entry is a scalar, at no monomial
    coefficients = _coefficients(_BRAID, layers, packed.eye, len(layers) == 1)
    witness = _first_offence(coefficients, scale ** 3, packed.columns)
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


def check_cybe(r: TensorMatrix, omega: TensorMatrix | None = None,
               mode: str = "constant") -> VerificationReport:
    """Classical Yang-Baxter identity for r, constant or rational.

    Rational mode checks X(u, v) = omega/(u - v) + r in the two difference
    variables a = u1 - u2, b = u2 - u3 after clearing a (a+b) b; with
    X(t) = omega + t r, of layers [omega, r], each (a, b)-coefficient of
    the residual, the table _CLASSICAL, is compared with zero.  Constant
    mode has the one layer r and weight 1.  Both modes bring the memoised
    cleared layers to one common scale and build the words in integers;
    only the witness becomes a scalar.
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
    packed = _three_legs(r.site_dim, layers)
    coefficients = _coefficients(_CLASSICAL, layers, packed.eye, mode == "constant")
    witness = _first_offence(coefficients, scale ** 2, packed.columns)
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
