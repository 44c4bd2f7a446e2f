"""Square matrices on tensor powers of C^n with exact entries.

A TensorMatrix acts on (C^n)^{tensor legs} and stores its entries densely.
The composite basis is row-major: e_{i1} tensor ... tensor e_{il} has index
((i1-1)*n + (i2-1))*n + ... with 1-based leg indices.  Entries are exact
scalars or Poly values; floats never enter.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .poly import Poly
from .scalars import is_exact_scalar


# The largest dense dimension site_dim ** legs: a matrix of that side has
# 2**24 entries, and a three-leg check works in site_dim ** 3.
MAX_DENSE_DIM = 4096


class ShapeError(ValueError):
    pass


def dense_dim(site_dim: int, legs: int) -> int:
    """site_dim ** legs, refused with ShapeError above MAX_DENSE_DIM before
    anything of that size, or the power itself for huge legs, is computed."""
    if (site_dim > 1 and legs > MAX_DENSE_DIM.bit_length()
            or site_dim ** legs > MAX_DENSE_DIM):
        raise ShapeError(f"{site_dim}^{legs} exceeds the dense limit {MAX_DENSE_DIM}")
    return site_dim ** legs


def _leg_reorder(n: int, legs: int, source: tuple) -> np.ndarray:
    """Index map p with p[new] = old, where old leg k is new leg source[k].

    Reindexing a matrix M by p on rows and columns therefore makes old
    leg k act on the new leg position source[k].
    """
    axes = np.argsort([s - 1 for s in source])
    return np.arange(n ** legs).reshape((n,) * legs).transpose(axes).ravel()


class TensorMatrix:
    """An immutable square matrix on legs tensor factors of C^site_dim.

    variables() and cleared(names), linalg.clear of the entries, are
    computed once and kept read-only in a memo.  A matrix known by its
    cleared stack (from_cleared: the chain operators and every matrix the
    reader makes) starts with that memo seeded and rebuilds its entries on
    first read.
    """
    __slots__ = ("site_dim", "legs", "_data", "_memo")

    def __init__(self, site_dim: int, legs: int, entries):
        if site_dim < 1 or legs < 1:
            raise ValueError("site_dim and legs must be positive")
        size = dense_dim(site_dim, legs)
        if isinstance(entries, np.ndarray):
            data = entries.astype(object, copy=True)
        else:
            data = linalg.object_matrix(entries)
        if data.shape != (size, size):
            raise ValueError(f"expected {size}x{size} entries, got {data.shape}")
        for idx, x in np.ndenumerate(data):
            if isinstance(x, bool) or not (is_exact_scalar(x) or isinstance(x, Poly)):
                raise TypeError(f"inexact entry {x!r} at {idx}")
        self._set(site_dim, legs, data)

    def _set(self, site_dim, legs, data):
        if data is not None:
            data.flags.writeable = False
        object.__setattr__(self, "site_dim", site_dim)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def from_cleared(cls, site_dim: int, legs: int, names, scale: int,
                     stack: list) -> "TensorMatrix":
        """The matrix stack / scale, for a stack laid out as linalg.clear lays
        it out in names, at most one variable, and not always in lowest terms.

        cleared(names) is seeded with the lowest terms, which are
        linalg.clear(data, names) exactly, and variables() with names.  data
        is rebuilt on first read: all Polys in names, or all scalars without
        names.  The arrays may be kept: no one else may write to them.
        """
        names, size = tuple(names), dense_dim(site_dim, legs)
        if len(names) > 1 or stack[0].shape[len(names):] != (size, size):
            raise ValueError(f"expected a stack of {size}x{size} matrices in at most one "
                             f"variable, got shape {stack[0].shape} in {names}")
        # lowest_terms reads one layer axis, which a constant has for the call
        scale, lowest = linalg.lowest_terms(scale, stack if names else [c[None] for c in stack])
        out = object.__new__(cls)
        out._set(site_dim, legs, None)
        out._seed(names, scale, lowest if names else [c[0] for c in lowest])
        out._memo["variables"] = names
        return out

    @property
    def data(self) -> np.ndarray:
        """The entries as a read-only object array, as given; for a matrix
        known by its stack, as linalg.rebuild makes them (see from_cleared)."""
        if self._data is None:
            names = self._memo["variables"]
            scale, stack = self._memo[names]
            data = linalg.rebuild(scale, names, stack)
            data.flags.writeable = False
            object.__setattr__(self, "_data", data)
        return self._data

    @classmethod
    def _checked(cls, site_dim: int, legs: int, data: np.ndarray) -> "TensorMatrix":
        """A matrix on an object array that no one else writes to, whose
        entries are ring combinations of checked entries and exact scalars,
        and therefore exact: the entry loop of __init__ is skipped."""
        if data.shape != (site_dim ** legs,) * 2:
            raise ValueError(f"expected {site_dim ** legs}x{site_dim ** legs} entries, "
                             f"got {data.shape}")
        out = object.__new__(cls)
        out._set(site_dim, legs, data)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TensorMatrix is immutable")

    def _seed(self, names: tuple, scale: int, stack: list) -> None:
        """Keep (scale, stack), made read-only, as cleared(names)."""
        for c in stack:
            c.flags.writeable = False
        self._memo[names] = (scale, stack)

    def cleared(self, names=()):
        """linalg.clear(self.data, names), computed once per names; its
        arrays are read-only.  When every variable is among names and the
        matrix is cleared in those it has, the stack is that one with a unit
        axis for each name it lacks, and data is not read."""
        names = tuple(names)
        if names not in self._memo:
            own = tuple(v for v in names if v in self.variables())
            if own in self._memo and set(self.variables()) <= set(names):
                scale, stack = self._memo[own]
                lacking = [k for k, v in enumerate(names) if v not in own]
                self._seed(names, scale, [np.expand_dims(c, tuple(lacking)) for c in stack])
            else:
                self._seed(names, *linalg.clear(self.data, names))
        scale, stack = self._memo[names]
        return scale, list(stack)

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, site_dim: int, legs: int = 1) -> "TensorMatrix":
        size = dense_dim(site_dim, legs)
        data = np.zeros((size, size), dtype=object)
        for i in range(size):
            data[i, i] = 1
        return cls(site_dim, legs, data)

    @classmethod
    def zero(cls, site_dim: int, legs: int = 1) -> "TensorMatrix":
        size = dense_dim(site_dim, legs)
        return cls(site_dim, legs, np.zeros((size, size), dtype=object))

    @classmethod
    def from_entries(cls, site_dim, legs, mapping) -> "TensorMatrix":
        """Build from {(row, col): value} with 0-based composite indices."""
        size = dense_dim(site_dim, legs)
        data = np.zeros((size, size), dtype=object)
        for (i, j), value in mapping.items():
            data[i, j] = value
        return cls(site_dim, legs, data)

    @property
    def size(self) -> int:
        return self.site_dim ** self.legs

    # -- ring operations ---------------------------------------------------

    def _like(self, data: np.ndarray) -> "TensorMatrix":
        return TensorMatrix(self.site_dim, self.legs, data)

    def _derived(self, data: np.ndarray) -> "TensorMatrix":
        return TensorMatrix._checked(self.site_dim, self.legs, data)

    def _check_same(self, other: "TensorMatrix"):
        if not isinstance(other, TensorMatrix):
            raise TypeError(f"TensorMatrix expected, got {type(other).__name__}")
        if (self.site_dim, self.legs) != (other.site_dim, other.legs):
            raise ValueError(
                f"shape mismatch: {self.site_dim}^{self.legs} vs "
                f"{other.site_dim}^{other.legs}")

    def __add__(self, other):
        self._check_same(other)
        return self._derived(self.data + other.data)

    def __sub__(self, other):
        self._check_same(other)
        return self._derived(self.data - other.data)

    def __neg__(self):
        return self._derived(-self.data)

    def __mul__(self, scalar):
        if not (is_exact_scalar(scalar) or isinstance(scalar, Poly)):
            return NotImplemented
        return self._derived(self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_same(other)
        return self._derived(linalg.matmul(self.data, other.data))

    def __eq__(self, other):
        if not isinstance(other, TensorMatrix):
            return NotImplemented
        if (self.site_dim, self.legs) != (other.site_dim, other.legs):
            return False
        return bool((self.data == other.data).all())

    def __hash__(self):
        return hash((self.site_dim, self.legs))

    def is_zero(self) -> bool:
        return all(not x for x in self.data.flat)

    def transpose(self) -> "TensorMatrix":
        return self._derived(self.data.T)

    def inverse(self) -> "TensorMatrix":
        return self._like(linalg.inverse(self.data))

    def reindexed(self, perm: np.ndarray) -> "TensorMatrix":
        return self._derived(self.data[np.ix_(perm, perm)])

    # -- polynomial entries --------------------------------------------------

    def variables(self) -> tuple:
        memo = self._memo
        if "variables" not in memo:
            names = set()
            for x in self.data.flat:
                if isinstance(x, Poly):
                    names.update(x.vars)
            memo["variables"] = tuple(sorted(names))
        return memo["variables"]

    def substitute(self, assignment: dict) -> "TensorMatrix":
        out = np.empty(self.data.shape, dtype=object)
        for idx, x in np.ndenumerate(self.data):
            if isinstance(x, Poly):
                keep = {k: v for k, v in assignment.items() if k in x.vars}
                out[idx] = x.substitute(keep) if keep else x
            else:
                out[idx] = x
        return self._like(out)

    def coefficient(self, var: str, power: int) -> "TensorMatrix":
        """Matrix of coefficients of var**power (entries constant in var)."""
        out = np.empty(self.data.shape, dtype=object)
        for idx, x in np.ndenumerate(self.data):
            if isinstance(x, Poly) and var in x.vars:
                i = x.vars.index(var)
                picked = {e[:i] + e[i + 1:]: c for e, c in x.coeffs.items()
                          if e[i] == power}
                rest = x.vars[:i] + x.vars[i + 1:]
                p = Poly(rest, picked)
                out[idx] = p.constant_value() if p.is_constant() else p
            else:
                out[idx] = x if power == 0 else 0
        return self._like(out)

    def __repr__(self):
        return (f"TensorMatrix(site_dim={self.site_dim}, legs={self.legs},\n"
                f"{self.data})")


# -- basic single-leg matrices -------------------------------------------


def matrix_unit(n: int, i: int, j: int) -> TensorMatrix:
    """E_ij with 1-based indices: the matrix sending e_j to e_i."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) out of range 1..{n}")
    return TensorMatrix.from_entries(n, 1, {(i - 1, j - 1): 1})


def anti_diagonal_form(n: int) -> TensorMatrix:
    """The bilinear form J with J[i, n+1-i] = 1."""
    return TensorMatrix.from_entries(n, 1, {(i, n - 1 - i): 1 for i in range(n)})


# -- tensor-leg operations --------------------------------------------------


def kron(a: TensorMatrix, b: TensorMatrix) -> TensorMatrix:
    """Tensor product; legs add, leg 1 of the result is leg 1 of a."""
    if a.site_dim != b.site_dim:
        raise ValueError(f"site_dim mismatch {a.site_dim} vs {b.site_dim}")
    dense_dim(a.site_dim, a.legs + b.legs)
    prod = np.multiply.outer(a.data, b.data)
    data = prod.transpose(0, 2, 1, 3).reshape(a.size * b.size, a.size * b.size)
    return TensorMatrix._checked(a.site_dim, a.legs + b.legs, data)


def permutation_op(n: int) -> TensorMatrix:
    """P with P(x tensor y) = y tensor x."""
    dense_dim(n, 2)
    entries = {}
    for i in range(n):
        for j in range(n):
            entries[i * n + j, j * n + i] = 1
    return TensorMatrix.from_entries(n, 2, entries)


def swap_factors(m: TensorMatrix) -> TensorMatrix:
    """R -> R^{21}: conjugation by P, i.e. both legs read in swapped order."""
    if m.legs != 2:
        raise ValueError("swap_factors acts on two-leg matrices")
    perm = _leg_reorder(m.site_dim, 2, (2, 1))
    return m.reindexed(perm)


def embed_two_leg(m: TensorMatrix, total_legs: int, pair) -> TensorMatrix:
    """Embed a two-leg matrix so its factors act on legs pair = (s, t)."""
    s, t = pair
    if m.legs != 2:
        raise ValueError("embed_two_leg expects a two-leg matrix")
    if s == t or not (1 <= s <= total_legs and 1 <= t <= total_legs):
        raise ValueError(f"invalid leg pair {pair} for {total_legs} legs")
    n = m.site_dim
    rest = TensorMatrix.identity(n, total_legs - 2) if total_legs > 2 else None
    wide = kron(m, rest) if rest is not None else m
    # wide has m's legs at positions (1, 2); reindex so they act on (s, t):
    # old leg 1 reads new leg s, old leg 2 reads new leg t, the identity
    # legs read the remaining positions in order.
    source = (s, t) + tuple(k for k in range(1, total_legs + 1) if k not in (s, t))
    perm = _leg_reorder(n, total_legs, source)
    return wide.reindexed(perm)


def embed_pair(m: TensorMatrix, pair) -> TensorMatrix:
    """Embed a two-leg matrix into three legs at pair in {(1,2),(1,3),(2,3)}."""
    pair = tuple(pair)
    if pair not in {(1, 2), (1, 3), (2, 3)}:
        raise ValueError(f"invalid pair {pair}")
    return embed_two_leg(m, 3, pair)


def partial_transpose_first(m: TensorMatrix) -> TensorMatrix:
    """Transpose in the first tensor factor only."""
    if m.legs != 2:
        raise ValueError("partial transpose acts on two-leg matrices")
    n = m.site_dim
    rest = m.size // n
    four = m.data.reshape(n, rest, n, rest)
    data = four.transpose(2, 1, 0, 3).reshape(m.size, m.size)
    return TensorMatrix(m.site_dim, m.legs, data)


def form_transpose_first(m: TensorMatrix, form: TensorMatrix | None = None) -> TensorMatrix:
    """(G tensor 1) . m^{t1} . (G^{-1} tensor 1) for a bilinear form G."""
    if m.legs != 2:
        raise ValueError("form_transpose_first acts on two-leg matrices")
    flipped = partial_transpose_first(m)
    if form is None:
        return flipped
    if form.legs != 1 or form.site_dim != m.site_dim:
        raise ValueError("form must be a single-leg matrix of matching dimension")
    one = TensorMatrix.identity(m.site_dim, 1)
    left = kron(form, one)
    right = kron(form.inverse(), one)
    return left @ flipped @ right


def structure_op(kind: str, n: int, form: TensorMatrix | None = None) -> TensorMatrix:
    """Named two-leg operators: P, K, and the orthogonal Casimir image.

    casimir_so is P - K, with K taken with respect to the given bilinear
    form (identity when omitted).
    """
    if kind == "P":
        return permutation_op(n)
    if kind == "K":
        return form_transpose_first(permutation_op(n), form)
    if kind == "casimir_so":
        p = permutation_op(n)
        return p - form_transpose_first(p, form)
    raise ValueError(f"unknown operator kind {kind!r}")

