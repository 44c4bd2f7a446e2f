"""Independent exact arithmetic for checking the program's answers.

Everything here uses the standard library only: `fractions.Fraction`, a
small Q(i, sqrt2) type, dense lists and `json`.  Nothing is imported from
`baxter`, so a check built from these pieces does not share code with what
it checks.

Conventions follow the program's documented ones: a matrix on `legs`
tensor legs of C^n has row-major composite indices, leg 1 most
significant; a spectral file stores each entry as ascending coefficients
of its single variable.
"""

from __future__ import annotations

import json
from fractions import Fraction


class QI2:
    """a + b*sqrt2 + c*i + d*i*sqrt2 with Fraction components."""

    __slots__ = ("parts",)

    def __init__(self, a=0, b=0, c=0, d=0):
        self.parts = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @staticmethod
    def lift(x):
        return x if isinstance(x, QI2) else QI2(x)

    def __add__(self, other):
        o = QI2.lift(other).parts
        return QI2(*(p + q for p, q in zip(self.parts, o)))

    __radd__ = __add__

    def __neg__(self):
        return QI2(*(-p for p in self.parts))

    def __sub__(self, other):
        return self + (-QI2.lift(other))

    def __rsub__(self, other):
        return QI2.lift(other) - self

    def __mul__(self, other):
        a0, a1, a2, a3 = self.parts
        b0, b1, b2, b3 = QI2.lift(other).parts
        return QI2(a0 * b0 + 2 * a1 * b1 - a2 * b2 - 2 * a3 * b3,
                   a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                   a0 * b2 + a2 * b0 + 2 * a1 * b3 + 2 * a3 * b1,
                   a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QI2(other)
        if not isinstance(other, QI2):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __bool__(self):
        return any(self.parts)

    def __repr__(self):
        return f"QI2{tuple(str(p) for p in self.parts)}"


# -- reading the program's files ------------------------------------------


def parse_scalar(obj, field: str):
    """A serialized scalar: "p/q" over Q, four such strings over Q(i,sqrt2)."""
    if field == "Q(i,sqrt2)" or isinstance(obj, list):
        value = QI2(*(Fraction(c) for c in obj))
        a, b, c, d = value.parts
        return a if not (b or c or d) else value
    return Fraction(obj)


def load(path) -> dict:
    """A serialized object as plain data.

    Matrix-like kinds ('matrix', 'spectral', 'chain') gain 'coeffs': a
    list of rows, each entry the list of its ascending coefficients (one
    coefficient for a constant matrix).
    """
    with open(path) as handle:
        payload = json.load(handle)
    if "entries" in payload:
        field = payload["field"]
        if payload["variables"]:
            payload["coeffs"] = [[[parse_scalar(c, field) for c in cell] for cell in row]
                                 for row in payload["entries"]]
        else:
            payload["coeffs"] = [[[parse_scalar(cell, field)] for cell in row]
                                 for row in payload["entries"]]
    return payload


def poly_at(coeffs, t):
    """Horner evaluation of ascending coefficients at t."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * t + c
    return total


def matrix_at(coeffs, t):
    return [[poly_at(cell, t) for cell in row] for row in coeffs]


def coefficient(coeffs, power: int):
    return [[cell[power] if power < len(cell) else Fraction(0) for cell in row]
            for row in coeffs]


# -- dense matrices and vectors --------------------------------------------


def identity(size: int):
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def mat_add(a, b, scale=1):
    return [[x + scale * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
             for col in cols] for row in a]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a]


def permutation(n: int):
    """P on two legs: P(e_i x e_j) = e_j x e_i."""
    out = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            out[i * n + j][j * n + i] = Fraction(1)
    return out


def swapped(m, n: int):
    """R -> R21: both legs of a two-leg matrix read in swapped order."""
    def flip(k):
        return (k % n) * n + k // n
    size = n * n
    return [[m[flip(i)][flip(j)] for j in range(size)] for i in range(size)]


def apply_two_leg(m, n: int, legs: int, pair, vector):
    """(M acting on legs pair = (s, t), 0-based, identity elsewhere) @ vector."""
    s, t = pair
    stride_s = n ** (legs - 1 - s)
    stride_t = n ** (legs - 1 - t)
    rows = [[(a * stride_s + b * stride_t, m[row][a * n + b])
             for a in range(n) for b in range(n) if m[row][a * n + b]]
            for row in range(n * n)]
    out = []
    for idx in range(n ** legs):
        ds = (idx // stride_s) % n
        dt = (idx // stride_t) % n
        base = idx - ds * stride_s - dt * stride_t
        out.append(sum((value * vector[base + offset]
                        for offset, value in rows[ds * n + dt]), Fraction(0)))
    return out


def embed_two_leg(m, n: int, legs: int, pair):
    """The dense n^legs matrix of M acting on legs pair (0-based)."""
    size = n ** legs
    columns = []
    for j in range(size):
        unit = [Fraction(0)] * size
        unit[j] = Fraction(1)
        columns.append(apply_two_leg(m, n, legs, pair, unit))
    return [list(row) for row in zip(*columns)]


def vandermonde_solve(points, values):
    """Ascending coefficients c with sum_k c_k x^k = value at each point."""
    size = len(points)
    rows = [[Fraction(x) ** k for k in range(size)] + [Fraction(v)]
            for x, v in zip(points, values)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[k][size] for k in range(size)]


def bivariate_coefficients(f, degree_a: int, degree_b: int, points_a, points_b):
    """c[i][j] with f(a, b) = sum c[i][j] a^i b^j, from values on a grid.

    f must be a polynomial of degree at most degree_a in a and degree_b in
    b; points_a and points_b must hold degree_a + 1 and degree_b + 1
    distinct values.
    """
    if len(points_a) != degree_a + 1 or len(points_b) != degree_b + 1:
        raise ValueError("grid does not match the degree bound")
    table = [[f(a, b) for b in points_b] for a in points_a]
    along_b = [vandermonde_solve(points_b, row) for row in table]          # [a point][j]
    by_power = [vandermonde_solve(points_a, col) for col in zip(*along_b)]  # [j][i]
    return [list(row) for row in zip(*by_power)]
