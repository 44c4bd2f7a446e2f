"""Constructors for the r- and R-matrices the library studies.

Constant solutions live on two tensor legs over an exact field.  Spectral
solutions are stored as a polynomial-entry numerator together with the
cleared scalar denominator, so every later check runs on the numerator
and stays exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly
from .scalars import Ext, IM, SQRT2
from .tensor import (
    TensorMatrix,
    anti_diagonal_form,
    kron,
    matrix_unit,
    permutation_op,
    structure_op,
    swap_factors,
)

HALF = Fraction(1, 2)


class Realization(enum.Enum):
    """Which copy of the orthogonal algebra the operators are written in."""

    SKEW = "skew"
    ANTIDIAG = "antidiag"


def realization_form(realization: Realization, n: int):
    """Bilinear form matrix for the realization (None means the identity)."""
    if realization is Realization.ANTIDIAG:
        return anti_diagonal_form(n)
    return None


@dataclass(frozen=True)
class SpectralRMatrix:
    """numerator(u) / denominator(u), entries polynomial over an exact field."""

    numerator: TensorMatrix
    denominator: Poly
    label: str = ""

    @property
    def site_dim(self) -> int:
        return self.numerator.site_dim

    @property
    def variable(self) -> str:
        names = set(self.numerator.variables()) | set(self.denominator.vars)
        if len(names) > 1:
            raise ValueError(f"more than one variable: {sorted(names)}")
        return names.pop() if names else "u"

    def evaluate(self, point) -> TensorMatrix:
        """Numerator at a point; the scalar denominator is not divided out."""
        return self.numerator.substitute({self.variable: point})


# -- the triangular constant family -------------------------------------------


def example1_r(n: int, scale=1) -> TensorMatrix:
    """Skew constant solution of the classical equation on sl(n).

    r = 1/2 sum_i (H_i ^ E_{i, n+1-i}) + sum_{i<j<n+1-i} (E_ij ^ E_{j, n+1-i})
    where x ^ y = x tensor y - y tensor x.
    """
    if n < 2:
        raise ValueError("need n >= 2")

    def wedge(x, y):
        return kron(x, y) - kron(y, x)

    total = TensorMatrix.zero(n, 2)
    for i in range(1, n // 2 + 1):
        h = matrix_unit(n, i, i) - matrix_unit(n, n + 1 - i, n + 1 - i)
        total = total + HALF * wedge(h, matrix_unit(n, i, n + 1 - i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1 - i):
            total = total + wedge(matrix_unit(n, i, j), matrix_unit(n, j, n + 1 - i))
    if scale != 1:
        total = total * scale
    return total


def example1_R(n: int, scale=1) -> TensorMatrix:
    """exp(scale * r) truncated exactly: the cube of the exponent vanishes."""
    rho = example1_r(n, scale)
    return TensorMatrix.identity(n, 2) + rho + HALF * (rho @ rho)


def baxterize(r_const: TensorMatrix, label: str = "") -> SpectralRMatrix:
    """u * R + P as a spectral matrix with denominator 1.

    Defined for any constant two-leg matrix; whether the result satisfies
    the spectral equation is established by verification, not assumed.
    """
    if r_const.legs != 2:
        raise ValueError("expected a two-leg constant matrix")
    n = r_const.site_dim
    u = Poly.variable("u")
    numerator = r_const * u + permutation_op(n)
    return SpectralRMatrix(numerator, Poly.lift(1, ("u",)),
                           label or "baxterized")


# -- rational solutions with simple-pole numerators ---------------------------


def yangian_sl_R(n: int) -> SpectralRMatrix:
    """(u + P) / u on two copies of C^n."""
    u = Poly.variable("u")
    numerator = TensorMatrix.identity(n, 2) * u + permutation_op(n)
    return SpectralRMatrix(numerator, Poly.univariate("u", [0, 1]),
                           f"yangian-sl({n})")


def orthogonal_half_level(n: int) -> Fraction:
    return Fraction(n - 2, 2)


def yangian_so_R(n: int, realization: Realization = Realization.ANTIDIAG) -> SpectralRMatrix:
    """((k+u)(u + P) - u K) / (k+u) with k = (n-2)/2.

    K is the one-dimensional projector-like operator built from the bilinear
    form of the chosen realization.
    """
    form = realization_form(realization, n)
    kay = structure_op("K", n, form)
    k = orthogonal_half_level(n)
    u = Poly.variable("u")
    pole = Poly.univariate("u", [k, 1])
    numerator = ((TensorMatrix.identity(n, 2) * u + permutation_op(n)) * pole
                 - kay * u)
    return SpectralRMatrix(numerator, pole, f"yangian-so({n},{realization.value})")


# -- jordanian twist data for the orthogonal algebra --------------------------


@dataclass(frozen=True)
class JordanianData:
    """A pair h, e with [h, e] = e, e^2 = 0, and the twist cocycle they generate."""

    dim: int
    realization: Realization
    h: TensorMatrix
    e: TensorMatrix
    r0: TensorMatrix
    f0: TensorMatrix
    f0_inverse_swapped: TensorMatrix


def conjugator_T(n: int) -> TensorMatrix:
    """Symmetric T over Q(i, sqrt2) taking the anti-diagonal form to i * identity.

    T acts blockwise on each coordinate pair (a, n+1-a) as
    (1/sqrt2) [[1, i], [i, 1]], with middle entry (1+i)/sqrt2 for odd n.
    """
    inv_sqrt2 = SQRT2 / 2
    entries = {}
    for a in range(n // 2):
        b = n - 1 - a
        entries[(a, a)] = inv_sqrt2
        entries[(b, b)] = inv_sqrt2
        entries[(a, b)] = IM * inv_sqrt2
        entries[(b, a)] = IM * inv_sqrt2
    if n % 2:
        mid = n // 2
        entries[(mid, mid)] = (Ext.of(1) + IM) * inv_sqrt2
    return TensorMatrix.from_entries(n, 1, entries)


def so_jordanian_data(n: int, realization: Realization = Realization.ANTIDIAG) -> JordanianData:
    """The jordanian pair inside o(n) and its twist cocycle F0 = 1 + h tensor e."""
    if n < 4:
        raise ValueError("the orthogonal jordanian pair needs n >= 4")
    h = matrix_unit(n, 1, 1) - matrix_unit(n, n, n)
    e = matrix_unit(n, 1, 2) - matrix_unit(n, n - 1, n)
    if realization is Realization.SKEW:
        t = conjugator_T(n)
        t_inv = t.inverse()
        h = t @ h @ t_inv
        e = t @ e @ t_inv
    one = TensorMatrix.identity(n, 2)
    r0 = kron(h, e) - kron(e, h)
    f0 = one + kron(h, e)
    f0_inverse_swapped = one - kron(e, h)
    return JordanianData(n, realization, h, e, r0, f0, f0_inverse_swapped)


def apply_twist(solution, f0: TensorMatrix):
    """(swap(F0))^{-1} . R . F0, preserving the input kind.

    Works for a constant TensorMatrix or a SpectralRMatrix (the twist is
    constant, so it acts on the numerator and leaves the denominator alone).
    """
    if f0.variables():
        raise ValueError("the twist cocycle must be constant")
    left = swap_factors(f0).inverse()
    if isinstance(solution, SpectralRMatrix):
        numerator = left @ solution.numerator @ f0
        label = f"twisted({solution.label})" if solution.label else "twisted"
        return SpectralRMatrix(numerator, solution.denominator, label)
    return left @ solution @ f0


def example2_solution(n: int, realization: Realization = Realization.ANTIDIAG) -> SpectralRMatrix:
    """Closed form of the twisted orthogonal solution, denominator (k+u).

    numerator = (k+u) u (1 + r0 - e_minus tensor e_plus) + (k+u) P
                - u (1 - e tensor h) K (1 + h tensor e)
    with e_minus = e h and e_plus = h e.
    """
    data = so_jordanian_data(n, realization)
    form = realization_form(realization, n)
    kay = structure_op("K", n, form)
    k = orthogonal_half_level(n)
    u = Poly.variable("u")
    pole = Poly.univariate("u", [k, 1])
    one = TensorMatrix.identity(n, 2)
    e_minus = data.e @ data.h
    e_plus = data.h @ data.e
    constant_part = one + data.r0 - kron(e_minus, e_plus)
    numerator = (constant_part * (pole * u)
                 + permutation_op(n) * pole
                 - (data.f0_inverse_swapped @ kay @ data.f0) * u)
    return SpectralRMatrix(numerator, pole,
                           f"twisted-yangian-so({n},{realization.value})")
