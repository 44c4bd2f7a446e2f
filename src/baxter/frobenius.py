"""Triangular subalgebras, 2-cocycles, and the r-matrices they induce.

A basis of n x n matrices spanning a Lie subalgebra is closed under
commutators; the structure constants from that closure feed the cocycle
identity check.  A nondegenerate skew 2-cocycle B yields the classical
r-matrix sum_ij (B^{-1})_ij x_i tensor x_j.  Each routine works on the
elements cleared jointly (linalg.clear), over Q and Q(i, sqrt2) alike, and
decides each identity by one or two integer products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .tensor import ShapeError, TensorMatrix, anti_diagonal_form, matrix_unit
from .verify import VerificationReport, _first_offence

# The largest closure system, n^2 (m + m(m-1)/2) entries for m n x n elements:
# example1_basis(n) fits for n <= 14 (`verify cocycle` 5 s, 170 MB, 2 cores).
MAX_CLOSURE_ENTRIES = 2 ** 20


class NotClosed(ValueError):
    """A commutator of basis elements left their span."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"commutator of basis elements {pair} is not in the span")


class DependentBasis(ValueError):
    pass


class SingularCocycle(ValueError):
    pass


@dataclass(frozen=True)
class SubalgebraBasis:
    """Linearly independent n x n matrices with commutator structure constants.

    structure[i][j][k] is the coefficient of x_k in [x_i, x_j]; it is None
    until closure_and_structure has run.
    """

    elements: tuple
    structure: object = None

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def site_dim(self) -> int:
        return self.elements[0].site_dim


@dataclass(frozen=True)
class LinearFunctional:
    """Functional A -> sum_ij coefficients[i, j] A[i, j] on n x n matrices."""

    coefficients: TensorMatrix

    def __call__(self, x: TensorMatrix):
        total = 0
        for idx, weight in np.ndenumerate(self.coefficients.data):
            if weight:
                total = total + weight * x.data[idx]
        return total


@dataclass(frozen=True)
class CocycleMatrix:
    """Skew matrix B_ij = B(x_i, x_j) over a closed basis."""

    basis: SubalgebraBasis
    matrix: np.ndarray


def _bounded(m: int, n: int) -> None:
    """Refuse m n x n elements whose closure system is too large to build."""
    entries = n * n * (m + m * (m - 1) // 2)
    if entries > MAX_CLOSURE_ENTRIES:
        raise ShapeError(f"{m} elements of size {n}x{n} make a closure system of "
                         f"{entries} entries, above the limit {MAX_CLOSURE_ENTRIES}")


def _commutators(elements) -> tuple:
    """(s, X, C): the elements cleared jointly, X = s x, and C[i, j] =
    s^2 [x_i, x_j] from one product of X as (m n, n) by X as (n, m n)."""
    m, n = len(elements), elements[0].site_dim
    _bounded(m, n)
    scale, stack = linalg.clear(np.stack([x.data for x in elements]))
    pairs = linalg.int_product([c.reshape(m * n, n) for c in stack],
                               [c.transpose(1, 0, 2).reshape(n, m * n) for c in stack])
    products = [c.reshape(m, n, m, n).transpose(0, 2, 1, 3) for c in pairs]
    return scale, stack, linalg.int_sum(products, [-c.transpose(1, 0, 2, 3) for c in products])


def closure_and_structure(basis) -> SubalgebraBasis:
    """Verify closure, returning the basis with structure constants filled.

    One row reduction of [s^2 x_k | s^2 [x_i, x_j] for i < j] decides
    independence and closure; its reduced columns are the constants.
    """
    elements = basis.elements if isinstance(basis, SubalgebraBasis) else tuple(basis)
    m, size = len(elements), elements[0].size ** 2
    scale, stack, comm = _commutators(elements)
    upper = np.triu_indices(m, 1)
    system = [np.concatenate([x.reshape(m, size).T, c[upper].reshape(-1, size).T], axis=1)
              for x, c in zip(linalg.scaled(stack, scale), comm)]
    reduced, pivots = linalg.rref(linalg.rebuild(1, (), system))
    if pivots[:m] != list(range(m)):
        raise DependentBasis(f"{m} elements span a smaller space")
    if len(pivots) > m:
        raise NotClosed(tuple(int(k[pivots[m] - m]) for k in upper))
    constants = reduced[:m, m:].T
    structure = np.zeros((m, m, m), dtype=object)
    structure[upper], structure[upper[::-1]] = constants, -constants
    structure.flags.writeable = False
    return SubalgebraBasis(elements, structure)


def cocycle_from_functional(basis, functional: LinearFunctional) -> CocycleMatrix:
    """B_ij = f([x_i, x_j]); closes the basis first when needed."""
    if not isinstance(basis, SubalgebraBasis) or basis.structure is None:
        basis = closure_and_structure(basis)
    m = basis.dim
    scale, _, comm = _commutators(basis.elements)
    scale_f, weights = functional.coefficients.cleared()
    values = linalg.int_product([c.reshape(m * m, -1) for c in comm],
                                [w.reshape(-1, 1) for w in weights])
    matrix = linalg.rebuild(scale * scale * scale_f, (), [v.reshape(m, m) for v in values])
    matrix.flags.writeable = False
    return CocycleMatrix(basis, matrix)


def check_cocycle(cocycle: CocycleMatrix) -> VerificationReport:
    """Cyclic identity B([xi,xj],xk) + B([xk,xi],xj) + B([xj,xk],xi) = 0.

    With T[i, j, k] = B([x_i, x_j], x_k), this is T + T[k, i, j] + T[j, k, i]
    = 0, witnessed at its first nonzero (i, j, k) in row-major order.  The
    details also record nondegeneracy (det B != 0), which it does not need.
    """
    basis = cocycle.basis
    if basis.structure is None:
        basis = closure_and_structure(basis)
    m = basis.dim
    scale_s, struct = linalg.clear(basis.structure.reshape(m * m, m))
    scale_b, b = linalg.clear(cocycle.matrix)
    paired = [c.reshape(m, m, m) for c in linalg.int_product(struct, b)]
    cyclic = linalg.int_sum(paired, [np.moveaxis(c, 0, 2) for c in paired],
                            [np.moveaxis(c, 2, 0) for c in paired])
    witness = _first_offence({(k,): [c[..., k] for c in cyclic] for k in range(m)},
                             scale_s * scale_b)
    determinant = linalg.det(cocycle.matrix)
    details = {"nondegenerate": bool(determinant), "determinant": determinant}
    return VerificationReport("cocycle", witness is None, witness, details=details)


def r_from_cocycle(cocycle: CocycleMatrix) -> TensorMatrix:
    """sum_ij (B^{-1})_ij x_i tensor x_j for a nondegenerate cocycle.

    With Y = B^{-1} X, it is sum_i x_i tensor y_i: entry ((a, c), (b, d))
    of it is entry ((a, b), (c, d)) of the integer product X^T Y.
    """
    try:
        inv = linalg.inverse(cocycle.matrix)
    except linalg.SingularMatrixError as err:
        raise SingularCocycle("cocycle matrix is degenerate") from err
    n = cocycle.basis.site_dim
    scale_x, stack = linalg.clear(np.stack([x.data for x in cocycle.basis.elements]))
    scale_w, weights = linalg.clear(inv)
    flat = [c.reshape(-1, n * n) for c in stack]
    sums = linalg.int_product([c.T for c in flat], linalg.int_product(weights, flat))
    return TensorMatrix.from_cleared(n, 2, (), scale_w * scale_x * scale_x, [
        c.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n) for c in sums])


# -- the triangular family behind the first construction ---------------------


def example1_basis(n: int) -> SubalgebraBasis:
    """Upper-triangular matrices with a_ii = -a_{n+1-i, n+1-i}.

    Basis: H_i = E_ii - E_{n+1-i, n+1-i} for i <= n/2, then E_ij for i < j.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _bounded(n // 2 + n * (n - 1) // 2, n)
    elements = [matrix_unit(n, i, i) - matrix_unit(n, n + 1 - i, n + 1 - i)
                for i in range(1, n // 2 + 1)]
    elements += [matrix_unit(n, i, j)
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return SubalgebraBasis(tuple(elements))


def anti_diagonal_functional(n: int) -> LinearFunctional:
    """f(A) = sum of the anti-diagonal entries A[i, n+1-i]."""
    return LinearFunctional(anti_diagonal_form(n))


def example1_pair(n: int):
    """(closed basis, functional) whose coboundary cocycle is nondegenerate."""
    return closure_and_structure(example1_basis(n)), anti_diagonal_functional(n)
