"""Spin-1/2 chains: deformed Hamiltonians, transfer matrices, commutation.

Hamiltonians are sums of a two-site density over the bonds of an open or
periodic chain.  Transfer matrices are built from a spectral R-matrix by
tracing out an auxiliary leg; entries stay exact polynomials via
interpolation at integer points.  Every chain operator is built on the
integer kernel and made with TensorMatrix.from_cleared on its cleared
stack, which commutation, calibration and the writer read; its entries
are built only when read.  Commutation is decided on the coefficients:
the commutators of every pair of layers, with no grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import linalg, tensor, verify
from .poly import Poly
from .solutions import SpectralRMatrix
from .tensor import TensorMatrix, kron, matrix_unit, permutation_op


def sigma_x() -> TensorMatrix:
    return matrix_unit(2, 1, 2) + matrix_unit(2, 2, 1)


def sigma_z() -> TensorMatrix:
    return matrix_unit(2, 1, 1) - matrix_unit(2, 2, 2)


def sigma_minus() -> TensorMatrix:
    """Lowering operator: the matrix unit E_21."""
    return matrix_unit(2, 2, 1)


def exchange_density() -> TensorMatrix:
    """sum_a sigma_a tensor sigma_a, equal to 2P - 1 on two sites."""
    return permutation_op(2) * 2 - TensorMatrix.identity(2, 2)


@dataclass(frozen=True)
class ChainSpec:
    sites: int
    boundary: str = "periodic"
    deformation: object = 0

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError("a chain needs at least two sites")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary {self.boundary!r}")


def bonds(spec: ChainSpec):
    """Nearest-neighbour site pairs, 1-based, wrap bond last when periodic."""
    out = [(k, k + 1) for k in range(1, spec.sites)]
    if spec.boundary == "periodic":
        out.append((spec.sites, 1))
    return out


def _bond_sum(density: TensorMatrix, spec: ChainSpec) -> TensorMatrix:
    """The sum of density over the bonds, in the density's variables.

    The density is cleared once; each of its monomial layers is applied on
    every bond of an integer identity tensor with one axis per site, and
    the results are summed, so no dense embedding and no entry is built.
    """
    n, sites = density.site_dim, spec.sites
    size = tensor.dense_dim(n, sites)
    names = density.variables()
    scale, stack = density.cleared(names)
    grid = stack[0].shape[:len(names)]
    eye = [np.eye(size, dtype=np.int64).reshape((n,) * sites + (size,))]
    layers = [linalg.int_sum(*(linalg.apply_legs([c[e] for c in stack], eye, pair)
                               for pair in bonds(spec)))
              for e in np.ndindex(grid)]
    return TensorMatrix.from_cleared(
        n, sites, names, scale,
        [np.stack([layer[k] for layer in layers]).reshape(grid + (size, size))
         for k in range(len(stack))])


def _remark_density(xi) -> TensorMatrix:
    low = sigma_minus()
    one = TensorMatrix.identity(2, 1)
    return (exchange_density()
            + kron(low, low) * (xi * xi)
            + (kron(low, one) - kron(one, low)) * xi)


def remark_hamiltonian(spec: ChainSpec) -> TensorMatrix:
    """Deformed exchange chain with lowering-operator tails.

    Bond density: (2P - 1) + xi^2 (s- tensor s-) + xi (s- tensor 1 - 1 tensor s-)
    where xi is the deformation (a scalar or a polynomial variable).  On a
    periodic chain the linear part telescopes away; on an open chain the
    two boundary terms survive.
    """
    return _bond_sum(_remark_density(spec.deformation), spec)


def _derived_density(r: SpectralRMatrix) -> TensorMatrix:
    """P N'(0) / c for the regularity scalar c of N(0) = c P."""
    report = verify.check_regularity(r)
    if not report.passed:
        raise ValueError("R-matrix is not regular at the origin")
    # the slope N'(0) is layer 1 of the cleared numerator, and row (i, j) of
    # P N'(0) is its row (j, i); 1 / c is cleared as a 1 x 1 matrix
    n = r.site_dim
    scale, stack = r.numerator.cleared((r.variable,))
    swap = np.arange(n * n).reshape(n, n).T.ravel()
    slope = [(c[1][swap] if len(c) > 1 else np.zeros_like(c[0])).reshape(-1, 1) for c in stack]
    inverse = linalg.object_matrix([[1 / report.scalar_factor]])
    scale_c, stack_c = linalg.clear(inverse)
    return TensorMatrix.from_cleared(n, 2, (), scale * scale_c,
                                     [c.reshape(n * n, n * n)
                                      for c in linalg.int_product(slope, stack_c)])


def derive_hamiltonian(r: SpectralRMatrix, spec: ChainSpec) -> TensorMatrix:
    """Logarithmic-derivative density P N'(0) / c for a regular R-matrix.

    c is the regularity scalar with N(0) = c P.  Non-regular input is
    rejected.
    """
    return _bond_sum(_derived_density(r), spec)


@dataclass(frozen=True)
class TransferFamily:
    """Trace over one auxiliary leg of a product of R-matrix numerators."""

    matrix: TensorMatrix
    sites: int
    aux_dim: int
    label: str = ""


def _transfer_stack(r: SpectralRMatrix, spec: ChainSpec):
    """(scale, stack): the transfer family of r as interpolation gives it,
    laid out as linalg.clear's in the variable of r, not in lowest terms.

    At each of the points 0..L*d, where d is the numerator degree, the
    cleared numerator is applied on legs (0, k) of an integer tensor that
    starts as the identity on L + 1 legs, and leg 0 is traced out.  The
    coefficients are interpolated exactly from those values.
    """
    if spec.boundary != "periodic":
        raise ValueError("transfer matrices need a periodic chain")
    n = r.site_dim
    sites = spec.sites
    size = tensor.dense_dim(n, sites + 1) // n
    scale, stack = r.numerator.cleared((r.variable,))
    points = sites * (len(stack[0]) - 1) + 1
    eye = [np.eye(n * size, dtype=np.int64).reshape((n,) * (sites + 1) + (-1,))]
    tables = []
    for x in range(points):
        value = verify.int_values(stack, x)
        prod = eye
        for k in range(1, sites + 1):
            prod = linalg.apply_legs(value, prod, (1, k + 1))
        blocks = [[c.reshape(n, size, n, size)[a, :, a, :] for c in prod]
                  for a in range(n)]
        tables.append([c.reshape(1, -1) for c in linalg.int_sum(*blocks)])
    weights, denominator = linalg.lagrange_weights(points)
    coeffs = linalg.int_product(linalg.narrow([weights]),
                                [np.concatenate(c) for c in zip(*tables)])
    return denominator * scale ** sites, [c.reshape(-1, size, size) for c in coeffs]


def transfer_matrix(r: SpectralRMatrix, spec: ChainSpec) -> TransferFamily:
    """t(u) = tr_0 [ N_{0L}(u) ... N_{01}(u) ] built on the numerator.

    Entries are interpolated exactly (see _transfer_stack), so the result is
    the true polynomial family, a matrix known by its cleared stack.
    """
    matrix = TensorMatrix.from_cleared(r.site_dim, spec.sites, (r.variable,),
                                       *_transfer_stack(r, spec))
    return TransferFamily(matrix, spec.sites, r.site_dim,
                          f"transfer({r.label})" if r.label else "transfer")


def check_commutation(a, b) -> verify.VerificationReport:
    """[A(x), B(y)] = 0 for all arguments, decided on the coefficients.

    Either operand may be a constant matrix (its argument is then dropped)
    or a polynomial family such as a transfer matrix; each is cleared once,
    as its TensorMatrix keeps it, a constant as one layer.  The coefficient
    of x^i y^j is the commutator [A_i, B_j] of the layers, so the identity
    holds exactly when each is zero.  When b is a, [A_i, A_i] = 0 and
    [A_j, A_i] = -[A_i, A_j]: only the pairs i < j are formed, and the
    lowest nonzero pair at an entry, where the witness is taken, is one
    of them.
    """
    ma, mb = (x.matrix if isinstance(x, TransferFamily) else x for x in (a, b))
    if ma.site_dim != mb.site_dim or ma.legs != mb.legs:
        raise ValueError("operands act on different spaces")

    def cleared(m):
        names = m.variables()
        if len(names) > 1:
            raise ValueError(f"expected at most one variable, found {names}")
        # a constant is a polynomial of degree 0 in a placeholder variable
        scale, stack = m.cleared(names)
        return scale, stack if names else [c[None] for c in stack]

    same = mb is ma
    scale_a, stack_a = cleared(ma)
    scale_b, stack_b = (scale_a, stack_a) if same else cleared(mb)
    commutators = {}
    for i, j in product(range(len(stack_a[0])), range(len(stack_b[0]))):
        if same and i >= j:
            continue
        left, right = [c[i] for c in stack_a], [c[j] for c in stack_b]
        diff = [p - q for p, q in zip(linalg.int_product(left, right),
                                      linalg.int_product(right, left))]
        if any(c.any() for c in diff):  # a PASS holds no commutator
            commutators[i, j] = diff
    witness = verify._first_offence(commutators, scale_a * scale_b)
    return verify.VerificationReport("commutation", witness is None, witness)


def check_chain(r: SpectralRMatrix, spec: ChainSpec):
    """(self, hamiltonian): check_commutation(t, t) and check_commutation(h, t)
    for the transfer family t of r and the derived Hamiltonian h on the
    chain spec, both decided on the commutators of their cleared layers."""
    family = transfer_matrix(r, spec)
    hamiltonian = derive_hamiltonian(r, spec)
    return (check_commutation(family, family),
            check_commutation(hamiltonian, family))


def _affine_fit(first, second, n: int, legs: int, conj):
    """(alpha, beta) with h1 = alpha * (C h2 C^{-1}) + beta * 1, or None.

    first and second are linalg.clear's (scale, stack) of h1 and h2 on one
    monomial grid.  C, the one-site conj repeated on every site, is
    applied on each row leg of h2, and the transposed inverse of conj on
    each column leg.  Each nonzero coefficient, and the constant term of
    each diagonal entry, gives one equation in (alpha, beta).
    """
    (scale1, stack1), (scale2, stack2) = first, second
    size = n ** legs
    if conj is not None:
        scale_c, c = conj.cleared()
        scale_i, inv_t = linalg.clear(conj.inverse().data.T)
        grid2 = stack2[0].shape[:-2]
        # one axis per row leg, one per column leg, then the monomials
        x = [np.moveaxis(comp.reshape(-1, size * size), 0, -1).reshape((n,) * (2 * legs) + (-1,))
             for comp in stack2]
        for k in range(1, legs + 1):
            x = linalg.apply_legs(inv_t, linalg.apply_legs(c, x, (k,)), (legs + k,))
        stack2 = [np.moveaxis(comp.reshape(size * size, -1), -1, 0).reshape(grid2 + (size, size))
                  for comp in x]
        scale2 *= (scale_c * scale_i) ** legs
    width = max(len(stack1), len(stack2))
    zero = np.zeros(stack1[0].shape, dtype=np.int64)
    h1, h2 = (stack + [zero] * (width - len(stack)) for stack in (stack1, stack2))
    diagonal = np.zeros(zero.shape, dtype=bool)
    diagonal[(0,) * (zero.ndim - 2)] = np.eye(size, dtype=bool)
    at = np.nonzero(np.logical_or.reduce([c != 0 for c in h1 + h2] + [diagonal]))
    # h2 / scale2 * alpha + beta = h1 / scale1, times scale1 * scale2
    equations = dict.fromkeys(zip(zip(*(c[at].tolist() for c in h2)), diagonal[at].tolist(),
                                  zip(*(c[at].tolist() for c in h1))))
    rows = [[linalg.ext_value(a) * scale1, scale1 * scale2 if d else 0] for a, d, _ in equations]
    rhs = [[linalg.ext_value(b) * scale2] for _, _, b in equations]
    solution = linalg.solve(linalg.object_matrix(rows), linalg.object_matrix(rhs))
    if solution is None:
        return None
    return solution[0, 0], solution[1, 0]


def compare_up_to_affine(h1: TensorMatrix, h2: TensorMatrix, conj: TensorMatrix = None):
    """Solve h1 = alpha * (C h2 C^{-1}) + beta * 1 exactly.

    conj, when given, is a one-site matrix applied on every site to h2.
    Returns (alpha, beta) or None when no exact match exists.
    """
    names = tuple(sorted(set(h1.variables()) | set(h2.variables())))
    scale, stack = linalg.clear(np.stack([h1.data, h2.data]), names)
    return _affine_fit((scale, [c[..., 0, :, :] for c in stack]),
                       (scale, [c[..., 1, :, :] for c in stack]), h2.site_dim, h2.legs, conj)


def substitute_square(h: TensorMatrix, var: str, value) -> TensorMatrix:
    """Replace var^2 by a scalar; every power of var must be even."""
    data = np.empty(h.data.shape, dtype=object)
    for idx, entry in np.ndenumerate(h.data):
        if not isinstance(entry, Poly) or var not in entry.vars:
            data[idx] = entry
            continue
        i = entry.vars.index(var)
        rest = tuple(v for k, v in enumerate(entry.vars) if k != i)
        table = {}
        for exps, c in entry.coeffs.items():
            if exps[i] % 2:
                raise ValueError(f"odd power of {var} at entry {idx}")
            key = tuple(e for k, e in enumerate(exps) if k != i)
            term = c * value ** (exps[i] // 2)
            table[key] = table.get(key, 0) + term
        out = Poly(rest, table)
        data[idx] = out.constant_value() if out.is_constant() else out
    return TensorMatrix(h.site_dim, h.legs, data)


def calibrate(sites: int, tau):
    """Match the deformed exchange chain against the derived chain.

    Builds the remark Hamiltonian with symbolic deformation, checks that its
    linear part vanishes (periodic telescoping), substitutes xi^2 = tau^2/2,
    and solves for (alpha, beta) in
        H_remark = alpha * (F H_derived F^{-1}) + beta * 1
    with F the all-site spin flip.  Returns (alpha, beta) or None.  Both
    chains stay cleared integer stacks throughout.
    """
    from . import solutions

    tau = Fraction(tau)
    spectral = solutions.baxterize(solutions.example1_R(2, tau))
    scale, (remark,) = remark_hamiltonian(ChainSpec(sites, deformation=Poly.variable("xi"))
                                          ).cleared(("xi",))
    if (remark[1] != 0).any():
        raise ValueError("linear deformation term did not telescope away")
    # xi^2 = tau^2 / 2 = p^2 / (2 q^2): the folded chain, times 2 q^2
    p, q = tau.numerator, tau.denominator
    folded = remark[0].astype(object) * (2 * q * q) + remark[2].astype(object) * (p * p)
    return _affine_fit((2 * q * q * scale, [folded]),
                       derive_hamiltonian(spectral, ChainSpec(sites)).cleared(()),
                       2, sites, sigma_x())
