"""Spin-1/2 chains: deformed Hamiltonians, transfer matrices, commutation.

Hamiltonians are sums of a two-site density over the bonds of an open or
periodic chain.  Transfer matrices are built from a spectral R-matrix by
tracing out an auxiliary leg; entries stay exact polynomials via
interpolation at integer points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, tensor, verify
from .poly import Poly
from .solutions import SpectralRMatrix
from .tensor import TensorMatrix, embed_two_leg, kron, matrix_unit, permutation_op


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
    total = TensorMatrix.zero(density.site_dim, spec.sites)
    for pair in bonds(spec):
        total = total + embed_two_leg(density, spec.sites, pair)
    return total


def remark_hamiltonian(spec: ChainSpec) -> TensorMatrix:
    """Deformed exchange chain with lowering-operator tails.

    Bond density: (2P - 1) + xi^2 (s- tensor s-) + xi (s- tensor 1 - 1 tensor s-)
    where xi is the deformation (a scalar or a polynomial variable).  On a
    periodic chain the linear part telescopes away; on an open chain the
    two boundary terms survive.
    """
    xi = spec.deformation
    low = sigma_minus()
    one = TensorMatrix.identity(2, 1)
    density = (exchange_density()
               + kron(low, low) * (xi * xi)
               + (kron(low, one) - kron(one, low)) * xi)
    return _bond_sum(density, spec)


def derive_hamiltonian(r: SpectralRMatrix, spec: ChainSpec) -> TensorMatrix:
    """Logarithmic-derivative density P N'(0) / c for a regular R-matrix.

    c is the regularity scalar with N(0) = c P.  Non-regular input is
    rejected.
    """
    report = verify.check_regularity(r)
    if not report.passed:
        raise ValueError("R-matrix is not regular at the origin")
    var = r.variable
    slope = r.numerator.derivative(var).substitute({var: 0})
    density = (permutation_op(r.site_dim) @ slope) * linalg.reciprocal(report.scalar_factor)
    return _bond_sum(density, spec)


@dataclass(frozen=True)
class TransferFamily:
    """Trace over one auxiliary leg of a product of R-matrix numerators."""

    matrix: TensorMatrix
    sites: int
    aux_dim: int
    label: str = ""

    @property
    def variable(self) -> str:
        names = self.matrix.variables()
        return names[0] if names else "u"


def transfer_matrix(r: SpectralRMatrix, spec: ChainSpec) -> TransferFamily:
    """t(u) = tr_0 [ N_{0L}(u) ... N_{01}(u) ] built on the numerator.

    At each of the points 0..L*d, where d is the numerator degree, the
    cleared numerator is applied on legs (0, k) of an integer tensor that
    starts as the identity on L + 1 legs, and leg 0 is traced out.  Entries
    are interpolated exactly from those values, so the result is the true
    polynomial family; a scalar is built only for its coefficients.
    """
    if spec.boundary != "periodic":
        raise ValueError("transfer matrices need a periodic chain")
    n = r.site_dim
    sites = spec.sites
    size = tensor.dense_dim(n, sites + 1) // n
    var = r.variable
    scale, stack = linalg.clear(r.numerator.data, (var,))
    points = range(sites * (len(stack[0]) - 1) + 1)
    eye = [np.eye(n * size, dtype=np.int64).reshape((n,) * (sites + 1) + (-1,))]
    tables = []
    for x in points:
        value = verify.int_values(stack, x)
        prod = eye
        for k in range(1, sites + 1):
            prod = linalg.apply_two_leg(value, prod, (1, k + 1))
        blocks = [[c.reshape(n, size, n, size)[a, :, a, :] for c in prod]
                  for a in range(n)]
        tables.append([c.reshape(1, -1) for c in linalg.int_sum(*blocks)])
    weights, denominator = linalg.scale_to_int(linalg.vandermonde_inverse(points))
    coeffs = linalg.int_product([linalg.narrow(weights)],
                                [np.concatenate(c) for c in zip(*tables)])
    data = linalg.rebuild(denominator * scale ** sites, (var,),
                          [c.reshape(-1, size, size) for c in coeffs],
                          dict.fromkeys(range(size * size), (var,)))
    family = TensorMatrix(n, sites, data)
    return TransferFamily(family, sites, n, f"transfer({r.label})" if r.label else "transfer")


def _family_matrix(operand) -> TensorMatrix:
    if isinstance(operand, TransferFamily):
        return operand.matrix
    return operand


def check_commutation(a, b, grid_margin: int = 1) -> verify.VerificationReport:
    """[A(x), B(y)] = 0 for all arguments, on a conclusive integer grid.

    Either operand may be a constant matrix (its argument is then dropped)
    or a polynomial family such as a transfer matrix.
    """
    ma, mb = _family_matrix(a), _family_matrix(b)
    if ma.site_dim != mb.site_dim or ma.legs != mb.legs:
        raise ValueError("operands act on different spaces")

    def cleared(m):
        names = m.variables()
        if len(names) > 1:
            raise ValueError(f"expected at most one variable, found {names}")
        # a constant is a polynomial of degree 0 in a placeholder variable
        return linalg.clear(m.data, names or ("u",))

    (scale_a, stack_a), (scale_b, stack_b) = cleared(ma), cleared(mb)
    cache_a, cache_b = {}, {}

    def diff_at(x, y):
        if x not in cache_a:
            cache_a[x] = verify.int_values(stack_a, x)
        if y not in cache_b:
            cache_b[y] = verify.int_values(stack_b, y)
        left, right = cache_a[x], cache_b[y]
        return [p - q for p, q in zip(linalg.int_product(left, right),
                                      linalg.int_product(right, left))]

    return verify.grid_report("commutation", diff_at, len(stack_a[0]) - 1,
                              len(stack_b[0]) - 1,
                              grid_margin=grid_margin, scale=scale_a * scale_b)


def compare_up_to_affine(h1: TensorMatrix, h2: TensorMatrix, conj: TensorMatrix = None):
    """Solve h1 = alpha * (C h2 C^{-1}) + beta * 1 exactly.

    conj, when given, is a one-site matrix applied on every site to h2.
    Returns (alpha, beta) or None when no exact match exists.
    """
    if conj is not None:
        full = conj
        full_inv = conj.inverse()
        for _ in range(h2.legs - 1):
            full = kron(full, conj)
            full_inv = kron(full_inv, conj.inverse())
        h2 = full @ h2 @ full_inv
    names = sorted(set(h1.variables()) | set(h2.variables()))
    zero = Poly(tuple(names), {})
    origin = (0,) * len(names)

    def lifted(value):
        if isinstance(value, Poly):
            return value + zero
        return Poly.lift(value, tuple(names))

    rows, rhs = [], []
    for (i, j), target in np.ndenumerate(h1.data):
        p1 = lifted(target)
        p2 = lifted(h2.data[i, j])
        exps = set(p1.coeffs) | set(p2.coeffs)
        if i == j:
            exps.add(origin)
        for e in sorted(exps):
            rows.append([p2.coefficient(e), 1 if (i == j and e == origin) else 0])
            rhs.append([p1.coefficient(e)])
    solution = linalg.solve(linalg.object_matrix(rows), linalg.object_matrix(rhs))
    if solution is None:
        return None
    return solution[0, 0], solution[1, 0]


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
    with F the all-site spin flip.  Returns (alpha, beta) or None.
    """
    from . import solutions

    tau = Fraction(tau)
    spec = ChainSpec(sites)
    spectral = solutions.baxterize(solutions.example1_R(2, tau))
    derived = derive_hamiltonian(spectral, spec)
    xi = Poly.variable("xi")
    remark = remark_hamiltonian(ChainSpec(sites, deformation=xi))
    if not remark.coefficient("xi", 1).is_zero():
        raise ValueError("linear deformation term did not telescope away")
    matched = substitute_square(remark, "xi", tau * tau / 2)
    return compare_up_to_affine(matched, derived, conj=sigma_x())
