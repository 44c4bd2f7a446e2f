"""Exact constructions and verifiers for rational Yang-Baxter R-matrices.

Everything runs in exact arithmetic: rationals, the quartic extension
Q(i, sqrt2), and polynomials over either.  Identities are decided by
conclusive evaluation grids or direct polynomial algebra, never floats.
"""

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
from .verify import (
    VerificationReport,
    Witness,
    check_classical_limit,
    check_cybe,
    check_regularity,
    check_unitarity,
    check_ybe,
)
from .frobenius import (
    CocycleMatrix,
    DependentBasis,
    LinearFunctional,
    NotClosed,
    SingularCocycle,
    SubalgebraBasis,
    anti_diagonal_functional,
    check_cocycle,
    closure_and_structure,
    cocycle_from_functional,
    example1_basis,
    example1_pair,
    r_from_cocycle,
)
from .solutions import (
    JordanianData,
    Realization,
    SpectralRMatrix,
    apply_twist,
    baxterize,
    conjugator_T,
    example1_R,
    example1_r,
    example2_solution,
    so_jordanian_data,
    yangian_sl_R,
    yangian_so_R,
)
from .spin_chain import (
    ChainSpec,
    TransferFamily,
    calibrate,
    check_commutation,
    derive_hamiltonian,
    remark_hamiltonian,
    transfer_matrix,
)
from .serialize import ParseError, ShapeError, VersionError, decode, encode

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
