"""Canonical report bytes pinned in tests/data/reports.json.

Each case builds one verification report from library constructions:
unitarity (constant and spectral), regularity, the classical limit, the
braid identity (constant, and spectral on the grid and by --method poly),
the classical identity (constant and rational), chain commutation and
the 2-cocycle identity, passing and failing, over Q and Q(i, sqrt2).  The test
recomputes every report and compares `str(report)` and
`serialize.encode(report)` with the stored text byte for byte, so any
change to a verdict, a witness, a scalar or the encoding shows up as a
diff of this file.

Regenerate the file, from the checkout whose bytes it should hold, with

    PYTHONPATH=src python tests/test_golden_reports.py tests/data/reports.json
"""

import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import numpy as np

from baxter import serialize
from baxter.frobenius import (CocycleMatrix, LinearFunctional, check_cocycle,
                              closure_and_structure, cocycle_from_functional,
                              example1_basis, example1_pair)
from baxter.spin_chain import (ChainSpec, check_chain, check_commutation, sigma_z,
                               transfer_matrix)
from baxter.poly import Poly
from baxter.scalars import IM, SQRT2, Ext
from baxter.solutions import (Realization, baxterize, example1_r, example1_R,
                              example2_solution, so_jordanian_data, yangian_sl_R,
                              yangian_so_R)
from baxter.tensor import TensorMatrix, embed_two_leg, kron, matrix_unit, permutation_op
from baxter.verify import (check_classical_limit, check_cybe, check_regularity,
                           check_unitarity, check_ybe)
from test_spin_chain import _degree_three_pair, failing_R

GOLDEN = Path(__file__).resolve().parent / "data" / "reports.json"
U = Poly.variable("u")
XI = Poly.variable("xi")
SKEW = Realization.SKEW


def _unit(n, i, j):
    """The two-leg matrix unit at composite (0-based) row i, column j."""
    return TensorMatrix.from_entries(n, 2, {(i, j): 1})


def _jordanian_family(n, realization=Realization.ANTIDIAG):
    data = so_jordanian_data(n, realization)
    one = TensorMatrix.identity(n, 2)
    return (one - kron(data.e, data.h) * XI) @ (one + kron(data.h, data.e) * XI), data.r0


def _row_constant(n):
    """A spectral matrix whose first row alone depends on u: every other row
    and column holds only constants."""
    return TensorMatrix.identity(n, 2) + _unit(n, 0, 1) * U


def _unitarity():
    e12 = matrix_unit(2, 1, 2)
    yield "unitarity-constant-R2", lambda: check_unitarity(example1_R(2))
    yield "unitarity-constant-R3", lambda: check_unitarity(example1_R(3))
    yield "unitarity-constant-identity", lambda: check_unitarity(TensorMatrix.identity(3, 2))
    yield "unitarity-constant-zero", lambda: check_unitarity(TensorMatrix.zero(2, 2))
    yield "unitarity-constant-R2-perturbed", lambda: check_unitarity(
        example1_R(2) + kron(e12, e12))
    yield "unitarity-constant-R3-perturbed", lambda: check_unitarity(
        example1_R(3) + _unit(3, 4, 2) * Fraction(2, 3))
    yield "unitarity-constant-ext-scaled-P", lambda: check_unitarity(
        permutation_op(2) * (Ext(1) + IM))
    yield "unitarity-constant-ext-f0", lambda: check_unitarity(so_jordanian_data(4, SKEW).f0)
    yield "unitarity-constant-ext-r0", lambda: check_unitarity(so_jordanian_data(4, SKEW).r0)
    yield "unitarity-spectral-sl2", lambda: check_unitarity(yangian_sl_R(2))
    yield "unitarity-spectral-sl3", lambda: check_unitarity(yangian_sl_R(3))
    yield "unitarity-spectral-so3", lambda: check_unitarity(yangian_so_R(3))
    yield "unitarity-spectral-bx2", lambda: check_unitarity(baxterize(example1_R(2)))
    yield "unitarity-spectral-twisted4", lambda: check_unitarity(example2_solution(4))
    yield "unitarity-spectral-ext-so4-skew", lambda: check_unitarity(yangian_so_R(4, SKEW))
    yield "unitarity-spectral-ext-twisted4-skew", lambda: check_unitarity(
        example2_solution(4, SKEW))
    yield "unitarity-spectral-sl2-perturbed", lambda: check_unitarity(
        yangian_sl_R(2).numerator + kron(e12, e12) * U)
    yield "unitarity-spectral-so3-perturbed", lambda: check_unitarity(
        yangian_so_R(3).numerator + _unit(3, 2, 6) * (U * U * 3))
    yield "unitarity-spectral-ext-twisted4-perturbed", lambda: check_unitarity(
        example2_solution(4, SKEW).numerator + _unit(4, 5, 9) * (U * SQRT2))
    yield "unitarity-spectral-row-constant", lambda: check_unitarity(_row_constant(2))
    yield "unitarity-spectral-constant-poly", lambda: check_unitarity(
        TensorMatrix.identity(2, 2) * Poly.lift(3, ("u",)) + kron(e12, e12))


def _regularity():
    e12 = matrix_unit(2, 1, 2)
    yield "regularity-sl2", lambda: check_regularity(yangian_sl_R(2))
    yield "regularity-sl3", lambda: check_regularity(yangian_sl_R(3))
    yield "regularity-so3", lambda: check_regularity(yangian_so_R(3))
    yield "regularity-bx2", lambda: check_regularity(baxterize(example1_R(2)))
    yield "regularity-twisted4", lambda: check_regularity(example2_solution(4))
    yield "regularity-ext-so4-skew", lambda: check_regularity(yangian_so_R(4, SKEW))
    yield "regularity-ext-twisted4-skew", lambda: check_regularity(example2_solution(4, SKEW))
    yield "regularity-constant-P", lambda: check_regularity(permutation_op(3) * 2)
    yield "regularity-constant-R2", lambda: check_regularity(example1_R(2))
    yield "regularity-zero", lambda: check_regularity(TensorMatrix.zero(2, 2))
    yield "regularity-sl2-perturbed", lambda: check_regularity(
        yangian_sl_R(2).numerator + kron(e12, e12))
    yield "regularity-u-times-identity", lambda: check_regularity(
        TensorMatrix.identity(2, 2) * U + kron(e12, e12))
    yield "regularity-ext-so4-perturbed", lambda: check_regularity(
        yangian_so_R(4, SKEW).numerator + _unit(4, 3, 12) * IM)


def _classical_limit():
    yield "classical-limit-r2", lambda: check_classical_limit(
        TensorMatrix.identity(2, 2) + example1_r(2) * XI, example1_r(2))
    yield "classical-limit-r3-exp", lambda: check_classical_limit(
        example1_R(3, XI), example1_r(3))
    yield "classical-limit-r2-doubled", lambda: check_classical_limit(
        TensorMatrix.identity(2, 2) + example1_r(2) * XI, example1_r(2) * 2)
    yield "classical-limit-jordanian4", lambda: check_classical_limit(*_jordanian_family(4))
    yield "classical-limit-ext-jordanian4-skew", lambda: check_classical_limit(
        *_jordanian_family(4, SKEW))
    yield "classical-limit-ext-jordanian4-skew-off", lambda: check_classical_limit(
        _jordanian_family(4, SKEW)[0], so_jordanian_data(4, SKEW).r0 * IM)


def _braid():
    e12 = matrix_unit(2, 1, 2)
    yield "ybe-constant-R2", lambda: check_ybe(example1_R(2), mode="constant")
    yield "ybe-constant-R3", lambda: check_ybe(example1_R(3), mode="constant")
    yield "ybe-constant-P3", lambda: check_ybe(permutation_op(3), mode="constant")
    yield "ybe-constant-R2-perturbed", lambda: check_ybe(
        example1_R(2) + kron(e12, e12), mode="constant")
    yield "ybe-constant-R3-perturbed", lambda: check_ybe(
        example1_R(3) + _unit(3, 1, 7) * Fraction(-1, 2), mode="constant")
    yield "ybe-constant-ext-scaled-P", lambda: check_ybe(
        permutation_op(2) * (SQRT2 + IM), mode="constant")
    yield "ybe-constant-ext-f0", lambda: check_ybe(so_jordanian_data(4, SKEW).f0,
                                                   mode="constant")
    yield "ybe-constant-ext-r0", lambda: check_ybe(so_jordanian_data(4, SKEW).r0,
                                                   mode="constant")
    yield "ybe-constant-spectral-sl2", lambda: check_ybe(yangian_sl_R(2), mode="constant")


def _twins(n, i, j, value):
    """value at composite (i, j) and at its twin under the swap of the two
    legs, so that a symmetric R (R21 = R12) stays symmetric."""
    def swap(k):
        return (k % n) * n + k // n
    return TensorMatrix.from_entries(n, 2, {(i, j): value, (swap(i), swap(j)): value})


def _spectral():
    e12 = matrix_unit(2, 1, 2)
    bx2 = baxterize(example1_R(2)).numerator
    yield "ybe-spectral-so3", lambda: check_ybe(yangian_so_R(3))
    yield "ybe-spectral-so4", lambda: check_ybe(yangian_so_R(4))
    yield "ybe-spectral-ext-so3-skew", lambda: check_ybe(yangian_so_R(3, SKEW))
    yield "ybe-spectral-ext-so4-skew", lambda: check_ybe(yangian_so_R(4, SKEW))
    yield "ybe-spectral-sl2", lambda: check_ybe(yangian_sl_R(2))
    yield "ybe-spectral-sl3", lambda: check_ybe(yangian_sl_R(3))
    yield "ybe-spectral-bx2", lambda: check_ybe(baxterize(example1_R(2)))
    yield "ybe-spectral-twisted4", lambda: check_ybe(example2_solution(4))
    yield "ybe-spectral-ext-twisted4-skew", lambda: check_ybe(example2_solution(4, SKEW))
    yield "ybe-spectral-ext-sl3-symmetric-perturbed", lambda: check_ybe(
        yangian_sl_R(3).numerator + _twins(3, 1, 5, SQRT2 * U * U))
    yield "ybe-spectral-ext-so3-skew-perturbed", lambda: check_ybe(
        yangian_so_R(3, SKEW).numerator + _unit(3, 2, 6) * (U * Fraction(3, 2)))
    yield "ybe-spectral-degree-zero", lambda: check_ybe(
        (example1_r(2) + kron(e12, e12)) * Poly.lift(1, ("u",)))
    yield "ybe-spectral-poly-sl2", lambda: check_ybe(yangian_sl_R(2), method="poly")
    yield "ybe-spectral-poly-ext-bx2-perturbed", lambda: check_ybe(
        bx2 + _unit(2, 1, 2) * (IM * U + Fraction(1, 3)), method="poly")


def _classical():
    e12, h = matrix_unit(2, 1, 2), matrix_unit(2, 1, 1) - matrix_unit(2, 2, 2)
    non_solutions = {
        "permutation": permutation_op(2),
        "symmetrized-pair": kron(h, e12) + kron(e12, h),
        "nilpotent-tail": example1_r(2) + kron(e12, e12),
    }
    for mode in ("constant", "rational"):
        def check(r, mode=mode):
            if mode == "constant":
                return check_cybe(r)
            return check_cybe(r, omega=permutation_op(r.site_dim), mode="rational")
        yield f"cybe-{mode}-r2", lambda check=check: check(example1_r(2))
        yield f"cybe-{mode}-r3", lambda check=check: check(example1_r(3))
        yield f"cybe-{mode}-r0-4", lambda check=check: check(so_jordanian_data(4).r0)
        yield f"cybe-{mode}-ext-r0-4-skew", lambda check=check: check(
            so_jordanian_data(4, SKEW).r0)
        yield f"cybe-{mode}-ext-r0-4-skew-perturbed", lambda check=check: check(
            so_jordanian_data(4, SKEW).r0 + _unit(4, 0, 5) * IM)
        for label, r in non_solutions.items():
            yield f"cybe-{mode}-{label}", lambda check=check, r=r: check(r)


def _commutation():
    one = TensorMatrix.identity(2, 1)
    sl2 = lambda: transfer_matrix(yangian_sl_R(2), ChainSpec(3))
    chains = {f"bx2-tau{tau}": lambda tau=tau: baxterize(example1_R(2, Fraction(tau)))
              for tau in (0, 1, 2)}
    chains.update({"sl3": lambda: yangian_sl_R(3), "failing": failing_R,
                   "ext-twisted4-skew": lambda: example2_solution(4, SKEW)})
    for name, build in chains.items():
        sites = 2 if name == "ext-twisted4-skew" else 3
        for k, pair in enumerate(("tt", "ht")):
            yield (f"commutation-{name}-L{sites}-{pair}",
                   lambda build=build, sites=sites, k=k: check_chain(build(), ChainSpec(sites))[k])
    yield "commutation-sigma-z-sl2", lambda: check_commutation(
        embed_two_leg(kron(sigma_z(), one), 3, (1, 2)), sl2())
    yield "commutation-ext-sigma-y-sl2", lambda: check_commutation(
        embed_two_leg(kron((matrix_unit(2, 2, 1) - matrix_unit(2, 1, 2)) * IM, one), 3, (2, 3)),
        sl2())
    yield "commutation-degree-three", lambda: check_commutation(*_degree_three_pair())
    yield "commutation-constant", lambda: check_commutation(
        kron(sigma_z(), one) * Fraction(1, 2), permutation_op(2) * 3 + kron(one, sigma_z()))


def _skew(m, entries):
    """The m x m skew object matrix with the given {(i, j): value} above the
    diagonal."""
    out = np.zeros((m, m), dtype=object)
    for (i, j), value in entries.items():
        out[i, j], out[j, i] = value, -value
    return out


def _conjugated_basis():
    """example1_basis(3) conjugated by a Q(i, sqrt2) matrix g: g x g^-1."""
    g = (TensorMatrix.identity(3) + matrix_unit(3, 2, 1) * IM + matrix_unit(3, 3, 2) * SQRT2
         + matrix_unit(3, 1, 3) * Fraction(1, 2))
    inverse = g.inverse()
    return closure_and_structure([g @ x @ inverse for x in example1_basis(3).elements])


def _cocycle():
    for n in (2, 3, 4, 5):
        yield f"cocycle-n{n}", lambda n=n: check_cocycle(
            cocycle_from_functional(*example1_pair(n)))
    yield "cocycle-cyclic-failure", lambda: check_cocycle(
        CocycleMatrix(example1_pair(3)[0], _skew(4, {(0, 1): 1, (2, 3): 1})))
    yield "cocycle-zero-functional", lambda: check_cocycle(cocycle_from_functional(
        example1_pair(2)[0], LinearFunctional(TensorMatrix.zero(2, 1))))
    yield "cocycle-ext-conjugated-failure", lambda: check_cocycle(CocycleMatrix(
        _conjugated_basis(), _skew(4, {(0, 1): IM + 1, (1, 3): SQRT2, (2, 3): Fraction(1, 3)})))


def cases():
    """(name, thunk) for every pinned report, in file order."""
    for group in (_unitarity, _regularity, _classical_limit, _braid, _classical,
                  _spectral, _commutation, _cocycle):
        yield from group()


def render(report) -> dict:
    return {"str": str(report), "encode": serialize.encode(report)}


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_case():
    assert list(_golden()) == [name for name, _ in cases()]


@pytest.mark.parametrize("name, thunk", list(cases()), ids=[name for name, _ in cases()])
def test_report_bytes_match_the_golden_file(name, thunk):
    assert render(thunk()) == _golden()[name]


if __name__ == "__main__":
    out = {name: render(thunk()) for name, thunk in cases()}
    Path(sys.argv[1]).write_text(json.dumps(out, indent=1, sort_keys=False) + "\n")
    print(f"{len(out)} reports written to {sys.argv[1]}")
