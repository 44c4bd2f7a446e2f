"""The acceptance checklist, one function per criterion.

Each criterion returns a list of problem strings; an empty list means it
passed.  The command line runs them via run_all, and the test suite calls
the same functions so the two can never drift apart.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import time
from fractions import Fraction

from . import frobenius, serialize, solutions, spin_chain, verify
from .poly import Poly
from .solutions import Realization
from .spin_chain import ChainSpec
from .tensor import TensorMatrix, kron, matrix_unit, permutation_op, swap_factors


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def triangular_family() -> list:
    """n in 2..6: r is skew, r^3 = 0, r solves the classical equation,
    and 1 + r + r^2/2 is a unitary constant solution with scalar one."""
    problems = []
    for n in range(2, 7):
        r = solutions.example1_r(n)
        _expect(problems, swap_factors(r) == -r, f"n={n}: r is not skew under swap")
        _expect(problems, (r @ r @ r).is_zero(), f"n={n}: r^3 is not zero")
        _expect(problems, verify.check_cybe(r).passed, f"n={n}: classical identity fails")
        # example1_R(n) is exp(r) for this r, built once here
        big = solutions.truncated_exp(r)
        _expect(problems, verify.check_ybe(big, mode="constant").passed,
                f"n={n}: constant braid identity fails")
        unit = verify.check_unitarity(big)
        _expect(problems, unit.passed and unit.scalar_factor == 1,
                f"n={n}: unitarity scalar is {unit.scalar_factor!r}, wanted 1")
    return problems


def baxterized_family() -> list:
    """n in 2..4: u R + P passes the spectral identity on a conclusive grid,
    equals P at u = 0, and has unitarity scalar exactly 1 - u^2."""
    problems = []
    wanted = Poly.univariate("u", [1, 0, -1])
    for n in range(2, 5):
        spectral = solutions.baxterize(solutions.example1_R(n))
        _expect(problems, verify.check_ybe(spectral).passed,
                f"n={n}: spectral braid identity fails")
        at_zero = spectral.evaluate(0)
        _expect(problems, at_zero == permutation_op(n),
                f"n={n}: value at the origin is not the permutation")
        unit = verify.check_unitarity(spectral)
        _expect(problems, unit.passed and unit.scalar_factor == wanted,
                f"n={n}: unitarity scalar is {unit.scalar_factor!r}, wanted 1 - u^2")
    return problems


def yangian_families() -> list:
    """u + P for n in 2..4 and the orthogonal matrix for N in 3..6, both
    realizations, with the exact half-level (N-2)/2."""
    problems = []
    for n in range(2, 5):
        _expect(problems, verify.check_ybe(solutions.yangian_sl_R(n)).passed,
                f"sl n={n}: spectral braid identity fails")
    for n in range(3, 7):
        _expect(problems, solutions.orthogonal_half_level(n) == Fraction(n - 2, 2),
                f"so N={n}: half-level is wrong")
        for realization in (Realization.ANTIDIAG, Realization.SKEW):
            spectral = solutions.yangian_so_R(n, realization)
            _expect(problems, verify.check_ybe(spectral).passed,
                    f"so N={n} {realization.value}: spectral braid identity fails")
    return problems


def twisted_orthogonal() -> list:
    """N in 4..6: the closed-form twisted solution passes the spectral
    identity, agrees with the twist route entrywise, is conjugate to the
    skew realization at N=4, and has the jordanian r as classical limit.
    The skew realization at N=4, over Q(i, sqrt2), passes the spectral
    identity directly."""
    problems = []
    for n in range(4, 7):
        data = solutions.so_jordanian_data(n)
        closed = solutions.example2_solution(n)
        _expect(problems, verify.check_ybe(closed).passed,
                f"N={n}: spectral braid identity fails")
        routed = solutions.apply_twist(solutions.yangian_so_R(n), data.f0)
        _expect(problems, closed.numerator == routed.numerator
                and closed.denominator == routed.denominator,
                f"N={n}: closed form does not match the twist route")
        xi = Poly.variable("xi")
        one = TensorMatrix.identity(n, 2)
        family = ((one - kron(data.e, data.h) * xi)
                  @ (one + kron(data.h, data.e) * xi))
        _expect(problems, verify.check_classical_limit(family, data.r0).passed,
                f"N={n}: classical limit is not the jordanian r")
    tee = solutions.conjugator_T(4)
    anti = solutions.example2_solution(4, Realization.ANTIDIAG)
    skew = solutions.example2_solution(4, Realization.SKEW)
    inverse = tee.inverse()
    conjugated = kron(tee, tee) @ anti.numerator @ kron(inverse, inverse)
    _expect(problems, conjugated == skew.numerator
            and anti.denominator == skew.denominator,
            "N=4: conjugation does not map antidiag to skew")
    _expect(problems, verify.check_ybe(skew).passed,
            "N=4 skew: spectral braid identity fails over Q(i, sqrt2)")
    return problems


def frobenius_construction() -> list:
    """n in 2..4: the triangular basis closes, its cocycle is skew,
    nondegenerate, and cyclic, and the inverse gives a classical solution.
    The n=2 proportionality constant against the direct formula is reported,
    not asserted."""
    problems = []
    for n in range(2, 5):
        try:
            basis, functional = frobenius.example1_pair(n)
        except (frobenius.NotClosed, frobenius.DependentBasis) as err:
            problems.append(f"n={n}: basis failed to close: {err}")
            continue
        cocycle = frobenius.cocycle_from_functional(basis, functional)
        _expect(problems, (cocycle.matrix == -cocycle.matrix.T).all(),
                f"n={n}: cocycle matrix is not skew")
        report = frobenius.check_cocycle(cocycle)
        _expect(problems, report.passed, f"n={n}: cyclic identity fails")
        _expect(problems, report.details.get("nondegenerate", False),
                f"n={n}: cocycle is degenerate")
        constructed = frobenius.r_from_cocycle(cocycle)
        _expect(problems, verify.check_cybe(constructed).passed,
                f"n={n}: inverse-cocycle matrix fails the classical identity")
        if n == 2:
            direct = solutions.example1_r(2)
            hit = next(idx for idx, v in enumerate(direct.data.flat) if v)
            constant = constructed.data.flat[hit] / direct.data.flat[hit]
            if constructed == direct * constant:
                print(f"  reported: r_from_cocycle = {constant} * example1_r(2)")
            else:
                print("  reported: r_from_cocycle is not proportional to example1_r(2)")
    for n in range(2, 9):
        _expect(problems, frobenius.example1_basis(n).dim % 2 == 0,
                f"n={n}: subalgebra dimension is odd")
    return problems


def classical_equivalence() -> list:
    """The pole-form verdict with Omega = P agrees with the constant verdict
    for the triangular r (n in 2..5) and for three non-solutions."""
    problems = []
    for n in range(2, 6):
        r = solutions.example1_r(n)
        omega = permutation_op(n)
        constant = verify.check_cybe(r).passed
        rational = verify.check_cybe(r, omega=omega, mode="rational").passed
        _expect(problems, constant and rational and constant == rational,
                f"n={n}: verdicts disagree (constant={constant}, rational={rational})")
    h = matrix_unit(2, 1, 1) - matrix_unit(2, 2, 2)
    e = matrix_unit(2, 1, 2)
    non_solutions = [
        ("permutation", permutation_op(2)),
        ("symmetrized generator pair", kron(h, e) + kron(e, h)),
        ("solution plus nilpotent tail",
         solutions.example1_r(2) + kron(e, e)),
    ]
    omega = permutation_op(2)
    for label, bad in non_solutions:
        constant = verify.check_cybe(bad).passed
        rational = verify.check_cybe(bad, omega=omega, mode="rational").passed
        _expect(problems, constant == rational,
                f"{label}: verdicts disagree (constant={constant}, rational={rational})")
        _expect(problems, not constant, f"{label}: unexpectedly solves the identity")
    return problems


def chain_checks() -> list:
    """L in 3..4, tau in 0..2: transfer family commutes with itself and with
    the derived Hamiltonian; the linear deformation telescopes; calibration
    constants are recovered by exact solve."""
    problems = []
    xi = Poly.variable("xi")
    for sites in (3, 4):
        linear = spin_chain.remark_hamiltonian(
            ChainSpec(sites, deformation=xi)).coefficient("xi", 1)
        _expect(problems, linear.is_zero(),
                f"L={sites}: linear deformation does not telescope")
        for tau in (0, 1, 2):
            spectral = solutions.baxterize(solutions.example1_R(2, Fraction(tau)))
            with_self, with_hamiltonian = spin_chain.check_chain(spectral, ChainSpec(sites))
            _expect(problems, with_self.passed,
                    f"L={sites} tau={tau}: transfer family does not commute")
            _expect(problems, with_hamiltonian.passed,
                    f"L={sites} tau={tau}: Hamiltonian does not commute with transfer")
            found = spin_chain.calibrate(sites, tau)
            _expect(problems, found == (2, -sites),
                    f"L={sites} tau={tau}: calibration gave {found!r}")
            if found is not None:
                # F = F^{-1} maps the composite index r to 2^L - 1 - r, so
                # F H_remark F^{-1} is the folded chain reversed both ways
                alpha, beta = found
                scale, (remark,) = spin_chain.folded_remark(sites, tau)
                flipped = TensorMatrix.from_cleared(2, sites, (), scale, [remark[::-1, ::-1]])
                eye = TensorMatrix.identity(2, sites)
                derived = spin_chain.derive_hamiltonian(spectral, ChainSpec(sites))
                _expect(problems, derived * alpha + eye * beta == flipped,
                        f"L={sites} tau={tau}: affine identity fails at the solved constants")
    return problems


def _non_solution_matrix() -> TensorMatrix:
    e = matrix_unit(2, 1, 2)
    return solutions.example1_r(2) + kron(e, e)


def _cli(*argv):
    """The exit code of one command line run through cli.main in this
    process, its output captured and dropped; argparse's usage errors exit
    by SystemExit, whose code is returned."""
    from . import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv))
        except SystemExit as exit_:
            return exit_.code


def cli_interface() -> list:
    """Byte-exact round-trips for every serializable kind, plus the three
    documented command sequences with their exit codes, run through the
    command line's own entry point in this process."""
    problems = []
    xi = Poly.variable("xi")
    representatives = [
        ("constant matrix", solutions.example1_r(3)),
        ("extension-field matrix", solutions.so_jordanian_data(4, Realization.SKEW).f0),
        ("polynomial matrix",
         spin_chain.remark_hamiltonian(ChainSpec(3, deformation=xi))),
        ("spectral family", solutions.yangian_so_R(4)),
        ("extension spectral family",
         solutions.example2_solution(4, Realization.SKEW)),
        ("transfer family", spin_chain.transfer_matrix(
            solutions.baxterize(solutions.example1_R(2)), ChainSpec(3))),
        ("passing report", verify.check_unitarity(
            solutions.baxterize(solutions.example1_R(2)))),
        ("failing report", verify.check_cybe(permutation_op(2))),
        ("cocycle report", frobenius.check_cocycle(
            frobenius.cocycle_from_functional(*frobenius.example1_pair(2)))),
    ]
    for label, obj in representatives:
        text = serialize.encode(obj)
        back = serialize.decode(text)
        _expect(problems, back == obj, f"{label}: decode(encode(x)) != x")
        _expect(problems, serialize.encode(back) == text,
                f"{label}: re-encoding changed the bytes")
    with tempfile.TemporaryDirectory() as workdir:
        def at(name):
            return os.path.join(workdir, name)

        serialize.save(_non_solution_matrix(), at("NotASolution.yb"))
        steps = [
            (0, ("build", "example1-R", "--n", "3", "--out", at("R.yb"))),
            (0, ("verify", "ybe", "--constant", "--in", at("R.yb"))),
            (0, ("build", "baxterize", "--in", at("R.yb"), "--out", at("Rs.yb"))),
            (0, ("verify", "ybe", "--spectral", "--in", at("Rs.yb"))),
            (1, ("verify", "ybe", "--constant", "--in", at("NotASolution.yb"),
                 "--report", at("bad.json"))),
        ]
        for wanted, argv in steps:
            code = _cli(*argv)
            _expect(problems, code == wanted, f"{' '.join(argv)}: exit {code}, wanted {wanted}")
        if not os.path.exists(at("bad.json")):
            problems.append("non-solution: no report written")
        else:
            report = serialize.load(at("bad.json"))
            _expect(problems, not report.passed and report.witness is not None,
                    "non-solution: report lacks a witness")
    return problems


CRITERIA = (
    ("triangular-family", triangular_family, 1.4),
    ("baxterized-family", baxterized_family, 0.2),
    ("yangian-families", yangian_families, 1.8),
    ("twisted-orthogonal", twisted_orthogonal, 3.5),
    ("frobenius-construction", frobenius_construction, 0.1),
    ("classical-equivalence", classical_equivalence, 0.2),
    ("chain-checks", chain_checks, 0.4),
    ("cli-interface", cli_interface, 1.0),
)


def run_all() -> bool:
    all_ok = True
    for label, fn, budget in CRITERIA:
        start = time.perf_counter()
        problems = fn()
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            problems.append(f"took {elapsed:.1f}s, budget {budget}s")
        status = "PASS" if not problems else "FAIL"
        line = f"[{status}] {label} ({elapsed:.1f}s)"
        if problems:
            line += f" :: {problems[0]}"
            if len(problems) > 1:
                line += f" (+{len(problems) - 1} more)"
        print(line)
        all_ok = all_ok and not problems
    return all_ok
