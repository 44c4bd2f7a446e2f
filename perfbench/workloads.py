"""The benchmark's three workloads: their inputs, cases and checks.

A case is one `baxter` command line, run in-process through
`baxter.cli.main(argv)`.  A workload has three phases:

* `prepare` (untimed): seeded choices that need the program's base
  objects, such as which entry a perturbation changes.  The choice is
  confirmed with `checks`' own arithmetic, so it never depends on luck.
* `setup` (timed as set-up): writes every input file with `baxter build`,
  or with `baxter.serialize` for the perturbed and hand-made inputs, and
  returns the cases.
* `check` (untimed, after the last round): every case's exit code and
  output against the independent computations in `checks`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import checks, exact


@dataclass
class Case:
    id: str
    argv: list
    expect: int = 0                      # exit code of a correct answer
    files: tuple = ()                    # output files read after the case
    check: object = None                 # callable(outcome, outcomes, rng)
    repeat: int = 1                      # runs per round


# Cases of a few milliseconds run this many times per round, at spread-out
# points of it.  The host's speed drifts by up to 1.7x over seconds, and
# the median case of a workload is a small one: timed once per round, it
# would sample that drift at only two to four instants per run.
SMALL = 4
# On spin-chain the median case is one of a dozen cases of 30 to 60 ms, the
# commute and transfer at L = 3, hamiltonian up to L = 5 and calibrate up to
# L = 4; they run twice as often, so that the median rests on more samples.
MEDIAN_SMALL = 2 * SMALL


@dataclass
class Outcome:
    code: object
    stdout: str
    files: dict = field(default_factory=dict)
    error: str = ""


def call(argv) -> Outcome:
    """Run one command line in-process; stdout and stderr are captured."""
    from baxter.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return Outcome(code, out.getvalue(), error=err.getvalue())


def build(argv) -> None:
    outcome = call(["build", *argv])
    if outcome.code != 0:
        raise RuntimeError(f"baxter build {' '.join(map(str, argv))}: {outcome.error}")


def report_of(outcome: Outcome) -> dict:
    text = outcome.files.get("report")
    checks.require(text is not None, "no report written")
    return json.loads(text)


def verify_case(case_id, args, report_dir: Path, expect=0, check=None, repeat=1) -> Case:
    report = report_dir / f"{case_id}.report.json"
    return Case(case_id, ["verify", *args, "--report", report], expect,
                (("report", report),), check, repeat)


def _perturbed(coeffs, row, col, power, amount):
    out = [[list(cell) for cell in line] for line in coeffs]
    cell = out[row][col]
    cell.extend([Fraction(0)] * (power + 1 - len(cell)))
    cell[power] += amount
    return out


def choose_perturbation(obj: dict, rng) -> tuple:
    """(row, col, power, amount) whose change breaks the spectral identity."""
    coeffs, n = obj["coeffs"], obj["site_dim"]
    degree = max(len(cell) for line in coeffs for cell in line) - 1
    while True:
        row, col = rng.randrange(n * n), rng.randrange(n * n)
        power = rng.randint(0, degree)
        amount = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        changed = _perturbed(coeffs, row, col, power, amount)
        if any(not checks.spectral_braid_holds_at(changed, n, rng) for _ in range(3)):
            return row, col, power, amount


def write_perturbed(source: Path, target: Path, change) -> None:
    from baxter import serialize
    from baxter.poly import Poly
    from baxter.solutions import SpectralRMatrix
    from baxter.tensor import TensorMatrix
    row, col, power, amount = change
    base = serialize.load(source)
    data = base.numerator.data.copy()
    data[row, col] = data[row, col] + Poly.univariate(base.variable, [0] * power + [amount])
    numerator = TensorMatrix(base.site_dim, 2, data)
    serialize.save(SpectralRMatrix(numerator, base.denominator, base.label), target)


def write_matrix(rows, n: int, target: Path) -> None:
    from baxter import serialize
    from baxter.tensor import TensorMatrix
    serialize.save(TensorMatrix(n, 2, rows), target)


def ok_exit(outcome, want):
    checks.require(outcome.code == want, f"exit {outcome.code}, wanted {want}")


# -- spectral-grid ----------------------------------------------------------------

SPECTRAL_BASES = {   # input name: build arguments
    **{f"so{N}-{r}": ["yangian-so", "--N", N, "--realization", r]
       for N in (3, 4, 5) for r in ("antidiag", "skew")},
    **{f"twisted{N}": ["example2", "--N", N] for N in (4, 5)},
    **{f"sl{n}": ["yangian-sl", "--n", n] for n in (2, 3, 4)},
}
TRIANGULAR = (2, 3, 4)
PERTURBED = ("bx2", "sl3", "so4-antidiag")   # the first is also run with --method poly
SMALL_SPECTRAL = {"so3-antidiag", "so3-skew", "sl2", "sl3", "bx2", "bx3"}
# The median case lies between so(3) and the n = 4 cases of about 0.3 s,
# which therefore run twice per round.
MEDIAN_SPECTRAL = {"sl4", "bx4"}


class SpectralGrid:
    name = "spectral-grid"
    warmup = "so3-antidiag"

    def prepare(self, prep: Path, seed: int) -> dict:
        self._inputs(prep)
        return {base: choose_perturbation(exact.load(prep / f"{base}.yb"),
                                          random.Random(f"{seed}:perturb:{base}"))
                for base in PERTURBED}

    def _inputs(self, work: Path) -> None:
        for name, args in SPECTRAL_BASES.items():
            build([*args, "--out", work / f"{name}.yb"])
        for n in TRIANGULAR:
            build(["example1-R", "--n", n, "--out", work / f"R{n}.yb"])
            build(["baxterize", "--in", work / f"R{n}.yb", "--out", work / f"bx{n}.yb"])

    def setup(self, work: Path, plan: dict) -> list:
        self._inputs(work)
        for base, change in plan.items():
            write_perturbed(work / f"{base}.yb", work / f"{base}-perturbed.yb", change)
        names = list(SPECTRAL_BASES) + [f"bx{n}" for n in TRIANGULAR]
        cases = []
        for name in names:
            path = work / f"{name}.yb"
            cases.append(verify_case(name, ["ybe", "--spectral", "--in", path], work,
                                     check=self._pass_check(path),
                                     repeat=SMALL if name in SMALL_SPECTRAL
                                     else 2 if name in MEDIAN_SPECTRAL else 1))
        for base in PERTURBED:
            path = work / f"{base}-perturbed.yb"
            cases.append(verify_case(f"{base}-perturbed", ["ybe", "--spectral", "--in", path],
                                     work, expect=1, check=self._fail_check(path),
                                     repeat=SMALL if base in SMALL_SPECTRAL else 1))
        first = f"{PERTURBED[0]}-perturbed"
        path = work / f"{first}.yb"
        cases.append(verify_case(f"{first}-poly",
                                 ["ybe", "--spectral", "--method", "poly", "--in", path],
                                 work, expect=1, check=self._poly_check(first), repeat=SMALL))
        return cases

    @staticmethod
    def _pass_check(path):
        def check(outcome, outcomes, rng):
            checks.require(checks.verdict(report_of(outcome), outcome.code), "reported FAIL")
            checks.spectral_pass(exact.load(path), rng)
        return check

    @staticmethod
    def _fail_check(path):
        def check(outcome, outcomes, rng):
            report = report_of(outcome)
            checks.require(not checks.verdict(report, outcome.code), "reported PASS")
            checks.spectral_witness(exact.load(path), report)
        return check

    @staticmethod
    def _poly_check(grid_case):
        def check(outcome, outcomes, rng):
            report = report_of(outcome)
            checks.verdict(report, outcome.code)
            checks.same_witness(report, report_of(outcomes[grid_case]))
        return check


# -- constant-ext -----------------------------------------------------------------

EXP_SIZES = (2, 3, 4, 5)             # braid identity and unitarity of exp(r)
CYBE_SIZES = (2, 3, 4, 5)            # classical identity, constant mode
RATIONAL_SIZES = (2, 3, 4, 5)        # classical identity, rational mode, omega = P
R0_SIZES = (4,)                      # jordanian r0, both realizations
R0_RATIONAL = ("antidiag",)          # realizations of r0 also checked in rational mode
TWISTED_SIZES = (4, 5)               # unitarity of the twisted solution


def non_solutions(r2) -> dict:
    """The classical-equivalence criterion's three non-solutions on C^2 x C^2."""
    def kron(x, y):
        return [[x[i // 2][j // 2] * y[i % 2][j % 2] for j in range(4)] for i in range(4)]
    h = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    e = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    return {
        "permutation": exact.permutation(2),
        "symmetrized-pair": exact.mat_add(kron(h, e), kron(e, h)),
        "nilpotent-tail": exact.mat_add(r2, kron(e, e)),
    }


class ConstantExt:
    name = "constant-ext"
    warmup = "cybe-r2"

    def prepare(self, prep: Path, seed: int) -> dict:
        build(["example1-r", "--n", 2, "--out", prep / "r2.yb"])
        plan = {"non_solutions": non_solutions(exact.coefficient(
            exact.load(prep / "r2.yb")["coeffs"], 0))}
        for N in TWISTED_SIZES:
            build(["yangian-so", "--N", N, "--out", prep / f"so{N}.yb"])
            so = exact.load(prep / f"so{N}.yb")
            plan[f"so{N}-scalar"] = checks.unitarity_scalar(so["coeffs"], N)
        return plan

    def setup(self, work: Path, plan: dict) -> list:
        for n in sorted(set(EXP_SIZES) | set(CYBE_SIZES) | set(RATIONAL_SIZES)):
            build(["example1-R", "--n", n, "--out", work / f"R{n}.yb"])
            build(["example1-r", "--n", n, "--out", work / f"r{n}.yb"])
        for N in R0_SIZES:
            for real in ("antidiag", "skew"):
                build(["jordanian", "--part", "r0", "--N", N, "--realization", real,
                       "--out", work / f"r0-{N}-{real}.yb"])
        for N in TWISTED_SIZES:
            for real in ("antidiag", "skew"):
                build(["example2", "--N", N, "--realization", real,
                       "--out", work / f"twisted{N}-{real}.yb"])
        for label, rows in plan["non_solutions"].items():
            write_matrix(rows, 2, work / f"{label}.yb")

        cases = []
        for n in EXP_SIZES:
            path = work / f"R{n}.yb"
            cases.append(verify_case(f"ybe-R{n}", ["ybe", "--constant", "--in", path], work,
                                     check=self._braid(path), repeat=SMALL if n <= 3 else 1))
            cases.append(verify_case(f"unitarity-R{n}", ["unitarity", "--in", path], work,
                                     check=self._exp_unitarity(path), repeat=SMALL))
        for n in CYBE_SIZES:
            path = work / f"r{n}.yb"
            cases.append(verify_case(f"cybe-r{n}", ["cybe", "--in", path], work,
                                     check=self._cybe_pass(path),
                                     repeat=SMALL if n <= 3 else 1))
            if n in RATIONAL_SIZES:
                cases.append(verify_case(f"cybe-rational-r{n}", ["cybe", "--rational", "--in", path],
                                         work, check=self._agrees(f"cybe-r{n}"),
                                         repeat=SMALL if n == 2 else 1))
        for N in R0_SIZES:
            for real in ("antidiag", "skew"):
                path = work / f"r0-{N}-{real}.yb"
                tag = f"r0-{N}-{real}"
                cases.append(verify_case(f"cybe-{tag}", ["cybe", "--in", path], work,
                                         check=self._cybe_pass(path)))
                if real in R0_RATIONAL:
                    cases.append(verify_case(f"cybe-rational-{tag}",
                                             ["cybe", "--rational", "--in", path], work,
                                             check=self._agrees(f"cybe-{tag}")))
        for N in TWISTED_SIZES:
            for real in ("antidiag", "skew"):
                path = work / f"twisted{N}-{real}.yb"
                cases.append(verify_case(f"unitarity-twisted{N}-{real}",
                                         ["unitarity", "--in", path], work,
                                         check=self._twisted_unitarity(path, N, real, plan)))
        for label, rows in plan["non_solutions"].items():
            path = work / f"{label}.yb"
            cases.append(verify_case(f"cybe-{label}", ["cybe", "--in", path], work, expect=1,
                                     check=self._cybe_fail(rows), repeat=SMALL))
            cases.append(verify_case(f"cybe-rational-{label}",
                                     ["cybe", "--rational", "--in", path], work, expect=1,
                                     check=self._cybe_rational_fail(rows, f"cybe-{label}"),
                                     repeat=SMALL))
        for n in (2, 3, 4):
            cases.append(verify_case(f"cocycle-{n}", ["cocycle", "--n", n], work,
                                     check=self._cocycle, repeat=SMALL))
        return cases

    @staticmethod
    def _constant(path):
        obj = exact.load(path)
        return exact.coefficient(obj["coeffs"], 0), obj["site_dim"]

    def _braid(self, path):
        def check(outcome, outcomes, rng):
            checks.require(checks.verdict(report_of(outcome), outcome.code), "reported FAIL")
            matrix, n = self._constant(path)
            checks.require(checks.constant_braid_holds(matrix, n, rng),
                           "reported PASS, but the two sides differ on a random vector")
        return check

    def _exp_unitarity(self, path):
        def check(outcome, outcomes, rng):
            report = report_of(outcome)
            checks.require(checks.verdict(report, outcome.code), "reported FAIL")
            checks.require(checks.scalar_coefficients(report) == [1],
                           f"scalar {report['scalar_factor']}, the exponential's is 1")
            matrix, n = self._constant(path)
            vector = checks.random_vector(rng, n * n)
            once = exact.apply_two_leg(matrix, n, 2, (0, 1), vector)
            checks.require(exact.apply_two_leg(exact.swapped(matrix, n), n, 2, (0, 1), once)
                           == vector, "R21 R is not the identity on a random vector")
        return check

    def _cybe_pass(self, path):
        def check(outcome, outcomes, rng):
            checks.require(checks.verdict(report_of(outcome), outcome.code), "reported FAIL")
            matrix, n = self._constant(path)
            checks.require(checks.cybe_holds(matrix, n, rng),
                           "reported PASS, but the residual moves a random vector")
        return check

    @staticmethod
    def _agrees(constant_case):
        """The rational verdict equals the constant verdict of the same r."""
        def check(outcome, outcomes, rng):
            rational = checks.verdict(report_of(outcome), outcome.code)
            constant = report_of(outcomes[constant_case])["passed"]
            checks.require(rational == constant,
                           f"rational verdict {rational}, constant verdict {constant}")
        return check

    @staticmethod
    def _twisted_unitarity(path, N, real, plan):
        """The twisted scalar equals the untwisted so(N) scalar (the twist is a
        cocycle), the same in both realizations, and N(u) N21(-u) = f(u) 1
        holds on a random vector."""
        def check(outcome, outcomes, rng):
            report = report_of(outcome)
            checks.require(checks.verdict(report, outcome.code), "reported FAIL")
            scalar = checks.trimmed(checks.scalar_coefficients(report))
            checks.require(scalar == plan[f"so{N}-scalar"],
                           f"scalar {scalar}, untwisted so({N}) has {plan[f'so{N}-scalar']}")
            if real == "skew":
                other = report_of(outcomes[f"unitarity-twisted{N}-antidiag"])
                checks.require(checks.trimmed(checks.scalar_coefficients(other)) == scalar,
                               "skew and antidiag scalars differ")
            obj = exact.load(path)
            checks.require(checks.unitarity_holds(obj["coeffs"], N, scalar, rng),
                           "N(u) N21(-u) is not the scalar on a random vector")
        return check

    @staticmethod
    def _cybe_fail(rows):
        def check(outcome, outcomes, rng):
            report = report_of(outcome)
            checks.require(not checks.verdict(report, outcome.code), "reported PASS")
            checks.cybe_constant_witness(rows, 2, report)
        return check

    @staticmethod
    def _cybe_rational_fail(rows, constant_case):
        def check(outcome, outcomes, rng):
            report = report_of(outcome)
            checks.require(not checks.verdict(report, outcome.code), "reported PASS")
            checks.require(not report_of(outcomes[constant_case])["passed"],
                           "rational verdict differs from the constant verdict")
            checks.cybe_rational_witness(rows, exact.permutation(2), 2, report)
        return check

    @staticmethod
    def _cocycle(outcome, outcomes, rng):
        # B_ij = f([x_i, x_j]) satisfies the cyclic identity by the Jacobi
        # identity, so PASS is the only correct verdict.
        checks.require(checks.verdict(report_of(outcome), outcome.code), "reported FAIL")


# -- spin-chain -------------------------------------------------------------------

CHAIN_RUNS = [(sites, tau) for sites in (3, 4, 5) for tau in (0, 1, 2)]
LONG_CHAIN = (6, 1)                  # hamiltonian and calibrate only
EXTRA_COMMUTE = {"sl3": ["yangian-sl", "--n", 3], "so3": ["yangian-so", "--N", 3]}


class SpinChain:
    name = "spin-chain"
    warmup = "commute-3-0"

    def prepare(self, prep: Path, seed: int) -> dict:
        return {}

    def setup(self, work: Path, plan: dict) -> list:
        for tau in sorted({tau for _, tau in CHAIN_RUNS}):
            build(["example1-R", "--n", 2, "--xi", tau, "--out", work / f"R-{tau}.yb"])
            build(["baxterize", "--in", work / f"R-{tau}.yb", "--out", work / f"bx-{tau}.yb"])
        for name, args in EXTRA_COMMUTE.items():
            build([*args, "--out", work / f"{name}.yb"])
        cases = []
        for sites, tau in CHAIN_RUNS + [LONG_CHAIN]:
            spectral = work / f"bx-{tau}.yb"
            ham = work / f"h-{sites}-{tau}.yb"
            transfer = work / f"t-{sites}-{tau}.yb"
            tag = f"{sites}-{tau}"
            full = (sites, tau) != LONG_CHAIN
            small = MEDIAN_SMALL if sites == 3 else 1
            if full:
                cases.append(Case(f"commute-{tag}",
                                  ["chain", "commute", "--in", spectral, "--sites", sites],
                                  check=self._commute(spectral, sites), repeat=small))
            cases += [
                Case(f"hamiltonian-{tag}",
                     ["chain", "hamiltonian", "--sites", sites, "--xi", tau, "--out", ham],
                     files=(("out", ham),), check=self._hamiltonian(ham, sites, tau),
                     repeat=MEDIAN_SMALL if sites <= 5 else 1),
                Case(f"calibrate-{tag}", ["chain", "calibrate", "--sites", sites, "--tau", tau],
                     check=self._calibrate(ham, spectral, sites, tau, f"hamiltonian-{tag}"),
                     repeat=MEDIAN_SMALL if sites <= 4 else 1),
            ]
            if full:
                cases.append(Case(f"transfer-{tag}",
                                  ["chain", "transfer", "--in", spectral, "--sites", sites,
                                   "--out", transfer],
                                  files=(("out", transfer),),
                                  check=self._transfer(transfer, spectral), repeat=small))
        for name in EXTRA_COMMUTE:
            path = work / f"{name}.yb"
            cases.append(Case(f"commute-{name}", ["chain", "commute", "--in", path, "--sites", 3],
                              check=self._commute(path, 3)))
        return cases

    @staticmethod
    def _commute(spectral, sites):
        def check(outcome, outcomes, rng):
            ok_exit(outcome, 0)
            lines = outcome.stdout.split("\n")
            checks.require(len(lines) == 3 and lines[2] == "" and all(
                line.startswith("[PASS] commutation") for line in lines[:2]),
                f"unexpected commute output {outcome.stdout!r}")
            checks.commuting_family(exact.load(spectral), sites, rng)
        return check

    @staticmethod
    def _hamiltonian(path, sites, tau):
        def check(outcome, outcomes, rng):
            ok_exit(outcome, 0)
            decoded = exact.coefficient(exact.load(path)["coeffs"], 0)
            checks.require(decoded == checks.remark_hamiltonian(sites, Fraction(tau)),
                           "Hamiltonian differs from the bond sum built here")
        return check

    @staticmethod
    def _calibrate(ham, spectral, sites, tau, ham_case):
        def check(outcome, outcomes, rng):
            ok_exit(outcome, 0)
            ok_exit(outcomes[ham_case], 0)
            checks.calibration(outcome.stdout, exact.load(ham), exact.load(spectral),
                               sites, tau)
        return check

    @staticmethod
    def _transfer(path, spectral):
        def check(outcome, outcomes, rng):
            ok_exit(outcome, 0)
            checks.transfer_family(exact.load(path), exact.load(spectral), rng)
        return check


WORKLOADS = {w.name: w for w in (SpectralGrid(), ConstantExt(), SpinChain())}
