"""Command-line surface: build objects, run verifiers, drive spin chains.

Exit codes: 0 when the command succeeds (and any verification passed),
1 when a verification ran and failed (the report is still written),
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import cache

from . import frobenius, serialize, solutions, spin_chain, suite, verify
from .solutions import Realization, SpectralRMatrix
from .tensor import TensorMatrix, permutation_op, structure_op

MATRIX = (TensorMatrix,)
SPECTRAL = (SpectralRMatrix,)
_KIND_NAMES = {TensorMatrix: "matrix", SpectralRMatrix: "spectral R-matrix",
               spin_chain.TransferFamily: "transfer family",
               verify.VerificationReport: "report"}


def _realization(args) -> Realization:
    return Realization(args.realization)


def _scalar(text: str) -> Fraction:
    return Fraction(text)


def _write(obj, args) -> int:
    if getattr(args, "out", None):
        serialize.save(obj, args.out)
    else:
        sys.stdout.write(serialize.encode(obj))
    return 0


def _emit(report, args) -> int:
    print(report)
    if getattr(args, "report", None):
        serialize.save(report, args.report)
    return 0 if report.passed else 1


def _load(path, kinds):
    """The object in a serialized file, which must be one of kinds."""
    obj = serialize.load(path)
    if not isinstance(obj, kinds):
        wanted = " or ".join(_KIND_NAMES[k] for k in kinds)
        raise ValueError(f"{path}: expected a {wanted} file, "
                         f"found a {_KIND_NAMES[type(obj)]}")
    return obj


# Options whose value is a scalar and may be negative.
_SCALAR_OPTIONS = ("--xi", "--tau")


def _attach_scalars(argv) -> list:
    """argv with --xi -5/2 written as --xi=-5/2.  argparse takes a token that
    starts with '-' and is not a plain negative number, as -5/2 is not, for
    an option; attached with '=' it is read as the value."""
    out = []
    for token in argv:
        if out and out[-1] in _SCALAR_OPTIONS and re.match(r"-[\d./]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line on stderr and exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# -- build -------------------------------------------------------------------


def _build(args) -> int:
    kind = args.object
    if kind == "permutation":
        return _write(permutation_op(args.n), args)
    if kind == "K":
        form = solutions.realization_form(_realization(args), args.N)
        return _write(structure_op("K", args.N, form), args)
    if kind == "casimir":
        name = "P" if args.algebra == "sl" else "casimir_so"
        size = args.N if args.algebra == "so" else args.n
        form = solutions.realization_form(_realization(args), size)
        return _write(structure_op(name, size, form if args.algebra == "so" else None), args)
    if kind == "example1-r":
        return _write(solutions.example1_r(args.n, _scalar(args.xi)), args)
    if kind == "example1-R":
        return _write(solutions.example1_R(args.n, _scalar(args.xi)), args)
    if kind == "baxterize":
        return _write(solutions.baxterize(_load(args.input, MATRIX)), args)
    if kind == "yangian-sl":
        return _write(solutions.yangian_sl_R(args.n), args)
    if kind == "yangian-so":
        return _write(solutions.yangian_so_R(args.N, _realization(args)), args)
    if kind == "jordanian":
        data = solutions.so_jordanian_data(args.N, _realization(args))
        part = {
            "h": data.h, "e": data.e, "r0": data.r0, "f0": data.f0,
            "f0-inverse-swapped": data.f0_inverse_swapped,
        }[args.part]
        return _write(part, args)
    if kind == "example2":
        return _write(solutions.example2_solution(args.N, _realization(args)), args)
    if kind == "twist":
        target = _load(args.input, MATRIX + SPECTRAL)
        return _write(solutions.apply_twist(target, _load(args.f0, MATRIX)), args)
    if kind == "frobenius-r":
        basis, functional = frobenius.example1_pair(args.n)
        cocycle = frobenius.cocycle_from_functional(basis, functional)
        return _write(frobenius.r_from_cocycle(cocycle), args)
    raise ValueError(f"unknown object {kind!r}")


# -- verify --------------------------------------------------------------


def _verify(args) -> int:
    which = args.identity
    if which == "cocycle":
        basis, functional = frobenius.example1_pair(args.n)
        report = frobenius.check_cocycle(
            frobenius.cocycle_from_functional(basis, functional))
        return _emit(report, args)
    kinds = MATRIX + SPECTRAL if which in ("ybe", "unitarity", "regularity") else MATRIX
    target = _load(args.input, kinds)
    if which == "cybe":
        if args.rational:
            omega = (_load(args.omega, MATRIX) if args.omega
                     else permutation_op(target.site_dim))
            report = verify.check_cybe(target, omega=omega, mode="rational")
        else:
            report = verify.check_cybe(target)
    elif which == "ybe":
        mode = "constant" if args.constant else "spectral" if args.spectral else None
        report = verify.check_ybe(target, mode=mode, method=args.method)
    elif which == "unitarity":
        report = verify.check_unitarity(target)
    elif which == "regularity":
        report = verify.check_regularity(target)
    elif which == "classical-limit":
        against = _load(args.against, MATRIX)
        report = verify.check_classical_limit(target, against)
    else:
        raise ValueError(f"unknown identity {which!r}")
    return _emit(report, args)


# -- chain ---------------------------------------------------------------


def _chain(args) -> int:
    what = args.action
    if what == "hamiltonian":
        spec = spin_chain.ChainSpec(args.sites, args.boundary, _scalar(args.xi))
        return _write(spin_chain.remark_hamiltonian(spec), args)
    spec = spin_chain.ChainSpec(args.sites, args.boundary)
    if what == "derive":
        spectral = _load(args.input, SPECTRAL)
        return _write(spin_chain.derive_hamiltonian(spectral, spec), args)
    if what == "transfer":
        spectral = _load(args.input, SPECTRAL)
        return _write(spin_chain.transfer_matrix(spectral, spec), args)
    if what == "commute":
        spectral = _load(args.input, SPECTRAL)
        first, second = spin_chain.check_chain(spectral, spec)
        print(first)
        print(second)
        if getattr(args, "report", None):
            worst = next((rep for rep in (first, second) if not rep.passed), first)
            serialize.save(worst, args.report)
        return 0 if first.passed and second.passed else 1
    if what == "calibrate":
        if spec.boundary != "periodic":
            raise ValueError("calibration needs a periodic chain")
        found = spin_chain.calibrate(args.sites, _scalar(args.tau))
        if found is None:
            print("no exact affine match")
            return 1
        alpha, beta = found
        print(f"alpha = {alpha}, beta = {beta}")
        return 0
    raise ValueError(f"unknown chain action {what!r}")


def _suite(args) -> int:
    return 0 if suite.run_all() else 1


# -- parser ----------------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls and gives each call a fresh namespace."""
    parser = _Parser(
        prog="baxter",
        description="Exact constructions and verifiers for rational Yang-Baxter R-matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        if out:
            p.add_argument("--out", help="write the result to this file (default: stdout)")

    build = sub.add_parser("build", help="construct an object and serialize it")
    build.add_argument("object", choices=[
        "permutation", "K", "casimir", "example1-r", "example1-R", "baxterize",
        "yangian-sl", "yangian-so", "jordanian", "example2", "twist", "frobenius-r"])
    build.add_argument("--n", type=int, default=2, help="linear-algebra size n")
    build.add_argument("--N", type=int, default=4, help="orthogonal-algebra size N")
    build.add_argument("--xi", default="1", help="scale for the constant family")
    build.add_argument("--realization", choices=["skew", "antidiag"], default="antidiag")
    build.add_argument("--algebra", choices=["sl", "so"], default="sl")
    build.add_argument("--part", default="f0",
                       choices=["h", "e", "r0", "f0", "f0-inverse-swapped"])
    build.add_argument("--in", dest="input", help="input object file")
    build.add_argument("--f0", help="twist cocycle file (for twist)")
    common(build)
    build.set_defaults(func=_build)

    ver_p = sub.add_parser("verify", help="run an identity check, exit 1 on failure")
    ver_p.add_argument("identity", choices=[
        "cybe", "ybe", "unitarity", "regularity", "classical-limit", "cocycle"])
    ver_p.add_argument("--in", dest="input", help="object file to check")
    ver_p.add_argument("--n", type=int, default=2, help="size for verify cocycle")
    ver_p.add_argument("--constant", action="store_true", help="force constant mode")
    ver_p.add_argument("--spectral", action="store_true", help="force spectral mode")
    ver_p.add_argument("--rational", action="store_true",
                       help="cybe: check omega/(u-v) + r instead of r alone")
    ver_p.add_argument("--omega", help="cybe: file with the omega matrix (default P)")
    ver_p.add_argument("--against", help="classical-limit: file with the expected r")
    ver_p.add_argument("--method", choices=["grid", "poly"], default="grid")
    ver_p.add_argument("--report", help="write the verification report to this file")
    ver_p.set_defaults(func=_verify)

    chain = sub.add_parser("chain", help="spin-chain constructions and checks")
    chain.add_argument("action", choices=[
        "hamiltonian", "derive", "transfer", "commute", "calibrate"])
    chain.add_argument("--sites", type=int, default=3)
    chain.add_argument("--boundary", choices=["periodic", "open"], default="periodic")
    chain.add_argument("--xi", default="0", help="deformation scalar")
    chain.add_argument("--tau", default="0", help="twist-side parameter for calibrate")
    chain.add_argument("--in", dest="input", help="spectral R-matrix file")
    chain.add_argument("--report", help="write the (worst) report to this file")
    common(chain)
    chain.set_defaults(func=_chain)

    suite_p = sub.add_parser("suite", help="run the full acceptance checklist")
    suite_p.add_argument("--all", action="store_true",
                         help="run every criterion (the default)")
    suite_p.set_defaults(func=_suite)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_scalars(sys.argv[1:] if argv is None else argv))
    missing = []
    if getattr(args, "func", None) is _build and args.object in ("baxterize", "twist"):
        if not args.input:
            missing.append("--in")
        if args.object == "twist" and not args.f0:
            missing.append("--f0")
    if getattr(args, "func", None) is _verify:
        if args.identity != "cocycle" and not args.input:
            missing.append("--in")
        if args.identity == "classical-limit" and not args.against:
            missing.append("--against")
        clash = ("--constant with --spectral" if args.constant and args.spectral
                 else "--method poly with --constant" if args.constant and args.method == "poly"
                 else "--omega without --rational" if args.omega and not args.rational
                 else None)
        if clash:
            print(f"error: contradictory options: {clash}", file=sys.stderr)
            return 2
    if getattr(args, "func", None) is _chain:
        if args.action in ("derive", "transfer", "commute") and not args.input:
            missing.append("--in")
    if missing:
        print(f"error: missing required {' '.join(missing)}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (serialize.ParseError, serialize.VersionError, serialize.ShapeError,
            OSError, ValueError, KeyError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
