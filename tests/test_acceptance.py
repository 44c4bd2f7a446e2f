"""Acceptance gate: every checklist criterion at its stated budget.

Each test runs one criterion from the suite, prints a single pass/fail
line, and fails on the first reported problem.  Everything here is exact
arithmetic, so the tolerance everywhere is bit-exact equality.
"""

import subprocess
import time

from baxter import suite

BUDGETS = dict((name, budget) for name, _, budget in suite.CRITERIA)


def _run(name):
    fn = dict((label, fn) for label, fn, _ in suite.CRITERIA)[name]
    start = time.perf_counter()
    problems = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if not problems else "FAIL"
    line = f"[{status}] {name} ({elapsed:.1f}s)"
    if problems:
        line += f" :: {problems[0]}"
    print(line)
    assert problems == [], problems
    budget = BUDGETS[name]
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_triangular_family():
    # skew, nilpotent, classical identity, unitary exponential, braid identity
    _run("triangular-family")


def test_criterion_baxterized_family():
    # spectral identity conclusive, value at the origin, unitarity scalar
    _run("baxterized-family")


def test_criterion_yangian_families():
    # sl sizes 2..4 and both orthogonal realizations at sizes 3..6
    _run("yangian-families")


def test_criterion_twisted_orthogonal():
    # closed form == twist route, conjugation to skew, classical limit
    _run("twisted-orthogonal")


def test_criterion_frobenius_construction():
    # closure, skewness, nondegeneracy, cyclic identity, induced solution
    _run("frobenius-construction")


def test_criterion_classical_equivalence():
    # verdicts of the rational and constant checks agree, non-solutions too
    _run("classical-equivalence")


def test_criterion_chain_checks():
    # commuting transfer family, telescoping, calibrated affine identity
    _run("chain-checks")


def test_criterion_cli_interface():
    # byte-exact round trips and the documented command sequences
    _run("cli-interface")


def test_full_suite_command(baxter_command):
    argv, env = baxter_command
    cmd = [*argv, "suite", "--all"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - start
    print(f"[{'PASS' if proc.returncode == 0 else 'FAIL'}] "
          f"suite --all ({elapsed:.1f}s) via {cmd}")
    assert proc.returncode == 0, f"{cmd}\n{proc.stdout}{proc.stderr}"
    assert elapsed < 300, f"suite --all took {elapsed:.1f}s, budget 300s"
    assert proc.stdout.count("[PASS]") == len(suite.CRITERIA)


if __name__ == "__main__":
    for label, _, _ in suite.CRITERIA:
        _run(label)
