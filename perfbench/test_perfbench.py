"""Tests of the benchmark's own code: each check rejects a corrupted answer,
and the span arithmetic is right on a synthetic tree.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, exact, trace  # noqa: E402
from perfbench.workloads import (Case, ConstantExt, Outcome, SpectralGrid, SpinChain,  # noqa: E402
                                 build, call, choose_perturbation, non_solutions,
                                 write_matrix, write_perturbed)


def rng():
    return random.Random("test")


def verify(tmp_path, *argv):
    """Outcome of `baxter verify ... --report`, with the report attached."""
    report = tmp_path / "report.json"
    outcome = call(["verify", *argv, "--report", report])
    outcome.files["report"] = report.read_text()
    return outcome


def with_report(outcome, change):
    report = json.loads(outcome.files["report"])
    change(report)
    return Outcome(outcome.code, outcome.stdout, {"report": json.dumps(report)})


@pytest.fixture(scope="module")
def spectral(tmp_path_factory):
    """A baxterized R on C^2 x C^2 and a perturbation of it that fails."""
    work = tmp_path_factory.mktemp("spectral")
    build(["example1-R", "--n", 2, "--out", work / "R2.yb"])
    build(["baxterize", "--in", work / "R2.yb", "--out", work / "bx2.yb"])
    change = choose_perturbation(exact.load(work / "bx2.yb"), rng())
    write_perturbed(work / "bx2.yb", work / "bad.yb", change)
    return work


# -- spectral verdicts and witnesses ---------------------------------------------


def test_spectral_pass_accepted_and_flipped_verdict_rejected(spectral, tmp_path):
    check = SpectralGrid._pass_check(spectral / "bx2.yb")
    good = verify(tmp_path, "ybe", "--spectral", "--in", spectral / "bx2.yb")
    check(good, {}, rng())

    def flip(report):
        report.update(passed=False, witness={"row": 0, "col": 0, "exponents": [0, 0],
                                             "value": "1"})
    with pytest.raises(checks.CheckFailed):
        check(with_report(good, flip), {}, rng())
    with pytest.raises(checks.CheckFailed):        # exit code no longer matches
        check(Outcome(1, good.stdout, good.files), {}, rng())


def test_spectral_pass_rejected_on_a_false_identity(spectral, tmp_path):
    outcome = verify(tmp_path, "ybe", "--spectral", "--in", spectral / "bx2.yb")
    # Claim PASS for the perturbed input: the random-point check must object.
    with pytest.raises(checks.CheckFailed):
        SpectralGrid._pass_check(spectral / "bad.yb")(outcome, {}, rng())


def test_spectral_witness_accepted_and_altered_value_rejected(spectral, tmp_path):
    check = SpectralGrid._fail_check(spectral / "bad.yb")
    bad = verify(tmp_path, "ybe", "--spectral", "--in", spectral / "bad.yb")
    assert bad.code == 1
    check(bad, {}, rng())

    def bump(report):
        value = Fraction(report["witness"]["value"]) + 1
        report["witness"]["value"] = str(value)
    with pytest.raises(checks.CheckFailed):
        check(with_report(bad, bump), {}, rng())

    def later(report):
        report["witness"]["exponents"][1] += 1
    with pytest.raises(checks.CheckFailed):
        check(with_report(bad, later), {}, rng())

    def passed(report):
        report.update(passed=True, witness=None)
    with pytest.raises(checks.CheckFailed):
        check(Outcome(0, "", with_report(bad, passed).files), {}, rng())


def test_poly_witness_must_equal_the_grid_witness(spectral, tmp_path):
    grid = verify(tmp_path, "ybe", "--spectral", "--in", spectral / "bad.yb")
    poly = verify(tmp_path, "ybe", "--spectral", "--method", "poly", "--in",
                  spectral / "bad.yb")
    check = SpectralGrid._poly_check("grid")
    check(poly, {"grid": grid}, rng())

    def moved(report):
        report["witness"]["col"] += 1
    with pytest.raises(checks.CheckFailed):
        check(with_report(poly, moved), {"grid": grid}, rng())


# -- classical identity and unitarity ----------------------------------------------


def test_cybe_witnesses_of_a_non_solution(tmp_path):
    build(["example1-r", "--n", 2, "--out", tmp_path / "r2.yb"])
    rows = non_solutions(exact.coefficient(exact.load(tmp_path / "r2.yb")["coeffs"], 0))
    rows = rows["nilpotent-tail"]
    write_matrix(rows, 2, tmp_path / "tail.yb")
    constant = verify(tmp_path, "cybe", "--in", tmp_path / "tail.yb")
    rational = verify(tmp_path, "cybe", "--rational", "--in", tmp_path / "tail.yb")
    ConstantExt._cybe_fail(rows)(constant, {}, rng())
    ConstantExt._cybe_rational_fail(rows, "c")(rational, {"c": constant}, rng())

    def bump(report):
        report["witness"]["value"] = str(Fraction(report["witness"]["value"]) * 2)
    with pytest.raises(checks.CheckFailed):
        ConstantExt._cybe_fail(rows)(with_report(constant, bump), {}, rng())
    with pytest.raises(checks.CheckFailed):
        ConstantExt._cybe_rational_fail(rows, "c")(with_report(rational, bump),
                                                    {"c": constant}, rng())


def test_classical_verdicts_must_agree(tmp_path):
    build(["example1-r", "--n", 3, "--out", tmp_path / "r3.yb"])
    constant = verify(tmp_path, "cybe", "--in", tmp_path / "r3.yb")
    rational = verify(tmp_path, "cybe", "--rational", "--in", tmp_path / "r3.yb")
    ConstantExt()._cybe_pass(tmp_path / "r3.yb")(constant, {}, rng())
    ConstantExt._agrees("c")(rational, {"c": constant}, rng())

    def flip(report):
        report.update(passed=False, witness={"row": 0, "col": 0, "exponents": [],
                                             "value": "1"})
    with pytest.raises(checks.CheckFailed):
        ConstantExt._agrees("c")(rational, {"c": with_report(constant, flip)}, rng())


def test_exponential_unitarity_scalar_must_be_one(tmp_path):
    build(["example1-R", "--n", 3, "--out", tmp_path / "R3.yb"])
    good = verify(tmp_path, "unitarity", "--in", tmp_path / "R3.yb")
    check = ConstantExt()._exp_unitarity(tmp_path / "R3.yb")
    check(good, {}, rng())

    def two(report):
        report["scalar_factor"] = "2"
    with pytest.raises(checks.CheckFailed):
        check(with_report(good, two), {}, rng())


def test_twisted_unitarity_scalar_must_match_untwisted(tmp_path):
    build(["yangian-so", "--N", 4, "--out", tmp_path / "so4.yb"])
    build(["example2", "--N", 4, "--out", tmp_path / "tw.yb"])
    plan = {"so4-scalar": checks.unitarity_scalar(exact.load(tmp_path / "so4.yb")["coeffs"], 4)}
    good = verify(tmp_path, "unitarity", "--in", tmp_path / "tw.yb")
    check = ConstantExt._twisted_unitarity(tmp_path / "tw.yb", 4, "antidiag", plan)
    check(good, {}, rng())

    def shifted(report):
        report["scalar_factor"]["coefficients"][0] = "2"
    with pytest.raises(checks.CheckFailed):
        check(with_report(good, shifted), {}, rng())


# -- spin chains -------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    work = tmp_path_factory.mktemp("chain")
    build(["example1-R", "--n", 2, "--xi", 1, "--out", work / "R.yb"])
    build(["baxterize", "--in", work / "R.yb", "--out", work / "bx.yb"])
    assert call(["chain", "hamiltonian", "--sites", 3, "--xi", 1,
                 "--out", work / "h.yb"]).code == 0
    assert call(["chain", "transfer", "--in", work / "bx.yb", "--sites", 3,
                 "--out", work / "t.yb"]).code == 0
    return work


def test_calibration_constants(chain):
    outcome = call(["chain", "calibrate", "--sites", 3, "--tau", 1])
    ham, spectral = exact.load(chain / "h.yb"), exact.load(chain / "bx.yb")
    checks.calibration(outcome.stdout, ham, spectral, 3, 1)
    alpha, beta = outcome.stdout.strip().replace(",", "").split()[2::3]
    for text in (f"alpha = {alpha}, beta = {Fraction(beta) + 1}",
                 f"alpha = {Fraction(alpha) * 2}, beta = {beta}"):
        with pytest.raises(checks.CheckFailed):
            checks.calibration(text, ham, spectral, 3, 1)


def test_hamiltonian_output_must_match(chain):
    check = SpinChain._hamiltonian(chain / "h.yb", 3, 1)
    check(Outcome(0, ""), {}, rng())
    with pytest.raises(checks.CheckFailed):
        SpinChain._hamiltonian(chain / "h.yb", 3, 2)(Outcome(0, ""), {}, rng())


def test_transfer_family_altered_entry_rejected(chain):
    family, spectral = exact.load(chain / "t.yb"), exact.load(chain / "bx.yb")
    checks.transfer_family(family, spectral, rng())
    for power in (0, 1):
        altered = copy.deepcopy(family)
        cell = altered["coeffs"][1][2]
        cell.extend([Fraction(0)] * (power + 1 - len(cell)))
        cell[power] += 1
        with pytest.raises(checks.CheckFailed):
            checks.transfer_family(altered, spectral, rng())


def test_commuting_family_check(chain):
    spectral = exact.load(chain / "bx.yb")
    checks.commuting_family(spectral, 3, rng())
    broken = copy.deepcopy(spectral)
    broken["coeffs"][0][1] = [Fraction(0), Fraction(3)]
    with pytest.raises(checks.CheckFailed):
        checks.commuting_family(broken, 3, rng())


def test_cyclic_shift_moves_the_last_site_first():
    shift = checks.cyclic_shift(2, 3)
    # e_{s1 s2 s3} = e_{0 0 1} (index 1) goes to e_{1 0 0} (index 4).
    assert shift[4][1] == 1 and sum(row[1] for row in shift) == 1


# -- exact arithmetic ----------------------------------------------------------------


def test_qi2_field_relations():
    sqrt2, i = exact.QI2(0, 1), exact.QI2(0, 0, 1)
    assert sqrt2 * sqrt2 == 2 and i * i == -1
    assert (sqrt2 * i) * (sqrt2 * i) == -2
    assert exact.parse_scalar(["1", "0", "0", "0"], "Q(i,sqrt2)") == Fraction(1)


def test_bivariate_coefficients_recover_a_polynomial():
    def f(a, b):
        return 3 * a * a * b - Fraction(1, 2) * b + 7
    coeffs = exact.bivariate_coefficients(f, 2, 2, [0, 1, 2], [0, 1, 2])
    assert coeffs == [[7, Fraction(-1, 2), 0], [0, 0, 0], [0, 3, 0]]


# -- spans -----------------------------------------------------------------------------


def nested_spans():
    S = trace.Span
    return [
        S("cli.main", 0.0, 10.0, -1, "c"),          # 0
        S("linalg.matmul", 1.0, 5.0, 0, "c"),       # 1: ext product
        S("linalg.classify", 1.0, 1.5, 1, "c", tag="ext"),
        S("linalg.matmul", 2.0, 3.0, 1, "c", work=8),   # 3: rational component
        S("linalg.classify", 2.0, 2.25, 3, "c", tag="rational"),
        S("linalg.scale_to_int", 2.25, 2.75, 3, "c", work=4),
        S("tensor.embed", 6.0, 9.0, 0, "c"),        # 6
        S("tensor.embed", 6.5, 8.0, 6, "c"),        # 7: nested, not counted twice
    ]


def test_self_time_subtracts_covered_children():
    own = trace.self_times(nested_spans())
    assert own[0] == pytest.approx(10 - 4 - 3)
    assert own[1] == pytest.approx(4 - 0.5 - 1)
    assert own[3] == pytest.approx(1 - 0.25 - 0.5)
    assert own[6] == pytest.approx(3 - 1.5)


def test_covered_merges_overlaps():
    assert trace.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert trace.covered([]) == 0


def test_layer_metrics_on_a_synthetic_tree():
    m = trace.layer_metrics(nested_spans())
    assert m["cli.main_self_s"] == pytest.approx(3)
    assert m["linalg.matmul_calls"] == 2
    assert m["linalg.ext_matmul_calls"] == 1
    assert m["linalg.ext_matmul_s"] == pytest.approx(4)
    assert m["linalg.matmul_madds"] == 8
    assert m["linalg.matmul_self_s"] == pytest.approx(2.5 + 0.25)
    assert m["linalg.scaled_entries"] == 4
    assert m["tensor.embed_s"] == pytest.approx(3)


def test_tracer_wraps_lookups_by_name_and_restores():
    import baxter.tensor
    import baxter.verify
    original = baxter.verify.embed_pair
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert baxter.verify.embed_pair is not original
        assert baxter.tensor.embed_pair is baxter.verify.embed_pair
        tracer.case = "probe"
        baxter.verify.check_ybe(baxter.tensor.permutation_op(2), mode="constant")
    finally:
        tracer.uninstall()
    assert baxter.verify.embed_pair is original
    names = {s.name for s in tracer.spans}
    assert {"verify.check", "tensor.embed", "linalg.matmul", "tensor.construct"} <= names
    check = next(s for s in tracer.spans if s.name == "verify.check")
    assert check.parent == -1 and check.case == "probe"
    assert all(s.parent < i for i, s in enumerate(tracer.spans))


def test_spread_order_is_a_permutation_that_spreads_neighbours():
    from perfbench.run import spread_order
    for count in (1, 2, 18, 32, 40):
        for turn in range(4):
            assert sorted(spread_order(count, turn)) == list(range(count))
    first = spread_order(32, 0)
    assert abs(first.index(1) - first.index(0)) > 4
    assert spread_order(32, 1)[0] != first[0]


class TinyWorkload:
    """Two `verify cocycle` cases of a few milliseconds, each run twice per round."""
    name = "tiny"
    warmup = "cocycle-2"

    def prepare(self, prep, seed):
        return {}

    def setup(self, work, plan):
        return [Case(f"cocycle-{n}", ["verify", "cocycle", "--n", n], repeat=2) for n in (2, 3)]


def test_untraced_metrics_match_the_spec_and_divide_by_the_reference_loop(tmp_path):
    import gc
    from perfbench.run import Run, untraced
    run = Run(TinyWorkload(), 1, tmp_path)
    try:
        metrics = untraced(run, 0.2)
    finally:
        gc.unfreeze()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
    loop = statistics.fmean(seconds for _, seconds in run.probes)
    assert metrics["wall_ref"][0] == pytest.approx(
        statistics.fmean(sum(r) for r in run.rounds) / loop)
    assert len(run.probes) >= len(run.rounds)
    assert len(run.samples) == run.counts()[0] == 4 * len(run.rounds)
