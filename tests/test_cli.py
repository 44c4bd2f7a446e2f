"""Tests for the command-line interface and its exit codes."""

import json
import subprocess
import sys
import tracemalloc

import pytest

from baxter import linalg
from baxter.cli import main
from baxter.poly import Poly
from baxter.scalars import Ext
from baxter.serialize import decode, encode, load, save
from baxter.solutions import (Realization, SpectralRMatrix, example1_r, example1_R,
                              example2_solution, so_jordanian_data, yangian_sl_R,
                              yangian_so_R)
from baxter.spin_chain import ChainSpec, remark_hamiltonian, transfer_matrix
from baxter.tensor import TensorMatrix, kron, matrix_unit, permutation_op
from baxter.verify import Witness, check_cybe
from fractions import Fraction


def test_build_to_stdout(capsys):
    assert main(["build", "permutation", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert decode(out) == permutation_op(2)


def test_constant_family_sequence(tmp_path):
    r_path = str(tmp_path / "R.yb")
    spectral_path = str(tmp_path / "Rs.yb")
    assert main(["build", "example1-R", "--n", "3", "--out", r_path]) == 0
    assert main(["verify", "ybe", "--constant", "--in", r_path]) == 0
    assert main(["verify", "unitarity", "--in", r_path]) == 0
    assert main(["build", "baxterize", "--in", r_path,
                 "--out", spectral_path]) == 0
    assert main(["verify", "ybe", "--spectral", "--in", spectral_path]) == 0
    assert main(["verify", "regularity", "--in", spectral_path]) == 0


def test_twist_sequence(tmp_path):
    y_path = str(tmp_path / "y.yb")
    f0_path = str(tmp_path / "f0.yb")
    twisted_path = str(tmp_path / "t.yb")
    closed_path = str(tmp_path / "e2.yb")
    assert main(["build", "yangian-so", "--N", "4", "--out", y_path]) == 0
    assert main(["verify", "ybe", "--in", y_path]) == 0
    assert main(["build", "jordanian", "--part", "f0", "--N", "4",
                 "--out", f0_path]) == 0
    assert main(["build", "twist", "--in", y_path, "--f0", f0_path,
                 "--out", twisted_path]) == 0
    assert main(["build", "example2", "--N", "4", "--out", closed_path]) == 0
    assert main(["verify", "ybe", "--in", twisted_path]) == 0
    routed, closed = load(twisted_path), load(closed_path)
    assert routed.numerator == closed.numerator
    assert routed.denominator == closed.denominator


@pytest.mark.parametrize("target", [example1_R(2), yangian_sl_R(2)])
def test_spectral_twist_cocycle_exits_2(tmp_path, capsys, target):
    # F0 = u P + 1 has no constant inverse; it is refused before any
    # elimination, with one line
    f0 = permutation_op(2) * Poly.variable("u") + TensorMatrix.identity(2, 2)
    r_path, f0_path = str(tmp_path / "r.yb"), str(tmp_path / "f0.yb")
    save(target, r_path)
    save(f0, f0_path)
    assert main(["build", "twist", "--in", r_path, "--f0", f0_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (captured.err.count("\n") == 1 and "the twist cocycle must be constant" in captured.err
            and "Traceback" not in captured.err)


def test_failure_writes_report(tmp_path, capsys):
    p_path = str(tmp_path / "p.yb")
    report_path = tmp_path / "report.json"
    assert main(["build", "permutation", "--out", p_path]) == 0
    code = main(["verify", "cybe", "--in", p_path,
                 "--report", str(report_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    report = load(str(report_path))
    assert not report.passed
    assert report.witness is not None


def test_failing_constant_braid_identity(tmp_path):
    e = matrix_unit(2, 1, 2)
    bad = example1_r(2) + kron(e, e)
    bad_path = str(tmp_path / "NotASolution.yb")
    save(bad, bad_path)
    assert main(["verify", "ybe", "--constant", "--in", bad_path]) == 1
    # the same matrix also fails the classical identity in both modes
    assert main(["verify", "cybe", "--in", bad_path]) == 1
    assert main(["verify", "cybe", "--rational", "--in", bad_path]) == 1


def test_cocycle_verify_needs_no_input(capsys):
    assert main(["verify", "cocycle", "--n", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_frobenius_build_matches_library(tmp_path, capsys):
    assert main(["build", "frobenius-r", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert decode(out) == example1_r(2) * -1


def test_chain_subcommands(tmp_path, capsys):
    h_path = str(tmp_path / "h.yb")
    assert main(["chain", "hamiltonian", "--sites", "3", "--xi", "1/2",
                 "--out", h_path]) == 0
    assert load(h_path) == remark_hamiltonian(ChainSpec(3, "periodic",
                                                        Fraction(1, 2)))
    y_path = str(tmp_path / "y.yb")
    assert main(["build", "yangian-sl", "--n", "2", "--out", y_path]) == 0
    capsys.readouterr()
    assert main(["chain", "derive", "--in", y_path, "--sites", "3",
                 "--out", str(tmp_path / "d.yb")]) == 0
    assert main(["chain", "transfer", "--in", y_path, "--sites", "3",
                 "--out", str(tmp_path / "t.yb")]) == 0
    assert main(["chain", "commute", "--in", y_path, "--sites", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert main(["chain", "calibrate", "--sites", "3", "--tau", "2"]) == 0
    assert "alpha = 2, beta = -3" in capsys.readouterr().out


def test_missing_required_inputs_exit_2(capsys):
    assert main(["verify", "ybe"]) == 2
    assert main(["build", "baxterize"]) == 2
    assert main(["build", "twist"]) == 2
    assert main(["chain", "derive"]) == 2
    assert main(["verify", "classical-limit", "--in", "whatever.yb"]) == 2
    err = capsys.readouterr().err
    assert "missing required" in err


def test_input_errors_exit_2(tmp_path, capsys):
    assert main(["verify", "ybe", "--in", str(tmp_path / "absent.yb")]) == 2
    garbled = tmp_path / "garbled.yb"
    garbled.write_text("{not json")
    assert main(["verify", "ybe", "--in", str(garbled)]) == 2
    bad_atom = tmp_path / "bad.yb"
    bad_atom.write_text('{"kind": "matrix", "format_version": 1, '
                        '"field": "Q", "site_dim": 2, "legs": 1, '
                        '"variables": [], '
                        '"entries": [["2/4", "0"], ["0", "0"]]}')
    assert main(["verify", "ybe", "--in", str(bad_atom)]) == 2
    assert capsys.readouterr().err.count("error:") == 3


def test_argparse_rejections():
    with pytest.raises(SystemExit) as exit_info:
        main(["build", "flux-capacitor"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("action", ["derive", "transfer", "commute"])
def test_chain_rejects_constant_matrix_input(tmp_path, capsys, action):
    path = tmp_path / "P.yb"
    save(permutation_op(2), path)
    assert main(["chain", action, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "expected a spectral R-matrix file, found a matrix" in err


def test_verify_rejects_wrong_kind(tmp_path, capsys):
    spectral = tmp_path / "so3.yb"
    save(yangian_so_R(3), spectral)
    assert main(["verify", "cybe", "--in", str(spectral)]) == 2
    report = tmp_path / "rep.json"
    assert main(["verify", "ybe", "--in", str(spectral), "--report", str(report)]) == 0
    assert main(["verify", "unitarity", "--in", str(report)]) == 2
    err = capsys.readouterr().err
    assert "expected a matrix file, found a spectral R-matrix" in err
    assert "expected a matrix or spectral R-matrix file, found a report" in err


@pytest.mark.parametrize("field, value", [("details", [1]), ("witness", [1]),
                                          ("passed", 0)])
def test_malformed_report_input_exits_2(tmp_path, capsys, field, value):
    report = tmp_path / "rep.json"
    save(check_cybe(permutation_op(2)), report)
    payload = json.loads(report.read_text())
    payload[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", "ybe", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and f"at {field}" in err


@pytest.mark.parametrize("argv", [["verify", "ybe", "--in", "x.yb", "--grid-margin", "1"],
                                  ["chain", "commute", "--in", "x.yb", "--grid-margin", "1"]])
def test_negative_grid_margin_exits_2(capsys, argv):
    # chain commutation runs no grid, and the spectral braid grid is the
    # degree bound plus one: no subcommand takes a --grid-margin, of any sign
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert (err.count("\n") == 1 and "unrecognized arguments: --grid-margin 1" in err
            and "Traceback" not in err)


@pytest.mark.parametrize("argv", [["verify", "cocycle", "--n", "15"],
                                  ["verify", "cocycle", "--n", "4096"],
                                  ["build", "frobenius-r", "--n", "15"]])
def test_oversized_cocycle_sizes_exit_2_at_once(baxter_command, argv):
    # the closure system of example1_basis(n) is refused before any element
    # is built, so the command answers at once instead of running for minutes
    command, env = baxter_command
    proc = subprocess.run([*command, *argv], capture_output=True, text=True, env=env,
                          timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "above the limit" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("action", ["transfer", "commute", "calibrate"])
def test_periodic_chain_actions_refuse_an_open_chain(tmp_path, capsys, action):
    path = tmp_path / "sl2.yb"
    save(yangian_sl_R(2), path)
    argv = ["chain", action, "--boundary", "open", "--sites", "3"]
    assert main(argv if action == "calibrate" else [*argv, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "periodic chain" in captured.err


def test_dense_size_ceiling_exits_2(tmp_path, capsys):
    # each size is refused before its dense matrix or entry dict is built:
    # 1000^2, 2^16 and 2^17 all exceed the ceiling of 4096
    spectral = tmp_path / "sl2.yb"
    assert main(["build", "yangian-sl", "--n", "2", "--out", str(spectral)]) == 0
    capsys.readouterr()
    for argv in (["build", "yangian-so", "--N", "1000"],
                 ["chain", "hamiltonian", "--sites", "16"],
                 ["chain", "transfer", "--in", str(spectral), "--sites", "16"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "exceeds the dense limit" in captured.err


def test_decoded_stack_ceiling_exits_2(tmp_path, capsys):
    # a one-leg matrix in u of site_dim 128 whose first 32 rows are distinct
    # cells, one of them of 8193 coefficients: about 140 kB on disk, but 8193
    # layers of 128^2 exceed the reader's 2^27 coefficients, so it is refused
    # before the distinct cells are cleared (8193 x 4097 int64, 269 MB) or
    # gathered
    cells = [[[str(128 * i + j)] if i < 32 else ["0"] for j in range(128)]
             for i in range(128)]
    cells[0][0] = ["0"] * 8192 + ["1"]
    path = tmp_path / "deep.yb"
    path.write_text(json.dumps({"kind": "matrix", "format_version": 1, "field": "Q",
                                "site_dim": 128, "legs": 1, "variables": ["u"],
                                "entries": cells}, separators=(",", ":")))
    assert path.stat().st_size < 2 * 10 ** 5
    tracemalloc.start()
    try:
        assert main(["build", "baxterize", "--in", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 26
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "8193 layers of 128x128 coefficients exceed the decoded limit 134217728" in captured.err


def _degenerate_inputs(folder):
    """Seven degenerate input files: zero, identity and constant two-site
    matrices, a one-site matrix, the spectral zero and u * 1, and
    u / 2**40 E12 (x) E12, whose transfer family is zero over a scale above
    2**80."""
    u = Poly.variable("u")
    e12 = matrix_unit(2, 1, 2)
    objects = {
        "zero": TensorMatrix.zero(2, 2),
        "identity": TensorMatrix.identity(2, 2),
        "constant": example1_R(2),
        "one-site": matrix_unit(2, 1, 2),
        "spectral-zero": SpectralRMatrix(TensorMatrix.zero(2, 2) * u, Poly.lift(1, ("u",))),
        "u-identity": SpectralRMatrix(TensorMatrix.identity(2, 2) * u, Poly.lift(1, ("u",))),
        "tiny-nilpotent": SpectralRMatrix(kron(e12, e12) * (u * Fraction(1, 2 ** 40)),
                                          Poly.lift(1, ("u",))),
    }
    paths = {}
    for name, obj in objects.items():
        paths[name] = str(folder / f"{name}.yb")
        save(obj, paths[name])
    return paths


SWEEP = [["verify", "cybe"], ["verify", "cybe", "--rational"], ["verify", "ybe"],
         ["verify", "ybe", "--constant"], ["verify", "ybe", "--spectral"],
         ["verify", "ybe", "--spectral", "--method", "poly"], ["verify", "unitarity"],
         ["verify", "regularity"], ["verify", "classical-limit", "--against"],
         ["chain", "derive"], ["chain", "transfer"], ["chain", "commute"]]


def _non_canonical_inputs(folder):
    """(field, path) of chain and spectral files with one field of the wrong
    type: an aux_dim that is text, negative or a bool, a sites that is a
    bool, a label that is a number."""
    chain = json.loads(encode(transfer_matrix(yangian_sl_R(2), ChainSpec(2))))
    spectral = json.loads(encode(yangian_sl_R(2)))
    bad = [(chain, "aux_dim", "x"), (chain, "aux_dim", -3), (chain, "aux_dim", True),
           (chain, "sites", True), (chain, "label", 5), (spectral, "label", 5)]
    out = []
    for k, (base, key, value) in enumerate(bad):
        path = folder / f"non-canonical-{k}.yb"
        path.write_text(json.dumps({**base, key: value}))
        out.append((key, str(path)))
    return out


def _non_canonical_cells(folder):
    """(location, path) of matrix and spectral files with one cell written
    otherwise than the writer writes it: a malformed cell repeated, and cells
    equal in value to an earlier one but not in JSON (1 and "1", ["1"] and
    "1", "2/4" and "1/2"); each is refused at its first location."""
    matrix = json.loads(encode(permutation_op(2)))
    spectral = json.loads(encode(yangian_sl_R(2)))
    bad = [(matrix, {(1, 3): "01", (2, 0): "01", (3, 3): "01"}, "entries[1][3]"),
           (matrix, {(1, 2): 1}, "entries[1][2]"),
           (matrix, {(2, 1): ["1"]}, "entries[2][1]"),
           (matrix, {(0, 1): "1/2", (0, 2): "2/4", (3, 1): "2/4"}, "entries[0][2]"),
           (spectral, {(3, 0): [1], (3, 2): [1]}, "entries[3][0][0]")]
    out = []
    for k, (base, cells, location) in enumerate(bad):
        doc = json.loads(json.dumps(base))
        for (i, j), cell in cells.items():
            doc["entries"][i][j] = cell
        path = folder / f"non-canonical-cell-{k}.yb"
        path.write_text(json.dumps(doc))
        out.append((location, str(path)))
    return out


def test_degenerate_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    # 7 inputs x 12 commands: exit 0 or 1 after a verification, 2 on bad
    # input, and never an exception out of main (a traceback from the script);
    # 6 non-canonical inputs and 5 non-canonical cells x 12 commands: exit 2,
    # naming the bad field or cell
    paths = _degenerate_inputs(tmp_path)
    inputs = ([(None, path) for path in paths.values()] + _non_canonical_inputs(tmp_path)
              + _non_canonical_cells(tmp_path))
    for field, path in inputs:
        for command in SWEEP:
            argv = [*command, path] if command[-1] == "--against" else [*command]
            argv += ["--in", path, "--out" if argv[0] == "chain" else "--report",
                     str(tmp_path / "out.json")]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (path, argv, code)
            assert "Traceback" not in err, (path, argv, err)
            assert code != 2 or err.count("\n") == 1, (path, argv, err)
            assert field is None or code == 2 and f"at {field}" in err, (path, argv, err)


def test_unitarity_of_the_spectral_zero_fails_with_a_witness(tmp_path, baxter_command):
    path = _degenerate_inputs(tmp_path)["spectral-zero"]
    report = tmp_path / "rep.json"
    argv, env = baxter_command
    proc = subprocess.run([*argv, "verify", "unitarity", "--in", path, "--report", str(report)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stderr == "", proc.stderr
    got = load(str(report))
    assert got.witness == Witness(0, 0, (0,), 0) and got.scalar_factor is None


def test_installed_script_runs(baxter_command):
    argv, env = baxter_command
    cmd = [*argv, "build", "permutation", "--n", "2"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr}"
    assert decode(proc.stdout) == permutation_op(2), cmd


def test_script_target_without_tomllib(monkeypatch):
    from conftest import script_target
    wanted = script_target("baxter")
    assert wanted == "baxter.cli:main"
    monkeypatch.setitem(sys.modules, "tomllib", None)
    assert script_target("baxter") == wanted


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))


@pytest.mark.parametrize("argv", [
    ["chain", "hamiltonian", "--sites", "3", "--xi", "-5/2"],
    ["chain", "calibrate", "--sites", "3", "--tau", "-1/2"],
    ["build", "example1-R", "--n", "2", "--xi", "-5/2"],
])
def test_negative_fractions_are_values(capsys, argv):
    # -5/2 is not a plain negative number, which argparse would read as an option
    assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == 0
    want = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_negative_xi_reaches_the_hamiltonian(capsys):
    # on an open chain the sign of xi survives in the boundary terms
    assert main(["chain", "hamiltonian", "--sites", "3", "--boundary", "open",
                 "--xi", "-5/2"]) == 0
    got = decode(capsys.readouterr().out)
    assert got == remark_hamiltonian(ChainSpec(3, "open", Fraction(-5, 2)))
    assert got != remark_hamiltonian(ChainSpec(3, "open", Fraction(5, 2)))


def test_bad_scalar_values_exit_2_with_one_line(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["chain", "calibrate", "--tau", "-x"])
    assert exit_info.value.code == 2
    assert main(["chain", "hamiltonian", "--xi", "-5/0"]) == 2
    assert main(["chain", "calibrate", "--tau", "-1/2/3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("error" in line for line in err)


def test_one_parser_serves_every_call_without_leaking(tmp_path, capsys):
    # the parser is built once per process; what one call parses must not
    # reach the next call's options
    path = str(tmp_path / "so3.yb")
    save(yangian_so_R(3), path)
    capsys.readouterr()
    ybe = ["verify", "ybe", "--spectral", "--in", path]
    assert main([*ybe, "--method", "poly"]) == 0
    assert main(ybe) == 0
    saved = tmp_path / "so3.json"
    assert main([*ybe, "--report", str(saved)]) == 0
    saved.unlink()
    assert main(ybe) == 0 and not saved.exists()
    poly, grid, reported, again = capsys.readouterr().out.splitlines()
    assert "grid=" not in poly and "grid=5x5" in grid
    assert reported == grid and again == grid
    with pytest.raises(SystemExit) as exit_info:
        main([*ybe, "--method", "cubic"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--method" in err
    assert main(ybe) == 0 and capsys.readouterr().out == grid + "\n"


def test_verifiers_check_decoded_files_from_their_stacks(tmp_path, capsys, monkeypatch):
    # a matrix read from a file is known by its cleared stack: no verifier
    # but the constant braid identity rebuilds its entries
    skew, e12 = so_jordanian_data(4, Realization.SKEW), matrix_unit(2, 1, 2)
    objects = {
        "R3": example1_R(3), "r3": example1_r(3), "P2": permutation_op(2),
        "R3-off": example1_R(3) + TensorMatrix.from_entries(3, 2, {(4, 2): Fraction(2, 3)}),
        "r0": skew.r0, "r0-i": skew.r0 * Ext(0, 0, 1),
        "exp3": example1_R(3, Poly.variable("xi")), "so3": yangian_so_R(3),
        "twisted4": example2_solution(4, Realization.SKEW),
        "sl2-off": yangian_sl_R(2).numerator + kron(e12, e12) * Poly.variable("u"),
    }
    for name, obj in objects.items():
        save(obj, tmp_path / f"{name}.yb")
    commands = [["unitarity", "R3"], ["unitarity", "R3-off"], ["unitarity", "r0"],
                ["unitarity", "twisted4"], ["unitarity", "sl2-off"],
                ["regularity", "R3"], ["regularity", "so3"], ["regularity", "sl2-off"],
                ["cybe", "r3"], ["cybe", "P2"], ["cybe", "r0-i"],
                ["cybe", "r3", "--rational"], ["cybe", "r0", "--rational"],
                ["cybe", "r3", "--rational", "--omega", "R3-off"],
                ["classical-limit", "exp3", "--against", "r3"],
                ["classical-limit", "exp3", "--against", "R3-off"],
                ["ybe", "so3", "--spectral"], ["ybe", "so3", "--spectral", "--method", "poly"],
                ["ybe", "sl2-off", "--spectral", "--method", "poly"]]

    def run_all():
        out = []
        for identity, name, *rest in commands:
            rest = [str(tmp_path / f"{x}.yb") if x in objects else x for x in rest]
            report = tmp_path / "report.json"
            code = main(["verify", identity, "--in", str(tmp_path / f"{name}.yb"), *rest,
                         "--report", str(report)])
            out.append((code, capsys.readouterr().out, report.read_bytes()))
        return out

    want = run_all()
    assert {code for code, _, _ in want} == {0, 1}

    def refuse(*args):
        raise AssertionError("a decoded matrix was rebuilt")

    monkeypatch.setattr(linalg, "rebuild", refuse)
    assert run_all() == want
