"""Written object bytes pinned in tests/data/outputs.json.

Each case is one `baxter build` or `baxter chain` command that writes an
object file: every object kind of `build` (the skew realizations over
Q(i, sqrt2) among them, and frobenius-r for n = 2..5), `chain transfer`
on the baxterized family at tau = 0, 1, 2 and on yangian sl(2) for
L = 3..5, `chain hamiltonian` for L = 3..6 on periodic and open chains at
xi = 0, 1, 2, -5/2, and `chain derive` on the baxterized family.  An
argument "@name" is the file written by the earlier case of that name.
The test runs every case and compares the sha256 and the length of each
file with the stored ones, so any change to a written byte shows up as a
diff of that file.

Regenerate the file, from the checkout whose bytes it should hold, with

    PYTHONPATH=src python tests/test_golden_outputs.py tests/data/outputs.json
"""

import hashlib
import json
import sys
import tempfile
from functools import cache
from pathlib import Path

import pytest

from baxter.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "outputs.json"
TAUS = ("0", "1", "2")


def _builds():
    for n in ("2", "3"):
        yield f"permutation-{n}", ["permutation", "--n", n]
        yield f"casimir-sl{n}", ["casimir", "--algebra", "sl", "--n", n]
        yield f"yangian-sl{n}", ["yangian-sl", "--n", n]
        yield f"frobenius-r{n}", ["frobenius-r", "--n", n]
        for xi in ("1", "2/3", "-5/2"):
            yield f"example1-r{n}-{xi}", ["example1-r", "--n", n, "--xi", xi]
    for n in ("4", "5"):
        yield f"frobenius-r{n}", ["frobenius-r", "--n", n]
    for tau in TAUS:
        yield f"R2-{tau}", ["example1-R", "--n", "2", "--xi", tau]
        yield f"bx2-{tau}", ["baxterize", "--in", f"@R2-{tau}"]
    yield "R3--5/2", ["example1-R", "--n", "3", "--xi", "-5/2"]
    yield "bx3", ["baxterize", "--in", "@R3--5/2"]
    for realization in ("antidiag", "skew"):
        for N in ("3", "4", "5"):
            yield f"K{N}-{realization}", ["K", "--N", N, "--realization", realization]
            yield f"casimir-so{N}-{realization}", ["casimir", "--algebra", "so", "--N", N,
                                                   "--realization", realization]
            yield f"yangian-so{N}-{realization}", ["yangian-so", "--N", N,
                                                   "--realization", realization]
        for N in ("4", "5"):
            for part in ("h", "e", "r0", "f0", "f0-inverse-swapped"):
                yield f"jordanian{N}-{part}-{realization}", [
                    "jordanian", "--N", N, "--part", part, "--realization", realization]
            yield f"example2-{N}-{realization}", ["example2", "--N", N,
                                                  "--realization", realization]
        yield f"twist4-{realization}", ["twist", "--in", f"@yangian-so4-{realization}",
                                        "--f0", f"@jordanian4-f0-{realization}"]


def _chains():
    for sites in ("3", "4", "5"):
        for tau in TAUS:
            yield f"transfer-bx2-{tau}-{sites}", ["transfer", "--in", f"@bx2-{tau}",
                                                  "--sites", sites]
        yield f"transfer-sl2-{sites}", ["transfer", "--in", "@yangian-sl2", "--sites", sites]
    for sites in ("3", "4", "5", "6"):
        for boundary in ("periodic", "open"):
            for xi in ("0", "1", "2", "-5/2"):
                yield f"hamiltonian-{sites}-{boundary}-{xi}", [
                    "hamiltonian", "--sites", sites, "--boundary", boundary, "--xi", xi]
    for sites in ("3", "4"):
        for boundary in ("periodic", "open"):
            for tau in TAUS:
                yield f"derive-bx2-{tau}-{sites}-{boundary}", [
                    "derive", "--in", f"@bx2-{tau}", "--sites", sites, "--boundary", boundary]
            yield f"derive-bx3-{sites}-{boundary}", ["derive", "--in", "@bx3", "--sites",
                                                     sites, "--boundary", boundary]


def cases():
    """(name, argv) for every pinned output, in file order."""
    for name, argv in _builds():
        yield name, ["build", *argv]
    for name, argv in _chains():
        yield name, ["chain", *argv]


def _path(folder: Path, name: str) -> Path:
    return folder / (name.replace("/", "_") + ".yb")


def run_all(folder: Path) -> dict:
    """{name: {"sha256", "bytes"}} of the file each case writes into folder."""
    out = {}
    for name, argv in cases():
        argv = [str(_path(folder, a[1:])) if a.startswith("@") else a for a in argv]
        code = main([*argv, "--out", str(_path(folder, name))])
        assert code == 0, (name, argv, code)
        data = _path(folder, name).read_bytes()
        out[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return out


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict:
    return run_all(tmp_path_factory.mktemp("outputs"))


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_outputs_list_every_case():
    assert list(_golden()) == [name for name, _ in cases()]


@pytest.mark.parametrize("name", [name for name, _ in cases()])
def test_written_bytes_match_the_golden_file(written, name):
    assert written[name] == _golden()[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        table = run_all(Path(folder))
    Path(sys.argv[1]).write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} outputs written to {sys.argv[1]}")
