"""Scale sweep of the spectral braid identity and the chain outputs, one case
per fresh interpreter.

Each case times one call in a new Python process, with the given `src`
first on PYTHONPATH, so no case inherits another's caches or heap: a
`check_ybe` call on one built solution, or one `baxter verify` or
`baxter chain` command line, run in-process through `baxter.cli.main` and
written to a file.  A command line's `--in` file is written before the
clock starts, so its time includes reading it.  A case runs three times
per source; the sources take turns within each repetition, so a drift of
the host's speed falls on all of them alike.  For every source the output
records, per case, each wall time, their median, the largest `ru_maxrss`
of the child processes (the whole process: imports, construction and the
timed call) and the report line (for a command line, its exit code and
the lines it printed), and for a command line the sha256 of the file it
wrote (`--report` for verify and chain commute, `--out` for the other
chain actions).  Report lines and file hashes must agree between sources,
byte for byte, except on the size of a grid: report lines are compared
without a ` grid=AxB` token, and the reports of `chain commute` and
`verify ybe --spectral` are hashed without the `grid_size` field, so a
tree that decides an identity on another grid, or on none, compares equal
when its verdict and witness are the same.  A `chain commute` case also
records how many products of the integer kernel ran inside
`check_commutation` and how many of them in Python ints.

    python3 tools/sweep.py --src parent=../parent/src --src change=src \\
        --out BENCH_pr25.json

Cases (see CASES): spectral so(N), N = 3..12, in both realizations and
sl(n), n = 2..4, whose numerators satisfy R21 = R12; the skew twisted
solution, N = 4..7, whose numerator does not; `--method poly` on so(3)
and so(4); `chain transfer` on the baxterized n = 2 family at tau = 1
and on yangian sl(2), L = 3..6; `chain hamiltonian` at xi = 1 on a
periodic chain, L = 3..8; `chain commute --report` on the baxterized
n = 2 family at tau = 1, L = 3..9, and on yangian sl(2), L = 7..9;
`chain derive` on the baxterized n = 2 family at tau = 1, L = 3..6;
`verify unitarity --in` the twisted solution, N = 4..6, in both
realizations; `verify ybe --spectral --in` so(N), N = 3..7, antidiagonal;
`verify ybe --spectral --method poly --in` the baxterized n = 3 family
and the skew twisted solution, N = 4, 5; `verify cybe --in` and
`verify cybe --rational --in` the triangular r, example1_r(n), n = 3..6;
`verify ybe --constant --in` the triangular solution example1_R(n),
n = 3..7; `verify cocycle --report` on the triangular basis,
n = 4, 6, 8, 10; `build frobenius-r --out`, n = 4, 6.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPEAT = 3

YBE = """
import json, resource, time
from baxter.solutions import Realization, example2_solution, yangian_sl_R, yangian_so_R
from baxter.verify import check_ybe
r = {build}
start = time.perf_counter()
report = check_ybe(r, method={method!r})
wall = time.perf_counter() - start
print(json.dumps({{"wall_s": wall, "report": str(report),
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}}))
"""

# a command line writing to a file with the option given, after its --in file
# (when given) is built and written; for chain commute, the kernel's products
# inside check_commutation are counted; the report of chain commute and of
# verify ybe --spectral is hashed without its grid_size
COMMAND = """
import contextlib, hashlib, io, json, resource, tempfile, time
from pathlib import Path
from baxter import linalg, serialize, spin_chain
from baxter.cli import main
products = [0, 0]
check, int_product = spin_chain.check_commutation, linalg.int_product

def counted(a, b):
    out = int_product(a, b)
    products[0] += 1
    products[1] += out[0].dtype == object
    return out

def check_commutation(*args):
    linalg.int_product = counted
    try:
        return check(*args)
    finally:
        linalg.int_product = int_product

spin_chain.check_commutation = check_commutation
from baxter.solutions import (Realization, baxterize, example1_r, example1_R,
                              example2_solution, yangian_sl_R, yangian_so_R)
with tempfile.TemporaryDirectory() as folder:
    source, out = Path(folder, "in.yb"), Path(folder, "out.yb")
    argv, built = {argv!r}, {build}
    commute = argv[:2] == ["chain", "commute"]
    if built is not None:
        serialize.save(built, source)
        argv += ["--in", str(source)]
    printed = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = main([*argv, {option!r}, str(out)])
    wall = time.perf_counter() - start
    written = out.read_bytes()
    if commute or argv[:3] == ["verify", "ybe", "--spectral"]:
        payload = json.loads(written)
        payload.pop("grid_size")
        written = json.dumps(payload, sort_keys=True, indent=2).encode()
    digest = hashlib.sha256(written).hexdigest()
report = "; ".join([f"exit {{code}}", *printed.getvalue().splitlines()])
print(json.dumps({{"wall_s": wall, "report": report, "sha256": digest,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  **({{"products": products[0], "python_int_products": products[1]}}
                     if commute else {{}})}}))
"""

# the token of a report line decided on a grid
GRID = re.compile(r" grid=\d+x\d+")

# name: the child program
CASES = {
    **{f"so{N}-{r}": YBE.format(build=f"yangian_so_R({N}, Realization.{r.upper()})",
                                method="grid")
       for N in range(3, 13) for r in ("antidiag", "skew")},
    **{f"sl{n}": YBE.format(build=f"yangian_sl_R({n})", method="grid") for n in (2, 3, 4)},
    **{f"twisted{N}-skew": YBE.format(build=f"example2_solution({N}, Realization.SKEW)",
                                      method="grid")
       for N in (4, 5, 6, 7)},
    **{f"so{N}-antidiag-poly": YBE.format(build=f"yangian_so_R({N})", method="poly")
       for N in (3, 4)},
    **{f"transfer-{name}-{L}": COMMAND.format(build=build, option="--out",
                                              argv=["chain", "transfer", "--sites", str(L)])
       for name, build in (("bx2", "baxterize(example1_R(2, 1))"), ("sl2", "yangian_sl_R(2)"))
       for L in range(3, 7)},
    **{f"hamiltonian-{L}": COMMAND.format(build="None", option="--out",
                                          argv=["chain", "hamiltonian", "--sites", str(L),
                                                "--xi", "1"])
       for L in range(3, 9)},
    **{f"commute-{name}-{L}": COMMAND.format(build=build, option="--report",
                                             argv=["chain", "commute", "--sites", str(L)])
       for name, build, sites in (("bx2", "baxterize(example1_R(2, 1))", range(3, 10)),
                                  ("sl2", "yangian_sl_R(2)", (7, 8, 9)))
       for L in sites},
    **{f"derive-bx2-{L}": COMMAND.format(build="baxterize(example1_R(2, 1))", option="--out",
                                         argv=["chain", "derive", "--sites", str(L)])
       for L in range(3, 7)},
    **{f"unitarity-file-twisted{N}-{r}": COMMAND.format(
        build=f"example2_solution({N}, Realization.{r.upper()})", option="--report",
        argv=["verify", "unitarity"])
       for N in (4, 5, 6) for r in ("antidiag", "skew")},
    **{f"ybe-file-so{N}-antidiag": COMMAND.format(build=f"yangian_so_R({N})", option="--report",
                                                  argv=["verify", "ybe", "--spectral"])
       for N in range(3, 8)},
    **{f"ybe-poly-file-{name}": COMMAND.format(build=build, option="--report",
                                               argv=["verify", "ybe", "--spectral",
                                                     "--method", "poly"])
       for name, build in (("bx3", "baxterize(example1_R(3))"),
                           *((f"twisted{N}-skew", f"example2_solution({N}, Realization.SKEW)")
                             for N in (4, 5)))},
    **{f"cybe{mode}-r{n}": COMMAND.format(build=f"example1_r({n})", option="--report",
                                          argv=["verify", "cybe", *flag])
       for mode, flag in (("", ()), ("-rational", ("--rational",))) for n in range(3, 7)},
    **{f"ybe-constant-R{n}": COMMAND.format(build=f"example1_R({n}, 1)", option="--report",
                                            argv=["verify", "ybe", "--constant"])
       for n in range(3, 8)},
    **{f"cocycle-{n}": COMMAND.format(build="None", option="--report",
                                      argv=["verify", "cocycle", "--n", str(n)])
       for n in (4, 6, 8, 10)},
    **{f"frobenius-r-{n}": COMMAND.format(build="None", option="--out",
                                          argv=["build", "frobenius-r", "--n", str(n)])
       for n in (4, 6)},
}


def run_case(src: Path, name: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    done = subprocess.run([sys.executable, "-c", CASES[name]],
                          env=env, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"{name} failed on {src}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def sweep(sources: dict) -> dict:
    runs = {label: {name: [] for name in CASES} for label in sources}
    for name in CASES:
        for _ in range(REPEAT):
            for label, src in sources.items():
                runs[label][name].append(run_case(src, name))
        results = {(GRID.sub("", r["report"]), r.get("sha256"))
                   for by_name in runs.values() for r in by_name[name]}
        if len(results) != 1:
            raise SystemExit(f"{name}: the reports or written files differ: {sorted(results)}")
        line = ", ".join(f"{label} {statistics.median(r['wall_s'] for r in runs[label][name]):.4f} s"
                         for label in sources)
        print(f"{name}: {line}", file=sys.stderr)
    return {label: {name: {"wall_s": [round(r["wall_s"], 5) for r in rs],
                           "median_s": round(statistics.median(r["wall_s"] for r in rs), 5),
                           "maxrss_mb": round(max(r["maxrss_kb"] for r in rs) / 1024, 1),
                           "report": rs[0]["report"],
                           **{key: rs[0][key] for key in ("sha256", "products",
                                                          "python_int_products") if key in rs[0]}}
                    for name, rs in by_name.items()}
            for label, by_name in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, metavar="LABEL=PATH",
                        help="a label and the src directory to import baxter from")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sources = {}
    for item in args.src:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "baxter").is_dir():
            parser.error(f"--src {item!r}: expected LABEL=PATH to a directory holding baxter/")
        sources[label] = Path(path)
    blocks = sweep(sources)
    out = {
        "what": "wall time of check_ybe or of one command line, reading its --in file "
                "(median of the repeats, each in a fresh interpreter), the largest ru_maxrss "
                "of those interpreters, and the sha256 of the file a command line wrote, "
                "per case",
        "machine": {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
                    "cpus": os.cpu_count(), "system": platform.system(),
                    "machine": platform.machine()},
        "repeat": REPEAT,
        **blocks,
    }
    if len(sources) == 2:
        first, second = sources
        out[f"{second}/{first}"] = {name: round(blocks[second][name]["median_s"]
                                                / blocks[first][name]["median_s"], 3)
                                    for name in CASES}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
