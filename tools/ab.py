"""Interleaved in-process A/B of two source trees on the three-leg command
lines of the benchmark, n = 2..5.

    python3 tools/ab.py --src parent=../parent/src --src change=src \\
        --rounds 40 --out ab.json

Both trees are imported into one interpreter, each under its own package
name (the `baxter` package of each is copied to a temporary directory), so
a case runs on both in the same process, heap and phase of the host's
drift.  Each case is one `baxter verify ... --report` command line through
the tree's `cli.main`, on input files built once by the first tree; the
reports of the two trees must agree byte for byte.  A round times the case
once per tree, in alternating order, after `gc.collect()`.  The output
gives, per case, each tree's median time and the median and quartiles of
the per-round ratio second / first.

Cases: spectral `ybe` of so(N), N = 3, 4, 5, in both realizations, of the
twisted solution, N = 4, 5, in both realizations, of sl(n), n = 2, 3, 4,
and of the baxterized family, n = 2, 3, 4; `--method poly` on baxterized
n = 2 and so(4); `cybe` in both modes on example1_r(n), n = 2..5, and on
the jordanian r0, N = 4 (both modes antidiagonal, constant mode skew).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BUILDS = {
    **{f"so{N}-{r}": ["yangian-so", "--N", N, "--realization", r]
       for N in (3, 4, 5) for r in ("antidiag", "skew")},
    **{f"twisted{N}-{r}": ["example2", "--N", N, "--realization", r]
       for N in (4, 5) for r in ("antidiag", "skew")},
    **{f"sl{n}": ["yangian-sl", "--n", n] for n in (2, 3, 4)},
    **{f"R{n}": ["example1-R", "--n", n] for n in (2, 3, 4)},
    **{f"r{n}": ["example1-r", "--n", n] for n in (2, 3, 4, 5)},
    **{f"r0-{r}": ["jordanian", "--part", "r0", "--N", 4, "--realization", r]
       for r in ("antidiag", "skew")},
}
SPECTRAL = [name for name in BUILDS if name.startswith(("so", "twisted", "sl"))]
CASES = {
    **{name: ["ybe", "--spectral", "--in", name] for name in SPECTRAL},
    **{f"bx{n}": ["ybe", "--spectral", "--in", f"bx{n}"] for n in (2, 3, 4)},
    "bx2-poly": ["ybe", "--spectral", "--method", "poly", "--in", "bx2"],
    "so4-antidiag-poly": ["ybe", "--spectral", "--method", "poly", "--in", "so4-antidiag"],
    **{f"cybe{mode}-r{n}": ["cybe", *flag, "--in", f"r{n}"]
       for n in (2, 3, 4, 5) for mode, flag in (("", ()), ("-rational", ("--rational",)))},
    "cybe-r0-antidiag": ["cybe", "--in", "r0-antidiag"],
    "cybe-rational-r0-antidiag": ["cybe", "--rational", "--in", "r0-antidiag"],
    "cybe-r0-skew": ["cybe", "--in", "r0-skew"],
}


def run(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, metavar="LABEL=PATH",
                        help="a label and the src directory to import baxter from (twice)")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src twice")
    work = Path(tempfile.mkdtemp())
    try:
        trees = {}
        for k, item in enumerate(args.src):
            label, sep, path = item.partition("=")
            if not sep or not (Path(path) / "baxter").is_dir():
                parser.error(f"--src {item!r}: expected LABEL=PATH to a directory holding baxter/")
            name = f"baxter_ab{k}"
            shutil.copytree(Path(path) / "baxter", work / "pkgs" / name)
            trees[label] = name
        sys.path.insert(0, str(work / "pkgs"))
        clis = {label: importlib.import_module(f"{name}.cli") for label, name in trees.items()}
        first, second = clis
        for name, build in BUILDS.items():
            run(clis[first], ["build", *build, "--out", work / f"{name}.yb"])
        for n in (2, 3, 4):
            run(clis[first], ["build", "baxterize", "--in", work / f"R{n}.yb",
                              "--out", work / f"bx{n}.yb"])
        results = {}
        for case, line in CASES.items():
            line = ["verify", *line[:-1], work / f"{line[-1]}.yb", "--report"]
            reports = []
            for label in clis:
                code = run(clis[label], [*line, work / f"{label}.json"])
                reports.append((code, (work / f"{label}.json").read_bytes()))
            if reports[0] != reports[1]:
                raise SystemExit(f"{case}: the reports differ")
            times = {label: [] for label in clis}
            for k in range(args.rounds):
                for label in (clis if k % 2 == 0 else reversed(list(clis))):
                    gc.collect()
                    start = time.perf_counter()
                    run(clis[label], [*line, work / "timed.json"])
                    times[label].append(time.perf_counter() - start)
            ratios = [b / a for a, b in zip(times[first], times[second])]
            low, mid, high = statistics.quantiles(ratios, n=4)
            results[case] = {**{f"{label}_median_ms": round(statistics.median(ts) * 1e3, 3)
                                for label, ts in times.items()},
                             "ratio_median": round(statistics.median(ratios), 3),
                             "ratio_quartiles": [round(low, 3), round(high, 3)]}
            print(f"{case}: {second}/{first} {results[case]['ratio_median']} "
                  f"[{low:.3f}, {high:.3f}]", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work)
    out = {"what": f"interleaved in-process A/B, {args.rounds} rounds: per case each tree's "
                   "median time of one verify command line and the median and quartiles of "
                   f"the per-round ratio {second}/{first}",
           "cases": results}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
