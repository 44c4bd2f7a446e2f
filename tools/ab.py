"""Interleaved in-process A/B of two source trees on the benchmark's cases.

    python3 tools/ab.py --src parent=../parent/src --src change=src \\
        --rounds 40 --out ab.json

Run from the root of a checkout.  The cases are those of the perfbench
workloads (perfbench.workloads.WORKLOADS, read as they are): every
command line of spectral-grid, constant-ext and spin-chain, or of the
workloads named with --workload, on seed --seed.  Their input files are
written once, by the workloads' own set-up, with the first tree imported
as `baxter`.

Both trees are imported into one interpreter, each under its own package
name (the `baxter` package of each is copied to a temporary directory), so
a case runs on both in the same process, heap and phase of the host's
drift.  A case is run through each tree's `cli.main`; the exit code, the
printed lines and the files it writes must agree between the trees byte
for byte.  A round times the case once per tree, in alternating order,
after `gc.collect()`.  The output gives, per case, each tree's median
time and the median and quartiles of the per-round ratio second / first,
and per workload the ratio of the sums of the two trees' medians.
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

sys.path.insert(0, ".")

from perfbench.workloads import WORKLOADS  # noqa: E402


def run(cli, case) -> tuple:
    """(exit code, stdout, the files the case wrote) of one command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in case.argv])
    return code, out.getvalue(), [Path(path).read_bytes() for _, path in case.files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, metavar="LABEL=PATH",
                        help="a label and the src directory to import baxter from (twice)")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="a workload to compare (repeatable; default all three)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--out", type=Path)
    # usage errors are one line on stderr and exit 2, as in baxter's own parser
    parser.error = lambda message: parser.exit(2, f"{parser.prog}: error: {message}\n")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src twice")
    if len({item.partition("=")[0] for item in args.src}) != 2:
        parser.error("give the two --src different labels")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2: the quartiles need two ratios")
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
        # the workloads' set-up writes the inputs through `baxter`
        sys.path[:0] = [str(work / "pkgs"), str(Path(args.src[0].partition("=")[2]).resolve())]
        clis = {label: importlib.import_module(f"{name}.cli") for label, name in trees.items()}
        first, second = clis
        results, totals = {}, {}
        for workload in args.workload or sorted(WORKLOADS):
            dirs = [work / workload / part for part in ("prepare", "setup")]
            for path in dirs:
                path.mkdir(parents=True)
            spec = WORKLOADS[workload]
            cases = spec.setup(dirs[1], spec.prepare(dirs[0], args.seed))
            medians = {label: [] for label in clis}
            for case in cases:
                if run(clis[first], case) != run(clis[second], case):
                    raise SystemExit(f"{workload}/{case.id}: the outputs differ")
                times = {label: [] for label in clis}
                for k in range(args.rounds):
                    for label in (clis if k % 2 == 0 else reversed(list(clis))):
                        gc.collect()
                        start = time.perf_counter()
                        run(clis[label], case)
                        times[label].append(time.perf_counter() - start)
                ratios = [b / a for a, b in zip(times[first], times[second])]
                low, _, high = statistics.quantiles(ratios, n=4)
                for label, ts in times.items():
                    medians[label].append(statistics.median(ts))
                results[f"{workload}/{case.id}"] = {
                    **{f"{label}_median_ms": round(medians[label][-1] * 1e3, 3)
                       for label in clis},
                    "ratio_median": round(statistics.median(ratios), 3),
                    "ratio_quartiles": [round(low, 3), round(high, 3)]}
                print(f"{workload}/{case.id}: {second}/{first} "
                      f"{results[f'{workload}/{case.id}']['ratio_median']} "
                      f"[{low:.3f}, {high:.3f}]", file=sys.stderr, flush=True)
            totals[workload] = {
                **{f"{label}_sum_of_medians_ms": round(sum(ms) * 1e3, 3)
                   for label, ms in medians.items()},
                "ratio": round(sum(medians[second]) / sum(medians[first]), 3)}
    finally:
        shutil.rmtree(work)
    out = {"what": f"interleaved in-process A/B on the perfbench cases, seed {args.seed}, "
                   f"{args.rounds} rounds: per case each tree's median time of one command "
                   f"line and the median and quartiles of the per-round ratio {second}/{first}; "
                   "per workload the sums of those medians and their ratio",
           "workloads": totals,
           "cases": results}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
