"""Scale sweep of the spectral braid identity, one case per fresh interpreter.

Each case builds one solution and times one `check_ybe` call on it in a
new Python process, with the given `src` first on PYTHONPATH, so no case
inherits another's caches or heap.  A case runs three times per source;
the sources take turns within each repetition, so a drift of the host's
speed falls on all of them alike.  For every source the output records,
per case, each wall time of the check, their median, the largest
`ru_maxrss` of the child processes (the whole process: imports,
construction and check) and the report line, which must agree between
sources.

    python3 tools/sweep.py --src parent=../parent/src --src change=src \\
        --out BENCH_pr12.json

Cases (see CASES): spectral so(N), N = 3..9, in both realizations and
sl(n), n = 2..4, whose numerators satisfy R21 = R12; the skew twisted
solution, N = 4..7, whose numerator does not; `--method poly` on so(3)
and so(4).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPEAT = 3
# name: (construction, check_ybe method)
CASES = {
    **{f"so{N}-{r}": (f"yangian_so_R({N}, Realization.{r.upper()})", "grid")
       for N in range(3, 10) for r in ("antidiag", "skew")},
    **{f"sl{n}": (f"yangian_sl_R({n})", "grid") for n in (2, 3, 4)},
    **{f"twisted{N}-skew": (f"example2_solution({N}, Realization.SKEW)", "grid")
       for N in (4, 5, 6, 7)},
    **{f"so{N}-antidiag-poly": (f"yangian_so_R({N})", "poly") for N in (3, 4)},
}

CHILD = """
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


def run_case(src: Path, name: str) -> dict:
    build, method = CASES[name]
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    done = subprocess.run([sys.executable, "-c", CHILD.format(build=build, method=method)],
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
        reports = {r["report"] for by_name in runs.values() for r in by_name[name]}
        if len(reports) != 1:
            raise SystemExit(f"{name}: the reports differ: {sorted(reports)}")
        line = ", ".join(f"{label} {statistics.median(r['wall_s'] for r in runs[label][name]):.4f} s"
                         for label in sources)
        print(f"{name}: {line}", file=sys.stderr)
    return {label: {name: {"wall_s": [round(r["wall_s"], 5) for r in rs],
                           "median_s": round(statistics.median(r["wall_s"] for r in rs), 5),
                           "maxrss_mb": round(max(r["maxrss_kb"] for r in rs) / 1024, 1),
                           "report": rs[0]["report"]}
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
        "what": "check_ybe wall time (median of the repeats, each in a fresh interpreter) "
                "and the largest ru_maxrss of those interpreters, per case",
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
