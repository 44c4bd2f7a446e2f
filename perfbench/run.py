"""Time to verdict of the `baxter` command line on three workloads.

    python3 perfbench/run.py --workload spectral-grid --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and imports `baxter` from its `src`.
With --trace 0 it sets the workload up once, then repeats (set up, run one
round of every case) for about --seconds seconds, and reports the
end-to-end metrics: the median set-up, the mean pass and the median case.
The pass and the median case are given in units of a fixed reference loop
of the benchmark's own, timed between the cases of the same rounds, so
that the host's changing speed cancels out of them.
With --trace 1 it alternates untraced rounds with rounds run under spans
around the program's public functions (perfbench/trace.py), and reports
the per-layer metrics of the first traced set-up and round, and the
tracing overhead.  Every case's output is checked after the timed rounds
(perfbench/checks.py).  The last line printed is one JSON object; details
and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROBE_EVERY = 0.25     # seconds of cases between two reference loops
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up includes importing baxter; a fresh interpreter measures it each time.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import baxter.cli; "
                "print(time.perf_counter() - start)")

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import checks, trace  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome, call  # noqa: E402


def run_case(case) -> tuple:
    """(seconds, outcome); the clock covers baxter.cli.main alone.

    Each command line would run in a fresh process, so the garbage left by
    earlier cases is collected first, off the clock, rather than timed
    inside whichever case happens to trigger the collection; what survives
    is frozen, so that the case's own collections scan its objects alone,
    as they would in a fresh process."""
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        outcome = call(case.argv)
    except Exception as err:  # a crash is a failed case, not a failed run
        outcome = Outcome(None, "", error=f"{type(err).__name__}: {err}")
    seconds = time.perf_counter() - start
    for key, path in case.files:
        try:
            outcome.files[key] = Path(path).read_text()
        except OSError:
            pass
    return seconds, outcome


def reference() -> int:
    """A fixed integer loop of the benchmark's own, about 6 ms: the host's
    speed at the moment it runs."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def digest(outcome) -> str:
    text = json.dumps([outcome.code, outcome.stdout, sorted(outcome.files.items())])
    return hashlib.sha256(text.encode()).hexdigest()


def spread_order(count: int, turn: int) -> list:
    """Case positions in a strided order, rotated by a third each round.

    The workloads list their cases by size.  In list order the small cases
    would all be timed within a second of each other, in one phase of the
    host's speed; the stride spreads every size over the round, and the
    rotation moves each case to another point of the round next time.
    """
    stride = next(s for s in range(max(2, math.isqrt(count)), count + 2)
                  if math.gcd(s, count) == 1)
    spread = [(k * stride) % count for k in range(count)]
    shift = turn * count // 3 % count
    return spread[shift:] + spread[:shift]


class Run:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.plan = workload.prepare(self._fresh("prepare"), seed)
        self.cases = []
        self.first = {}        # case id -> outcome of the first round
        self.digests = {}      # case id -> digest of the first round
        self.errors = {}       # case id -> why it failed
        self.rounds = []       # per round: each case's mean seconds
        self.repeats = []      # per round: whether cases ran their `repeat` times
        self.setups = []       # seconds of each set-up
        self.samples = []      # (round, case position, start, seconds) of each case run
        self.probes = []       # (start, seconds) of each reference loop
        self.origin = time.perf_counter()

    def _fresh(self, name: str) -> Path:
        path = self.work / name
        path.mkdir()
        return path

    def setup(self, tag: str) -> float:
        """Import baxter in a fresh interpreter, write the inputs and run the
        warm-up case; returns the seconds these took."""
        imported = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                                  capture_output=True, text=True, timeout=120, check=True)
        start = time.perf_counter()
        self.cases = self.workload.setup(self._fresh(tag), self.plan)
        warm = next(c for c in self.cases if c.id == self.workload.warmup)
        run_case(warm)
        seconds = float(imported.stdout) + time.perf_counter() - start
        self.setups.append(seconds)
        return seconds

    def round(self, tracer=None, repeat=True) -> float:
        """Run every case its `repeat` times (once when repeat is False), in
        spread order.  Records each case's mean and returns their sum: the
        time of one pass over the workload."""
        slots = [p for p, case in enumerate(self.cases)
                 for _ in range(case.repeat if repeat else 1)]
        runs = [[] for _ in self.cases]
        due = 0.0
        for k in spread_order(len(slots), len(self.rounds)):
            case = self.cases[slots[k]]
            if tracer is None and time.perf_counter() >= due:
                self.probe()
                due = time.perf_counter() + PROBE_EVERY
            if tracer is not None:
                tracer.case = case.id
            started = time.perf_counter() - self.origin
            seconds, outcome = run_case(case)
            runs[slots[k]].append(seconds)
            self.samples.append((len(self.rounds), slots[k], started, seconds))
            if case.id not in self.first:
                self.first[case.id] = outcome
                self.digests[case.id] = digest(outcome)
            elif digest(outcome) != self.digests[case.id]:
                self.errors.setdefault(case.id, "output differs between runs")
        if tracer is None:
            self.probe()
        self.rounds.append([statistics.fmean(r) for r in runs])
        self.repeats.append(repeat)
        return sum(self.rounds[-1])

    def probe(self) -> None:
        start = time.perf_counter()
        reference()
        self.probes.append((start - self.origin, time.perf_counter() - start))

    def check(self) -> None:
        for case in self.cases:
            if case.id in self.errors:
                continue
            outcome = self.first[case.id]
            if outcome.code is None:
                self.errors[case.id] = outcome.error
                continue
            rng = random.Random(f"{self.seed}:check:{case.id}")
            try:
                if outcome.code != case.expect:
                    raise checks.CheckFailed(f"exit {outcome.code}, wanted {case.expect}")
                case.check(outcome, self.first, rng)
            except Exception as err:  # a check that cannot run fails its case
                self.errors[case.id] = f"{type(err).__name__}: {err}"

    def counts(self) -> tuple:
        """(case runs attempted, case runs of cases that failed)."""
        def runs(cases):
            return sum(c.repeat if repeat else 1 for repeat in self.repeats for c in cases)
        return runs(self.cases), runs([c for c in self.cases if c.id in self.errors])


def untraced(run: Run, seconds: float) -> dict:
    """Whole rounds for about `seconds`, each after a set-up of its own, so
    that set-up and rounds sample the host's speed over the same stretch."""
    run.setup("setup0")
    start = time.perf_counter()
    while True:
        run.setup(f"setup{len(run.setups)}")
        run.round()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(run.rounds) > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_case = [statistics.fmean(column) for column in zip(*run.rounds)]
    # The mean, not the median, of the 2 to 4 passes: the host's speed
    # drifts in stretches of about a round, and a median of so few passes
    # follows one stretch where the mean spans them all.
    wall = statistics.fmean(sum(r) for r in run.rounds)
    loop = statistics.fmean(seconds for _, seconds in run.probes)
    print(f"# {len(run.cases)} cases, {run.counts()[0]} case runs in {len(run.rounds)} rounds, "
          f"{len(run.setups)} set-ups; case_p50 over {len(per_case)} cases; "
          f"reference loop {loop * 1e3:.3f} ms over {len(run.probes)} probes", file=sys.stderr)
    print(f"as measured: wall = {wall:.6g} s, case_p50 = {statistics.median(per_case):.6g} s")
    return {
        # Times of a pass and of the median case in units of the reference
        # loop timed between the cases of the same rounds: the host's speed
        # moves both alike, so their ratio keeps only the program's own time.
        "wall_ref": (wall / loop, "ref"),
        "case_p50_ref": (statistics.median(per_case) / loop, "ref"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics from the spans of one traced set-up and round.

    Untraced and traced rounds alternate for about `seconds`; the overhead
    is the median traced round minus the median untraced round.
    """
    run.setup("setup-untraced")
    tracer = trace.Tracer()
    plain, wrapped = [], []
    start = time.perf_counter()
    while True:
        plain.append(run.round(repeat=False))
        tracer.install()
        try:
            if not wrapped:
                run.setup("setup-traced")
            wrapped.append(run.round(tracer, repeat=False))
        finally:
            tracer.uninstall()
        if len(wrapped) == 1:
            kept = len(tracer.spans)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(wrapped) > seconds:
            break
    del tracer.spans[kept:]
    layers = trace.layer_metrics(tracer.spans)
    layers["trace.overhead_s"] = statistics.median(wrapped) - statistics.median(plain)
    layers["trace.spans"] = len(tracer.spans)
    with open(spans_path, "w") as handle:
        json.dump([[s.name, s.start, s.end, s.parent, s.case, s.work, s.tag]
                   for s in tracer.spans], handle)
    print(f"# {len(tracer.spans)} spans kept; {len(plain)} untraced and {len(wrapped)} "
          f"traced rounds", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the perturbations and of the checks' random points")
    parser.add_argument("--seconds", type=float, default=40,
                        help="measure whole rounds for about this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "baxter" / "__init__.py").is_file():
        print(f"error: no baxter sources under {src}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        sys.path.insert(0, str(src))
        run = Run(WORKLOADS[args.workload], args.seed, work)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics = traced(run, args.seconds, OUT / f"spans-{stem}.json")
        else:
            metrics = untraced(run, args.seconds)
        run.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = run.counts()
    for case_id, why in sorted(run.errors.items()):
        print(f"FAILED {case_id}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}")
    result = {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = dict(result, workload=args.workload, seed=args.seed,
                   cases=[c.id for c in run.cases], rounds=run.rounds, setups=run.setups,
                   samples=run.samples, probes=run.probes, errors=run.errors)
    with open(OUT / f"result-{stem}.json", "w") as handle:
        json.dump(details, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
