"""One hash of every benchmark case's output and check result.

    python3 tools/same_bytes.py

Run from the root of a checkout.  It sets up the three perfbench
workloads on seeds 1, 2 and 3, runs every case once through
perfbench.run.Run, checks the outputs as the benchmark does, and prints
`<sha256> <cases>`: the sha256 of each case's workload, seed, id, output
digest (exit code, stdout and the files it wrote) and check error, over
all cases.  Two trees that print the same line give the same bytes on
every case; tools/same_bytes.expected holds the line this tree prints,
which CI compares.  It imports baxter from the checkout's src and changes
nothing under perfbench/; its scratch directories are removed.
"""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path[:0] = ["src", "."]

from perfbench.run import Run, digest  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    rows = []
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            run = Run(WORKLOADS[name], seed, Path(tempfile.mkdtemp()))
            try:
                run.setup("s")
                run.round(repeat=False)
                run.check()
            finally:
                shutil.rmtree(run.work)
            rows += [[run.workload.name, seed, case.id, digest(run.first[case.id]),
                      run.errors.get(case.id)] for case in run.cases]
    print(hashlib.sha256(json.dumps(rows).encode()).hexdigest(), len(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
