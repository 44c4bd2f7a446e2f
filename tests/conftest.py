"""Shared fixtures: how to launch the `baxter` console script, and the
entry-by-entry object matrix product the fast paths are tested against."""

import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def script_target(name: str) -> str:
    """The "module:attr" that `[project.scripts]` in pyproject.toml names."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the one line of the table
        table = re.search(r"^\[project\.scripts\][ \t]*\n(.*?)(?=^\[|\Z)",
                          text, re.M | re.S)
        line = re.search(rf'^{re.escape(name)}\s*=\s*"([^"]+)"',
                         table.group(1), re.M)
        return line.group(1)
    return tomllib.loads(text)["project"]["scripts"][name]


@pytest.fixture(scope="session")
def baxter_command():
    """(argv prefix, env) that runs the `baxter` entry point.

    An executable `baxter` on PATH is used as it is.  A checkout has none,
    so the `[project.scripts]` target is called the way pip's generated
    wrapper calls it, `sys.exit(main())`.  Either way the checkout's `src`
    leads PYTHONPATH, as in `suite._cli`.
    """
    exe = shutil.which("baxter")
    if exe is not None:
        argv = [exe]
    else:
        module, attr = script_target("baxter").split(":")
        argv = [sys.executable, "-c",
                f"import sys; from {module} import {attr}; sys.exit({attr}())"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return argv, env


def naive_matmul(a, b):
    """a @ b entry by entry over the entries' own arithmetic (ints,
    Fractions, Ext and Poly values), sharing no code with linalg."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=object)
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = acc + a[i, t] * b[t, j]
            out[i, j] = acc
    return out
