"""Usage errors of the comparison tools under tools/."""

import subprocess
import sys

import pytest

from conftest import ROOT


@pytest.mark.parametrize("argv, message", [
    (["--src", "a=src", "--src", "b=src", "--rounds", "1"], "--rounds must be at least 2"),
    (["--src", "a=src", "--src", "a=src"], "different labels"),
    (["--src", "a=src"], "give --src twice"),
])
def test_ab_usage_errors_exit_2_with_one_line(argv, message):
    proc = subprocess.run([sys.executable, "tools/ab.py", *argv], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and message in proc.stderr, proc.stderr
