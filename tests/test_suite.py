"""Tests for the acceptance suite's own plumbing."""

import os

import pytest

from baxter import cli, suite


def _edit_command_lines(monkeypatch, edit):
    """Run every command line of suite.cli_interface through cli.main as
    edit(argv) rewrites it."""
    real = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: real(edit(list(argv))))


def test_cli_interface_runs_in_this_process(monkeypatch, capsys):
    seen = []
    _edit_command_lines(monkeypatch, lambda argv: seen.append(argv) or argv)
    assert suite.cli_interface() == []
    assert [argv[:2] for argv in seen] == [["build", "example1-R"], ["verify", "ybe"],
                                           ["build", "baxterize"], ["verify", "ybe"],
                                           ["verify", "ybe"]]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("edit, problem", [
    # a documented step that exits 1 where 0 is documented
    (lambda argv: [os.path.join(os.path.dirname(a), "NotASolution.yb")
                   if os.path.basename(a) == "R.yb" else a for a in argv]
     if argv[:3] == ["verify", "ybe", "--constant"] else argv, "exit 1, wanted 0"),
    # argparse refuses an unknown option by SystemExit(2)
    (lambda argv: argv + ["--unknown"] if "--spectral" in argv else argv, "exit 2, wanted 0"),
    # the failing check exits 1 but writes no report
    (lambda argv: argv[:argv.index("--report")] if "--report" in argv else argv,
     "non-solution: no report written"),
], ids=["wrong-exit-code", "argparse-exit-2", "no-report"])
def test_cli_interface_reports_each_broken_step(monkeypatch, capsys, edit, problem):
    _edit_command_lines(monkeypatch, edit)
    problems = suite.cli_interface()
    assert len(problems) == 1 and problem in problems[0], problems
    assert capsys.readouterr() == ("", "")
