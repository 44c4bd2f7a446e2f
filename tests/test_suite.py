"""Tests for the acceptance suite's own plumbing."""

import os

from baxter import suite

SRC = os.path.dirname(os.path.dirname(os.path.abspath(suite.__file__)))


def test_cli_env_puts_src_first_without_empty_entries(monkeypatch):
    monkeypatch.delenv("PYTHONPATH", raising=False)
    assert suite._cli_env()["PYTHONPATH"] == SRC
    monkeypatch.setenv("PYTHONPATH", "")
    assert suite._cli_env()["PYTHONPATH"] == SRC
    monkeypatch.setenv("PYTHONPATH", "/opt/extra")
    assert suite._cli_env()["PYTHONPATH"] == SRC + os.pathsep + "/opt/extra"
    assert "" not in suite._cli_env()["PYTHONPATH"].split(os.pathsep)
