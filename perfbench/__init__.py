"""Benchmark of the `baxter` command line; see README.md in this directory."""
