"""Byte-for-byte regression on the CLI documents of the five named fixtures.

The files under ``tests/golden`` are the exact standard output of
``milfib analyze --format json``, ``milfib analyze --format table`` and
``milfib milnor --format json``.  Any change to a number, a key, an ordering
or the layout shows up here as a diff.
"""

import os

import pytest

from milfib.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
NAMES = ("braid", "pappus-dual", "ex-3-1-iii", "ceva3", "hesse")
RUNS = (("analyze", "json", "analyze.json"),
        ("analyze", "table", "analyze.txt"),
        ("milnor", "json", "milnor.json"))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("command,fmt,suffix", RUNS)
def test_cli_output_matches_golden_file(name, command, fmt, suffix, capsys):
    code = main([command, "--name", name, "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, f"{name}.{suffix}"), encoding="utf-8",
              newline="") as fh:
        assert out == fh.read()
