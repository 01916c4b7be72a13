"""Byte-for-byte regression on the CLI documents of the five named fixtures.

The files under ``tests/golden`` are the exact standard output of
``milfib analyze --format json``, ``milfib analyze --format table``,
``milfib milnor --format json`` and ``milfib lattice --format json``, and
of ``milfib realize`` over one group (``REALIZE``) on each fixture whose
multiple points are all triple points.  The lattice documents hold the
normalized line and point coordinates over Q(zeta_n), so they pin the field
arithmetic as well as the counts.  Any
change to a number, a key, an ordering or the layout shows up here as a
diff.
"""

import os

import pytest

from milfib.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
NAMES = ("braid", "pappus-dual", "ex-3-1-iii", "ceva3", "hesse")
RUNS = (("analyze", "json", "analyze.json"),
        ("analyze", "table", "analyze.txt"),
        ("milnor", "json", "milnor.json"),
        ("lattice", "json", "lattice.json"))
REALIZE = (("braid", "2,2"), ("pappus-dual", "3"), ("ex-3-1-iii", "27"),
           ("ceva3", "3,3"))
# The full `milnor` table names on stderr the k whose jets it leaves out.
SETTLED = {"braid": "1,3,5", "pappus-dual": "1,2,4,5,7,8",
           "ex-3-1-iii": "1,2,4,5,7,8", "ceva3": "1,2,4,5,7,8",
           "hesse": "1,2,4,5,7,8,10,11"}


def _assert_golden(out, filename):
    with open(os.path.join(GOLDEN, filename), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("command,fmt,suffix", RUNS)
def test_cli_output_matches_golden_file(name, command, fmt, suffix, capsys):
    code = main([command, "--name", name, "--format", fmt])
    out, err = capsys.readouterr()
    note = f"skipped jets at k={SETTLED[name]}: zero by the vanishing criterion\n"
    assert code == 0 and err == (note if command == "milnor" else "")
    _assert_golden(out, f"{name}.{suffix}")


@pytest.mark.parametrize("name,moduli", REALIZE)
def test_realize_output_matches_golden_file(name, moduli, capsys):
    code = main(["realize", "--name", name, "--mod", moduli])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    _assert_golden(out, f"{name}.realize.txt")
