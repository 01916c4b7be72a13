import json
import os
import re
import subprocess
import sys

import pytest

import milfib
from milfib import arrangement
from milfib.arrangement import (InvariantViolation, build_lattice, generic_section,
                                named_arrangement)
from milfib.cli import main
from milfib.cyclotomic import as_cyclo, integral_form
from milfib.milnor import grf_dims


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_milnor_single_k_matches_library(capsys):
    code, out, _ = run_cli(capsys, "milnor", "--name", "hesse", "--k", "6")
    assert code == 0
    assert "grf0=1" in out and "grf1=1" in out and "b1=2" in out
    arr = named_arrangement("hesse")
    g0, g1 = grf_dims(arr, build_lattice(arr), 6)
    assert f"grf0={g0} grf1={g1} b1={g0 + g1}" in out


def test_milnor_single_k_json(capsys):
    code, out, _ = run_cli(capsys, "milnor", "--name", "hesse", "--k", "6",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"k": 6, "grf0": 1, "grf1": 1, "b1": 2}
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_milnor_full_table(capsys):
    code, out, _ = run_cli(capsys, "milnor", "--name", "braid")
    assert code == 0
    assert "k=2" in out and "b1=1" in out


def test_realize_prints_reference_counts(capsys):
    code, out, _ = run_cli(capsys, "realize", "--name", "ex-3-1-iii",
                           "--mod", "27")
    assert code == 0
    assert "9x9" in out
    assert "induced_triples=9" in out and "new_triples=0" in out


def test_realize_refuses_a_kernel_above_the_cap(capsys):
    code, out, err = run_cli(capsys, "realize", "--name", "ceva3",
                             "--mod", "3,3", "--cap", "10")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert re.search(r"\b729\b.*\b10\b", err)


def test_aomoto_valid_invocation(capsys):
    code, out, _ = run_cli(capsys, "aomoto", "--name", "braid",
                           "--k", "2", "--I", "0,5")
    assert code == 0
    assert "aomoto_h1=1" in out


def test_aomoto_size_mismatch_is_user_error(capsys):
    code, _, err = run_cli(capsys, "aomoto", "--name", "braid",
                           "--k", "2", "--I", "0")
    assert code == 1
    assert "sum to zero" in err


def test_unknown_name_is_user_error(capsys):
    code, _, err = run_cli(capsys, "lattice", "--name", "nope")
    assert code == 1
    assert "valid names" in err


def test_lattice_json_output(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--name", "braid",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 7


def test_cond02_search_and_check(capsys):
    code, out, _ = run_cli(capsys, "cond02", "--name", "braid", "--k", "2")
    assert code == 0 and "I=[0, 5]" in out
    code, out, _ = run_cli(capsys, "cond02", "--name", "ex-3-1-iii", "--k", "3")
    assert code == 0 and "no subset passes" in out
    code, out, _ = run_cli(capsys, "cond02", "--name", "braid", "--k", "2",
                           "--I", "0,1")
    assert code == 0 and "fails" in out and "witness" in out


def test_net_subcommand(capsys):
    code, out, _ = run_cli(capsys, "net", "--name", "braid", "--m", "3")
    assert code == 0
    assert "(0, 5)" in out


def test_theorem1_subcommand(capsys):
    labels = json.dumps([0, 1, 2, 2, 1, 0])
    code, out, _ = run_cli(capsys, "theorem1", "--name", "braid",
                           "--m", "3", "--partition", labels)
    assert code == 0
    assert "exact=True" in out and "predicted_exact=1" in out


def test_theorem1_outside_the_range_of_m_is_a_verdict(capsys):
    # m = 1 and one block: both hypotheses need m and r in [3, d-1], so no
    # residue certificate is searched for, and nothing asks for k = d.
    code, out, err = run_cli(capsys, "theorem1", "--name", "braid",
                             "--partition", "[0,0,0,0,0,0]", "--m", "1")
    assert code == 0, err
    assert "bound=False exact=False" in out


def test_analyze_exit_codes_and_formats(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--name", "braid",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["b1"] for r in payload["eigen"]] == [0, 1, 0, 1, 0]


def test_arrangement_file_input(tmp_path, capsys):
    arr = named_arrangement("ceva3")
    path = tmp_path / "ceva3.json"
    path.write_text(json.dumps(arr.to_json()))
    code, out, _ = run_cli(capsys, "milnor", "--input", str(path), "--k", "3")
    assert code == 0
    assert "b1=2" in out


def test_hyperplane_file_input_is_sectioned(tmp_path, capsys):
    hyperplanes = []
    for i in range(4):
        for j in range(i + 1, 4):
            v = [0] * 4
            v[i], v[j] = 1, -1
            hyperplanes.append(v)
    path = tmp_path / "braid4.json"
    path.write_text(json.dumps({"dimension": 4, "hyperplanes": hyperplanes,
                                "name": "braid4"}))
    code, out, _ = run_cli(capsys, "milnor", "--input", str(path))
    assert code == 0
    assert "k=2" in out and "b1=1" in out

    code, out, _ = run_cli(capsys, "section", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["arrangement"]["lines"]) == 6
    assert payload["certificate"]["attempts"] >= 1


def test_input_and_name_are_mutually_exclusive(capsys):
    code, _, err = run_cli(capsys, "lattice", "--name", "braid",
                           "--input", "whatever.json")
    assert code == 1
    assert "exactly one" in err


def split_first_pair(monkeypatch, rows):
    """Make pair_key give rows 0 and 1 a key of their own."""
    first, second = (integral_form([as_cyclo(v).coeffs for v in row])
                     for row in rows[:2])
    key = arrangement.pair_key

    def split(u, v, minors, order):
        if (u, v) == (first, second):
            return ("split",)
        return key(u, v, minors, order)

    monkeypatch.setattr(arrangement, "pair_key", split)


def test_failed_pair_count_invariant_exits_2(monkeypatch, capsys):
    # Lines 0 and 1 of braid get a point of their own, off the triple point
    # {0, 1, 3}: that point keeps its three lines through the other pairs,
    # so the pair count becomes 16 != C(6, 2) = 15.
    braid = named_arrangement("braid")
    split_first_pair(monkeypatch, [line.coeffs for line in braid.lines])
    code, _, err = run_cli(capsys, "lattice", "--name", "braid")
    assert code == 2
    assert "pair-count identity violated: 16 != C(6,2)" in err


def test_failed_flat_pair_count_invariant_exits_2(monkeypatch, tmp_path, capsys):
    # The same fault in the flats of the A_3 braid arrangement in C^4:
    # hyperplanes 0 and 1 leave the flat {0, 1, 3} as a flat of their own.
    split_first_pair(monkeypatch, PLANES)
    with pytest.raises(InvariantViolation, match=r"16 != C\(6,2\)"):
        generic_section(PLANES)
    path = tmp_path / "braid4.json"
    path.write_text(json.dumps({"dimension": 4, "hyperplanes": PLANES}))
    code, _, err = run_cli(capsys, "lattice", "--input", str(path))
    assert code == 2
    assert "pair-count identity violated: 16 != C(6,2)" in err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(milfib.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "milfib", "analyze", "--name", "braid",
         "--format", "json"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [r["b1"] for r in json.loads(done.stdout)["eigen"]] == [0, 1, 0, 1, 0]


def test_one_process_answers_like_fresh_processes(capsys):
    # main reuses one parser; a usage error must leave nothing behind in it.
    calls = [["analyze", "--name", "braid", "--format", "xml"],
             ["analyze", "--name", "ceva3", "--format", "json"],
             ["lattice", "--name", "braid", "--format", "json"],
             ["cond02", "--name", "pappus-dual", "--k", "3"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(milfib.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    in_process = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "milfib", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0]
    assert fresh[0][2].startswith("error: argument --format: invalid choice")


LINES = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0]]
PLANES = [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1], [0, 1, -1, 0],
          [0, 1, 0, -1], [0, 0, 1, -1]]
MALFORMED = {
    "float order": {"cyclotomic_order": 2.5, "lines": LINES},
    "string order": {"cyclotomic_order": "3", "lines": LINES},
    "boolean order": {"cyclotomic_order": True, "lines": LINES},
    "float dimension": {"dimension": 4.7, "hyperplanes": PLANES},
    "boolean coefficient": {"lines": [[True, 0, 0]] + LINES[1:]},
    "null coefficient": {"lines": [[None, 0, 0]] + LINES[1:]},
    "zero denominator": {"lines": [["1/0", 0, 0]] + LINES[1:]},
    "top-level array": [1, 2],
    "name not a string": {"name": [1, 2], "lines": LINES},
    "lines not an array": {"lines": 5},
    "hyperplanes not an array": {"hyperplanes": 5},
    "lines and hyperplanes": {"dimension": 4, "hyperplanes": PLANES,
                              "lines": LINES},
}


BAD_OPTIONS = {
    "partition not an array": ["theorem1", "--name", "braid", "--m", "3",
                               "--partition", "5"],
    "m zero": ["theorem1", "--name", "braid", "--m", "0",
               "--partition", "[0,0,1,1,2,2]"],
    "negative max-candidates": ["realize", "--name", "ex-3-1-iii", "--mod", "27",
                                "--max-candidates", "-1"],
    "negative search cap": ["analyze", "--name", "braid", "--search-cap", "-5"],
    "zero enumeration cap": ["realize", "--name", "braid", "--mod", "4",
                             "--cap", "0"],
    "unknown subcommand": ["examples"],
    "k not an integer": ["milnor", "--name", "braid", "--k", "x"],
    "missing required option": ["realize", "--name", "braid"],
    "k above d/2": ["cond02", "--name", "braid", "--k", "9"],
    "index out of range": ["cond02", "--name", "braid", "--k", "2", "--I", "0,9"],
    "repeated index": ["cond02", "--name", "braid", "--k", "2", "--I", "0,0,5"],
    "empty index entry": ["aomoto", "--name", "braid", "--k", "2", "--I", "5,0,,0"],
    "empty modulus entry": ["realize", "--name", "braid", "--mod", "4,,"],
}


@pytest.mark.parametrize("case", [*MALFORMED, *BAD_OPTIONS])
def test_malformed_input_is_a_user_error(case, tmp_path, capsys):
    if case in MALFORMED:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(MALFORMED[case]))
        argv = ["analyze", "--input", str(path)]
    else:
        argv = BAD_OPTIONS[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


DEEP = "[" * 100_000 + "]" * 100_000
DEEP_INPUT = {
    "lattice": [], "aomoto": ["--k", "2", "--I", "0,1"], "milnor": [],
    "analyze": [], "net": ["--m", "3"], "cond02": ["--k", "2"],
    "theorem1": ["--m", "3", "--partition", "[0,0,1,1,2,2]"],
    "realize": ["--mod", "4"], "section": [],
}


@pytest.mark.parametrize("command", DEEP_INPUT)
def test_deeply_nested_input_is_a_user_error(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, out, err = run_cli(capsys, command, "--input", str(path), *DEEP_INPUT[command])
    assert (code, out) == (1, "")
    assert err == f"error: {path} nests its JSON too deeply\n"


@pytest.mark.parametrize("inline", [True, False])
def test_deeply_nested_partition_is_a_user_error(inline, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    partition = DEEP if inline else f"@{path}"
    code, out, err = run_cli(capsys, "theorem1", "--name", "braid", "--m", "3",
                             "--partition", partition)
    assert (code, out) == (1, "")
    assert err == "error: --partition nests its JSON too deeply\n"


@pytest.mark.parametrize("k", [0, 6])
def test_milnor_k_outside_the_range_names_k_and_the_range(k, capsys):
    code, out, err = run_cli(capsys, "milnor", "--name", "braid", "--k", str(k))
    assert (code, out) == (1, "")
    assert err == f"error: k must be in [1, 5], got {k}\n"


def _cubic17(tmp_path):
    # Duals of 17 points of the cuspidal cubic: d = 17 > the default cap 16.
    path = tmp_path / "cubic17.json"
    path.write_text(json.dumps(
        {"lines": [[t, t ** 3, 1] for t in range(-8, 10) if t]}))
    return path


def test_search_cap_skips_are_reported(tmp_path, capsys):
    path = _cubic17(tmp_path)
    note = "skipped residue_search: d=17 > search cap 16"
    # d = 17 is prime, so no multiple point has lambda^m = 1 at any k: the
    # vanishing criterion settles every k, and no jet is computed.
    settled = list(range(1, 17))
    jets = (f"skipped jets at k={','.join(map(str, settled))}: "
            "zero by the vanishing criterion")
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path),
                           "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["residue_certificates"] == {}
    assert doc["skipped"] == [{"stage": "residue_search", "d": 17, "cap": 16},
                              {"stage": "jets", "k": settled,
                               "reason": "vanishing criterion"}]
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0 and [line for line in out.splitlines()
                          if line.startswith("skipped")] == [note, jets]
    code, out, err = run_cli(capsys, "milnor", "--input", str(path))
    assert code == 0 and err == note + "\n" + jets + "\n"

    code, out, _ = run_cli(capsys, "analyze", "--name", "pappus-dual",
                           "--search-cap", "8", "--format", "json")
    assert [s["stage"] for s in json.loads(out)["skipped"]] == \
        ["residue_search", "net_detect", "jets"]


def test_distinguished_line_is_checked_above_the_search_cap(tmp_path, capsys):
    # With the searches skipped no stage reads the distinguished line, so
    # analyze itself has to reject an index past d.
    path = _cubic17(tmp_path)
    code, out, err = run_cli(capsys, "analyze", "--input", str(path),
                             "--distinguished-line", "99")
    assert code == 1 and out == ""
    assert err == "error: distinguished line index out of range\n"
