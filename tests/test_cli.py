import json
import os
import subprocess
import sys

import pytest

import milfib
from milfib.arrangement import ProjLine, build_lattice, named_arrangement
from milfib.cli import examples_suite, main
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


def test_examples_suite_passes_and_filters(capsys):
    assert examples_suite(out=lambda *_: None) == 0
    lines = []
    assert examples_suite(only="braid", out=lines.append) == 0
    assert lines == ["PASS braid"]
    assert examples_suite(only="nope", out=lines.append) == 1


def test_examples_suite_detects_corruption():
    # Corrupting a named arrangement through the registry hook must flip the
    # fixture to FAIL and the exit code to 2.
    registry = {name: (lambda n=name: named_arrangement(n))
                for name in ("braid", "pappus-dual", "ex-3-1-iii",
                             "ceva3", "hesse")}
    registry["braid"] = lambda: named_arrangement("pappus-dual")
    messages = []
    assert examples_suite(registry=registry, out=messages.append) == 2
    assert any(m.startswith("FAIL braid") for m in messages)
    assert any(m.startswith("PASS ceva3") for m in messages)


def test_examples_cli_subcommand(capsys):
    code, out, _ = run_cli(capsys, "examples", "--only", "braid")
    assert code == 0
    assert "PASS braid" in out


def test_failed_pair_count_invariant_exits_2(monkeypatch, capsys):
    # No line contains any intersection point: the pair count becomes 0.
    monkeypatch.setattr(ProjLine, "contains", lambda self, point: False)
    code, _, err = run_cli(capsys, "lattice", "--name", "braid")
    assert code == 2
    assert "pair-count identity violated" in err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(milfib.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "milfib", "analyze", "--name", "braid",
         "--format", "json"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [r["b1"] for r in json.loads(done.stdout)["eigen"]] == [0, 1, 0, 1, 0]


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
}


@pytest.mark.parametrize("case", [*MALFORMED, "partition not an array"])
def test_malformed_input_is_a_user_error(case, tmp_path, capsys):
    if case in MALFORMED:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(MALFORMED[case]))
        argv = ["analyze", "--input", str(path)]
    else:
        argv = ["theorem1", "--name", "braid", "--m", "3", "--partition", "5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_search_cap_skips_are_reported(tmp_path, capsys):
    # Duals of 17 points of the cuspidal cubic: d = 17 > the default cap 16.
    path = tmp_path / "cubic17.json"
    path.write_text(json.dumps(
        {"lines": [[t, t ** 3, 1] for t in range(-8, 10) if t]}))
    note = "skipped residue_search: d=17 > search cap 16"
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path),
                           "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["residue_certificates"] == {}
    assert doc["skipped"] == [{"stage": "residue_search", "d": 17, "cap": 16}]
    code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 0 and note in out.splitlines()
    code, out, err = run_cli(capsys, "milnor", "--input", str(path))
    assert code == 0 and err == note + "\n"

    code, out, _ = run_cli(capsys, "analyze", "--name", "pappus-dual",
                           "--search-cap", "8", "--format", "json")
    assert [s["stage"] for s in json.loads(out)["skipped"]] == \
        ["residue_search", "net_detect"]
