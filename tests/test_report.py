import json

import pytest

from milfib import resonance
from milfib.report import AnalyzeOptions, analyze, parse_document, render


@pytest.fixture(scope="module")
def braid_doc(arrangements, lattices):
    return analyze(arrangements["braid"], lattice=lattices["braid"])


def test_braid_document_values(braid_doc):
    assert [r.b1 for r in braid_doc.eigen] == [0, 1, 0, 1, 0]
    assert braid_doc.all_checks_pass
    assert braid_doc.lattice_summary["sigma_size"] == 4
    assert braid_doc.lattice_summary["double_count"] == 3
    assert braid_doc.lattice_summary["b1_lambda_one"] == 5
    assert braid_doc.nets["3"]


def test_pappus_dual_document(arrangements, lattices):
    doc = analyze(arrangements["pappus-dual"], lattice=lattices["pappus-dual"])
    assert [r.b1 for r in doc.eigen] == [0, 0, 1, 0, 0, 1, 0, 0]
    assert doc.residue_certificates["3"]["found"]
    exact = [dict(v) for v in doc.partition_verdicts if dict(v)["m"] == 3]
    assert any(v["exact_holds"] for v in exact)
    assert doc.all_checks_pass


def test_ex_3_1_iii_document_needs_the_jet_route(arrangements, lattices):
    doc = analyze(arrangements["ex-3-1-iii"], lattice=lattices["ex-3-1-iii"])
    assert all(r.b1 == 0 for r in doc.eigen)
    assert not doc.residue_certificates["3"]["found"]
    assert doc.nets["3"] == []
    # no certificate anywhere at k=3 means the eigen table is jet-route only
    assert doc.eigen[2].aomoto is None
    assert doc.all_checks_pass


def test_json_round_trip_and_byte_stability(braid_doc, arrangements):
    blob = render(braid_doc, "json")
    assert parse_document(blob) == braid_doc
    again = render(analyze(arrangements["braid"]), "json")
    assert blob == again
    payload = json.loads(blob)
    assert payload["name"] == "braid"


def test_table_contains_eigen_rows(braid_doc):
    table = render(braid_doc, "table")
    assert "k=2" in table and "b1=1" in table
    row = next(line for line in table.splitlines() if line.startswith("k=2"))
    assert "b1=1" in row
    assert "pass" in table and "FAIL" not in table


def test_render_rejects_unknown_format(braid_doc):
    with pytest.raises(ValueError):
        render(braid_doc, "yaml")


def test_options_allow_disabling_search(arrangements):
    doc = analyze(arrangements["braid"],
                  AnalyzeOptions(with_aomoto=False, net_moduli=()))
    assert all(r.aomoto is None for r in doc.eigen)
    assert doc.residue_certificates == {}
    assert doc.nets == {}
    assert doc.all_checks_pass


def test_distinguished_line_choice_does_not_change_the_table(arrangements):
    base = analyze(arrangements["braid"])
    for dist in (0, 3):
        doc = analyze(arrangements["braid"], AnalyzeOptions(dist=dist))
        assert [r.b1 for r in doc.eigen] == [r.b1 for r in base.eigen]
        assert [r.aomoto for r in doc.eigen] == [r.aomoto for r in base.eigen]


def test_analyze_runs_the_residue_search_once_per_k(arrangements, lattices,
                                                     monkeypatch):
    calls = []
    search = resonance.search_residue_subset

    def counted(lattice, k, cap=resonance.DEFAULT_SEARCH_CAP):
        calls.append(k)
        return search(lattice, k, cap=cap)
    monkeypatch.setattr(resonance, "search_residue_subset", counted)
    doc = analyze(arrangements["pappus-dual"], lattice=lattices["pappus-dual"])
    assert sorted(calls) == [1, 2, 3, 4]
    assert sorted(doc.residue_certificates, key=int) == ["1", "2", "3", "4"]
    assert any(r.aomoto_certificate for r in doc.eigen)
