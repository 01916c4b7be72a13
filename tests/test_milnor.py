import random
from fractions import Fraction

import pytest

from helpers import ideal_dim_oracle, random_arrangements
from milfib.arrangement import build_lattice, named_arrangement
from milfib.linalg import Matrix, nullspace, rank
from milfib.milnor import (EigenReport, InvariantViolation, cokernel_dims,
                           full_spectrum, grf_dims, ideal_basis, ideal_order,
                           jet_matrix, monomial_basis, precheck_vanishing,
                           truncation_order)


def test_monomial_basis_sizes_and_edges():
    assert monomial_basis(0) == [(0, 0, 0)]
    assert len(monomial_basis(3)) == 10
    assert monomial_basis(-1) == []
    assert monomial_basis(-2) == []
    for deg in range(6):
        basis = monomial_basis(deg)
        assert len(basis) == (deg + 1) * (deg + 2) // 2
        assert all(sum(mono) == deg for mono in basis)
        assert basis == sorted(basis)


def test_jet_orders():
    # d=6, triple point: the quotient order floor(3k/6) - 1 and the ideal
    # order ceil(3k/6) - 2 straddle the same value at integer multiples.
    assert truncation_order(3, 2, 6) == 0
    assert truncation_order(3, 4, 6) == 1
    assert ideal_order(3, 4, 6) == 0
    assert ideal_order(3, 5, 6) == 1
    assert truncation_order(4, 6, 12) == 1
    assert ideal_order(4, 6, 12) == 0


def test_braid_evaluation_matrix_at_k4(lattices, arrangements):
    mat = jet_matrix(arrangements["braid"], lattices["braid"], 4, False)
    assert (mat.rows, mat.cols) == (4, 3)
    rows = [[Fraction(x) for x in mat.row(i)] for i in range(4)]
    # Lattice points in deterministic order (0:0:1), (0:1:0), (1:0:0), (1:1:1);
    # columns are the degree-1 monomials in ascending order [z, y, x].
    assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert rank(mat) == 3


def test_empty_targets_give_zero_row_matrices(lattices, arrangements):
    mat = jet_matrix(arrangements["braid"], lattices["braid"], 2, False)
    assert mat.rows == 0
    g0, g1 = grf_dims(arrangements["braid"], lattices["braid"], 2)
    assert g0 == 0 and g1 == 1


def test_hesse_kernel_at_k6_is_the_cubic_pencil(lattices, arrangements):
    mat = jet_matrix(arrangements["hesse"], lattices["hesse"], 6, False)
    assert (mat.rows, mat.cols) == (9, 10)
    kernel = nullspace(mat)
    assert len(kernel) == 2
    basis = monomial_basis(3)
    fermat = [1 if mono in ((3, 0, 0), (0, 3, 0), (0, 0, 3)) else 0
              for mono in basis]
    product = [1 if mono == (1, 1, 1) else 0 for mono in basis]
    for target in (fermat, product):
        stacked = [list(v) for v in kernel] + [target]
        m = Matrix.from_rows(stacked, cols=10, order=3)
        assert rank(m) == 2  # target already in the kernel span


def test_grf_examples(lattices, arrangements):
    assert grf_dims(arrangements["braid"], lattices["braid"], 2) == (0, 1)
    assert grf_dims(arrangements["hesse"], lattices["hesse"], 6) == (1, 1)
    for k in (3, 6):
        g0, g1 = grf_dims(arrangements["ex-3-1-iii"], lattices["ex-3-1-iii"], k)
        assert g0 + g1 == 0


def test_grf_rejects_k_out_of_range(lattices, arrangements):
    with pytest.raises(ValueError):
        grf_dims(arrangements["braid"], lattices["braid"], 0)
    with pytest.raises(ValueError):
        grf_dims(arrangements["braid"], lattices["braid"], 6)


def test_precheck_examples(lattices):
    assert precheck_vanishing(lattices["braid"], 3) == (False, False)
    assert precheck_vanishing(lattices["hesse"], 3) == (True, True)
    assert precheck_vanishing(lattices["ceva3"], 3) == (True, True)
    # every ceva3 line carries 4 multiple points
    lat = lattices["ceva3"]
    for i in range(9):
        assert sum(1 for p in lat.sigma_k(3) if i in p.lines) == 4


def test_full_spectrum_fixture_values(lattices, arrangements):
    expected = {
        "braid": [0, 1, 0, 1, 0],
        "pappus-dual": [0, 0, 1, 0, 0, 1, 0, 0],
        "ex-3-1-iii": [0, 0, 0, 0, 0, 0, 0, 0],
        "ceva3": [0, 0, 2, 0, 0, 2, 0, 0],
        "hesse": [0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0],
    }
    for name, b1s in expected.items():
        reports = full_spectrum(arrangements[name], lattices[name])
        assert [r.b1 for r in reports] == b1s, name
        for r in reports:
            assert r.b1 == r.grf0 + r.grf1


def test_spectrum_symmetry_and_aomoto_certificates(lattices, arrangements):
    reports = full_spectrum(arrangements["braid"], lattices["braid"])
    by_k = {r.k: r for r in reports}
    for r in reports:
        conj = by_k[6 - r.k]
        assert r.b1 == conj.b1
        assert r.grf0 == conj.grf1
        assert r.sigma_k_size == conj.sigma_k_size
    assert by_k[2].aomoto == 1
    assert by_k[2].aomoto_certificate["I"] == [0, 5]
    # certified Aomoto values equal b1
    for r in reports:
        if r.aomoto_certificate is not None:
            assert r.aomoto == r.b1


def test_ceva3_has_no_certificate_but_reports_b1(lattices, arrangements):
    reports = full_spectrum(arrangements["ceva3"], lattices["ceva3"])
    by_k = {r.k: r for r in reports}
    assert by_k[3].aomoto is None
    assert by_k[3].b1 == 2


def test_ideal_basis_matches_directional_oracle_on_fixtures(lattices, arrangements):
    for name in ("braid", "ex-3-1-iii"):
        arr, lat = arrangements[name], lattices[name]
        for k in range(1, lat.d):
            for deg in range(0, 5):
                dim = len(ideal_basis(arr, lat, deg, k))
                assert dim == ideal_dim_oracle(arr, lat, deg, k), (name, k, deg)


def test_ideal_basis_matches_directional_oracle_on_cyclotomic_fixture(
        lattices, arrangements):
    arr, lat = arrangements["hesse"], lattices["hesse"]
    for k in (3, 6, 9, 11):
        for deg in range(0, 5):
            dim = len(ideal_basis(arr, lat, deg, k))
            assert dim == ideal_dim_oracle(arr, lat, deg, k), (k, deg)


def test_cokernel_pair_agreement_on_randoms():
    for arr, lat in random_arrangements(seed=2024, count=5):
        for k in range(1, lat.d):
            tilde, constrained = cokernel_dims(arr, lat, k)
            assert tilde == constrained, (arr.name, k)


def test_eigenreport_json_round_trip(lattices, arrangements):
    reports = full_spectrum(arrangements["braid"], lattices["braid"])
    for r in reports:
        assert EigenReport.from_dict(r.as_dict()) == r
