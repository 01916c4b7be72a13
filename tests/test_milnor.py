import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (assert_integral_jet_rows, field_rank, ideal_basis,
                     ideal_dim_oracle, jet_matrix, matrix_from_rows,
                     monomial_arrangement, random_arrangements, random_hyperplanes,
                     truncated_jet_layout, truncation_order)
from milfib import milnor
from milfib.arrangement import (Arrangement, ArrangementError, ProjLine,
                                build_lattice, named_arrangement)
from milfib.linalg import certified_rank, field_primes, nullspace, reduce_mod
from milfib.milnor import (InvariantViolation, cokernel_dims, full_spectrum,
                           grf_dims, ideal_order, monomial_basis,
                           precheck_vanishing)


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
    rows = [[Fraction(x) for x in row] for row in mat.to_rows()]
    # Lattice points in deterministic order (0:0:1), (0:1:0), (1:0:0), (1:1:1);
    # columns are the degree-1 monomials in ascending order [z, y, x].
    assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    assert field_rank(mat) == 3


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
        m = matrix_from_rows(stacked, cols=10, order=3)
        assert field_rank(m) == 2  # target already in the kernel span


def test_grf_examples(lattices, arrangements):
    assert grf_dims(arrangements["braid"], lattices["braid"], 2) == (0, 1)
    assert grf_dims(arrangements["hesse"], lattices["hesse"], 6) == (1, 1)
    for k in (3, 6):
        g0, g1 = grf_dims(arrangements["ex-3-1-iii"], lattices["ex-3-1-iii"], k)
        assert g0 + g1 == 0


def test_grf_rejects_k_out_of_range(lattices, arrangements):
    with pytest.raises(ValueError, match=r"^k must be in \[1, 5\], got 0$"):
        grf_dims(arrangements["braid"], lattices["braid"], 0)
    with pytest.raises(ValueError, match=r"^k must be in \[1, 5\], got 6$"):
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


def _jet_rows(layout):
    return sorted((idx, i, j) for idx, jets in layout for i, j in jets)


def test_unconstrained_rows_are_outer_plus_graded_rows(lattices, arrangements):
    # The identity cokernel_dims rests on: the truncated jets read off
    # floor(m_y*k/d) - 1 are the outer-ideal conditions plus the graded layer.
    cases = [(arrangements[name], lat) for name, lat in lattices.items()]
    cases += [(arr, build_lattice(arr)) for arr in
              (monomial_arrangement(4), monomial_arrangement(5, full=True))]
    for d in range(4, 13):
        cases += random_arrangements(seed=1400 + d, count=2, dmin=d, dmax=d)
    for arr, lat in cases:
        for k in range(1, lat.d):
            outer, graded = milnor._layouts(lat, k)
            assert _jet_rows(truncated_jet_layout(lat, k)) == \
                _jet_rows(outer + graded), (arr.name, k)


def test_cokernel_dims_takes_at_most_two_ranks(monkeypatch, lattices, arrangements):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return certified_rank(*args, **kwargs)

    monkeypatch.setattr(milnor, "certified_rank", counted)
    arr, lat = arrangements["hesse"], lattices["hesse"]
    for k in range(1, lat.d):
        calls.clear()
        cokernel_dims(arr, lat, k)
        assert len(calls) <= 2, (k, calls)


def test_cokernel_dims_ranks_c_alone_only_when_c_f_is_row_deficient(
        monkeypatch, lattices, arrangements):
    # At k = 6 on ex-3-1-iii the graded layer F has rows and both cokernels
    # vanish: [C; F] has independent rows, so rank C = rows(C) needs no call.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return certified_rank(*args, **kwargs)

    monkeypatch.setattr(milnor, "certified_rank", counted)
    arr, lat = arrangements["ex-3-1-iii"], lattices["ex-3-1-iii"]
    assert milnor._layouts(lat, 6)[1]
    assert cokernel_dims(arr, lat, 6) == (0, 0)
    assert len(calls) == 1, calls


def test_jet_context_is_built_once_per_arrangement(monkeypatch, arrangements):
    # Over the open k, the jet route reads each multiple point's key as the
    # lattice stores it, so no point's CycloNumber coordinates are built, and
    # it reduces the key's X, U and V once per field prime and root.  Every
    # rank certifies at the first prime, and the ring Z/q of a kernel check
    # (Hesse lifts at k = 6 and 9, with rows at all nine points) reduces
    # them once per check.
    reductions = Counter()

    def counted_reduce(coeffs, p, root):
        reductions[p, root] += 1
        return reduce_mod(coeffs, p, root)

    monkeypatch.setattr(milnor, "reduce_mod", counted_reduce)
    arr = arrangements["hesse"]
    lat = build_lattice(arr)
    full_spectrum(arr, lat)
    sigma = lat.sigma()
    assert [p.point._values for p in sigma] == [None] * 9
    first = next(field_primes(arr.field_order)).p
    field = {key: n for key, n in reductions.items() if key[0] == first}
    ring = {key: n for key, n in reductions.items() if key[0] != first}
    assert field
    assert set(field.values()) == {3 * len(sigma)}, field
    assert len(ring) == 2
    assert set(ring.values()) == {3 * len(sigma)}, ring


def test_cokernel_pair_agreement_on_randoms():
    for arr, lat in random_arrangements(seed=2024, count=5):
        for k in range(1, lat.d):
            tilde, constrained = cokernel_dims(arr, lat, k)
            assert tilde == constrained, (arr.name, k)


def _assert_integral_rows(arr, lat, k):
    if k >= 3:
        context = milnor.JetContext(arr, lat)
        for layout in milnor._layouts(lat, k):
            assert_integral_jet_rows(arr, lat, context, layout, k - 3)


def test_integral_rows_are_scaled_chart_rows_on_fixtures(lattices, arrangements):
    for name, lat in lattices.items():
        for k in range(1, lat.d):
            _assert_integral_rows(arrangements[name], lat, k)


@st.composite
def cyclotomic_arrangements(draw):
    """Lines over Q(zeta_3), Q(i) or Q(zeta_5), some of them through the
    meet of two earlier ones, so that multiple points occur."""
    order = draw(st.sampled_from((3, 4, 5)))
    d = draw(st.integers(6, 9))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        try:
            return Arrangement([ProjLine(*row, order) for row in
                                random_hyperplanes(rng, order, 3, d)])
        except ArrangementError:
            continue


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(cyclotomic_arrangements())
def test_integral_rows_are_scaled_chart_rows_over_cyclotomic_fields(arr):
    lat = build_lattice(arr)
    for k in range(1, lat.d):
        _assert_integral_rows(arr, lat, k)
