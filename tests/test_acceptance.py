"""Acceptance criteria, one test per criterion, exact-integer tolerances.

Each test prints a single "criterion N: PASS" line on success (visible with
pytest -s); any mismatch fails the assertion with the offending values.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from helpers import (from_plain_vector, ideal_basis, ideal_dim_oracle,
                     int_det, jet_matrix, matrix_from_rows, random_arrangements,
                     same_affine_orbit)
from milfib.arrangement import build_lattice, generic_section, named_arrangement
from milfib.linalg import nullspace, rank, smith_normal_form
from milfib.milnor import (cokernel_dims, full_spectrum, grf_dims,
                           monomial_basis, precheck_vanishing)
from milfib.realize import incidence_from_lattice, search_realizations
from milfib.report import analyze
from milfib.resonance import (ResidueWeights, alpha_components, aomoto_h1,
                              check_residue_integrality, net_detect,
                              search_residue_subset, weights_from_kI)


def _b1(reports):
    return [r.b1 for r in reports]


def test_criterion_1_braid_spectrum(arrangements, lattices):
    arr, lat = arrangements["braid"], lattices["braid"]
    reports = full_spectrum(arr, lat)
    assert _b1(reports) == [0, 1, 0, 1, 0]
    assert grf_dims(arr, lat, 2) == (0, 1)
    print("criterion 1 (braid spectrum): PASS")


def test_criterion_2_pappus_dual(arrangements, lattices):
    arr, lat = arrangements["pappus-dual"], lattices["pappus-dual"]
    reports = full_spectrum(arr, lat)
    assert _b1(reports) == [0, 0, 1, 0, 0, 1, 0, 0]
    found = search_residue_subset(lat, 3)
    assert found is not None and found[1].holds
    nets = net_detect(lat, 3)
    from milfib.resonance import check_pencil_partition
    assert any(check_pencil_partition(lat, phi, 3).exact_holds for phi in nets)
    print("criterion 2 (pappus-dual): PASS")


def test_criterion_3_all_zero_example(arrangements, lattices):
    arr, lat = arrangements["ex-3-1-iii"], lattices["ex-3-1-iii"]
    reports = full_spectrum(arr, lat)
    assert _b1(reports) == [0] * 8
    assert search_residue_subset(lat, 3) is None
    assert net_detect(lat, 3) == []
    print("criterion 3 (nine lines, trivial eigenspaces): PASS")


def test_criterion_4_ceva3(arrangements, lattices):
    arr, lat = arrangements["ceva3"], lattices["ceva3"]
    assert len(lat.sigma()) == 12
    assert all(p.multiplicity == 3 for p in lat.sigma())
    reports = full_spectrum(arr, lat)
    assert _b1(reports) == [0, 0, 2, 0, 0, 2, 0, 0]
    cubic_eval = jet_matrix(arr, lat, 6, False)
    assert (cubic_eval.rows, cubic_eval.cols) == (12, 10)
    assert nullspace(cubic_eval) == []  # injective
    aomoto = aomoto_h1(lat, weights_from_kI(9, 3, frozenset({0, 1, 2})))
    assert aomoto == 1 and aomoto < reports[2].b1
    print("criterion 4 (ceva3): PASS")


def test_criterion_5_hesse(arrangements, lattices):
    arr, lat = arrangements["hesse"], lattices["hesse"]
    assert len(lat.sigma()) == 9
    assert all(p.multiplicity == 4 for p in lat.sigma())
    mat = jet_matrix(arr, lat, 6, False)
    kernel = nullspace(mat)
    assert len(kernel) == 2
    basis = monomial_basis(3)
    fermat = [1 if m in ((3, 0, 0), (0, 3, 0), (0, 0, 3)) else 0 for m in basis]
    product = [1 if m == (1, 1, 1) else 0 for m in basis]
    for target in (fermat, product):
        stacked = [list(v) for v in kernel] + [target]
        assert rank(matrix_from_rows(stacked, cols=10, order=3)) == 2
    assert mat.rows - rank(mat) == 1  # cokernel
    reports = full_spectrum(arr, lat)
    assert _b1(reports) == [0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0]
    nets = net_detect(lat, 4)
    from milfib.resonance import check_pencil_partition
    assert len(nets) == 1
    verdict = check_pencil_partition(lat, nets[0], 4)
    assert verdict.exact_holds and verdict.predicted_exact == 2
    print("criterion 5 (hesse): PASS")


def test_criterion_6_realization(lattices):
    system = incidence_from_lattice(lattices["ex-3-1-iii"])
    s, _v = smith_normal_form(system.matrix(), system.d)
    assert math.prod(s) == 27
    assert abs(int_det(system.matrix())) == 27
    result = search_realizations(system, [27])
    reference = from_plain_vector([7, 1, 4, 19, 22, 16, 13, 10, 25], [27])
    match = next((c for c in result.candidates
                  if same_affine_orbit(reference, c.vector, [27])), None)
    assert match is not None
    assert match.induced_triples == 9 and match.new_triples == 0
    print("criterion 6 (realization mod 27): PASS")


def test_criterion_7_property_battery(arrangements, lattices):
    rng = random.Random(616)
    cases = [(arrangements[n], lattices[n])
             for n in ("braid", "pappus-dual", "ex-3-1-iii")]
    cases += random_arrangements(seed=616, count=4, dmin=4, dmax=7)
    failures = []

    for arr, lat in cases:
        d = lat.d
        reports = {r.k: r for r in full_spectrum(arr, lat)}
        for k in range(1, d):
            # (a) the two cokernel routes agree
            tilde, constrained = cokernel_dims(arr, lat, k)
            if tilde != constrained:
                failures.append(("a", arr.name, k))
            # (b) conjugation symmetry
            if reports[k].b1 != reports[d - k].b1 or \
                    reports[k].grf0 != reports[d - k].grf1:
                failures.append(("b", arr.name, k))
            # (e) prechecks force zero
            pre = precheck_vanishing(lat, k)
            if not all(pre) and reports[k].b1 != 0:
                failures.append(("e", arr.name, k))

        k = rng.randint(1, d - 1)
        I = frozenset(rng.sample(range(d), k))
        weights = weights_from_kI(d, k, I)
        base = aomoto_h1(lat, weights)
        # (c) invariance under rescaling and distinguished-line choice
        scaled = ResidueWeights(tuple(Fraction(3, 2) * a for a in weights.alphas))
        if aomoto_h1(lat, scaled) != base:
            failures.append(("c-scale", arr.name, k))
        if any(aomoto_h1(lat, weights, dist=t) != base for t in range(d)):
            failures.append(("c-dist", arr.name, k))
        # (d) Aomoto below b1, equality under certificate
        if base > reports[k].b1:
            failures.append(("d-bound", arr.name, k))
        for kk in range(1, d // 2 + 1):
            found = search_residue_subset(lat, kk)
            if found is None:
                continue
            I_c, verdict = found
            if verdict.branch == "avoids_positive":
                certified = aomoto_h1(lat, weights_from_kI(d, kk, I_c))
            else:
                certified = aomoto_h1(
                    lat, weights_from_kI(d, d - kk, frozenset(range(d)) - I_c))
            if certified != reports[kk].b1:
                failures.append(("d-equal", arr.name, kk))
        # (f) component bound
        r_prime = len(alpha_components(lat, weights))
        if base > max(r_prime - 2, 0):
            failures.append(("f", arr.name, k))
        # (g) surjectivity above 2d/3 when every multiple point is triple
        if all(p.multiplicity == 3 for p in lat.sigma()):
            for kk in range(2 * d // 3 + 1, d):
                if 3 * kk <= 2 * d:
                    continue
                mat = jet_matrix(arr, lat, kk, False)
                if mat.rows - rank(mat) != 0:
                    failures.append(("g", arr.name, kk))
        # (h) ideal dimension against the directional oracle
        if len(lat.sigma()) <= 12:
            for deg in range(5):
                kk = rng.randint(1, d - 1)
                if len(ideal_basis(arr, lat, deg, kk)) != \
                        ideal_dim_oracle(arr, lat, deg, kk):
                    failures.append(("h", arr.name, kk, deg))
        # (i) chart independence
        sigma_idx = [i for i, p in enumerate(lat.points) if p.multiplicity >= 3]
        kk = rng.randint(1, d - 1)
        base_grf = grf_dims(arr, lat, kk)
        charts = {idx: rng.choice([c for c in range(3)
                                   if not lat.points[idx].point.coords[c].is_zero()])
                  for idx in sigma_idx}
        if grf_dims(arr, lat, kk, charts=charts) != base_grf:
            failures.append(("i", arr.name, kk))

    assert not failures, failures
    print("criterion 7 (property battery): PASS")


def test_criterion_8_generic_section_of_braid_c4():
    hyperplanes = []
    for i in range(4):
        for j in range(i + 1, 4):
            v = [0] * 4
            v[i], v[j] = 1, -1
            hyperplanes.append(v)
    arr, cert = generic_section(hyperplanes, seed=0, name="braid-section")
    lat = build_lattice(arr)
    assert lat.multiplicity_histogram() == {3: 4, 2: 3}
    reports = full_spectrum(arr, lat)
    planar = named_arrangement("braid")
    planar_reports = full_spectrum(planar, build_lattice(planar))
    assert [(r.k, r.grf0, r.grf1, r.b1) for r in reports] == \
        [(r.k, r.grf0, r.grf1, r.b1) for r in planar_reports]
    assert analyze(arr).all_checks_pass
    print("criterion 8 (generic section): PASS")
