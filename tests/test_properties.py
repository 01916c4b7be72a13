"""Randomized checks of the theorem-encoded invariants over fixtures and
random small arrangements.  Every assertion here is a statement the rest of
the package relies on, so a failure is a bug even when the inputs are random.
"""

import random
from fractions import Fraction

import pytest

from helpers import ideal_basis, ideal_dim_oracle, jet_matrix, random_arrangements
from milfib.arrangement import build_lattice, named_arrangement
from milfib.linalg import rank
from milfib.milnor import (cokernel_dims, full_spectrum, grf_dims,
                           precheck_vanishing)
from milfib.resonance import (ResidueWeights, alpha_components, aomoto_h1,
                              check_residue_integrality, search_residue_subset,
                              weights_from_kI)

RANDOMS = None


def _randoms():
    global RANDOMS
    if RANDOMS is None:
        RANDOMS = random_arrangements(seed=515, count=6, dmin=4, dmax=8)
    return RANDOMS


def _all_cases(lattices, arrangements):
    cases = [(arrangements[name], lattices[name])
             for name in ("braid", "pappus-dual", "ex-3-1-iii")]
    return cases + _randoms()


def test_cokernel_routes_agree_everywhere(lattices, arrangements):
    cases = _all_cases(lattices, arrangements) + [
        (arrangements["ceva3"], lattices["ceva3"])]
    for arr, lat in cases:
        for k in range(1, lat.d):
            tilde, constrained = cokernel_dims(arr, lat, k)
            assert tilde == constrained, (arr.name, k)


def test_conjugation_symmetry_of_spectra(lattices, arrangements):
    for arr, lat in _all_cases(lattices, arrangements):
        reports = full_spectrum(arr, lat)
        by_k = {r.k: r for r in reports}
        for r in reports:
            conj = by_k[lat.d - r.k]
            assert r.b1 == conj.b1
            assert r.grf0 == conj.grf1
            assert r.sigma_k_size == conj.sigma_k_size


def test_aomoto_invariant_under_rescaling_and_distinguished_line(
        lattices, arrangements):
    rng = random.Random(31)
    cases = [(arrangements["braid"], lattices["braid"])] + _randoms()[:3]
    for arr, lat in cases:
        d = lat.d
        k = rng.randint(1, d - 1)
        I = frozenset(rng.sample(range(d), k))
        weights = weights_from_kI(d, k, I)
        base = aomoto_h1(lat, weights)
        for scale in (Fraction(2), Fraction(-1), Fraction(5, 7)):
            scaled = ResidueWeights(tuple(scale * a for a in weights.alphas))
            assert aomoto_h1(lat, scaled) == base
        for dist in range(d):
            assert aomoto_h1(lat, weights, dist=dist) == base


def test_aomoto_invariant_under_line_relabeling(lattices, arrangements):
    # Permuting the lines permutes the anchors k0(V); the dimension must not move.
    from milfib.arrangement import Arrangement
    rng = random.Random(32)
    arr = arrangements["braid"]
    lat = lattices["braid"]
    weights = weights_from_kI(6, 2, frozenset({0, 5}))
    base = aomoto_h1(lat, weights)
    for _ in range(4):
        perm = list(range(6))
        rng.shuffle(perm)
        permuted = Arrangement([arr.lines[perm[i]] for i in range(6)],
                               name="permuted")
        plat = build_lattice(permuted)
        pweights = ResidueWeights(tuple(weights.alphas[perm[i]] for i in range(6)))
        assert aomoto_h1(plat, pweights) == base


def test_aomoto_below_b1_with_equality_under_certificate(lattices, arrangements):
    rng = random.Random(33)
    for arr, lat in _all_cases(lattices, arrangements):
        d = lat.d
        reports = {r.k: r for r in full_spectrum(arr, lat)}
        for _ in range(4):
            k = rng.randint(1, d // 2)
            I = frozenset(rng.sample(range(d), k))
            verdict = check_residue_integrality(lat, k, I)
            if verdict.branch == "avoids_positive":
                value = aomoto_h1(lat, weights_from_kI(d, k, I))
                assert value == reports[k].b1, (arr.name, k, sorted(I))
            elif verdict.branch == "avoids_negative":
                comp = frozenset(range(d)) - I
                value = aomoto_h1(lat, weights_from_kI(d, d - k, comp))
                assert value == reports[k].b1, (arr.name, k, sorted(I))
            else:
                value = aomoto_h1(lat, weights_from_kI(d, k, I))
                assert value <= reports[k].b1, (arr.name, k, sorted(I))


def test_aomoto_strictness_on_ceva3(lattices):
    # The inequality can be strict without a certificate: the dual inflection
    # arrangement at k=3 has Aomoto dimension 1 but eigenspace dimension 2.
    lat = lattices["ceva3"]
    weights = weights_from_kI(9, 3, frozenset({0, 1, 2}))
    assert aomoto_h1(lat, weights) == 1


def test_precheck_false_forces_zero(lattices, arrangements):
    # A full spectrum takes no jets at these k, so the vanishing criterion
    # is checked here, by computing both cokernels at every k it settles.
    cases = [(arr, lattices[name]) for name, arr in arrangements.items()]
    for arr, lat in cases + _randoms():
        for k in range(1, lat.d):
            pre_point, pre_lines = precheck_vanishing(lat, k)
            if not (pre_point and pre_lines):
                g0, g1 = grf_dims(arr, lat, k)
                assert (g0, g1) == (0, 0), (arr.name, k)


def test_alpha_component_bound(lattices, arrangements):
    rng = random.Random(34)
    for arr, lat in _all_cases(lattices, arrangements):
        d = lat.d
        for _ in range(3):
            k = rng.randint(1, d - 1)
            I = frozenset(rng.sample(range(d), k))
            weights = weights_from_kI(d, k, I)
            r_prime = len(alpha_components(lat, weights))
            assert aomoto_h1(lat, weights) <= max(r_prime - 2, 0)


def test_evaluation_surjective_above_two_thirds(lattices, arrangements):
    # All multiple points of these fixtures are triple points, so for
    # 2d/3 < k < d the truncated targets are plain point evaluations and the
    # map must be onto.
    names = ("braid", "pappus-dual", "ex-3-1-iii", "ceva3")
    cases = [(arrangements[n], lattices[n]) for n in names]
    cases += [(arr, lat) for arr, lat in _randoms()
              if all(p.multiplicity == 3 for p in lat.sigma())]
    for arr, lat in cases:
        d = lat.d
        for k in range(2 * d // 3 + 1, d):
            if 3 * k <= 2 * d:
                continue
            mat = jet_matrix(arr, lat, k, False)
            assert mat.rows - rank(mat) == 0, (arr.name, k)


def test_ideal_dimension_oracle_on_randoms():
    for arr, lat in _randoms()[:4]:
        if len(lat.sigma()) > 12:
            continue
        for k in (2, lat.d - 1):
            for deg in range(5):
                assert len(ideal_basis(arr, lat, deg, k)) == \
                    ideal_dim_oracle(arr, lat, deg, k), (arr.name, k, deg)


def test_chart_independence_of_ranks(lattices, arrangements):
    rng = random.Random(35)
    cases = [(arrangements["braid"], lattices["braid"]),
             (arrangements["hesse"], lattices["hesse"])] + _randoms()[:2]
    for arr, lat in cases:
        d = lat.d
        ks = sorted({1, d // 2, d - 1} | {k for k in (2, 3) if k < d})
        sigma_idx = [i for i, p in enumerate(lat.points) if p.multiplicity >= 3]
        for k in ks:
            base = grf_dims(arr, lat, k)
            for _ in range(2):
                charts = {}
                for idx in sigma_idx:
                    p = lat.points[idx]
                    choices = [c for c in range(3)
                               if not p.point.coords[c].is_zero()]
                    charts[idx] = rng.choice(choices)
                assert grf_dims(arr, lat, k, charts=charts) == base, (arr.name, k)


def test_sigma_k_is_conjugation_stable(lattices, arrangements):
    for arr, lat in _all_cases(lattices, arrangements):
        d = lat.d
        for k in range(1, d):
            a = {id(p) for p in lat.sigma_k(k)}
            b = {id(p) for p in lat.sigma_k(d - k)}
            assert a == b
