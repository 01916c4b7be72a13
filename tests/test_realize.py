import itertools
import math
import random

import pytest

from milfib.arrangement import (Arrangement, ProjLine, build_lattice, generic_section,
                                named_arrangement)
from helpers import enumerate_kernel, from_plain_vector, int_det, same_affine_orbit
from milfib import realize
from milfib.linalg import smith_normal_form
from milfib.realize import as_plain_vector, incidence_from_lattice, search_realizations

REFERENCE = [7, 1, 4, 19, 22, 16, 13, 10, 25]


@pytest.fixture(scope="module")
def ex3_system(lattices):
    return incidence_from_lattice(lattices["ex-3-1-iii"])


@pytest.fixture(scope="module")
def ceva_system(lattices):
    return incidence_from_lattice(lattices["ceva3"])


def test_incidence_shapes(ex3_system, ceva_system):
    assert (ex3_system.q, ex3_system.d) == (9, 9)
    assert (ceva_system.q, ceva_system.d) == (12, 9)
    for row in ex3_system.matrix():
        assert sum(row) == 3 and set(row) <= {0, 1}


def test_incidence_rejects_higher_multiplicity(lattices):
    with pytest.raises(ValueError, match="multiplicity 4"):
        incidence_from_lattice(lattices["hesse"])


def test_determinant_and_smith_form(ex3_system):
    m = ex3_system.matrix()
    assert abs(int_det(m)) == 27
    s, _v = smith_normal_form(m, ex3_system.d)
    assert math.prod(s) == 27


def test_reference_vector_is_a_kernel_candidate(ex3_system):
    result = search_realizations(ex3_system, [27])
    assert result.kernel_size == 27
    reference = from_plain_vector(REFERENCE, [27])
    match = next((c for c in result.candidates if c.vector == reference), None)
    assert match is not None
    assert match.induced_triples == 9
    assert match.new_triples == 0
    assert as_plain_vector(match.vector, [27]) == REFERENCE


def test_all_candidates_share_the_reference_orbit(ex3_system):
    result = search_realizations(ex3_system, [27])
    reference = from_plain_vector(REFERENCE, [27])
    assert result.candidates
    for cand in result.candidates:
        assert same_affine_orbit(reference, cand.vector, [27])


def test_ceva3_group_labeling(ceva_system):
    result = search_realizations(ceva_system, [3, 3])
    assert result.candidates
    for cand in result.candidates:
        # distinct entries in a group of order 9 with d = 9: a bijection
        assert sorted(cand.vector) == sorted(
            (a, b) for a in range(3) for b in range(3))
        assert cand.induced_triples == 12
        assert cand.new_triples == 0


def test_modulus_two_has_no_distinct_labelings(ex3_system):
    assert search_realizations(ex3_system, [2]).candidates == ()


def test_kernel_vectors_satisfy_the_equation(ex3_system):
    vectors = list(enumerate_kernel(ex3_system, [27]))
    for vec in vectors:
        for row in ex3_system.matrix():
            assert sum(x * entry[0] for x, entry in zip(row, vec)) % 27 == 0


def test_enumeration_cap_refuses(ceva_system):
    with pytest.raises(ValueError, match=r"\b729\b.*\b10\b"):
        search_realizations(ceva_system, [3, 3], cap=10)
    assert search_realizations(ceva_system, [3, 3], cap=729).kernel_size == 729


# (fixture, moduli, kernel size): small enough to test every vector of G^d.
ORACLE_CASES = [("braid", (4,), 32), ("braid", (6,), 72), ("braid", (2, 2), 64),
                ("ex-3-1-iii", (3,), 3), ("ceva3", (3,), 27)]


@pytest.mark.parametrize("name, moduli, size", ORACLE_CASES)
def test_enumeration_matches_brute_force(lattices, name, moduli, size):
    system = incidence_from_lattice(lattices[name])
    group = list(itertools.product(*(range(a) for a in moduli)))
    expected = {
        x for x in itertools.product(group, repeat=system.d)
        if all(sum(x[i][t] for i in row) % a == 0
               for row in system.rows for t, a in enumerate(moduli))}
    vectors = list(enumerate_kernel(system, moduli))
    assert len(vectors) == len(set(vectors)) == size
    assert set(vectors) == expected
    assert search_realizations(system, moduli).kernel_size == size


def test_induced_counts_are_affine_invariants(ex3_system):
    rng = random.Random(8)
    result = search_realizations(ex3_system, [27])
    units = [u for u in range(1, 27) if math.gcd(u, 27) == 1]
    for cand in rng.sample(result.candidates, 5):
        u = rng.choice(units)
        t = rng.choice((0, 9, 18))
        mapped = tuple(((u * x[0] + t) % 27,) for x in cand.vector)
        image = next(c for c in result.candidates if c.vector == mapped)
        assert image.induced_triples == cand.induced_triples
        assert image.new_triples == cand.new_triples


def test_search_rejects_bad_moduli(ex3_system):
    with pytest.raises(ValueError):
        search_realizations(ex3_system, [])
    with pytest.raises(ValueError):
        search_realizations(ex3_system, [1])


def _braid_a5_system():
    planes = []
    for i, j in itertools.combinations(range(6), 2):
        v = [0] * 6
        v[i], v[j] = 1, -1
        planes.append(v)
    arr, _ = generic_section(planes)
    return incidence_from_lattice(build_lattice(arr))


def test_kernel_below_the_label_count_is_counted_not_walked(ceva_system, monkeypatch):
    # (Z/2)^2 has 4 elements for 15 lines and Z/2 has 2 for 9: no vector has
    # distinct entries, and the size comes from the Smith orders alone.
    braid = _braid_a5_system()
    cases = [(braid, (2, 2)), (ceva_system, (2,))]
    walked = [sum(1 for _ in enumerate_kernel(system, moduli)) for system, moduli in cases]
    assert walked == [1024, 1]
    monkeypatch.setattr(realize, "_span", None)
    for (system, moduli), size in zip(cases, walked):
        assert math.prod(moduli) < system.d
        result = search_realizations(system, moduli)
        assert result.candidates == ()
        assert result.kernel_size == size
    with pytest.raises(ValueError, match=r"\b1024\b.*\b1000\b"):
        search_realizations(braid, (2, 2), cap=1000)


def _cubic_dual_system():
    values = [t for t in range(-6, 7) if t]
    arr = Arrangement([ProjLine(t, t ** 3, 1) for t in values])
    return incidence_from_lattice(build_lattice(arr))


@pytest.mark.parametrize("make, modulus", [
    (lambda lattices: incidence_from_lattice(lattices["ex-3-1-iii"]), 27),
    (lambda lattices: _cubic_dual_system(), 13)])
def test_induced_triples_match_a_brute_force_count(lattices, make, modulus):
    system = make(lattices)
    result = search_realizations(system, [modulus])
    assert result.candidates
    for cand in result.candidates:
        brute = sum(1 for a, b, c in itertools.combinations(cand.vector, 3)
                    if (a[0] + b[0] + c[0]) % modulus == 0)
        assert cand.induced_triples == brute
        assert cand.new_triples == brute - system.q
