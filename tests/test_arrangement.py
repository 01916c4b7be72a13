import json
import random
from fractions import Fraction
from math import comb

import pytest

from helpers import random_arrangements
from milfib.arrangement import (Arrangement, ArrangementError, GenericityError,
                                ProjLine, ProjPoint, build_lattice,
                                generic_section, line_intersection,
                                named_arrangement, rank2_flats)
from milfib.cyclotomic import CycloNumber


def test_projline_normalization_and_equality():
    assert ProjLine(2, 4, -2) == ProjLine(1, 2, -1)
    assert ProjLine(0, 3, 6) == ProjLine(0, 1, 2)
    with pytest.raises(ArrangementError):
        ProjLine(0, 0, 0)


def test_projpoint_normalizes_last_nonzero_coordinate():
    p = ProjPoint(2, 4, 8)
    assert p.coords[2] == 1
    assert p == ProjPoint(1, 2, 4)
    q = ProjPoint(3, 6, 0)
    assert q.coords[1] == 1


def test_line_intersection_is_on_both_lines():
    l1 = ProjLine(1, -1, 0)
    l2 = ProjLine(1, 1, -2)
    p = line_intersection(l1, l2)
    assert l1.contains(p) and l2.contains(p)
    assert p == ProjPoint(1, 1, 1)


def test_braid_lattice_matches_hand_computation():
    lat = build_lattice(named_arrangement("braid"))
    triples = {tuple(sorted(p.lines)) for p in lat.sigma()}
    assert triples == {(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)}
    triple_points = {tuple(sorted(p.lines)): p.point for p in lat.sigma()}
    assert triple_points[(0, 1, 3)] == ProjPoint(0, 0, 1)
    assert triple_points[(0, 2, 4)] == ProjPoint(0, 1, 0)
    assert triple_points[(1, 2, 5)] == ProjPoint(1, 0, 0)
    assert triple_points[(3, 4, 5)] == ProjPoint(1, 1, 1)
    assert len(lat.doubles()) == 3


def test_ceva3_lattice_counts(lattices):
    lat = lattices["ceva3"]
    assert len(lat.sigma()) == 12
    assert all(p.multiplicity == 3 for p in lat.sigma())
    assert lat.doubles() == []


def test_hesse_lattice_counts(lattices):
    lat = lattices["hesse"]
    assert len(lat.sigma()) == 9
    assert all(p.multiplicity == 4 for p in lat.sigma())
    assert len(lat.doubles()) == 12


def test_hesse_sigma_is_the_stated_point_set(lattices):
    t = CycloNumber.zeta(3)
    zero, one = CycloNumber.zero(3), CycloNumber.one(3)
    expected = set()
    for i in range(3):
        w = -(t ** i)
        for coords in ((w, one, zero), (w, zero, one), (zero, w, one)):
            expected.add(ProjPoint(*coords, order=3).key())
    actual = {p.point.key() for p in lattices["hesse"].sigma()}
    assert actual == expected


def test_pair_count_identity_on_fixtures_and_randoms(lattices):
    for lat in lattices.values():
        assert sum(comb(p.multiplicity, 2) for p in lat.points) == comb(lat.d, 2)
    for _arr, lat in random_arrangements(seed=101, count=6):
        assert sum(comb(p.multiplicity, 2) for p in lat.points) == comb(lat.d, 2)


def test_lattice_invariant_under_projective_change_of_coordinates(lattices):
    rng = random.Random(42)
    base = named_arrangement("braid")
    reference = sorted(tuple(sorted(p.lines)) for p in lattices["braid"].points)
    for _ in range(5):
        while True:
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                   - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                   + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
            if det:
                break
        transformed = Arrangement([
            ProjLine(*[sum(m[t][s] * line.coeffs[t] for t in range(3))
                       for s in range(3)])
            for line in base.lines], name="transformed")
        lat = build_lattice(transformed)
        assert sorted(tuple(sorted(p.lines)) for p in lat.points) == reference


def test_sigma_k_examples(lattices):
    braid = lattices["braid"]
    assert len(braid.sigma_k(2)) == 4
    assert braid.sigma_k(1) == []
    assert len(lattices["hesse"].sigma_k(6)) == 9


def test_duplicate_lines_rejected():
    with pytest.raises(ArrangementError, match="duplicate"):
        Arrangement([ProjLine(1, 0, 0), ProjLine(2, 0, 0),
                     ProjLine(0, 1, 0), ProjLine(0, 0, 1)])


def test_non_essential_rejected():
    with pytest.raises(ArrangementError, match="essential"):
        Arrangement([ProjLine(1, 0, 0), ProjLine(0, 1, 0), ProjLine(1, 1, 0)])


def test_named_arrangement_unknown_name_lists_valid_ones():
    with pytest.raises(ArrangementError, match="braid"):
        named_arrangement("nope")


def test_named_arrangements_have_expected_sizes(arrangements):
    sizes = {name: arr.d for name, arr in arrangements.items()}
    assert sizes == {"braid": 6, "pappus-dual": 9, "ex-3-1-iii": 9,
                     "ceva3": 9, "hesse": 12}
    assert arrangements["ceva3"].field_order == 3
    assert arrangements["hesse"].field_order == 3
    assert arrangements["braid"].field_order == 1


def test_generic_section_rejects_low_dimension():
    with pytest.raises(ArrangementError):
        generic_section([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])


def test_generic_section_boolean_c4():
    arr, cert = generic_section(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], seed=3)
    lat = build_lattice(arr)
    assert lat.multiplicity_histogram() == {2: 6}
    assert len(cert.flat_index_sets) == 6


def test_generic_section_braid_c4_matches_planar_braid():
    hyperplanes = []
    for i in range(4):
        for j in range(i + 1, 4):
            v = [0] * 4
            v[i], v[j] = 1, -1
            hyperplanes.append(v)
    # Rank-2 flats of the ambient arrangement, by brute force over pairs.
    flats = rank2_flats(hyperplanes)
    expected_triples = {frozenset(s) for s in
                        ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))}
    expected_doubles = {frozenset(s) for s in ((0, 5), (1, 4), (2, 3))}
    assert set(flats) == expected_triples | expected_doubles

    arr, cert = generic_section(hyperplanes, seed=0)
    lat = build_lattice(arr)
    assert {frozenset(p.lines) for p in lat.points} == set(flats)


def test_generic_section_certificate_failure_is_reported():
    hyperplanes = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(GenericityError):
        # Zero attempts cannot certify anything.
        generic_section(hyperplanes, seed=0, max_attempts=0)


def test_arrangement_json_round_trip(arrangements):
    for arr in arrangements.values():
        blob = json.dumps(arr.to_json())
        back = Arrangement.from_json(json.loads(blob))
        assert back.d == arr.d
        assert back.field_order == arr.field_order
        assert [l.key() for l in back.lines] == [l.key() for l in arr.lines]


def test_non_integer_float_in_coefficient_array_is_rejected():
    data = {"lines": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [[0.5], [1.5], [1]]]}
    with pytest.raises(ValueError, match="non-integer float"):
        Arrangement.from_json(data)
    data["lines"][3] = [[1.0], [2.0], [1]]
    assert Arrangement.from_json(data).lines[3] == ProjLine(1, 2, 1)
