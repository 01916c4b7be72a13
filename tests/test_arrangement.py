import json
import random
from fractions import Fraction
from math import comb

import pytest

from helpers import (line_contains, line_intersection, matrix_from_rows,
                     random_arrangements, rank2_flats)
from milfib import arrangement, linalg, resonance
from milfib.arrangement import (Arrangement, ArrangementError, GenericityError,
                                ProjLine, ProjPoint, build_lattice,
                                generic_section, named_arrangement)
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
    assert line_contains(l1, p) and line_contains(l2, p)
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


def test_a_second_field_order_is_rejected():
    # Every entry point takes one field Q(zeta_n) from its values; values
    # over two fields are an error, never embedded into a common field.
    z3, z4 = CycloNumber.zeta(3), CycloNumber.zeta(4)
    for build in (lambda: ProjLine(z3, z4, 1), lambda: ProjLine(z3, 1, 0, order=4),
                  lambda: ProjPoint(z3, z4, 1),
                  lambda: matrix_from_rows([[z3, 1], [z4, 0]]),
                  lambda: matrix_from_rows([[z3, 1]], order=4)):
        with pytest.raises(ValueError, match="do not share a field"):
            build()
    rational = [ProjLine(1, 0, 0), ProjLine(0, 1, 0), ProjLine(0, 0, 1)]
    with pytest.raises(ArrangementError, match="do not share a field"):
        Arrangement(rational + [ProjLine(1, z3, 1)])
    planes = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
              [1, z3, z4, 1]]
    for sections in (generic_section, rank2_flats):
        with pytest.raises(ValueError, match="do not share a field"):
            sections(planes)


def test_from_json_normalizes_each_line_once(monkeypatch):
    # A line's stored form is its projective key: one key per line.
    data = named_arrangement("hesse").to_json()
    calls = []
    key = arrangement.projective_key

    def counted(*args, **kwargs):
        calls.append(args)
        return key(*args, **kwargs)

    monkeypatch.setattr(arrangement, "projective_key", counted)
    arr = Arrangement.from_json(data)
    assert arr.field_order == 3
    assert len(calls) == arr.d == 12


def count_inverses(monkeypatch) -> list:
    """Record every CycloNumber.inverse call from here on."""
    calls = []
    inverse = CycloNumber.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycloNumber, "inverse", counted)
    return calls


def test_lattice_build_takes_no_field_inverse(monkeypatch):
    # Lines and points are normalized by dividing the key by a rational
    # integer, so neither the lines nor the lattice need an inverse.
    inverses = count_inverses(monkeypatch)
    for name in ("braid", "ceva3", "hesse"):
        lat = build_lattice(Arrangement.from_json(named_arrangement(name).to_json()))
        assert lat.points
    assert inverses == []


def test_four_lines_at_a_large_order_take_no_field_inverse(monkeypatch):
    # The rational lines xyz(x+y+z) over Q(zeta_10000), phi = 4000: the
    # lines, the duplicate and rank checks and the lattice all stay on the
    # int keys.
    inverses = count_inverses(monkeypatch)
    data = {"cyclotomic_order": 10000,
            "lines": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}
    arr = Arrangement.from_json(data)
    lat = build_lattice(arr)
    assert inverses == []
    assert lat.multiplicity_histogram() == {2: 6}
    assert arr.lines[3].coeffs[2] == 1
    assert lat.points[0].point.coords[2] == 1


def count_constructions(monkeypatch) -> list:
    """Record every CycloNumber built, and every int_rank call under any
    name a module reads it by, from here on."""
    calls = []
    init = CycloNumber.__init__

    def counted_init(self, *args, **kwargs):
        calls.append("CycloNumber")
        init(self, *args, **kwargs)

    monkeypatch.setattr(CycloNumber, "__init__", counted_init)
    for module in (arrangement, linalg, resonance):
        if hasattr(module, "int_rank"):
            rank_of = module.int_rank
            monkeypatch.setattr(module, "int_rank", lambda *args, f=rank_of:
                                calls.append("int_rank") or f(*args))
    return calls


def test_from_json_builds_no_cyclo_number_and_no_elimination(monkeypatch):
    # Coefficients are read straight to ints and Fractions, and essentiality
    # is one determinant test on the keys, not an elimination.
    inputs = [named_arrangement("hesse").to_json(),
              {"lines": [[t, t ** 3, 1] for t in range(-8, 9) if t]}]
    calls = count_constructions(monkeypatch)
    for data in inputs:
        assert Arrangement.from_json(data).d in (12, 16)
    assert calls == []


def test_generic_section_builds_no_cyclo_number(monkeypatch):
    # The A_5 braid arrangement, x_i - x_j in C^6, given as ints and as the
    # caller's CycloNumbers: the section works on the integral rows.
    planes = [[(t == i) - (t == j) for t in range(6)]
              for i in range(6) for j in range(i + 1, 6)]
    given = [[CycloNumber.from_json(v, 1) for v in row] for row in planes]
    calls = count_constructions(monkeypatch)
    for rows in (planes, given):
        arr, _cert = generic_section(rows)
        assert build_lattice(arr).multiplicity_histogram() == {2: 45, 3: 20}
    assert calls == []


def test_a_rational_line_builds_no_cyclo_number(monkeypatch):
    calls = count_constructions(monkeypatch)
    line = ProjLine(2, -3, 5)
    assert calls == []
    assert line.key() == ((2,), (-3,), (5,))


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


def test_generic_section_rejects_normals_of_rank_below_3():
    for planes in ([[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]],
                   [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [1, -2, 0, 0]]):
        with pytest.raises(ArrangementError, match="less than 3 dimensions"):
            generic_section(planes)


def test_generic_section_rejects_an_all_zero_hyperplane():
    planes = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
              [0, 0, 0, 1]]
    with pytest.raises(ArrangementError, match="hyperplane 0 is all zero"):
        generic_section(planes)


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
