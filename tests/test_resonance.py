import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (aomoto_h1_oracle, build_aomoto_system, random_arrangement,
                     random_arrangements)
from milfib.arrangement import Arrangement, IncidenceLattice, ProjLine, build_lattice
from milfib.cyclotomic import CycloNumber
from milfib.linalg import int_rank
from milfib.resonance import (PartitionPhi, ResidueWeights, SearchCapExceeded,
                              alpha_components, aomoto_h1,
                              check_pencil_partition,
                              check_residue_integrality, net_detect,
                              search_residue_subset, weights_from_kI)

BRAID_NET = ((0, 5), (1, 4), (2, 3))


@pytest.fixture(scope="module")
def xyz_lattice():
    arr = Arrangement([ProjLine(1, 0, 0), ProjLine(0, 1, 0), ProjLine(0, 0, 1)],
                      name="xyz")
    return build_lattice(arr)


def test_weights_from_kI_values():
    w = weights_from_kI(6, 2, {0, 3})
    assert w.alphas == (Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3),
                        Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3))
    w = weights_from_kI(9, 3, {0, 1, 2})
    assert set(w.alphas[:3]) == {Fraction(-2, 3)}
    assert set(w.alphas[3:]) == {Fraction(1, 3)}


def test_weights_always_sum_to_zero():
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(3, 12)
        k = rng.randint(1, d - 1)
        I = frozenset(rng.sample(range(d), k))
        w = weights_from_kI(d, k, I)
        assert sum(w.alphas) == 0


def test_weights_reject_size_mismatch():
    with pytest.raises(ValueError, match="sum to zero"):
        weights_from_kI(6, 2, {0})
    with pytest.raises(ValueError):
        ResidueWeights((Fraction(1), Fraction(1)))


def test_aomoto_braid_net_block(lattices):
    w = weights_from_kI(6, 2, {0, 5})
    assert aomoto_h1(lattices["braid"], w) == 1


def test_aomoto_generic_three_lines(xyz_lattice):
    w = ResidueWeights((Fraction(1), Fraction(1), Fraction(-2)))
    assert aomoto_h1(xyz_lattice, w) == 0


def test_aomoto_ceva3_net_block(lattices):
    w = weights_from_kI(9, 3, {0, 1, 2})
    assert aomoto_h1(lattices["ceva3"], w) == 1


def test_aomoto_rejects_zero_omega(xyz_lattice):
    w = ResidueWeights((Fraction(0), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError, match="omega"):
        aomoto_h1(xyz_lattice, w)


def _random_fraction(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice((1, 2, 3, 5, 7, 12)))


def _random_weights(rng, lat):
    """Residue weights with mixed denominators that sum to zero: weights
    from (k, I); random ones on every line; and random ones on the lines of
    one multiple point, zero elsewhere, which makes H^1 nonzero."""
    d = lat.d
    k = rng.randint(1, d - 1)
    out = [weights_from_kI(d, k, frozenset(rng.sample(range(d), k)))]
    alphas = [_random_fraction(rng) for _ in range(d - 1)]
    out.append(ResidueWeights(tuple(alphas) + (-sum(alphas),)))
    multiple = [p for p in lat.points if p.multiplicity >= 3]
    if multiple:
        lines = sorted(rng.choice(multiple).lines)
        local = [Fraction(0)] * d
        for i in lines[:-1]:
            local[i] = _random_fraction(rng)
        local[lines[-1]] = -sum(local)
        if local[lines[-1]]:
            out.append(ResidueWeights(tuple(local)))
    return out


def test_aomoto_agrees_with_exterior_algebra_oracle(lattices):
    cases = [
        (lattices["braid"], weights_from_kI(6, 2, {0, 5})),
        (lattices["braid"], weights_from_kI(6, 3, {0, 1, 2})),
        (lattices["ceva3"], weights_from_kI(9, 3, {0, 1, 2})),
        (lattices["pappus-dual"], weights_from_kI(9, 3, {0, 1, 2})),
    ]
    rng = random.Random(77)
    for arr, lat in random_arrangements(seed=303, count=4, dmin=4, dmax=6):
        d = lat.d
        k = rng.randint(1, d - 1)
        cases.append((lat, weights_from_kI(d, k, frozenset(rng.sample(range(d), k)))))
    for d in range(4, 11):
        for _ in range(2):
            lat = build_lattice(random_arrangement(rng, d))
            cases += [(lat, w) for w in _random_weights(rng, lat)]
    nonzero = 0
    for lat, w in cases:
        for dist in range(lat.d):
            h1 = aomoto_h1(lat, w, dist)
            assert h1 == aomoto_h1_oracle(lat, w, dist), (lat.d, w.alphas, dist)
            block = build_aomoto_system(lat, w, dist)
            assert h1 == lat.d - 2 - int_rank(block, lat.d - 1), (lat.d, w.alphas, dist)
            nonzero += h1 > 0
    assert nonzero


def test_alpha_components_examples(lattices, xyz_lattice):
    w = ResidueWeights((Fraction(1), Fraction(1), Fraction(-2)))
    assert alpha_components(xyz_lattice, w) == [(0, 1)]
    wb = weights_from_kI(6, 2, {0, 5})
    assert alpha_components(lattices["braid"], wb) == [(0,), (1, 4), (2, 3)]


def test_alpha_components_reject_zero_weight(xyz_lattice):
    w = ResidueWeights((Fraction(0), Fraction(1), Fraction(-1)))
    with pytest.raises(ValueError, match="alpha_0"):
        alpha_components(xyz_lattice, w)


def test_alpha_component_bound_on_randoms():
    rng = random.Random(6)
    for arr, lat in random_arrangements(seed=404, count=5):
        d = lat.d
        k = rng.randint(1, d - 1)
        w = weights_from_kI(d, k, frozenset(rng.sample(range(d), k)))
        r_prime = len(alpha_components(lat, w))
        assert aomoto_h1(lat, w) <= max(r_prime - 2, 0)


def test_residue_integrality_braid(lattices):
    verdict = check_residue_integrality(lattices["braid"], 2, {0, 5})
    assert verdict.holds and verdict.branch == "avoids_positive"


def test_residue_integrality_fails_everywhere_on_ex_3_1_iii(lattices):
    lat = lattices["ex-3-1-iii"]
    for I in combinations(range(9), 3):
        assert not check_residue_integrality(lat, 3, I).holds
    assert search_residue_subset(lat, 3) is None


def test_residue_integrality_fails_everywhere_on_ceva3(lattices):
    lat = lattices["ceva3"]
    for I in combinations(range(9), 3):
        assert not check_residue_integrality(lat, 3, I).holds


def test_residue_search_finds_braid_subset(lattices):
    found = search_residue_subset(lattices["braid"], 2)
    assert found is not None
    I, verdict = found
    assert check_residue_integrality(lattices["braid"], 2, I).holds


def test_residue_search_cap():
    arr, lat = random_arrangements(seed=9, count=1, dmin=5, dmax=5)[0]
    with pytest.raises(SearchCapExceeded):
        search_residue_subset(lat, 2, cap=4)


def test_residue_check_rejects_large_k(lattices):
    with pytest.raises(ValueError):
        check_residue_integrality(lattices["braid"], 4, {0, 1, 2, 3})


def test_second_branch_routes_through_complement(lattices):
    # If I avoids negative integers only, the complement at d-k avoids
    # positive integers: the two verdicts are mirror images.
    lat = lattices["braid"]
    for I in combinations(range(6), 2):
        verdict = check_residue_integrality(lat, 2, I)
        if verdict.branch == "avoids_negative":
            comp = frozenset(range(6)) - frozenset(I)
            mirror = check_residue_integrality(lat, 4, comp)
            assert mirror.branch in ("avoids_positive", "avoids_negative")


def test_partition_checks_braid(lattices):
    phi = PartitionPhi((0, 1, 2, 2, 1, 0))
    assert tuple(phi.blocks()) == BRAID_NET
    verdict = check_pencil_partition(lattices["braid"], phi, 3)
    assert verdict.bound_holds and verdict.exact_holds
    assert verdict.predicted_exact == 1


def test_partition_checks_hesse(lattices):
    nets = net_detect(lattices["hesse"], 4)
    assert len(nets) == 1
    verdict = check_pencil_partition(lattices["hesse"], nets[0], 4)
    assert verdict.bound_holds and verdict.exact_holds
    assert verdict.predicted_exact == 2
    # the net contains the coordinate-triangle block
    assert (0, 1, 2) in nets[0].blocks()


def test_partition_checks_ceva3_bound_without_exact(lattices):
    phi = PartitionPhi((0, 0, 0, 1, 1, 1, 2, 2, 2))
    verdict = check_pencil_partition(lattices["ceva3"], phi, 3)
    assert verdict.bound_holds
    assert not verdict.exact_holds
    assert verdict.predicted_lower == 1


def test_partition_malformed_rejected(lattices):
    with pytest.raises(ValueError):
        check_pencil_partition(lattices["braid"], PartitionPhi((0, 1, 0)), 3)
    with pytest.raises(ValueError):
        check_pencil_partition(lattices["braid"], PartitionPhi((0, 0, 1, 1, 2, 2)), 0)


def test_net_detect_braid_unique(lattices):
    nets = net_detect(lattices["braid"], 3)
    assert len(nets) == 1
    assert tuple(nets[0].blocks()) == BRAID_NET


def test_net_detect_empty_on_ex_3_1_iii(lattices):
    assert net_detect(lattices["ex-3-1-iii"], 3) == []


def test_net_detect_ceva3_finds_the_pencil_partition(lattices):
    nets = net_detect(lattices["ceva3"], 3)
    blocks = [tuple(net.blocks()) for net in nets]
    assert ((0, 1, 2), (3, 4, 5), (6, 7, 8)) in blocks


def test_net_detect_validates_input(lattices):
    with pytest.raises(ValueError):
        net_detect(lattices["braid"], 2)
    with pytest.raises(ValueError):
        net_detect(lattices["braid"], 4)
    with pytest.raises(SearchCapExceeded):
        net_detect(lattices["braid"], 3, cap=4)


# The lines t x + t^3 y + z, t = -8..8 but 0: three of them meet exactly
# when their values sum to 0, so this rational arrangement of 16 lines has
# many triple points and no point of higher multiplicity.
CUBIC_DUAL = [ProjLine(t, t ** 3, 1) for t in range(-8, 9) if t]


def _run_searches(lat):
    """The combinatorial route as the `cond02`, `net` and `theorem1`
    commands run it."""
    d = lat.d
    for k in range(1, d // 2 + 1):
        search_residue_subset(lat, k)
    for m in (4, 8):
        for phi in net_detect(lat, m) + [PartitionPhi(tuple(i % m for i in range(d)))]:
            check_pencil_partition(lat, phi, m)


def test_combinatorial_route_builds_no_cyclo_number(monkeypatch):
    # The lattice keys points by ints and builds no coordinates until they
    # are read, and the searches take no field arithmetic.
    arr = Arrangement(CUBIC_DUAL)
    built = []
    original = CycloNumber.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(CycloNumber, "__init__", counted)
    lat = build_lattice(arr)
    assert len(lat.sigma()) > 10
    _run_searches(lat)
    assert not built, len(built)


class _CountedPoints(tuple):
    """A tuple of lattice points that counts the scans over it."""

    scans = 0

    def __iter__(self):
        _CountedPoints.scans += 1
        return super().__iter__()


def test_sigma_is_found_once_per_lattice(monkeypatch):
    # Every search reads sigma as the lattice stores it; the points are
    # scanned once, when the lattice is made.
    monkeypatch.setattr(_CountedPoints, "scans", 0)
    points = build_lattice(Arrangement(CUBIC_DUAL)).points
    lat = IncidenceLattice(len(CUBIC_DUAL), _CountedPoints(points))
    _run_searches(lat)
    assert _CountedPoints.scans == 1
