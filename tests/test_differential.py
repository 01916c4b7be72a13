"""Differential tests of the combinatorial route against its direct oracles.

``build_lattice`` and ``rank2_flats`` group pairs by the projective key of
their wedge, and ``search_residue_subset`` prunes its depth-first search by
counts.  ``lattice_by_incidence``, ``flats_by_rank`` and
``exhaustive_residue_subset`` in ``helpers`` compute the same objects the
direct way, so the two must agree exactly.  The key itself is checked for
what makes the grouping exact: it is constant on each class of proportional
vectors and separates different classes.

Lines and points store only their projective keys.  The values they print
(``ProjLine.coeffs``, ``ProjPoint.coords``) must be what the former field
inverse normalization, ``normalize_triple_oracle``, gives, and clearing
them of denominators must give the key back.

``check_residue_integrality``, ``net_detect`` and ``check_pencil_partition``
work on ints and bitmasks over the stored sigma; ``residue_verdict_oracle``,
``net_detect_oracle`` and ``pencil_partition_oracle`` are their Fraction and
list/set references, which must agree with them exactly, on the random
arrangements and on pencil-type inputs that have nets.

The input layer works on ints.  ``generic_section`` restricts the
integral rows of the hyperplanes by int dot products, and its lines must be
those of the CycloNumber restriction, ``section_lines_oracle``.  An
arrangement is essential by one determinant test, which must agree with
the rank of the line keys by the exact field path (``field_rank``).  ``search_residue_subset`` keeps its pruning
tests as running tallies, and must return what the rescanning search,
``residue_search_oracle``, returns after visiting as many nodes.

Examples come from a fixed, derandomized hypothesis profile so runs are
repeatable.
"""

import random
import sys
from itertools import product

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (braid_section, cross_product, exhaustive_residue_subset,
                     field_rank, flats_by_rank, lattice_by_incidence, matrix_from_rows,
                     monomial_arrangement, net_detect_oracle, normalize_triple_oracle,
                     pencil_partition_oracle, random_arrangement, random_cyclo,
                     random_hyperplanes, rank2_flats, residue_search_oracle,
                     residue_verdict_oracle, section_lines_oracle, three_pencils)
from milfib import resonance
from milfib.arrangement import (Arrangement, ArrangementError, GenericityError, ProjLine,
                                ProjPoint, build_lattice, generic_section,
                                named_arrangement)
from milfib.cyclotomic import CycloNumber, integral_form, projective_key
from milfib.resonance import (PartitionPhi, check_pencil_partition,
                              check_residue_integrality, net_detect,
                              search_residue_subset)

FIXED = settings(derandomize=True, deadline=None, max_examples=40,
                 suppress_health_check=[HealthCheck.too_slow])

# The 13 lines with coefficients in {-1, 0, 1}.  They meet in many triple
# and quadruple points, so sigma_k is rarely empty and the searches branch;
# at most 4 of them share a point, so 5 or more are essential.
SMALL = [ProjLine(*t) for t in product((-1, 0, 1), repeat=3)
         if any(t) and next(c for c in t if c) == 1]

arrangements = st.one_of(
    st.sampled_from(["braid", "pappus-dual", "ex-3-1-iii", "ceva3", "hesse"]).map(
        named_arrangement),
    st.builds(lambda seed, d: random_arrangement(random.Random(seed), d),
              st.integers(0, 2 ** 32 - 1), st.integers(4, 12)),
    st.builds(lambda seed, d: Arrangement(random.Random(seed).sample(SMALL, d)),
              st.integers(0, 2 ** 32 - 1), st.integers(5, 12)))


@FIXED
@given(arrangements)
def test_lattice_matches_the_incidence_oracle(arr):
    assert build_lattice(arr) == lattice_by_incidence(arr)


@FIXED
@given(arrangements)
def test_residue_search_matches_the_exhaustive_oracle(arr):
    lat = build_lattice(arr)
    for k in range(1, lat.d // 2 + 1):
        assert search_residue_subset(lat, k) == exhaustive_residue_subset(lat, k), k


def _search_nodes(lattice, k):
    """(the subset ``search_residue_subset`` finds or None, the number of
    calls of its depth-first ``extend``, one per search node)."""
    code = resonance.__file__
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "extend" \
                and frame.f_code.co_filename == code:
            nodes += 1

    sys.setprofile(count)
    try:
        found = search_residue_subset(lattice, k)
    finally:
        sys.setprofile(None)
    return (None if found is None else found[0]), nodes


@FIXED
@given(arrangements)
def test_residue_search_visits_the_nodes_of_the_rescanning_oracle(arr):
    lat = build_lattice(arr)
    for k in range(1, lat.d // 2 + 1):
        found, nodes = _search_nodes(lat, k)
        assert nodes > 0
        assert (found, nodes) == residue_search_oracle(lat, k), k


@pytest.mark.parametrize("build, ks, none_at", [
    (lambda: braid_section(5), (5,), [5]),
    (lambda: three_pencils(4, 4), range(1, 7), []),
    (lambda: monomial_arrangement(4), range(1, 7), []),
    (lambda: named_arrangement("hesse"), range(1, 7), []),
], ids=["braid-A5-section", "pencils4x3", "ceva4", "hesse"])
def test_residue_searches_on_sigma_k_inputs_visit_the_nodes_of_the_oracle(build, ks, none_at):
    # Inputs with many sigma_k points.  On the A_5 section at k = 5 the
    # search runs through the whole tree and finds nothing, so every restore
    # of the tallies is exercised.
    lat = build_lattice(build())
    nothing = []
    for k in ks:
        found, nodes = _search_nodes(lat, k)
        assert (found, nodes) == residue_search_oracle(lat, k), k
        if found is None:
            nothing.append(k)
    assert nothing == none_at


@FIXED
@given(st.sampled_from([1, 3, 4]), st.integers(4, 6), st.integers(4, 8),
       st.integers(0, 2 ** 32 - 1))
def test_section_lines_match_the_cyclotomic_oracle(order, n, d, seed):
    # Each hyperplane is scaled by a random nonzero element, so rows have
    # denominators to clear; the restricted lines stay the same.
    rng = random.Random(seed)
    rows = [[scale * x for x in row] for row, scale in
            zip(random_hyperplanes(rng, order, n, d),
                (random_cyclo(rng, order, nonzero=True) for _ in range(d)))]
    try:
        arr, cert = generic_section(rows, seed=seed % 7)
    except (ArrangementError, GenericityError):
        return
    assert list(arr.lines) == section_lines_oracle(rows, seed % 7, cert.attempts)


def _concurrent_lines(rng, order, d):
    """d random lines s*u + t*v through the point where u and v meet."""
    u, v = ([random_cyclo(rng, order) for _ in range(3)] for _ in range(2))
    lines = []
    for _ in range(d):
        s, t = random_cyclo(rng, order, nonzero=True), random_cyclo(rng, order, nonzero=True)
        lines.append([s * x + t * y for x, y in zip(u, v)])
    return lines


@FIXED
@given(st.sampled_from([1, 3, 4]), st.integers(2, 7),
       st.sampled_from(["random", "concurrent", "concurrent-and-one"]),
       st.integers(0, 2 ** 32 - 1))
def test_essentiality_matches_the_rank_of_the_keys(order, d, shape, seed):
    # The determinant test of Arrangement must say what the exact field
    # path says of the d x 3 key rows, also when every line, or every line
    # but one at a random place, passes through one point.
    rng = random.Random(seed)
    if shape == "random":
        values = [[random_cyclo(rng, order) for _ in range(3)] for _ in range(d)]
    else:
        values = _concurrent_lines(rng, order, d)
        if shape == "concurrent-and-one":
            values.insert(rng.randrange(d + 1), [random_cyclo(rng, order) for _ in range(3)])
    try:
        lines = [ProjLine(*v, order) for v in values]
    except ArrangementError:
        return  # a zero line
    keys = [line.key() for line in lines]
    if len(set(keys)) < len(keys):
        return
    try:
        Arrangement(lines)
        essential = True
    except ArrangementError as exc:
        assert "non-essential" in str(exc)
        essential = False
    key_rows = [[CycloNumber(order, x) for x in key] for key in keys]
    assert essential == (field_rank(matrix_from_rows(key_rows, order=order)) == 3), shape


# Pencil-type inputs with nets, their lines in a random order: the braid
# arrangement (a (3,2)-net), Ceva(3) and Ceva(4) over Q(zeta_3) and Q(i)
# ((3,3)- and (3,4)-nets), Hesse (a (4,3)-net), and pappus-dual, whose
# (3,3)-"nets" break the net condition at double points.
PENCILS = [named_arrangement(name) for name in ("braid", "ceva3", "hesse", "pappus-dual")]
PENCILS.append(monomial_arrangement(4))
pencils = st.builds(lambda arr, seed: Arrangement(random.Random(seed).sample(arr.lines, arr.d)),
                    st.sampled_from(PENCILS), st.integers(0, 2 ** 32 - 1))


@FIXED
@given(st.one_of(arrangements, pencils), st.integers(0, 2 ** 32 - 1))
def test_residue_verdicts_match_the_fraction_oracle(arr, seed):
    rng = random.Random(seed)
    lat = build_lattice(arr)
    for k in range(1, lat.d // 2 + 1):
        for _ in range(4):
            I = rng.sample(range(lat.d), k)
            assert check_residue_integrality(lat, k, I) == \
                residue_verdict_oracle(lat, k, I), (k, I)


@FIXED
@given(pencils)
def test_nets_match_the_oracle_in_order(arr):
    lat = build_lattice(arr)
    found = 0
    for m in range(3, lat.d):
        if lat.d % m == 0:
            nets = net_detect(lat, m)
            assert nets == net_detect_oracle(lat, m), m
            found += len(nets)
    assert found


@FIXED
@given(arrangements)
def test_nets_of_random_arrangements_match_the_oracle(arr):
    lat = build_lattice(arr)
    for m in range(3, lat.d):
        if lat.d % m == 0:
            assert net_detect(lat, m) == net_detect_oracle(lat, m), m


@FIXED
@given(st.one_of(arrangements, pencils), st.integers(0, 2 ** 32 - 1))
def test_partition_verdicts_match_the_fraction_oracle(arr, seed):
    rng = random.Random(seed)
    lat = build_lattice(arr)
    d = lat.d
    cases = [(phi, m, rng.choice([None, rng.randrange(d)]))
             for m in range(3, d) if d % m == 0 for phi in net_detect(lat, m)]
    for _ in range(6):
        r = rng.randint(1, d)
        phi = PartitionPhi(tuple(rng.randrange(r) for _ in range(d)))
        cases.append((phi, rng.choice([phi.r, rng.randint(1, d)]), rng.randrange(d)))
    for phi, m, dist in cases:
        assert check_pencil_partition(lat, phi, m, dist) == \
            pencil_partition_oracle(lat, phi, m, dist), (phi.labels, m, dist)


def _flats_or_error(flats, *args):
    try:
        return flats(*args)
    except ArrangementError as exc:
        return str(exc)


@FIXED
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 4, 5]),
       st.integers(4, 6), st.integers(4, 8), st.booleans())
def test_flats_match_the_rank_oracle(seed, order, n, d, repeat):
    rows = random_hyperplanes(random.Random(seed), order, n, d, repeat)
    assert _flats_or_error(rank2_flats, rows) == \
        _flats_or_error(flats_by_rank, rows, order)


@pytest.mark.parametrize("n, full", [(5, False), (5, True), (8, False), (8, True)])
@settings(FIXED, max_examples=2)
@given(st.integers(0, 2 ** 32 - 1))
def test_lattice_matches_the_incidence_oracle_beyond_degree_two(n, full, seed):
    # phi(5) = phi(8) = 4, so the key multiplies by three conjugates.  A
    # ProjLine normalizes any scaling of its coefficients away, so the lines
    # are moved by a random unipotent change of coordinates over Z[zeta_n]
    # instead: the points get other coordinates and the lattice stays the same.
    rng = random.Random(seed)
    base = monomial_arrangement(n, full)
    units = [s * CycloNumber.zeta(n) ** e for s in (1, -1) for e in range(n)]
    m = [[1 if s == t else rng.choice(units) if s < t else 0 for t in range(3)]
         for s in range(3)]
    arr = Arrangement([ProjLine(*(sum((line.coeffs[s] * m[s][t] for s in range(3)), 0)
                                  for t in range(3)), n)
                       for line in base.lines])
    lat = build_lattice(arr)
    assert lat == lattice_by_incidence(arr)
    assert sorted(sorted(p.lines) for p in lat.points) == \
        sorted(sorted(p.lines) for p in build_lattice(base).points)


def _key(vector, order):
    return projective_key(integral_form([x.coeffs for x in vector]), order)


def _proportional(u, v):
    return all((u[i] * v[j] - u[j] * v[i]).is_zero()
               for i in range(len(u)) for j in range(i + 1, len(u)))


@FIXED
@given(st.sampled_from([1, 2, 3, 4, 5, 8, 12]), st.integers(2, 6),
       st.integers(0, 2 ** 32 - 1))
def test_projective_key_names_exactly_the_proportionality_class(order, size, seed):
    rng = random.Random(seed)
    v = [random_cyclo(rng, order) for _ in range(size)]
    if not any(v):
        assert _key(v, order) is None
        return
    scale = random_cyclo(rng, order, nonzero=True)
    assert _key([scale * x for x in v], order) == _key(v, order)
    # A vector that differs from v in one entry, and an unrelated one.
    w = list(v)
    w[rng.randrange(size)] += random_cyclo(rng, order, nonzero=True)
    for u in (w, [random_cyclo(rng, order) for _ in range(size)]):
        if any(u):
            assert (_key(u, order) == _key(v, order)) == _proportional(u, v)


def _random_lines(order: int, seed: int) -> Arrangement:
    """Six random lines over Q(zeta_order), each with a non-rational first
    coefficient."""
    rng = random.Random(seed)
    while True:
        lines = []
        for _ in range(6):
            a = random_cyclo(rng, order, nonzero=True)
            while not any(a.coeffs[1:]):
                a = random_cyclo(rng, order, nonzero=True)
            lines.append(ProjLine(a, random_cyclo(rng, order), random_cyclo(rng, order)))
        try:
            return Arrangement(lines)
        except ArrangementError:
            continue


REPRESENTED = [pytest.param(lambda name=name: named_arrangement(name), id=name)
               for name in ("braid", "pappus-dual", "ex-3-1-iii", "ceva3", "hesse")]
REPRESENTED += [pytest.param(lambda n=n: monomial_arrangement(n), id=f"monomial-{n}")
                for n in (3, 4, 5, 6, 7, 12)]
REPRESENTED += [pytest.param(lambda n=n: _random_lines(n, 100 + n), id=f"random-order-{n}")
                for n in (3, 4, 5, 8, 12)]


@pytest.mark.parametrize("build", REPRESENTED)
def test_stored_keys_give_the_normalized_values_of_the_inverse_oracle(build):
    # Each line and point stores only its projective key; its values are
    # the key over its end entry, which must be what scaling the input by a
    # field inverse gives, and clearing them of denominators gives the key.
    arr = build()
    rng = random.Random(arr.d)
    n = arr.field_order
    for line in arr.lines:
        scale = random_cyclo(rng, n, nonzero=True)
        scaled = [scale * v for v in line.coeffs]
        again = ProjLine(*scaled, n)
        assert again == line
        assert again.coeffs == line.coeffs == \
            normalize_triple_oracle(scaled, n, leading_first=True)[1]
        assert integral_form([v.coeffs for v in line.coeffs]) == line.key()
    for p in build_lattice(arr).points:
        i, j = sorted(p.lines)[:2]
        cross = cross_product(arr.lines[i], arr.lines[j])
        assert p.point.coords == normalize_triple_oracle(cross, n, leading_first=False)[1]
        assert integral_form([v.coeffs for v in p.point.coords]) == p.point.key()
        assert ProjPoint(*cross) == p.point
