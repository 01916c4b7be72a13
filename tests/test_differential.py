"""Differential tests of the combinatorial route against its direct oracles.

``build_lattice`` groups the pair intersections by point, and
``search_residue_subset`` prunes its depth-first search by counts.
``lattice_by_incidence`` and ``exhaustive_residue_subset`` in ``helpers``
compute the same objects the direct way, so the two must agree exactly.
Examples come from a fixed, derandomized hypothesis profile so runs are
repeatable.
"""

import random
from itertools import product

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import exhaustive_residue_subset, lattice_by_incidence, random_arrangement
from milfib.arrangement import Arrangement, ProjLine, build_lattice, named_arrangement
from milfib.resonance import search_residue_subset

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
