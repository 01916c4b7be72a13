"""Metamorphic tests: the eigenspace spectrum is a property of the
arrangement, not of how its lines are written down.

The spectrum (grf0, grf1 for every k) must not change when the lines are
permuted, when coordinates change by a random invertible 3x3 matrix, or
when zeta is sent to another primitive root zeta^a.  Ceva(3) and Hesse are
stable as sets under zeta -> zeta^a, so they are first moved by a random
matrix over Q(zeta_3); conjugation then gives a different arrangement.
Examples come from a fixed, derandomized hypothesis profile so runs are
repeatable.
"""

import random
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_arrangement
from milfib.arrangement import Arrangement, ProjLine, build_lattice, named_arrangement
from milfib.cyclotomic import CycloNumber
from milfib.milnor import full_spectrum

FIXED = settings(derandomize=True, deadline=None, max_examples=12,
                 suppress_health_check=[HealthCheck.too_slow])


def spectrum(arr):
    reports = full_spectrum(arr, build_lattice(arr), with_aomoto=False)
    return [(r.grf0, r.grf1) for r in reports]


def relined(arr, lines):
    return Arrangement(lines, name=arr.name, order=arr.field_order)


# Small random arrangements mostly have b1 = 0 everywhere, so the fixtures
# with nonzero eigenspaces are drawn as well.
arrangements = st.one_of(
    st.sampled_from(["braid", "pappus-dual", "ex-3-1-iii", "ceva3"]).map(
        named_arrangement),
    st.builds(lambda seed, d: random_arrangement(random.Random(seed), d),
              st.integers(0, 2 ** 32 - 1), st.integers(4, 8)))


@FIXED
@given(arrangements, st.data())
def test_spectrum_is_invariant_under_permuting_the_lines(arr, data):
    perm = data.draw(st.permutations(range(arr.d)))
    assert spectrum(relined(arr, [arr.lines[i] for i in perm])) == spectrum(arr)


def _invertible(entries):
    a = [entries[0:3], entries[3:6], entries[6:9]]
    det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
           - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
           + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    return a if det else None


def matrices(entry):
    return st.lists(entry, min_size=9, max_size=9).map(_invertible).filter(
        lambda a: a is not None)


def moved(arr, a):
    """The arrangement in coordinates x' = A^-1 x: covectors l -> l A."""
    return relined(arr, [ProjLine(*(sum(line.coeffs[i] * a[i][j] for i in range(3))
                                    for j in range(3)), arr.field_order)
                         for line in arr.lines])


@FIXED
@given(arrangements, matrices(st.integers(-3, 3)))
def test_spectrum_is_invariant_under_a_change_of_coordinates(arr, a):
    assert spectrum(moved(arr, a)) == spectrum(arr)


def _conjugate(x: CycloNumber, a: int) -> CycloNumber:
    """The image of x under the field automorphism zeta -> zeta^a."""
    root = CycloNumber.zeta(x.order) ** a
    acc = CycloNumber.zero(x.order)
    for i, c in enumerate(x.coeffs):
        acc = acc + root ** i * c
    return acc


cyclotomic_entries = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(
    lambda c: CycloNumber(3, c))


@settings(FIXED, max_examples=3)
@given(st.sampled_from(["ceva3", "hesse"]), matrices(cyclotomic_entries), st.data())
def test_spectrum_is_invariant_under_galois_conjugation(name, m, data):
    arr = named_arrangement(name)
    n = arr.field_order
    a = data.draw(st.sampled_from([a for a in range(2, n) if gcd(a, n) == 1]))
    shifted = moved(arr, m)
    conjugated = [ProjLine(*(_conjugate(c, a) for c in line.coeffs), n)
                  for line in shifted.lines]
    assert spectrum(relined(arr, conjugated)) == spectrum(arr)
