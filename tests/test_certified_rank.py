"""The certified F_p rank kernel behind the jet route.

``cokernel_dims`` takes every rank over F_p (linalg.certified_rank); the
exact matrices of ``jet_matrix`` (tests/helpers.py) with ``field_rank``, the
exact field path, are the oracle here, and sympy's DomainMatrix over
QQ<zeta_n> an independent one.  The check of lifted kernels in
Z/Phi_n(2^K) has ``helpers.kernel_holds``, exact convolution over Z[zeta],
as its oracle.  The primes come from the stream ``linalg.field_primes``,
taken lazily and only as far as a certificate needs; a kernel that needs
more primes than the first few still certifies by a lift.
"""

import json
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (assert_integral_jet_rows, certify_args, field_rank, jet_matrix,
                     kernel_holds, ladder_member, matrix_from_rows,
                     monomial_arrangement, random_arrangement)
from milfib import linalg, milnor
from milfib.arrangement import (Arrangement, ProjLine, ProjPoint, build_lattice,
                                named_arrangement)
from milfib.cyclotomic import CycloNumber, euler_phi, int_mul
from milfib.linalg import (CertifiedRank, Matrix, certified_rank, field_primes,
                           reduce_mod)
from milfib.milnor import JetContext, cokernel_dims
from milfib.report import analyze


def _exact_cokernels(arr, lat, k, charts=None):
    tilde = jet_matrix(arr, lat, k, False, charts)
    constrained = jet_matrix(arr, lat, k, True, charts)
    return (tilde.rows - field_rank(tilde), constrained.rows - field_rank(constrained))


def _certify(m: Matrix) -> CertifiedRank:
    return certified_rank(*certify_args(m))


def _primes(n: int, count: int) -> list[int]:
    return [fp.p for fp in islice(field_primes(n), count)]


def _differential_cases():
    cases = [named_arrangement(name) for name in
             ("braid", "pappus-dual", "ex-3-1-iii", "ceva3", "hesse")]
    cases += [monomial_arrangement(4), monomial_arrangement(3, full=True)]
    rng = random.Random(3303)
    cases += [random_arrangement(rng, d) for d in range(6, 11)]
    return cases


@pytest.mark.parametrize("arr", _differential_cases(), ids=lambda a: a.name)
def test_certified_cokernels_match_exact_elimination(arr):
    lat = build_lattice(arr)
    for k in range(1, lat.d):
        assert cokernel_dims(arr, lat, k) == _exact_cokernels(arr, lat, k), k


def _sympy_rank(m: Matrix):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    zeta = sympy.exp(2 * sympy.pi * sympy.I / m.order)
    field = sympy.QQ.algebraic_field(zeta)
    z = field.from_sympy(zeta)
    powers = [field.one]
    for _ in range(euler_phi(m.order)):
        powers.append(powers[-1] * z)

    def convert(x):
        out = field.zero
        for c, power in zip(x.coeffs, powers):
            out += field.convert(sympy.Rational(c.numerator, c.denominator)) * power
        return out

    rows = [[convert(x) for x in row] for row in m.to_rows()]
    return DomainMatrix(rows, (m.rows, m.cols), field).rank()


@pytest.mark.parametrize("name, k", [("hesse", 6), ("hesse", 9), ("ceva4", 8),
                                     ("ceva3", 6)])
def test_nonzero_cokernels_against_sympy(name, k):
    arr = monomial_arrangement(4) if name == "ceva4" else named_arrangement(name)
    lat = build_lattice(arr)
    tilde = jet_matrix(arr, lat, k, False)
    constrained = jet_matrix(arr, lat, k, True)
    expected = (tilde.rows - _sympy_rank(tilde),
                constrained.rows - _sympy_rank(constrained))
    assert expected[0] > 0
    assert cokernel_dims(arr, lat, k) == expected


def test_field_primes_carry_roots_of_the_cyclotomic_polynomial():
    sympy = pytest.importorskip("sympy")
    for n in (1, 3, 4, 12):
        primes = list(islice(field_primes(n), 7))
        # The largest primes p = 1 mod n below 2^30, none skipped, largest first.
        candidates = range((2 ** 30 - 2) // n * n + 1, primes[-1].p - 1, -n)
        assert [fp.p for fp in primes] == [c for c in candidates if sympy.isprime(c)]
        for fp in primes:
            assert len(fp.roots) == len(set(fp.roots)) == euler_phi(n)
            zeta = CycloNumber.zeta(n)
            for root in fp.roots:
                # Phi_n(root) = 0: the image of zeta^phi(n) matches its power-basis form.
                assert pow(root, n, fp.p) == 1
                power_basis = [c.numerator for c in (zeta ** euler_phi(n)).coeffs]
                assert reduce_mod(power_basis, fp.p, root) == \
                    pow(root, euler_phi(n), fp.p)


def test_random_ranks_and_kernel_lifts_agree_with_exact_rank():
    rng = random.Random(77)
    kinds = set()
    for order in (1, 3, 4):
        phi = euler_phi(order)
        for _ in range(12):
            r, c, inner = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)

            def entry():
                return CycloNumber(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                           for _ in range(phi)])
            left = [[entry() for _ in range(inner)] for _ in range(r)]
            right = [[entry() for _ in range(c)] for _ in range(inner)]
            rows = [[sum((left[i][t] * right[t][j] for t in range(inner)),
                         CycloNumber.zero(order)) for j in range(c)] for i in range(r)]
            m = matrix_from_rows(rows, cols=c, order=order)
            result = _certify(m)
            assert result.rank == field_rank(m)
            kinds.add(result.certificate)
    assert kinds == {"full_rank", "kernel_lift"}


@pytest.mark.parametrize("n", [2 ** 29 + 11, 2 ** 30 + 1])
def test_field_primes_end_with_an_error_naming_the_order(n):
    # 2^29 + 12 is even, and no p = 1 mod 2^30 + 1 lies below 2^30.
    with pytest.raises(ValueError, match=f"no more primes p = 1 mod {n} below 2"):
        next(field_primes(n))


def test_analyze_builds_one_prime_per_field_order(monkeypatch, arrangements):
    # Every rank of the five fixtures certifies at the first prime of its
    # order, so the stream builds no second one.
    built = Counter()
    build = linalg._field_prime

    def counted(n, p):
        built[n] += 1
        return build(n, p)

    monkeypatch.setattr(linalg, "_FIELD_PRIMES", {})
    monkeypatch.setattr(linalg, "_field_prime", counted)
    for arr in arrangements.values():
        analyze(arr)
    assert built == Counter({arr.field_order: 1 for arr in arrangements.values()})


def test_denominator_divisible_by_the_first_prime_moves_to_the_next():
    first, second = _primes(1, 2)
    full = matrix_from_rows([[Fraction(1, first), 0], [0, 1]])
    assert _certify(full) == CertifiedRank(2, "full_rank", second)
    deficient = matrix_from_rows([[Fraction(1, first)] * 2, [2, 2]])
    assert _certify(deficient) == CertifiedRank(1, "kernel_lift", second)


def test_rank_lost_mod_p_is_not_certified():
    first, second = _primes(1, 2)
    # Mod the first prime the matrix has rank 1; its kernel vector (1, 0)
    # fails M x = 0 over Q, so the rank comes from the second prime.
    m = matrix_from_rows([[first, 1], [0, 1]])
    assert _certify(m) == CertifiedRank(2, "full_rank", second)


def test_zero_chart_coordinate_mod_p_moves_to_the_next_prime(monkeypatch):
    first, second = _primes(1, 2)
    # Three lines through (1 : p : 1); in the chart y = 1 its chart coordinate
    # p vanishes mod p, so every map at k must leave the first prime.
    arr = Arrangement([ProjLine(1, 0, -1), ProjLine(first, -1, 0),
                       ProjLine(0, 1, -first), ProjLine(1, 0, 0),
                       ProjLine(0, 1, 0), ProjLine(0, 0, 1), ProjLine(1, 1, 1)])
    lat = build_lattice(arr)
    target = ProjPoint(1, first, 1)
    idx = next(i for i, p in enumerate(lat.points) if p.point == target)
    assert lat.points[idx].multiplicity == 3
    charts = {idx: 1}
    used = []

    def spy(*args):
        result = certified_rank(*args)
        used.append(result.prime)
        return result
    monkeypatch.setattr(milnor, "certified_rank", spy)
    for k in range(1, lat.d):
        assert cokernel_dims(arr, lat, k, charts) == \
            _exact_cokernels(arr, lat, k, charts), k
    assert second in used and first not in used


def test_kernel_lift_across_several_word_size_primes():
    # The kernel vector (-b/a, 1) has numerators and denominators near 2^40,
    # so its reconstruction needs a modulus above 2^81: three word-size
    # primes, not one.
    a, b = 2 ** 40 + 15, 2 ** 40 - 87
    zeta = CycloNumber.zeta(3)
    big = b + (2 ** 41 + 3) * zeta
    w = 3 - zeta
    cases = [matrix_from_rows([[a, b], [2 * a, 2 * b]]),
             matrix_from_rows([[a, big], [a * w, big * w]], order=3)]
    for m in cases:
        result = _certify(m)
        assert (result.rank, result.certificate) == (1, "kernel_lift"), m
        assert result.rank == field_rank(m)
        assert result.prime != _primes(m.order, 1)[0]


@pytest.mark.parametrize("order", [1, 3])
def test_kernel_beyond_seven_primes_certifies_by_a_lift(order):
    a, b = 2 ** 200 + 235, 3 ** 126 + 2
    primes = _primes(order, 14)
    # Full rank needs no lift, however large the entries.
    assert _certify(matrix_from_rows([[a, b]], order=order)) == \
        CertifiedRank(1, "full_rank", primes[0])
    # The kernel vector (-b/a, 1) reconstructs only once the modulus exceeds
    # 2 a^2, about 2^401: fourteen primes just below 2^30, not thirteen.
    singular = matrix_from_rows([[a, b], [2 * a, 2 * b]], order=order)
    assert _certify(singular) == CertifiedRank(1, "kernel_lift", primes[13])


def _kernel_case(rng, order: int, perturb: str):
    """(integral rows, kernel vectors as power-basis Fraction lists): each
    vector is 1 at its own free column, 0 at the others, and -A_pf / D_f at
    the pivot columns p, and each row is L r' on the pivot columns and
    sum_p r'_p A_pf L / D_f at free column f, L the lcm of the D_f, so
    that M x = 0.  ``perturb`` adds a unit +-zeta^i to one pivot entry of
    one row (every vector then fails) or, over D_f, to one pivot entry of
    one vector (that vector alone fails)."""
    phi = euler_phi(order)
    size = 2 ** rng.randint(1, 40)

    def element(nonzero=True):
        while True:
            x = tuple(rng.randint(-size, size) for _ in range(phi))
            if any(x) or not nonzero:
                return x

    def unit():
        x = [0] * phi
        x[rng.randrange(phi)] = rng.choice((-1, 1))
        return tuple(x)

    pivots, free = rng.randint(1, 3), rng.randint(1, 3)
    a = [[element() for _ in range(free)] for _ in range(pivots)]
    dens = [rng.randint(1, 2 ** rng.randint(1, 20)) for _ in range(free)]
    big = lcm(*dens)
    rows = []
    for _ in range(rng.randint(1, 4)):
        r = [element() for _ in range(pivots)]
        tail = []
        for f in range(free):
            acc = [0] * phi
            for p in range(pivots):
                acc = [x + y * (big // dens[f]) for x, y in zip(acc, int_mul(r[p], a[p][f], order))]
            tail.append(tuple(acc))
        rows.append([tuple(big * c for c in x) for x in r] + tail)
    zero, one = [Fraction(0)] * phi, [Fraction(1)] + [Fraction(0)] * (phi - 1)
    vectors = []
    for f in range(free):
        vec = [[Fraction(-c, dens[f]) for c in a[p][f]] for p in range(pivots)]
        vec += [one if g == f else zero for g in range(free)]
        vectors.append(vec)
    p = rng.randrange(pivots)
    if perturb == "row":
        row = rows[rng.randrange(len(rows))]
        row[p] = tuple(x + u for x, u in zip(row[p], unit()))
    elif perturb == "vector":
        vec = vectors[rng.randrange(free)]
        vec[p] = [x + Fraction(u, dens[0]) for x, u in zip(vec[p], unit())]
    rng.shuffle(vectors)
    return rows, vectors


def _ring_check(rows, order, vectors):
    bound = max(sum(map(abs, x)) for row in rows for x in row)
    return linalg._kernel_in_ring(
        lambda q, root: [[reduce_mod(x, q, root) for x in row] for row in rows],
        order, bound, len(rows[0]), vectors)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.sampled_from((1, 3, 4, 5, 8, 12)), st.sampled_from(("none", "row", "vector")),
       st.integers(0, 2 ** 32))
def test_ring_check_agrees_with_the_convolution_oracle(order, perturb, seed):
    rows, vectors = _kernel_case(random.Random(seed), order, perturb)
    expected = perturb == "none"
    assert kernel_holds(rows, order, vectors) == expected
    assert _ring_check(rows, order, vectors) == expected


with open(os.path.join(os.path.dirname(__file__), "golden", "ladder.json"),
          encoding="utf-8") as fh:
    _LADDER_LIFTS = sorted((name, int(k)) for name, record in json.load(fh).items()
                           for k, kinds in record["certificates"].items()
                           if "kernel_lift" in kinds)


def _assert_bound_dominates(arr, ks):
    # The rows of C are among those of [C; F].
    lat = build_lattice(arr)
    context = JetContext(arr, lat)
    for k in ks:
        outer, graded = milnor._layouts(lat, k)
        if outer + graded:
            assert_integral_jet_rows(arr, lat, context, outer + graded, k - 3)


@pytest.mark.parametrize("name", ["braid", "pappus-dual", "ex-3-1-iii", "ceva3", "hesse"])
def test_entry_bound_dominates_the_fixture_rows(name):
    arr = named_arrangement(name)
    _assert_bound_dominates(arr, range(3, arr.d))


def test_entry_bound_dominates_the_ladder_lift_rows():
    assert {name for name, _ in _LADDER_LIFTS} == {"ceva4", "ceva5", "ceva6", "A(4,1,3)"}
    for name, k in _LADDER_LIFTS:
        _assert_bound_dominates(ladder_member(name), [k])
