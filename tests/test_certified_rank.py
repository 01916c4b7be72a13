"""The certified F_p rank kernel behind the jet route.

``cokernel_dims`` takes every rank over F_p (linalg.certified_rank); the
exact matrices of ``jet_matrix`` (tests/helpers.py) with exact ``rank`` are
the oracle here, and sympy's DomainMatrix over QQ<zeta_n> an independent one.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from helpers import (integral_rows, jet_matrix, matrix_from_rows, monomial_arrangement,
                     random_arrangement, reduce_fraction_mod)
from milfib import milnor
from milfib.arrangement import (Arrangement, ProjLine, ProjPoint, build_lattice,
                                named_arrangement)
from milfib.cyclotomic import CycloNumber, euler_phi
from milfib.linalg import (PRIME_BUDGET, CertifiedRank, Matrix,
                           certified_rank, field_primes, rank, reduce_mod)
from milfib.milnor import cokernel_dims


def _exact_cokernels(arr, lat, k, charts=None):
    tilde = jet_matrix(arr, lat, k, False, charts)
    constrained = jet_matrix(arr, lat, k, True, charts)
    return (tilde.rows - rank(tilde), constrained.rows - rank(constrained))


def _certify(m: Matrix) -> CertifiedRank:
    def modular(p, root):
        rows = [[reduce_fraction_mod(x, p, root) for x in row]
                for row in m.to_rows()]
        return None if any(x is None for row in rows for x in row) else rows
    return certified_rank((m.rows, m.cols), m.order, modular,
                          lambda: integral_rows(m))


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
    for n in (1, 3, 4, 12):
        primes = field_primes(n)
        assert len(primes) == PRIME_BUDGET
        # Word-size primes, distinct, whose product leaves room for lifts
        # of about 180 bits.
        assert len({fp.p for fp in primes}) == PRIME_BUDGET
        assert prod(fp.p for fp in primes) >= 2 ** 180
        for fp in primes:
            assert (fp.p - 1) % n == 0 and fp.p < 2 ** 30
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
            assert result.rank == rank(m)
            kinds.add(result.certificate)
    assert kinds == {"full_rank", "kernel_lift"}


def test_denominator_divisible_by_the_first_prime_moves_to_the_next():
    first, second = (fp.p for fp in field_primes(1)[:2])
    full = matrix_from_rows([[Fraction(1, first), 0], [0, 1]])
    assert _certify(full) == CertifiedRank(2, "full_rank", second)
    deficient = matrix_from_rows([[Fraction(1, first)] * 2, [2, 2]])
    assert _certify(deficient) == CertifiedRank(1, "kernel_lift", second)


def test_rank_lost_mod_p_is_not_certified():
    first, second = (fp.p for fp in field_primes(1)[:2])
    # Mod the first prime the matrix has rank 1; its kernel vector (1, 0)
    # fails M x = 0 over Q, so the rank comes from the second prime.
    m = matrix_from_rows([[first, 1], [0, 1]])
    assert _certify(m) == CertifiedRank(2, "full_rank", second)


def test_zero_chart_coordinate_mod_p_moves_to_the_next_prime(monkeypatch):
    first, second = (fp.p for fp in field_primes(1)[:2])
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
        assert result.rank == rank(m)
        assert result.prime != field_primes(m.order)[0].p


def test_kernel_beyond_the_prime_budget_falls_back_to_exact_elimination():
    a, b = 2 ** 200 + 235, 3 ** 126 + 2
    # Full rank needs no lift, however large the entries.
    assert _certify(matrix_from_rows([[a, b]])) == CertifiedRank(1, "full_rank",
                                                                 field_primes(1)[0].p)
    # The kernel vector (-b/a, 1) needs about 400 bits; the budget gives 210.
    singular = matrix_from_rows([[a, b], [2 * a, 2 * b]])
    assert _certify(singular) == CertifiedRank(1, "exact", None)
