import math
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import identity_matrix, int_det, mat_vec, matrix_from_rows, qq_rank
from milfib.cyclotomic import CycloNumber, euler_phi
from milfib.linalg import (Matrix, _echelon, int_rank, nullspace, rank,
                           smith_normal_form, solve_mod)


def test_rank_basics():
    assert rank(matrix_from_rows([])) == 0
    assert rank(identity_matrix(3)) == 3


def test_rank_of_point_evaluation_matrix():
    # Hand elimination: rows 3 and 4 are dependent on the first three.
    m = matrix_from_rows([(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    assert rank(m) == 3


def test_nullspace_basics():
    assert nullspace(identity_matrix(2)) == []
    basis = nullspace(matrix_from_rows([(1, -1)]))
    assert basis == [(Fraction(1), Fraction(1))]


def _random_matrix(rng, r, c, order):
    if order == 1:
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)]
    else:
        rows = [[CycloNumber(order, [rng.randint(-2, 2)
                                     for _ in range(euler_phi(order))])
                 for _ in range(c)] for _ in range(r)]
    return matrix_from_rows(rows, cols=c, order=order)


def test_rank_nullity_and_kernel_vectors_random():
    rng = random.Random(11)
    for _ in range(40):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        order = rng.choice((1, 1, 3, 4))
        m = _random_matrix(rng, r, c, order)
        basis = nullspace(m)
        assert rank(m) + len(basis) == c
        for v in basis:
            assert all(not x for x in mat_vec(m, v))


def test_rank_invariance_under_permutation_and_scaling():
    rng = random.Random(12)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, r, c, 1)
        rows = m.to_rows()
        rng.shuffle(rows)
        cols = list(range(c))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        scale_row = rng.randrange(r)
        factor = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
        shuffled[scale_row] = [factor * x for x in shuffled[scale_row]]
        assert rank(matrix_from_rows(shuffled, cols=c)) == rank(m)


BIG = 2 ** 64
big_fractions = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
entries = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                    big_fractions)


@st.composite
def rational_matrices(draw):
    """Matrices over Q with 0 to 6 columns and 0 to 9 rows; besides random
    rows they get zero rows, repeated rows, scaled rows and sums of a row and
    a multiple of another, in shuffled order."""
    cols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("zero", "repeat", "scale", "sum")))
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * cols)
            continue
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        f = draw(big_fractions.filter(bool))
        rows.append(a if kind == "repeat" else [f * x for x in a] if kind == "scale"
                    else [x + f * y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(rows))))
    return Matrix(len(rows), cols, 1, tuple(x for i in order for x in rows[i]))


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_matrices())
def test_rank_over_q_matches_sympy_and_the_field_path(m):
    expected = qq_rank(m.to_rows(), m.cols)
    assert rank(m) == expected
    assert rank(m) == m.cols - len(nullspace(m))


def _cyclo_entries(order):
    phi = euler_phi(order)
    coeff = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    return st.lists(coeff, min_size=phi, max_size=phi).map(
        lambda c: CycloNumber(order, c))


@st.composite
def cyclotomic_matrices(draw):
    """Matrices over Q(zeta_3), Q(i), Q(zeta_5) or Q(zeta_8) with 0 to 5
    columns and 0 to 8 rows; besides random rows they get zero rows, repeated
    rows, rows scaled by an element that is not rational, and sums of a row
    and a multiple of another, in shuffled order."""
    order = draw(st.sampled_from((3, 4, 5, 8)))
    entry = _cyclo_entries(order)
    zero = CycloNumber.zero(order)
    cols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("zero", "repeat", "scale", "sum")))
        if kind == "zero" or not rows:
            rows.append([zero] * cols)
            continue
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        f = draw(entry.filter(lambda x: any(x.coeffs[1:])))
        rows.append(a if kind == "repeat" else [f * x for x in a] if kind == "scale"
                    else [x + f * y for x, y in zip(a, b)])
    shuffled = draw(st.permutations(range(len(rows))))
    return Matrix(len(rows), cols, order, tuple(x for i in shuffled for x in rows[i]))


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(cyclotomic_matrices())
def test_rank_over_z_zeta_matches_the_field_path(m):
    assert rank(m) == m.cols - len(nullspace(m))


def test_elimination_over_z_zeta_keeps_entries_small():
    # Division by the previous pivot keeps every entry a minor of the input,
    # so coefficient sizes grow linearly; content division alone lets them
    # double at every step.
    rng = random.Random(21)
    n, order = 12, 5
    zeta = CycloNumber.zeta(order)
    rows = [[CycloNumber(order, [rng.randint(-3, 3) for _ in range(4)])
             for _ in range(n)] for _ in range(n - 1)]
    rows.append([a + zeta * b for a, b in zip(rows[0], rows[1])])
    m = matrix_from_rows(rows, cols=n, order=order)
    pivots, echelon = _echelon([[tuple(c.numerator for c in x.coeffs) for x in row]
                                for row in rows], n, None, order)
    assert len(pivots) == rank(m) == n - len(nullspace(m)) == n - 1
    assert max(abs(c).bit_length() for row in echelon for x in row for c in x) < 20 * n


def test_int_rank_leaves_its_rows_alone():
    rows = [[2, 4, 6], [1, 2, 3], [0, 5, -5]]
    assert int_rank(rows, 3) == 2
    assert rows == [[2, 4, 6], [1, 2, 3], [0, 5, -5]]
    assert int_rank([], 4) == 0 and int_rank([[], []], 0) == 0


def test_smith_normal_form_identity():
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert smith_normal_form(identity, 4) == ([1, 1, 1, 1], identity)


def test_smith_normal_form_diag_2_3():
    s, v = smith_normal_form([[2, 0], [0, 3]], 2)
    assert s == [1, 6]
    assert abs(int_det(v)) == 1


def _determinantal_divisors(rows, ncols):
    """D_k = gcd of all k x k minors, for k = 1 .. min(rows, cols)."""
    return [gcd(*(int_det([[rows[i][j] for j in cs] for i in rs])
                  for rs in combinations(range(len(rows)), k)
                  for cs in combinations(range(ncols), k)))
            for k in range(1, min(len(rows), ncols) + 1)]


def test_smith_normal_form_random_properties():
    # s_k = D_k / D_{k-1} (D_0 = 1, and s_k = 0 once D_k = 0), V is
    # unimodular, and column j of m V is a multiple of s_j: then some
    # unimodular U has U m V = diag(s), with no U built.
    rng = random.Random(13)
    for _ in range(120):
        r, c = rng.randint(0, 4), rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        before = [list(row) for row in rows]
        s, v = smith_normal_form(rows, c)
        assert rows == before and len(s) == min(r, c)
        previous = 1
        for s_k, d_k in zip(s, _determinantal_divisors(rows, c)):
            assert s_k == (d_k // previous if d_k else 0)
            previous = d_k
        assert abs(int_det(v)) == 1
        mv = [[sum(row[t] * v[t][j] for t in range(c)) for j in range(c)]
              for row in rows]
        for j in range(c):
            s_j = s[j] if j < len(s) else 0
            assert all(row[j] % s_j == 0 if s_j else row[j] == 0 for row in mv)


def test_solve_mod_identity_is_trivial():
    assert solve_mod([[1, 0], [0, 1]], 2, [6]) == []


def test_solve_mod_generators_satisfy_the_equation():
    rng = random.Random(15)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        moduli = rng.choice(([4], [27], [3, 9], [2, 6]))
        for g, _order in solve_mod(rows, c, moduli):
            for row in rows:
                assert all(sum(x * g[j][t] for j, x in enumerate(row)) % a == 0
                           for t, a in enumerate(moduli))


def _span_of(gens, moduli, ncols):
    """The subgroup of (prod Z/a)^ncols the generators span, by closure."""
    zero = ((0,) * len(moduli),) * ncols
    elements, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g, _order in gens:
            y = tuple(tuple((p + q) % a for p, q, a in zip(xe, ge, moduli))
                      for xe, ge in zip(x, g))
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return elements


def _kernel_cases(count=40):
    rng = random.Random(16)
    cases = [([], 3, [5]), ([[0, 0, 0]], 3, [5])]
    for _ in range(count):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        cases.append(([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)],
                      c, rng.choice(([4], [6], [2, 2], [3, 9]))))
    return cases


@pytest.mark.parametrize("rows, ncols, moduli", _kernel_cases())
def test_solve_mod_spans_the_brute_force_kernel(rows, ncols, moduli):
    # Every x of (prod Z/a)^ncols with m x = 0, against the span of the
    # generators; the orders multiply to the kernel size, so the product of
    # cyclic groups is direct.  The empty and the zero system have the whole
    # group as their kernel, as an arrangement with no triple point does.
    group = list(product(*(range(a) for a in moduli)))
    kernel = {x for x in product(group, repeat=ncols)
              if all(sum(c * xe[t] for c, xe in zip(row, x)) % a == 0
                     for row in rows for t, a in enumerate(moduli))}
    gens = solve_mod(rows, ncols, moduli)
    assert _span_of(gens, moduli, ncols) == kernel
    assert math.prod(order for _, order in gens) == len(kernel)


def test_solve_mod_rejects_bad_moduli_and_rows():
    for moduli in ([], [1], [4, 1]):
        with pytest.raises(ValueError, match="moduli must be"):
            solve_mod([[1, 0], [0, 1]], 2, moduli)
    for rows in ([[1, 0, 2]], [[1, 0], [1]]):
        with pytest.raises(ValueError, match="every row needs 2 entries"):
            solve_mod(rows, 2, [4])
