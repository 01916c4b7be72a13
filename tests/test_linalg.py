import math
import random
from fractions import Fraction

import pytest

from helpers import identity_matrix, int_mat_mul, mat_vec
from milfib.cyclotomic import CycloNumber, euler_phi
from milfib.linalg import (IntMatrix, Matrix, int_det, kernel_mod_generators,
                           nullspace, rank, smith_normal_form, solve_mod)


def test_rank_basics():
    assert rank(Matrix.from_rows([])) == 0
    assert rank(identity_matrix(3)) == 3


def test_rank_of_point_evaluation_matrix():
    # Hand elimination: rows 3 and 4 are dependent on the first three.
    m = Matrix.from_rows([(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    assert rank(m) == 3


def test_nullspace_basics():
    assert nullspace(identity_matrix(2)) == []
    basis = nullspace(Matrix.from_rows([(1, -1)]))
    assert basis == [(Fraction(1), Fraction(1))]


def _random_matrix(rng, r, c, order):
    if order == 1:
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)]
    else:
        rows = [[CycloNumber(order, [rng.randint(-2, 2)
                                     for _ in range(euler_phi(order))])
                 for _ in range(c)] for _ in range(r)]
    return Matrix.from_rows(rows, cols=c, order=order)


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
        assert rank(Matrix.from_rows(shuffled, cols=c)) == rank(m)


def test_smith_normal_form_identity():
    s, u, v = smith_normal_form(IntMatrix.identity(4))
    assert s == IntMatrix.identity(4)
    assert u == IntMatrix.identity(4)
    assert v == IntMatrix.identity(4)


def test_smith_normal_form_diag_2_3():
    s, u, v = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert s.diagonal() == [1, 6]
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert int_mat_mul(int_mat_mul(u, m), v) == s


def test_smith_normal_form_random_properties():
    rng = random.Random(13)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)]
                                 for _ in range(r)])
        s, u, v = smith_normal_form(m)
        assert int_mat_mul(int_mat_mul(u, m), v) == s
        assert abs(int_det(u)) == 1
        assert abs(int_det(v)) == 1
        diag = s.diagonal()
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] and diag[i + 1] % diag[i] == 0
            assert diag[i] >= 0
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s.entry(i, j) == 0
        if r == c:
            assert abs(int_det(m)) == abs(math.prod(diag))


def test_unimodular_inverses_reconstruct_the_matrix():
    # U^-1 S V^-1 = m with integer inverses, checked through Fractions.
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)]
                                 for _ in range(n)])
        s, u, v = smith_normal_form(m)
        ui = _fraction_inverse(u)
        vi = _fraction_inverse(v)
        assert all(x.denominator == 1 for row in ui for x in row)
        assert all(x.denominator == 1 for row in vi for x in row)
        recon = _fraction_mat_mul(_fraction_mat_mul(ui, s.to_rows()), vi)
        assert recon == [[Fraction(x) for x in row] for row in m.to_rows()]


def _fraction_inverse(m: IntMatrix):
    n = m.rows
    aug = [[Fraction(m.entry(i, j)) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _fraction_mat_mul(a, b):
    if isinstance(b, IntMatrix):
        b = b.to_rows()
    return [[sum(Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_solve_mod_zero_matrix_spans_everything():
    gens = solve_mod(IntMatrix.from_rows([[0, 0, 0]]), [5])
    elements = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    flat = [tuple(entry[0] for entry in g) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in flat:
            y = tuple((p + q) % 5 for p, q in zip(x, g))
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    assert len(elements) == 125


def test_solve_mod_identity_is_trivial():
    assert solve_mod(IntMatrix.identity(2), [6]) == []


def test_solve_mod_generators_satisfy_the_equation():
    rng = random.Random(15)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(c)]
                                 for _ in range(r)])
        moduli = rng.choice(([4], [27], [3, 9], [2, 6]))
        for g in solve_mod(m, moduli):
            for i in range(r):
                total = [0] * len(moduli)
                for j in range(c):
                    for t in range(len(moduli)):
                        total[t] = (total[t] + m.entry(i, j) * g[j][t]) % moduli[t]
                assert all(x == 0 for x in total)


def test_kernel_mod_generators_rejects_bad_modulus():
    with pytest.raises(ValueError):
        kernel_mod_generators(IntMatrix.identity(2), 1)
    with pytest.raises(ValueError):
        solve_mod(IntMatrix.identity(2), [])
