"""Shared test utilities: independent oracles and random-arrangement generators.

The oracles deliberately rebuild what the library computes along a different
path, so agreement is evidence and not tautology:

* ``aomoto_h1_oracle`` constructs the degree-two part of the Orlik-Solomon
  algebra as the full exterior square modulo its defining relations (triple
  relations at affine multiple points, vanishing products for lines meeting
  on the distinguished line) instead of the anchored block basis.
* ``ideal_dim_oracle`` imposes "vanishes to order s at y" through univariate
  restrictions along s distinct directions instead of per-monomial Taylor
  jets.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from milfib.arrangement import Arrangement, ArrangementError, ProjLine, build_lattice
from milfib.cyclotomic import CycloNumber
from milfib.linalg import IntMatrix, Matrix, rank
from milfib.milnor import ideal_order, monomial_basis


def aomoto_h1_oracle(lattice, weights, dist=None):
    d = lattice.d
    dist = d - 1 if dist is None else dist
    lines = [i for i in range(d) if i != dist]
    pairs = [(i, j) for a, i in enumerate(lines) for j in lines[a + 1:]]
    pair_pos = {p: t for t, p in enumerate(pairs)}

    relations = []
    for p in lattice.points:
        incident = sorted(p.lines)
        if dist in p.lines:
            others = [i for i in incident if i != dist]
            for a, i in enumerate(others):
                for j in others[a + 1:]:
                    row = [Fraction(0)] * len(pairs)
                    row[pair_pos[(i, j)]] = Fraction(1)
                    relations.append(row)
        else:
            for a, i in enumerate(incident):
                for b in range(a + 1, len(incident)):
                    for c in range(b + 1, len(incident)):
                        j, l = incident[b], incident[c]
                        row = [Fraction(0)] * len(pairs)
                        row[pair_pos[(i, j)]] += 1
                        row[pair_pos[(i, l)]] -= 1
                        row[pair_pos[(j, l)]] += 1
                        relations.append(row)

    image_rows = []
    for j in lines:
        row = [Fraction(0)] * len(pairs)
        for i in lines:
            if i == j:
                continue
            if i < j:
                row[pair_pos[(i, j)]] += weights.alphas[i]
            else:
                row[pair_pos[(j, i)]] -= weights.alphas[i]
        image_rows.append(row)

    r_rel = rank(Matrix.from_rows(relations, cols=len(pairs))) if relations else 0
    stacked = relations + image_rows
    r_all = rank(Matrix.from_rows(stacked, cols=len(pairs))) if stacked else 0
    map_rank = r_all - r_rel
    kernel_dim = len(lines) - map_rank
    return kernel_dim - 1


def ideal_dim_oracle(arr, lattice, deg, k):
    """dim of degree-``deg`` forms vanishing to the outer-ideal order at every
    multiple point, via directional univariate restrictions."""
    d = lattice.d
    basis = monomial_basis(deg)
    rows = []
    for p in lattice.points:
        if p.multiplicity < 3:
            continue
        s = ideal_order(p.multiplicity, k, d)
        if s < 1:
            continue
        chart = max(i for i in range(3) if not p.point.coords[i].is_zero())
        u_idx, v_idx = [i for i in range(3) if i != chart]
        inv = p.point.coords[chart].inverse()
        cu = p.point.coords[u_idx] * inv
        cv = p.point.coords[v_idx] * inv
        directions = [(1, t) for t in range(s - 1)] + [(0, 1)]
        for vu, vv in directions:
            for j in range(s):
                row = []
                for mono in basis:
                    au, av = mono[u_idx], mono[v_idx]
                    acc = 0
                    for i1 in range(min(j, au) + 1):
                        i2 = j - i1
                        if i2 > av:
                            continue
                        acc = acc + (comb(au, i1) * comb(av, i2)
                                     * cu ** (au - i1) * cv ** (av - i2)
                                     * vu ** i1 * vv ** i2)
                    row.append(acc)
                rows.append(row)
    if not rows:
        return len(basis)
    constraints = Matrix.from_rows(rows, cols=len(basis), order=arr.field_order)
    return len(basis) - rank(constraints)


def random_arrangement(rng: random.Random, d: int) -> Arrangement:
    """A valid rational arrangement of d lines; mixes generic lines with
    pencils through small points so multiple points actually occur."""
    while True:
        style = rng.choice(("generic", "pencil", "two-pencils"))
        triples = []
        if style != "generic":
            centers = 1 if style == "pencil" else 2
            for _ in range(centers):
                px, py = rng.randint(-1, 1), rng.randint(-1, 1)
                count = rng.randint(2, max(2, d - 2))
                for _ in range(count):
                    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                    c = -(a * px + b * py)
                    triples.append((a, b, c))
        while len(triples) < d:
            triples.append(tuple(rng.randint(-2, 2) for _ in range(3)))
        triples = triples[:d]
        try:
            return Arrangement([ProjLine(*t) for t in triples],
                               name=f"random-{style}")
        except ArrangementError:
            continue


def random_arrangements(seed: int, count: int, dmin: int = 4, dmax: int = 8):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        arr = random_arrangement(rng, rng.randint(dmin, dmax))
        out.append((arr, build_lattice(arr)))
    return out


def monomial_arrangement(n: int, full: bool = False) -> Arrangement:
    """Ceva(n) = A(n,n,3), (x^n - y^n)(x^n - z^n)(y^n - z^n), over Q(zeta_n);
    with ``full`` also the coordinate lines xyz, giving A(n,1,3)."""
    zero, one = CycloNumber.zero(n), CycloNumber.one(n)
    roots = [CycloNumber.zeta(n) ** a for a in range(n)]
    lines = [ProjLine(one, -w, zero, n) for w in roots]
    lines += [ProjLine(one, zero, -w, n) for w in roots]
    lines += [ProjLine(zero, one, -w, n) for w in roots]
    if full:
        lines += [ProjLine(one, zero, zero, n), ProjLine(zero, one, zero, n),
                  ProjLine(zero, zero, one, n)]
    return Arrangement(lines, name=f"A({n},1,3)" if full else f"ceva{n}", order=n)


def identity_matrix(n: int, order: int = 1) -> Matrix:
    one = Fraction(1) if order == 1 else CycloNumber.one(order)
    zero = Fraction(0) if order == 1 else CycloNumber.zero(order)
    return Matrix(n, n, order, tuple(one if i == j else zero
                                     for i in range(n) for j in range(n)))


def mat_vec(m: Matrix, vec) -> list:
    out = []
    for i in range(m.rows):
        acc = 0
        for j in range(m.cols):
            acc = acc + m.entry(i, j) * vec[j]
        out.append(acc)
    return out


def int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    return IntMatrix(a.rows, b.cols, tuple(
        sum(a.entry(i, t) * b.entry(t, j) for t in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))
