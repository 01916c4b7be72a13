"""Seeded inputs of the three workloads, built without milfib.

An input is a dict.  Line inputs carry "order" (1, 3 or 4) and "lines", each
line three coefficients in the representation of checks.py; section inputs
carry integer "hyperplanes".  Every input also carries "points", the index
sets of its intersection points as checks.py computes them, and "base", the
name shared by an arrangement and its transformed copies.

The same seed gives the same inputs.  Inputs drawn or transformed with the
seed carry "seeded": True; the others are the same on every seed.  Inputs
named "fixed-*" are seed-free arrangements on which net detection reports a
partition that is not a net (see README.md), so they fail on every run.
"""

from __future__ import annotations

import random
from itertools import combinations

import checks


def _zeta_powers(n):
    """zeta^0 .. zeta^(n-1) in the power basis of checks.py."""
    if n == 3:
        return [(1, 0), (0, 1), (-1, -1)]
    return [(1, 0), (0, 1), (-1, 0), (0, -1)]


def line_input(name, order, lines, base=None):
    spec = {"name": name, "base": base or name, "order": order, "seeded": False,
            "lines": [tuple(tuple(c) for c in line) for line in lines]}
    spec["points"] = checks.points_of_lines(order, spec["lines"])
    return spec


def rational(name, triples, base=None):
    return line_input(name, 1, [[(v,) for v in t] for t in triples], base)


# ---------------------------------------------------------------------------
# Arrangements over Q(zeta_3) and Q(i).


def ceva(n):
    """A(n,n,3): (x^n - y^n)(x^n - z^n)(y^n - z^n)."""
    zero, one = checks.scalar(n, 0), checks.scalar(n, 1)
    neg = [checks.sub(zero, w) for w in _zeta_powers(n)]
    lines = [(one, w, zero) for w in neg] + [(one, zero, w) for w in neg] \
        + [(zero, one, w) for w in neg]
    return line_input(f"ceva{n}", n, lines)


def hesse():
    zero, one = checks.scalar(3, 0), checks.scalar(3, 1)
    powers = _zeta_powers(3)
    lines = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    lines += [(ti, tj, one) for ti in powers for tj in powers]
    return line_input("hesse", 3, lines)


def full_monomial(n):
    """A(n,1,3): xyz (x^n - y^n)(x^n - z^n)(y^n - z^n)."""
    zero, one = checks.scalar(n, 0), checks.scalar(n, 1)
    lines = list(ceva(n)["lines"]) + [(one, zero, zero), (zero, one, zero),
                                      (zero, zero, one)]
    return line_input(f"A({n},1,3)", n, lines)


# The change of coordinates is P M P' with P, P' seeded permutation matrices
# and M fixed, so that every seed gives coordinates of the same size: the
# copies of the symmetric bases then cost the same on every seed.
_M = ((1, -1, 1), (1, 1, 0), (0, 1, 2))


def _gl3(rng):
    rows, cols = list(range(3)), list(range(3))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[_M[rows[i]][cols[j]] for j in range(3)] for i in range(3)]


def transformed_copy(spec, rng):
    """The base under a seeded GL3(Q) change of coordinates, a seeded line
    permutation and the Galois conjugation zeta -> zeta^(n-1)."""
    n = spec["order"]
    h = _gl3(rng)
    lines = []
    for line in spec["lines"]:
        new = []
        for j in range(3):
            acc = checks.scalar(n, 0)
            for i in range(3):
                acc = checks.add(acc, tuple(h[i][j] * c for c in line[i]))
            new.append(checks.conjugate(n, acc))
        lines.append(new)
    rng.shuffle(lines)
    return dict(line_input(spec["name"] + "~", n, lines, base=spec["base"]),
                seeded=True)


def permuted_copy(spec, rng):
    """The same arrangement with its lines (or hyperplanes) in seeded order."""
    key = "hyperplanes" if "hyperplanes" in spec else "lines"
    order = list(range(len(spec[key])))
    rng.shuffle(order)
    items = [spec[key][i] for i in order]
    if key == "lines":
        copy = line_input(spec["name"] + "~", spec["order"], items,
                           base=spec["base"])
    else:
        copy = section_input(spec["name"] + "~", items, base=spec["base"])
    if "realization" in spec:
        moduli, vector = spec["realization"]
        copy["realization"] = (moduli, [vector[i] for i in order])
    if "moduli" in spec:
        copy["moduli"] = spec["moduli"]
    copy["seeded"] = True
    return copy


# ---------------------------------------------------------------------------
# Rational arrangements.


def _valid(triples):
    """No zero or repeated line, and the normals span Q^3."""
    lines = [[(v,) for v in t] for t in triples]
    if any(not any(t) for t in triples):
        return False
    for a, b in combinations(triples, 2):
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                 a[0] * b[1] - a[1] * b[0])
        if not any(cross):
            return False
    return any(not checks.is_zero(checks.det3(1, *three))
               for three in combinations(lines, 3))


def random_rational(rng, d, name):
    """Lines through one to three small centres plus lines with small
    coefficients, so that multiple points of several sizes occur."""
    while True:
        triples = []
        for _ in range(rng.randint(1, 3)):
            px, py = rng.randint(-2, 2), rng.randint(-2, 2)
            for _ in range(rng.randint(2, max(2, d // 2))):
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                triples.append((a, b, -(a * px + b * py)))
        while len(triples) < d:
            triples.append(tuple(rng.randint(-3, 3) for _ in range(3)))
        triples = triples[:d]
        if _valid(triples):
            return rational(name, triples)


def braid_hyperplanes(n):
    """A_n: x_i - x_j in C^(n+1)."""
    out = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            v = [0] * (n + 1)
            v[i], v[j] = 1, -1
            out.append(v)
    return out


def reflection_hyperplanes(n, short_roots):
    """D_n (x_i +- x_j) in C^n, and B_n when short_roots adds the x_i."""
    out = []
    if short_roots:
        out = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (1, -1):
                v = [0] * n
                v[i], v[j] = 1, sign
                out.append(v)
    return out


def section_input(name, hyperplanes, base=None):
    return {"name": name, "base": base or name, "seeded": False,
            "hyperplanes": [list(h) for h in hyperplanes],
            "points": checks.flats_of_hyperplanes(hyperplanes)}


def random_hyperplanes(rng, dim, count, name):
    """Central rational hyperplanes in C^dim with some forced dependencies."""
    while True:
        hs = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        while len(hs) < count:
            a, b = rng.sample(range(len(hs)), 2)
            s, t = rng.choice((1, -1, 2)), rng.choice((1, -1, 2))
            hs.append([s * x + t * y for x, y in zip(hs[a], hs[b])])
        if any(not any(h) for h in hs) or any(
                not any(a[i] * b[j] - a[j] * b[i]
                        for i, j in combinations(range(dim), 2))
                for a, b in combinations(hs, 2)):
            continue
        if any(not checks.rank_le_2(three) for three in combinations(hs, 3)):
            return section_input(name, hs)


def cubic_dual(values, p):
    """Lines t x + t^3 y + z dual to points of the cuspidal cubic y = x^3.

    Three of them meet iff their values sum to 0, so every multiple point is
    a triple point and t -> t mod p is a realization over Z/p when p exceeds
    the spread of the values.
    """
    spec = rational(f"cubic-dual{len(values)}", [(t, t ** 3, 1) for t in values])
    spec["realization"] = ((p,), [(t % p,) for t in values])
    spec["moduli"] = (p,)
    return spec


def three_pencils(q):
    """Three pencils of q lines, otherwise only double points (seed-free).

    The three pencils pass the multiplicity >= 3 part of the net condition
    but meet in double points across blocks, so they are not a net.
    """
    rng = random.Random(q)
    centres = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    while True:
        triples = []
        for cx, cy, cz in centres:
            for _ in range(q):
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                triples.append((a * cz, b * cz, -(a * cx + b * cy)))
        if not _valid(triples):
            continue
        spec = rational(f"fixed-pencils{q}x3", triples)
        if checks.histogram(spec["points"]) == {2: 3 * q * q, q: 3}:
            return spec


def six_lines():
    """The six-line arrangement on which `analyze` reports two false nets."""
    return rational("fixed-six", [(1, 0, 1), (1, -1, -1), (1, -2, -1),
                                   (1, 1, 2), (0, 1, -1), (2, 0, 1)])


FIXTURES = {
    "braid": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)],
    "pappus-dual": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1),
                    (1, -1, -1), (2, 1, 1), (2, 1, -1), (2, -5, 1)],
    "ex-3-1-iii": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
                   (1, 0, 3), (1, 2, 1), (1, 2, 3), (2, 3, 3)],
}


# ---------------------------------------------------------------------------
# Program-side encodings.


def _coeff_json(order, c):
    return str(c[0]) if order == 1 else [str(v) for v in c]


def size(spec):
    return len(spec.get("lines") or spec["hyperplanes"])


def to_json(spec):
    """The JSON document `milfib analyze --input` reads for this input."""
    if "hyperplanes" in spec:
        return {"name": spec["name"], "dimension": len(spec["hyperplanes"][0]),
                "hyperplanes": spec["hyperplanes"]}
    n = spec["order"]
    return {"name": spec["name"], "cyclotomic_order": n,
            "lines": [[_coeff_json(n, c) for c in line] for line in spec["lines"]]}
