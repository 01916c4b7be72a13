"""Checks on milfib outputs, computed apart from milfib.

Nothing here imports milfib.  Line coefficients live in Z (n = 1), Z[zeta_3]
or Z[i] (n = 3, 4), stored as integer tuples in the power basis 1, t of
length phi(n), with t^2 = -1 - t (n = 3) or t^2 = -1 (n = 4).  Incidences
come from 3x3 determinants, so no division and no normal form is needed.

Every checker returns a list of problems; an empty list means the output
passed.  None of them compares against a stored copy of an earlier output:
each uses a recomputation or a property the method must have.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def mul(n, x, y):
    if n == 1:
        return (x[0] * y[0],)
    a, b = x
    c, e = y
    if n == 3:
        return (a * c - b * e, a * e + b * c - b * e)
    return (a * c - b * e, a * e + b * c)


def add(x, y):
    return tuple(u + v for u, v in zip(x, y))


def sub(x, y):
    return tuple(u - v for u, v in zip(x, y))


def is_zero(x):
    return not any(x)


def conjugate(n, x):
    """Image under zeta -> zeta^(n-1), the only non-trivial automorphism here."""
    if n == 1:
        return x
    a, b = x
    return (a - b, -b) if n == 3 else (a, -b)


def scalar(n, q):
    return (q,) if n == 1 else (q, 0)


def det3(n, r0, r1, r2):
    def minor(u, v, w, z):
        return sub(mul(n, u, v), mul(n, w, z))
    t0 = mul(n, r0[0], minor(r1[1], r2[2], r1[2], r2[1]))
    t1 = mul(n, r0[1], minor(r1[0], r2[2], r1[2], r2[0]))
    t2 = mul(n, r0[2], minor(r1[0], r2[1], r1[1], r2[0]))
    return add(sub(t0, t1), t2)


# ---------------------------------------------------------------------------
# Incidence.


def points_of_lines(n, lines):
    """Index sets of the intersection points of distinct lines in P^2."""
    d = len(lines)
    seen = set()
    for i in range(d):
        for j in range(i + 1, d):
            if any(frozenset((i, j)) <= s for s in seen):
                continue
            seen.add(frozenset(
                l for l in range(d)
                if l in (i, j) or is_zero(det3(n, lines[i], lines[j], lines[l]))))
    return sorted(seen, key=sorted)


def rank_le_2(vectors):
    """Whether three integer vectors span at most a plane (all 3x3 minors vanish)."""
    dim = len(vectors[0])
    rows = [[(v,) for v in vec] for vec in vectors]
    for cols in combinations(range(dim), 3):
        sub_rows = [[row[c] for c in cols] for row in rows]
        if not is_zero(det3(1, *sub_rows)):
            return False
    return True


def flats_of_hyperplanes(hyperplanes):
    """Index sets of the rank-2 flats of a central integer arrangement.

    These are the points of every generic plane section.
    """
    d = len(hyperplanes)
    seen = set()
    for i in range(d):
        for j in range(i + 1, d):
            if any(frozenset((i, j)) <= s for s in seen):
                continue
            seen.add(frozenset(
                l for l in range(d)
                if l in (i, j) or rank_le_2([hyperplanes[i], hyperplanes[j],
                                              hyperplanes[l]])))
    return sorted(seen, key=sorted)


def histogram(points):
    hist = {}
    for p in points:
        hist[len(p)] = hist.get(len(p), 0) + 1
    return dict(sorted(hist.items()))


def multiple_points(points):
    return [p for p in points if len(p) >= 3]


# ---------------------------------------------------------------------------
# Residue integrality: alpha_{I,y} = k*m_y/d - |I & I_y| at points with m_y >= 3.


def residue_verdict(points, d, k, subset):
    """"avoids_positive", "avoids_negative" or "fails", recomputed from scratch."""
    subset = set(subset)
    positive = negative = False
    for p in multiple_points(points):
        alpha = Fraction(k * len(p), d) - len(subset & p)
        if alpha.denominator == 1:
            positive |= alpha > 0
            negative |= alpha < 0
    if not positive:
        return "avoids_positive"
    if not negative:
        return "avoids_negative"
    return "fails"


def has_residue_subset(points, d, k):
    """Whether any k-subset passes, by plain enumeration over bit masks."""
    targets = [(sum(1 << i for i in p), k * len(p) // d)
               for p in multiple_points(points) if (k * len(p)) % d == 0]
    for subset in combinations(range(d), k):
        mask = sum(1 << i for i in subset)
        counts = [(mask & pm).bit_count() - need for pm, need in targets]
        if not (any(c < 0 for c in counts) and any(c > 0 for c in counts)):
            return True
    return False


# ---------------------------------------------------------------------------
# Nets.


def block_sets(labels):
    blocks = {}
    for line, lab in enumerate(labels):
        blocks.setdefault(lab, set()).add(line)
    return list(blocks.values())


def net_violations(points, labels, m):
    """Points breaking the full net condition for the partition given by labels.

    Every intersection point, double points included, must lie inside one
    block or meet each of the m blocks exactly once; the blocks must number m
    and have equal size.
    """
    d = len(labels)
    blocks = block_sets(labels)
    if len(blocks) != m or any(len(b) * m != d for b in blocks):
        return ["partition shape"]
    bad = []
    for p in points:
        owners = [labels[i] for i in p]
        if len(set(owners)) == 1:
            continue
        if len(owners) == m and len(set(owners)) == m:
            continue
        bad.append(sorted(p))
    return bad


def enumerate_nets(points, d, m):
    """All partitions into m blocks of size d/m meeting the net condition on
    the given points, each counted once up to relabelling of the blocks."""
    q = d // m
    through = [[] for _ in range(d)]
    for p in points:
        for i in p:
            through[i].append(sorted(p))
    labels = [-1] * d
    sizes = [0] * m
    found = []

    def fits(p):
        owners = [labels[i] for i in p if labels[i] >= 0]
        distinct = len(set(owners))
        if len(owners) <= 1:
            return len(p) <= q or len(p) == m
        if distinct == 1:
            return len(p) <= q
        return distinct == len(owners) and len(p) == m

    def place(line, opened):
        if line == d:
            found.append(tuple(labels))
            return
        for b in range(min(opened + 1, m)):
            if sizes[b] == q:
                continue
            labels[line] = b
            sizes[b] += 1
            if all(fits(p) for p in through[line]):
                place(line + 1, max(opened, b + 1))
            sizes[b] -= 1
            labels[line] = -1

    place(0, 0)
    return found


def hides_false_net(points, d):
    """Whether a partition passes the net condition on the points of
    multiplicity >= 3 but breaks it at a double point."""
    for m in range(3, d):
        if d % m:
            continue
        for labels in enumerate_nets(multiple_points(points), d, m):
            if net_violations(points, labels, m):
                return True
    return False


# ---------------------------------------------------------------------------
# b1 vectors.


def b1_problems(points, d, eigen, genuine_nets):
    """Properties of one eigen table [{"k", "b1", "grf0", "grf1"}, ...].

    genuine_nets lists the m of every reported net that passes the full net
    condition.
    """
    problems = []
    by_k = {r["k"]: r for r in eigen}
    if sorted(by_k) != list(range(1, d)):
        return [f"eigen table covers k={sorted(by_k)}"]
    sigma = multiple_points(points)
    for k, r in by_k.items():
        conj = by_k[d - k]
        if r["b1"] != conj["b1"] or r["grf0"] != conj["grf1"]:
            problems.append(f"k={k}: conjugation symmetry")
        if r["b1"] != r["grf0"] + r["grf1"]:
            problems.append(f"k={k}: b1 != grf0 + grf1")
        hits = [p for p in sigma if (k * len(p)) % d == 0]
        covered = set().union(*hits) if hits else set()
        if (not hits or len(covered) < d) and r["b1"] != 0:
            problems.append(f"k={k}: b1={r['b1']} where vanishing forces 0")
        for m in genuine_nets:
            if (k * m) % d == 0 and r["b1"] < m - 2:
                problems.append(f"k={k}: b1={r['b1']} below the net bound {m - 2}")
    return problems


# ---------------------------------------------------------------------------
# Group realizations.


def realization_problems(triples, vector, moduli):
    """A realization x must solve M x = 0 over the group and be injective."""
    problems = []
    zero = tuple(0 for _ in moduli)
    for triple in triples:
        total = zero
        for i in triple:
            total = tuple((s + x) % a for s, x, a in zip(total, vector[i], moduli))
        if total != zero:
            problems.append(f"row {sorted(triple)} sums to {total}")
    if len(set(vector)) != len(vector):
        problems.append("repeated entry")
    return problems
