"""Shared test utilities: independent oracles and random-arrangement generators.

The oracles deliberately rebuild what the library computes along a different
path, so agreement is evidence and not tautology:

* ``aomoto_h1_oracle`` constructs the degree-two part of the Orlik-Solomon
  algebra as the full exterior square modulo its defining relations (triple
  relations at affine multiple points, vanishing products for lines meeting
  on the distinguished line) instead of the anchored block basis, and takes
  its ranks from sympy's ``DomainMatrix`` over QQ (``qq_rank``), not from
  ``linalg``.
* ``ideal_dim_oracle`` imposes "vanishes to order s at y" through univariate
  restrictions along s distinct directions instead of per-monomial Taylor
  jets.

The exact references live here too: ``jet_matrix`` and ``ideal_basis`` build
the jet maps over Q(zeta) whose cokernels ``milnor.cokernel_dims`` reads off
F_p ranks, the unconstrained one from its own layout of truncated jets
(``truncated_jet_layout``, not milnor's outer plus graded rows), all from
``chart_inverse_matrix``: Taylor entries in the chart coordinates U/X, V/X,
CycloNumber products with an inverse, where ``milnor`` builds integral rows
over Z[zeta] that are these rows times X^(deg-i-j).  ``reduce_fraction_mod``
reduces Fraction and CycloNumber entries mod p, ``integral_rows`` clears a
matrix's rows of their denominators, ``int_det`` takes the determinant of
int rows by Bareiss elimination (the Smith tests read determinantal divisors
from its minors), ``enumerate_kernel`` walks the whole kernel of a
realization search, which ``search_realizations`` walks only when the group
has at least d elements, and ``same_affine_orbit`` compares realization
vectors up to the affine group.

The combinatorial route has oracles of its own, none of them keyed by
``cyclotomic.projective_key``: ``lattice_by_incidence`` takes the cross
product of two lines over Q(zeta), normalizes it by a field inverse
(``normalize_triple_oracle``, the values ``ProjLine.coeffs`` and
``ProjPoint.coords`` read off the stored key without one), and finds I_y by
testing every line against each such point instead of grouping the pairs;
``flats_by_rank`` finds each codimension-2 flat by exact rank tests of
triples, where ``rank2_flats`` groups pairs by the keys of their wedges, as
``generic_section`` does on its integral rows; ``section_lines_oracle`` restricts the hyperplanes of a section
draw with CycloNumber sums and products, where ``generic_section`` takes
int dot products on their integral rows; and ``exhaustive_residue_subset``
checks every k-subset in lexicographic order instead of pruning by counts.
``residue_search_oracle`` is the pruned search with both of its tests
rescanning every sigma_k point at every node, where
``search_residue_subset`` keeps them as running tallies; it counts the
nodes it visits, which the tallied search must match.

The search kernels of ``resonance`` work on ints and bitmasks over the
sigma that the lattice stores.  Their reference implementations here
rescan ``lattice.points`` and count ``len(p.lines)`` instead:
``residue_verdict_oracle`` takes alpha_{I,y} as a Fraction,
``net_detect_oracle`` checks each point's assigned labels as a list and a
set, and ``pencil_partition_oracle`` compares Fraction ratio profiles.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest

from milfib import realize
from milfib.arrangement import (Arrangement, ArrangementError, IncidenceLattice,
                                LatticePoint, ProjLine, ProjPoint, _flats, _integral_rows,
                                build_lattice, generic_section)
from milfib.cyclotomic import CycloNumber, as_cyclo, euler_phi, field_order, integral_form
from milfib.linalg import Matrix, clear_denominators, nullspace, rank
from milfib.milnor import (JetContext, _charts_for, _layouts, cokernel_dims, ideal_order,
                           monomial_basis, precheck_vanishing)
from milfib.resonance import (PartitionPhi, PartitionVerdict, ResidueVerdict,
                              _default_dist)


def normalize_triple_oracle(values, order, leading_first):
    """(n, the values over Q(zeta_n) scaled to a leading or trailing 1), n
    their ``field_order``, by one CycloNumber inverse and three products."""
    order = field_order(values, order)
    values = [as_cyclo(v, order) for v in values]
    if all(v.is_zero() for v in values):
        raise ArrangementError("projective coordinates must not all vanish")
    idx = next(i for i, v in enumerate(values) if v) if leading_first else \
        max(i for i, v in enumerate(values) if v)
    inv = values[idx].inverse()
    return order, tuple(v * inv for v in values)


def line_contains(line: ProjLine, point: ProjPoint) -> bool:
    a, b, c = line.coeffs
    x, y, z = point.coords
    return (a * x + b * y + c * z).is_zero()


def cross_product(l1: ProjLine, l2: ProjLine) -> tuple:
    """The 2x2 minors of two lines' coefficients: their intersection point,
    not normalized."""
    a1, b1, c1 = l1.coeffs
    a2, b2, c2 = l2.coeffs
    return (b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2)


def line_intersection(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """Exact intersection point by 2x2 minors (cross product of coefficients)."""
    return ProjPoint(*cross_product(l1, l2), l1.order)


def lattice_by_incidence(arr: Arrangement) -> IncidenceLattice:
    """The incidence lattice with I_y found by testing all d lines against
    each new intersection point, whose coordinates are normalized by
    ``normalize_triple_oracle``; the points are sorted by those coordinates."""
    found = {}
    for i, j in combinations(range(arr.d), 2):
        _, coords = normalize_triple_oracle(
            cross_product(arr.lines[i], arr.lines[j]), arr.field_order, leading_first=False)
        name = tuple(v.coeffs for v in coords)
        if name not in found:
            x, y, z = coords
            found[name] = coords, frozenset(
                idx for idx, (a, b, c) in enumerate(line.coeffs for line in arr.lines)
                if (a * x + b * y + c * z).is_zero())
    return IncidenceLattice(arr.d, tuple(LatticePoint(ProjPoint(*coords), incident)
                                         for _, (coords, incident) in sorted(found.items())))


def _vector_rank(vectors, order):
    return rank(matrix_from_rows([list(v) for v in vectors],
                                 cols=len(vectors[0]), order=order))


def rank2_flats(hyperplanes) -> list[frozenset]:
    """Index sets of the codimension-2 flats of a central arrangement given
    by its values, sorted: ``arrangement._flats`` on the integral rows that
    ``generic_section`` makes.  Hyperplanes that coincide raise
    ArrangementError, and coefficients over two fields ValueError."""
    order = field_order(v for h in hyperplanes for v in h)
    return _flats(_integral_rows(hyperplanes, order), order)


def flats_by_rank(hyperplanes, order: int = 1) -> list[frozenset]:
    """Index sets of the codimension-2 flats, sorted, by exact rank tests:
    first every pair is checked for coincidence, then each flat is the pair
    plus every hyperplane whose triple with it has rank <= 2."""
    d = len(hyperplanes)
    for i, j in combinations(range(d), 2):
        if _vector_rank([hyperplanes[i], hyperplanes[j]], order) < 2:
            raise ArrangementError(f"hyperplanes {i} and {j} coincide")
    flats = []
    covered = set()
    for i, j in combinations(range(d), 2):
        if (i, j) in covered:
            continue
        flat = [l for l in range(d) if l in (i, j)
                or _vector_rank([hyperplanes[i], hyperplanes[j],
                                 hyperplanes[l]], order) <= 2]
        covered.update(combinations(flat, 2))
        flats.append(frozenset(flat))
    return sorted(flats, key=sorted)


def section_lines_oracle(hyperplanes, seed: int, attempt: int) -> list[ProjLine]:
    """The restricted lines of draw ``attempt`` (from 1) of ``generic_section``
    at ``seed``: the plane is three rows of Fraction(rng.randint(-1000, 1000)),
    and each coefficient of a line is the sum of the hyperplane's CycloNumber
    values times a row."""
    planes = [list(h) for h in hyperplanes]
    n = len(planes[0])
    order = field_order(v for h in planes for v in h)
    coerced = [[as_cyclo(v, order) for v in h] for h in planes]
    rng = random.Random(seed)
    for _ in range(attempt):
        plane = [[Fraction(rng.randint(-1000, 1000)) for _ in range(n)]
                 for _ in range(3)]
    restricted = []
    for h in coerced:
        coeffs = []
        for row in plane:
            acc = CycloNumber.zero(order)
            for p, hv in zip(row, h):
                acc = acc + hv * p
            coeffs.append(acc)
        restricted.append(ProjLine(*coeffs, order))
    return restricted


def residue_search_oracle(lattice: IncidenceLattice, k: int):
    """(``search_residue_subset``'s first subset I or None, the number of
    search nodes visited), each node testing every sigma_k point anew: no
    count above its target, or every count able to reach its target with
    the point's lines still ahead and the slots left."""
    d = lattice.d
    points = [p.lines for p in lattice.sigma_k(k)]
    targets = [k * len(lines) // d for lines in points]
    through = [[s for s, lines in enumerate(points) if i in lines] for i in range(d)]
    # ahead[i][s]: lines of point s with index above i.
    ahead = [[sum(l > i for l in lines) for lines in points] for i in range(d)]
    counts = [0] * len(points)
    chosen: list[int] = []
    nodes = 0

    def reachable(last: int, slots: int) -> bool:
        below = all(n <= c for n, c in zip(counts, targets))
        return below or all(n + min(a, slots) >= c for n, a, c
                            in zip(counts, ahead[last], targets))

    def extend(start: int) -> bool:
        nonlocal nodes
        nodes += 1
        slots = k - len(chosen)
        if slots == 0:
            return True
        for i in range(start, d - slots + 1):
            chosen.append(i)
            for s in through[i]:
                counts[s] += 1
            if reachable(i, slots - 1) and extend(i + 1):
                return True
            for s in through[i]:
                counts[s] -= 1
            chosen.pop()
        return False

    found = frozenset(chosen) if extend(0) else None
    return found, nodes


def three_pencils(q: int, seed: int) -> Arrangement:
    """Three pencils of q rational lines through (0:0:1), (1:0:1) and (0:1:1),
    meeting otherwise only in double points."""
    rng = random.Random(seed)
    centres = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    while True:
        triples = []
        for cx, cy, cz in centres:
            for _ in range(q):
                a, b = rng.randint(-5, 5), rng.randint(-5, 5)
                triples.append((a * cz, b * cz, -(a * cx + b * cy)))
        try:
            arr = Arrangement([ProjLine(*t) for t in triples], name=f"pencils{q}x3")
        except ArrangementError:
            continue
        if build_lattice(arr).multiplicity_histogram() == {2: 3 * q * q, q: 3}:
            return arr


def exhaustive_residue_subset(lattice: IncidenceLattice, k: int):
    """First k-subset (lexicographic) passing the integrality check, or None,
    by checking every subset with ``residue_verdict_oracle``."""
    for I in combinations(range(lattice.d), k):
        verdict = residue_verdict_oracle(lattice, k, I)
        if verdict.holds:
            return frozenset(I), verdict
    return None


def residue_verdict_oracle(lattice: IncidenceLattice, k: int, I) -> ResidueVerdict:
    """``check_residue_integrality`` with alpha_{I,y} = (|I|/d) m_y - m_{I,y}
    taken as a Fraction at every point of multiplicity >= 3."""
    d = lattice.d
    I = frozenset(I)
    positive, negative = [], []
    for idx, p in enumerate(lattice.points):
        if len(p.lines) < 3:
            continue
        value = Fraction(len(I) * len(p.lines), d) - len(I & p.lines)
        if value.denominator == 1:
            if value > 0:
                positive.append((idx, value))
            elif value < 0:
                negative.append((idx, value))
    if not positive:
        branch = "avoids_positive"
    elif not negative:
        branch = "avoids_negative"
    else:
        branch = "fails"
    return ResidueVerdict(branch, tuple(positive), tuple(negative))


def net_detect_oracle(lattice: IncidenceLattice, m: int) -> list[PartitionPhi]:
    """``net_detect`` by the same backtracking, each touched point of
    multiplicity >= 3 checked on the list and the set of its assigned labels."""
    d = lattice.d
    q = d // m
    sigma_sets = [tuple(sorted(p.lines)) for p in lattice.points if len(p.lines) >= 3]
    through: list[list[int]] = [[] for _ in range(d)]
    for s_idx, lines in enumerate(sigma_sets):
        for i in lines:
            through[i].append(s_idx)
    labels = [-1] * d
    sizes = [0] * m
    results: list[PartitionPhi] = []

    def point_ok(s_idx: int) -> bool:
        assigned = [labels[i] for i in sigma_sets[s_idx] if labels[i] >= 0]
        mult = len(sigma_sets[s_idx])
        if len(assigned) <= 1:
            return True
        distinct = set(assigned)
        if len(distinct) == 1:
            return mult <= q
        if len(distinct) != len(assigned):
            return False
        return mult == m

    def assign(line: int, used: int):
        if line == d:
            results.append(PartitionPhi(tuple(labels)))
            return
        for b in range(min(used + 1, m)):
            if sizes[b] == q:
                continue
            labels[line] = b
            sizes[b] += 1
            if all(point_ok(s) for s in through[line]):
                assign(line + 1, max(used, b + 1))
            sizes[b] -= 1
            labels[line] = -1

    assign(0, 0)
    return results


def pencil_partition_oracle(lattice: IncidenceLattice, phi: PartitionPhi, m: int,
                            dist: int | None = None) -> PartitionVerdict:
    """``check_pencil_partition`` with the block counts taken again at each
    use, cross points found by their set of labels, and ratio profiles
    compared as tuples of Fractions."""
    d = lattice.d
    r = phi.r
    dist = _default_dist(d, dist)
    details = []
    in_range = 3 <= m <= d - 1 and 3 <= r <= d - 1
    if not in_range:
        details.append(f"m={m}, r={r} outside [3, d-1]")
    blocks = phi.blocks()

    def block_counts(p):
        counts = [0] * r
        for i in p.lines:
            counts[phi.labels[i]] += 1
        return counts

    cross = [p for p in lattice.points if len(p.lines) >= 3
             and len({phi.labels[i] for i in p.lines}) >= 2]
    cross_affine = [p for p in cross if dist not in p.lines]

    bound = True
    if d % m:
        bound = False
        details.append(f"m={m} does not divide d={d}")
    ratio_profile = None
    for p in cross_affine:
        counts = block_counts(p)
        if any(c == 0 for c in counts):
            bound = False
            details.append(f"block missing at cross point {sorted(p.lines)}")
            break
        profile = tuple(Fraction(c, counts[0]) for c in counts)
        if ratio_profile is None:
            ratio_profile = profile
        elif profile != ratio_profile:
            bound = False
            details.append(f"ratio profile changes at {sorted(p.lines)}")
            break
    if bound and d % m == 0:
        target = d // m
        good = [b for b, block in enumerate(blocks) if len(block) == target
                and all(block_counts(p)[b] * m == len(p.lines) for p in cross_affine)]
        if not good:
            bound = False
            details.append(f"no block of size d/m={target} capturing 1/m of each point")
    bound = bound and in_range

    exact = True
    if m != r:
        exact = False
        details.append(f"m={m} != r={r}")
    for p in cross:
        if any(c != 1 for c in block_counts(p)):
            exact = False
            details.append(f"cross point {sorted(p.lines)} not simple across blocks")
            break
    certificate_block = None
    if exact and in_range:
        if d % m:
            exact = False
        else:
            target = d // m
            certificate_block = next(
                (b for b, block in enumerate(blocks) if len(block) == target
                 and residue_verdict_oracle(lattice, target, block).holds), None)
            if certificate_block is None:
                exact = False
                details.append("no block passes the residue integrality check")
    if certificate_block is not None:
        details.append(f"residue certificate block {certificate_block}")
    exact = exact and in_range
    return PartitionVerdict(
        m=m, r=r, bound_holds=bound, exact_holds=exact,
        predicted_lower=r - 2 if bound else None,
        predicted_exact=m - 2 if exact else None,
        details=tuple(details))


def build_aomoto_system(lattice: IncidenceLattice, weights, dist: int | None = None
                        ) -> list[list[int]]:
    """The block matrix of (omega wedge): A^1 -> A^2 in anchored bases, as
    int rows of the weights times the lcm of their denominators (a nonzero
    scale that leaves the rank as it is).  ``aomoto_h1`` reads its rank off
    the weights at each point instead; (d - 1) - ``int_rank`` of these rows
    - 1 is the H^1 it must give.

    Columns are indexed by the lines other than the distinguished one, rows
    by pairs (V, i) with V an affine intersection point (doubles included)
    and i in I_V minus the anchor k0(V) = max(I_V).  The row implements
    beta |-> alpha_i * beta_V - alpha_V * beta_i.
    """
    d = lattice.d
    if weights.d != d:
        raise ValueError("weights length does not match the arrangement")
    dist = _default_dist(d, dist)
    alphas = clear_denominators(weights.alphas)
    col_pos = {i: t for t, i in enumerate(i for i in range(d) if i != dist)}
    rows = []
    for p in lattice.points:
        if dist in p.lines:
            continue
        incident = sorted(p.lines)
        alpha_v = sum(alphas[i] for i in incident)
        for i in incident[:-1]:
            row = [0] * (d - 1)
            for j in incident:
                row[col_pos[j]] = alphas[i]
            row[col_pos[i]] -= alpha_v
            rows.append(row)
    return rows


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

    r_rel = qq_rank(relations, len(pairs))
    r_all = qq_rank(relations + image_rows, len(pairs))
    map_rank = r_all - r_rel
    kernel_dim = len(lines) - map_rank
    return kernel_dim - 1


def qq_rank(rows, ncols: int) -> int:
    """Rank over Q of rows of Fractions or ints, by sympy's DomainMatrix."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    data = [[QQ(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(data, (len(data), ncols), QQ).rank()


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
    constraints = matrix_from_rows(rows, cols=len(basis), order=arr.field_order)
    return len(basis) - rank(constraints)


def int_det(rows) -> int:
    """Exact determinant of a square matrix of int rows by fraction-free
    (Bareiss) elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _power_table(cu, cv, deg: int) -> list[list]:
    """table[a][b] = cu^a * cv^b for a + b <= deg."""
    pu, pv = [1], [1]
    for _ in range(deg):
        pu.append(pu[-1] * cu)
        pv.append(pv[-1] * cv)
    return [[pu[a] * pv[b] for b in range(deg + 1 - a)] for a in range(deg + 1)]


def _exact_charts(lattice: IncidenceLattice, chart_of, layout, deg: int) -> dict:
    """Per point of the layout: (u index, v index, power table over Q(zeta))."""
    charts = {}
    for idx, _ in layout:
        coords, chart = lattice.points[idx].point.coords, chart_of[idx]
        if coords[chart].is_zero():
            raise ValueError("chart coordinate vanishes at the point")
        u_idx, v_idx = [i for i in range(3) if i != chart]
        inv = coords[chart].inverse()
        charts[idx] = (u_idx, v_idx,
                       _power_table(coords[u_idx] * inv, coords[v_idx] * inv, deg))
    return charts


def _taylor_rows(layout, basis, charts) -> list[list]:
    """Row (y, i, j), column mono: the coefficient of u^i v^j in the chart
    expansion of the monomial at y, in whatever ring the chart powers live."""
    rows = []
    for idx, jets in layout:
        u_idx, v_idx, table = charts[idx]
        for i, j in jets:
            row = []
            for mono in basis:
                au, av = mono[u_idx], mono[v_idx]
                if i > au or j > av:
                    row.append(0)
                else:
                    row.append(table[au - i][av - j] * (comb(au, i) * comb(av, j)))
            rows.append(row)
    return rows


def chart_inverse_matrix(arr: Arrangement, lattice: IncidenceLattice, chart_of,
                         layout, deg: int) -> Matrix:
    """The jet rows of ``layout`` over Q(zeta): row (y, i, j) holds the
    coefficients of u^i v^j in the expansions of the degree-``deg`` monomials
    at y, in the chart coordinates U/X, V/X."""
    basis = monomial_basis(deg)
    rows = _taylor_rows(layout, basis,
                        _exact_charts(lattice, chart_of, layout, deg))
    return matrix_from_rows(rows, cols=len(basis), order=arr.field_order)


def reduce_fraction_mod(x, p: int, root: int) -> int | None:
    """Image of an int, Fraction or CycloNumber in F_p under zeta -> root,
    where root is the image of the CycloNumber's own zeta; None when p
    divides a denominator."""
    if isinstance(x, int):
        return x % p
    coeffs = x.coeffs if isinstance(x, CycloNumber) else (Fraction(x),)
    acc, power = 0, 1
    for c in coeffs:
        if c:
            den = c.denominator
            if den == 1:
                acc += c.numerator * power
            elif den % p:
                acc += c.numerator * pow(den, -1, p) * power
            else:
                return None
        power = power * root % p
    return acc % p


def integral_rows(m: Matrix) -> list[tuple]:
    """Each row of m times the lcm of its denominators, as power-basis int
    tuples: the form ``linalg.certified_rank`` checks kernels on."""
    return [integral_form([x.coeffs if isinstance(x, CycloNumber) else (x,)
                           for x in row]) for row in m.to_rows()]


def truncation_order(m_y: int, k: int, d: int) -> int:
    """Jets modulo vanishing order floor(m_y*k/d) - 1 survive at y."""
    return (m_y * k) // d - 1


def truncated_jet_layout(lattice: IncidenceLattice, k: int) -> list:
    """Rows of the unconstrained jet map at k, as (point index, [(i, j)]):
    every u^i v^j with i + j < truncation_order at each point of
    multiplicity >= 3, read off the quotient order alone."""
    layout = []
    for idx, p in enumerate(lattice.points):
        t = truncation_order(p.multiplicity, k, lattice.d)
        if p.multiplicity >= 3 and t >= 1:
            layout.append((idx, [(i, j) for i in range(t) for j in range(t - i)]))
    return layout


def jet_matrix(arr: Arrangement, lattice: IncidenceLattice, k: int,
               ideal_constrained: bool, charts=None) -> Matrix:
    """The evaluation matrix whose cokernel dimension is one Hodge piece.

    Unconstrained (ideal_constrained=False): rows are truncated jets at every
    multiple point (``truncated_jet_layout``), columns the degree-(k-3)
    monomials.  Constrained: columns are a kernel basis of the outer-ideal
    conditions, rows the single graded jet layer at the points where m_y*k/d
    is an integer.  Built exactly; the analysis path reads the same
    cokernels off F_p ranks in ``milnor.cokernel_dims``.
    """
    deg = k - 3
    chart_of = _charts_for(lattice, charts)
    if not ideal_constrained:
        return chart_inverse_matrix(arr, lattice, chart_of,
                                    truncated_jet_layout(lattice, k), deg)
    _, graded = _layouts(lattice, k)
    ideal = ideal_basis(arr, lattice, deg, k, charts)
    layer = chart_inverse_matrix(arr, lattice, chart_of, graded, deg)
    rows = [[sum(f * vec[t] for t, f in enumerate(row)) for vec in ideal]
            for row in layer.to_rows()]
    return matrix_from_rows(rows, cols=len(ideal), order=arr.field_order)


def ideal_basis(arr: Arrangement, lattice: IncidenceLattice, deg: int, k: int,
                charts=None) -> list[tuple]:
    """Basis of the degree-``deg`` forms vanishing to the outer-ideal order at
    every multiple point, as coefficient vectors over monomial_basis(deg)."""
    outer, _ = _layouts(lattice, k)
    size = len(monomial_basis(deg))
    if not outer:
        return [tuple(1 if t == s else 0 for t in range(size))
                for s in range(size)]
    constraints = chart_inverse_matrix(arr, lattice, _charts_for(lattice, charts),
                                       outer, deg)
    return nullspace(constraints)


def enumerate_kernel(system, moduli, cap: int = realize.DEFAULT_ENUM_CAP):
    """Each solution of M x = 0 over (prod Z/a)^d once, as a tuple of group
    elements: the walk of ``search_realizations`` over the Smith-form
    generators, after the same size check against ``cap`` (ValueError)."""
    moduli = tuple(moduli)
    gens, _ = realize._kernel_generators(system, moduli, cap)
    return realize._span(gens, moduli, system.d)


def same_affine_orbit(vec_a, vec_b, moduli) -> bool:
    """Whether vec_b = u * vec_a + t componentwise for a unit u and 3t = 0
    (the only translations that preserve kernels)."""
    moduli = tuple(int(a) for a in moduli)
    units = product(*([u for u in range(1, a) if gcd(u, a) == 1] for a in moduli))
    translations = list(product(*(range(0, a, a // gcd(3, a)) for a in moduli)))
    for u in units:
        for t in translations:
            mapped = tuple(
                tuple((uu * x + tt) % a for uu, x, tt, a in zip(u, entry, t, moduli))
                for entry in vec_a)
            if mapped == vec_b:
                return True
    return False


def from_plain_vector(values, moduli):
    width = len(moduli)
    out = []
    for v in values:
        if isinstance(v, (list, tuple)):
            if len(v) != width:
                raise ValueError("group element width does not match moduli")
            out.append(tuple(int(x) % a for x, a in zip(v, moduli)))
        else:
            if width != 1:
                raise ValueError("scalar entries need a single modulus")
            out.append((int(v) % moduli[0],))
    return tuple(out)


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


def random_cyclo(rng: random.Random, order: int, nonzero: bool = False) -> CycloNumber:
    """An element of Q(zeta_order) with small random power-basis coefficients."""
    while True:
        x = CycloNumber(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(euler_phi(order))])
        if x or not nonzero:
            return x


def random_hyperplanes(rng: random.Random, order: int, n: int, d: int,
                       repeat: bool = False) -> list[list[CycloNumber]]:
    """d central hyperplanes in C^n over Q(zeta_order).  Some are sums of
    unit multiples of two earlier ones, so flats with three or more
    hyperplanes occur; with ``repeat`` one row is a nonzero multiple of
    another, so two hyperplanes coincide."""
    zeta = CycloNumber.zeta(order)
    small = [CycloNumber.zero(order)] + [s * zeta ** e for s in (1, -1)
                                         for e in range(order)]
    rows = []
    while len(rows) < d:
        if len(rows) >= 2 and rng.random() < 0.4:
            a, b = rng.sample(rows, 2)
            s, t = rng.choice(small[1:]), rng.choice(small[1:])
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([rng.choice(small) for _ in range(n)])
    if repeat:
        scale = random_cyclo(rng, order, nonzero=True)
        rows.insert(rng.randrange(d + 1), [scale * x for x in rng.choice(rows)])
    return rows


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
    return Arrangement(lines, name=f"A({n},1,3)" if full else f"ceva{n}")


def braid_section(n: int) -> Arrangement:
    """The generic section of the braid arrangement A_n, x_i - x_j in C^(n+1),
    at seed 0."""
    planes = [[(t == i) - (t == j) for t in range(n + 1)]
              for i in range(n + 1) for j in range(i + 1, n + 1)]
    return generic_section(planes)[0]


# The scaling ladder pinned in golden/ladder.json, by member name.
LADDER = {**{f"ceva{n}": (monomial_arrangement, n) for n in range(3, 7)},
          **{f"A({n},1,3)": (monomial_arrangement, n, True) for n in range(1, 7)},
          **{f"A{n}-section": (braid_section, n) for n in range(4, 7)}}


def ladder_member(name: str) -> Arrangement:
    build, *args = LADDER[name]
    return build(*args)


def ladder_record(arr: Arrangement) -> dict:
    """What golden/ladder.json pins for one member: d, the field order, the
    multiplicity histogram, the k where both values of
    ``precheck_vanishing`` hold, and every nonzero (unconstrained,
    constrained) ``cokernel_dims`` pair, by k."""
    lat = build_lattice(arr)
    jets = JetContext(arr, lat)
    pairs = {k: cokernel_dims(arr, lat, k, jets=jets) for k in range(1, lat.d)}
    hist = sorted(lat.multiplicity_histogram().items())
    return {"d": lat.d, "order": arr.field_order,
            "histogram": {str(m): c for m, c in hist},
            "open_k": [k for k in range(1, lat.d) if all(precheck_vanishing(lat, k))],
            "cokernels": {str(k): list(pair) for k, pair in pairs.items() if any(pair)}}


def ladder_document() -> str:
    """The text of golden/ladder.json, computed afresh; to regenerate it, from
    the root of a checkout:

        PYTHONPATH=src:tests python -c "import helpers; print(helpers.ladder_document(), end='')" > tests/golden/ladder.json
    """
    records = {name: ladder_record(ladder_member(name)) for name in LADDER}
    return json.dumps(records, sort_keys=True, indent=2) + "\n"


def matrix_from_rows(data, cols: int | None = None, order: int | None = None) -> Matrix:
    """A Matrix over Q(zeta_n) from rows of ints, Fractions and CycloNumbers,
    n their ``field_order`` (with ``order``); order 1 stores Fractions."""
    data = [list(row) for row in data]
    if not data:
        return Matrix(0, 0 if cols is None else cols, order or 1, ())
    ncols = len(data[0])
    if any(len(row) != ncols for row in data):
        raise ValueError("ragged rows")
    values = [v for row in data for v in row]
    n = field_order(values, order)
    if n == 1:
        flat = [v.coeffs[0] if isinstance(v, CycloNumber) else Fraction(v)
                for v in values]
    else:
        flat = [as_cyclo(v, n) for v in values]
    return Matrix(len(data), ncols, n, tuple(flat))


def identity_matrix(n: int, order: int = 1) -> Matrix:
    one = Fraction(1) if order == 1 else CycloNumber.one(order)
    zero = Fraction(0) if order == 1 else CycloNumber.zero(order)
    return Matrix(n, n, order, tuple(one if i == j else zero
                                     for i in range(n) for j in range(n)))


def mat_vec(m: Matrix, vec) -> list:
    out = []
    for row in m.to_rows():
        acc = 0
        for x, v in zip(row, vec):
            acc = acc + x * v
        out.append(acc)
    return out
