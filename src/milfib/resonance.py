"""The combinatorial route: Aomoto complex cohomology and its certificates.

Given residue weights alpha_1..alpha_d summing to zero, the degree-one
cohomology of the Orlik-Solomon complex with differential (wedge by
omega = sum alpha_i e_i) is computed exactly.  The degree-two part is
realized concretely through the anchored basis e_{i,k0(V)} per affine
intersection point V, so the whole differential is one block matrix and
no Groebner machinery is needed at rank <= 2.

Also here: the integrality check on the residue sums alpha_{I,y} that
certifies when the Aomoto dimension equals the Milnor fiber eigenspace
dimension, partition-based lower/exact bound checkers, and the search
for pencil-type partitions (nets).

Line indices are 0-based; the distinguished line used to pass to the
affine complement defaults to the last line and every result is
independent of that choice (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arrangement import IncidenceLattice
from .linalg import Matrix, nullspace

DEFAULT_SEARCH_CAP = 16


class SearchCapExceeded(ValueError):
    """Exhaustive subset/partition search refused for too many lines."""


def _check_cap(d: int, cap: int):
    if d > cap:
        raise SearchCapExceeded(
            f"exhaustive search disabled for d={d} > cap={cap}; raise the cap to force")


@dataclass(frozen=True)
class ResidueWeights:
    """Weights alpha_0..alpha_{d-1} with sum exactly zero.

    Derived weights record their (k, I) provenance: alpha_i = k/d - 1 on I
    and k/d off I, which makes the sum vanish because |I| = k.
    """

    alphas: tuple
    k: int | None = None
    lines: frozenset | None = None

    def __post_init__(self):
        if sum(self.alphas, Fraction(0)) != 0:
            raise ValueError("residue weights must sum to zero")

    @property
    def d(self) -> int:
        return len(self.alphas)

    def point_sum(self, lines):
        return sum((self.alphas[i] for i in lines), Fraction(0))


def weights_from_kI(d: int, k: int, I) -> ResidueWeights:
    """alpha_i = k/d - 1 for i in I, k/d otherwise; requires |I| = k."""
    I = frozenset(I)
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must be in [1, {d - 1}], got {k}")
    if len(I) != k:
        raise ValueError(f"|I| = {len(I)} != k = {k}: weights would not sum to zero")
    if any(i < 0 or i >= d for i in I):
        raise ValueError("line index out of range in I")
    base = Fraction(k, d)
    alphas = tuple(base - 1 if i in I else base for i in range(d))
    return ResidueWeights(alphas, k=k, lines=I)


def _default_dist(d: int, dist: int | None) -> int:
    if dist is None:
        return d - 1
    if not 0 <= dist < d:
        raise ValueError("distinguished line index out of range")
    return dist


def build_aomoto_system(lattice: IncidenceLattice, weights: ResidueWeights,
                        dist: int | None = None) -> Matrix:
    """The block matrix of (omega wedge): A^1 -> A^2 in anchored bases.

    Columns are indexed by the lines other than the distinguished one, rows
    by pairs (V, i) with V an affine intersection point (doubles included)
    and i in I_V minus the anchor k0(V) = max(I_V).  The row implements
    beta |-> alpha_i * beta_V - alpha_V * beta_i.
    """
    d = lattice.d
    if weights.d != d:
        raise ValueError("weights length does not match the arrangement")
    dist = _default_dist(d, dist)
    columns = tuple(i for i in range(d) if i != dist)
    col_pos = {i: t for t, i in enumerate(columns)}
    rows = []
    for p in lattice.points:
        if dist in p.lines:
            continue
        incident = sorted(p.lines)
        alpha_v = weights.point_sum(incident)
        anchor = incident[-1]
        for i in incident[:-1]:
            row = [0] * len(columns)
            for j in incident:
                row[col_pos[j]] = weights.alphas[i]
            row[col_pos[i]] = row[col_pos[i]] - alpha_v
            rows.append(row)
    return Matrix.from_rows(rows, cols=len(columns))


def aomoto_h1(lattice: IncidenceLattice, weights: ResidueWeights,
              dist: int | None = None) -> int:
    """dim H^1 of the Aomoto complex: kernel nullity of the block matrix minus
    one, the subtracted dimension being the image of (omega wedge) on A^0."""
    d = lattice.d
    dist = _default_dist(d, dist)
    if all(weights.alphas[i] == 0 for i in range(d) if i != dist):
        raise ValueError("omega = 0: the Aomoto quotient convention differs; refusing")
    return len(nullspace(build_aomoto_system(lattice, weights, dist))) - 1


def alpha_components(lattice: IncidenceLattice, weights: ResidueWeights,
                     dist: int | None = None) -> list[tuple[int, ...]]:
    """Connected components of the affine lines after combinatorially blowing
    up the multiple points whose residue sum alpha_y vanishes.

    Two affine lines stay connected through a common point y off the
    distinguished line iff y is a double point or alpha_y != 0.
    """
    d = lattice.d
    dist = _default_dist(d, dist)
    for i in range(d):
        if i != dist and weights.alphas[i] == 0:
            raise ValueError(f"alpha_{i} = 0: alpha-connectivity needs nonzero weights")
    parent = {i: i for i in range(d) if i != dist}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for p in lattice.points:
        if dist in p.lines:
            continue
        if p.multiplicity == 2 or weights.point_sum(p.lines) != 0:
            incident = sorted(p.lines)
            for i in incident[1:]:
                union(incident[0], i)
    groups: dict[int, list[int]] = {}
    for i in parent:
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(g)) for g in groups.values())


# ---------------------------------------------------------------------------
# Residue-sum integrality condition and its exhaustive search.


@dataclass(frozen=True)
class ResidueVerdict:
    """Outcome of the integrality check on alpha_{I,y} = (|I|/d) m_y - m_{I,y}.

    branch is "avoids_positive" when no alpha_{I,y} is a positive integer,
    "avoids_negative" when none is a negative integer, "fails" otherwise;
    witnesses lists (point index, value) pairs violating each branch.
    """

    branch: str
    positive_hits: tuple
    negative_hits: tuple

    @property
    def holds(self) -> bool:
        return self.branch != "fails"


def check_residue_integrality(lattice: IncidenceLattice, k: int, I) -> ResidueVerdict:
    d = lattice.d
    I = frozenset(I)
    if len(I) != k:
        raise ValueError(f"|I| = {len(I)} != k = {k}")
    if not 1 <= k or 2 * k > d:
        raise ValueError(f"k must be in [1, d/2] = [1, {d // 2}], got {k}")
    positive = []
    negative = []
    for idx, p in enumerate(lattice.points):
        if p.multiplicity < 3:
            continue
        value = Fraction(len(I) * p.multiplicity, d) - len(I & p.lines)
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


def search_residue_subset(lattice: IncidenceLattice, k: int,
                          cap: int = DEFAULT_SEARCH_CAP):
    """First k-subset (lexicographic) passing the integrality check, or None."""
    d = lattice.d
    _check_cap(d, cap)
    for I in combinations(range(d), k):
        verdict = check_residue_integrality(lattice, k, I)
        if verdict.holds:
            return frozenset(I), verdict
    return None


# ---------------------------------------------------------------------------
# Partitions of the lines, pencil-type conditions, and net detection.


@dataclass(frozen=True)
class PartitionPhi:
    """A partition of the d lines into blocks, as a label per line.

    Labels are normalized to 0..r-1 in order of first appearance.
    """

    labels: tuple

    def __post_init__(self):
        seen: dict = {}
        for lab in self.labels:
            if lab not in seen:
                seen[lab] = len(seen)
        normalized = tuple(seen[lab] for lab in self.labels)
        object.__setattr__(self, "labels", normalized)

    @classmethod
    def from_blocks(cls, blocks, d: int) -> "PartitionPhi":
        labels = [None] * d
        for b, block in enumerate(blocks):
            for i in block:
                if labels[i] is not None:
                    raise ValueError(f"line {i} appears in two blocks")
                labels[i] = b
        if any(lab is None for lab in labels):
            raise ValueError("partition does not cover all lines")
        return cls(tuple(labels))

    @property
    def r(self) -> int:
        return max(self.labels) + 1 if self.labels else 0

    def blocks(self) -> list[tuple[int, ...]]:
        out: list[list[int]] = [[] for _ in range(self.r)]
        for i, lab in enumerate(self.labels):
            out[lab].append(i)
        return [tuple(b) for b in out]


@dataclass(frozen=True)
class PartitionVerdict:
    """Checks a partition against the lower-bound and exact-value hypotheses.

    bound_holds: every block meets every cross-block multiple point off the
    distinguished line, with point-independent ratios, and some block of
    size d/m collects exactly 1/m of each such point's multiplicity; then
    the eigenspace dimension at every m-th root of unity is >= r - 2.

    exact_holds: every cross-block multiple point meets each block exactly
    once, m = r, and some size-d/m block passes the residue integrality
    check; then the dimension at primitive m-th roots is exactly m - 2.
    """

    m: int
    r: int
    bound_holds: bool
    exact_holds: bool
    predicted_lower: int | None
    predicted_exact: int | None
    details: tuple


def check_pencil_partition(lattice: IncidenceLattice, phi: PartitionPhi, m: int,
                           dist: int | None = None) -> PartitionVerdict:
    d = lattice.d
    if len(phi.labels) != d:
        raise ValueError("partition length does not match the arrangement")
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

    cross = [p for p in lattice.sigma()
             if len({phi.labels[i] for i in p.lines}) >= 2]
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
        candidates = [b for b, block in enumerate(blocks) if len(block) == target]
        good = [b for b in candidates
                if all(block_counts(p)[b] * m == p.multiplicity for p in cross_affine)]
        if not good:
            bound = False
            details.append(f"no block of size d/m={target} capturing 1/m of each point")
    bound = bound and in_range

    exact = True
    if m != r:
        exact = False
        details.append(f"m={m} != r={r}")
    for p in cross:
        counts = block_counts(p)
        if any(c != 1 for c in counts):
            exact = False
            details.append(f"cross point {sorted(p.lines)} not simple across blocks")
            break
    certificate_block = None
    if exact:
        if d % m:
            exact = False
        else:
            target = d // m
            for b, block in enumerate(blocks):
                if len(block) != target:
                    continue
                verdict = check_residue_integrality(lattice, target, block)
                if verdict.holds:
                    certificate_block = b
                    break
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


def net_detect(lattice: IncidenceLattice, m: int,
               cap: int = DEFAULT_SEARCH_CAP) -> list[PartitionPhi]:
    """All partitions into m blocks of size d/m where every multiple point is
    either contained in one block or meets every block exactly once.

    Exhaustive backtracking over line assignments with symmetry breaking
    (blocks are opened in order of their smallest line), so each net is
    produced exactly once up to block relabeling.
    """
    d = lattice.d
    if m < 3:
        raise ValueError("nets need at least 3 blocks")
    if d % m:
        raise ValueError(f"m={m} does not divide d={d}")
    _check_cap(d, cap)
    q = d // m
    sigma_sets = [tuple(sorted(p.lines)) for p in lattice.sigma()]
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
            return mult <= q  # must stay inside one block
        if len(distinct) != len(assigned):
            return False  # mixed repeats: neither one block nor all distinct
        return mult == m  # heading to one-per-block; needs exactly m lines

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
