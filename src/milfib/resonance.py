"""The combinatorial route: Aomoto complex cohomology and its certificates.

Given residue weights alpha_1..alpha_d summing to zero, the degree-one
cohomology of the Orlik-Solomon complex with differential (wedge by
omega = sum alpha_i e_i) is computed exactly.  In the anchored basis
e_{i,k0(V)} per affine intersection point V the differential is one block
matrix, but its rank is not taken by eliminating it: each block spans a
space read off the weights at V, so the rank comes from the
alpha-components of the affine lines and a small int matrix over the
points of multiplicity >= 3 whose residue sum vanishes (``aomoto_h1``).

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

from .arrangement import IncidenceLattice, InvariantViolation
# `nullspace` is not called here;
# perfbench/tracing.py wraps it by name, as tests/test_bench_hooks.py checks.
from .linalg import clear_denominators, int_rank, nullspace

DEFAULT_SEARCH_CAP = 16


class SearchCapExceeded(ValueError):
    """Exhaustive subset/partition search refused for too many lines."""


def _check_cap(d: int, cap: int):
    if d > cap:
        raise SearchCapExceeded(
            f"exhaustive search disabled for d={d} > cap={cap}; raise the cap to force")


@dataclass(frozen=True)
class ResidueWeights:
    """Weights alpha_0..alpha_{d-1} with sum exactly zero."""

    alphas: tuple

    def __post_init__(self):
        if sum(self.alphas, Fraction(0)) != 0:
            raise ValueError("residue weights must sum to zero")

    @property
    def d(self) -> int:
        return len(self.alphas)


def weights_from_kI(d: int, k: int, I) -> ResidueWeights:
    """alpha_i = k/d - 1 for i in I, k/d otherwise; requires |I| = k, which
    makes the sum vanish."""
    I = frozenset(I)
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must be in [1, {d - 1}], got {k}")
    if len(I) != k:
        raise ValueError(f"|I| = {len(I)} != k = {k}: weights would not sum to zero")
    if any(i < 0 or i >= d for i in I):
        raise ValueError("line index out of range in I")
    base = Fraction(k, d)
    alphas = tuple(base - 1 if i in I else base for i in range(d))
    return ResidueWeights(alphas)


def _default_dist(d: int, dist: int | None) -> int:
    if dist is None:
        return d - 1
    if not 0 <= dist < d:
        raise ValueError("distinguished line index out of range")
    return dist


def _affine_classes(lattice: IncidenceLattice, a: list[int], dist: int):
    """One union-find over the affine lines of nonzero weight a_i, joined at
    each affine point V that is a double point or has a_V = sum a_i != 0:
    (the root of each such line, the lines of the points with a_V != 0, and
    the other affine points with a nonzero weight, the resonant ones)."""
    if len(a) != lattice.d:
        raise ValueError("weights length does not match the arrangement")
    parent = {i: i for i, x in enumerate(a) if x and i != dist}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    good, resonant = set(), []
    for p in lattice.points:
        if dist in p.lines:
            continue
        a_v = sum(a[i] for i in p.lines)
        weighted = sorted(i for i in p.lines if a[i])
        if a_v or p.multiplicity == 2:
            if a_v:
                good.update(p.lines)
            for i in weighted[1:]:
                rx, ry = find(weighted[0]), find(i)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
        elif weighted:
            resonant.append(p)
    return {i: find(i) for i in parent}, good, resonant


def aomoto_h1(lattice: IncidenceLattice, weights: ResidueWeights,
              dist: int | None = None) -> int:
    """dim H^1 of the Aomoto complex, (d - 2) - rank of (omega wedge) on A^1.

    a = the weights times the lcm of their denominators.  The rows at an
    affine point V, a_i 1_V - a_V e_i, span {w on V : sum a_i w_i = 0} if
    a_V != 0: in coordinates a_i w_i, the zero-sum space on the lines of
    nonzero weight, plus e_i at each zero-weight line ("killed").  Else they
    span 1_V: for a double point, a zero-sum space too.  Zero-sum spaces add
    up over each class, and what is left is B: a row per resonant point, its
    class sums sum a_i and a 1 at each zero-weight line killed nowhere.  So
    rank = (lines of nonzero weight - classes) + killed + rank B.
    """
    d = lattice.d
    dist = _default_dist(d, dist)
    a = clear_denominators(weights.alphas)
    if not any(x for i, x in enumerate(a) if i != dist):
        raise ValueError("omega = 0: the Aomoto quotient convention differs; refusing")
    root, good, resonant = _affine_classes(lattice, a, dist)
    # B's columns: each class at its root line, each free line at itself.
    rows = [[0] * d for _ in resonant]
    for row, p in zip(rows, resonant):
        for i in p.lines:
            if a[i] or i not in good:
                row[root.get(i, i)] += a[i] or 1
    killed = sum(1 for i in good if not a[i])
    return d - 2 - (len(root) - len(set(root.values())) + killed + int_rank(rows, d))


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
    root, _, _ = _affine_classes(lattice, clear_denominators(weights.alphas), dist)
    groups: dict[int, list[int]] = {}
    for i, r in root.items():
        groups.setdefault(r, []).append(i)
    return sorted(tuple(g) for g in groups.values())


# ---------------------------------------------------------------------------
# Residue-sum integrality condition and the count-pruned search for a subset
# that passes it.


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
    """The verdict on I over the points of sigma.  alpha_{I,y} is an integer
    exactly when d divides |I| m_y, so the test and the value are taken on
    ints; a Fraction is made only for a reported hit."""
    d = lattice.d
    I = frozenset(I)
    if len(I) != k:
        raise ValueError(f"|I| = {len(I)} != k = {k}")
    if not 1 <= k or 2 * k > d:
        raise ValueError(f"k must be in [1, d/2] = [1, {d // 2}], got {k}")
    if min(I) < 0 or max(I) >= d:
        raise ValueError(f"line index out of range [0, {d - 1}] in I")
    positive = []
    negative = []
    for idx in lattice.sigma_index:
        p = lattice.points[idx]
        c, rem = divmod(k * p.multiplicity, d)
        if rem:
            continue
        value = c - len(I & p.lines)
        if value > 0:
            positive.append((idx, Fraction(value)))
        elif value < 0:
            negative.append((idx, Fraction(value)))
    if not positive:
        branch = "avoids_positive"
    elif not negative:
        branch = "avoids_negative"
    else:
        branch = "fails"
    return ResidueVerdict(branch, tuple(positive), tuple(negative))


def search_residue_subset(lattice: IncidenceLattice, k: int,
                          cap: int = DEFAULT_SEARCH_CAP):
    """First k-subset (lexicographic) passing the integrality check, or None.

    Only the points of sigma_k constrain I: there c_y = k m_y/d is an integer
    and alpha_{I,y} = c_y - |I & I_y|, so I avoids positive integers iff
    every |I & I_y| >= c_y, and negative ones iff every |I & I_y| <= c_y.
    Lines are added in increasing order, depth first, and a branch is cut
    once neither bound can still hold: some count exceeds c_y, and some
    count cannot reach c_y with the lines of I_y still ahead and the slots
    left.  The first complete subset is then the lexicographically first
    passing one; its verdict comes from ``check_residue_integrality``.

    Both tests are running tallies, updated only at the points through the
    line just added, removed or passed over.  The first is ``over == 0``,
    ``over`` the number of points whose count exceeds c_y.  The second
    splits in two: no point is short, its count plus its lines not yet
    passed over below c_y (``short``, kept as lines are passed over and
    restored when a search level returns), and the largest deficit
    c_y - count, read off a histogram of the positive deficits, is at most
    the slots left.
    """
    d = lattice.d
    if not 1 <= k or 2 * k > d:
        raise ValueError(f"k must be in [1, d/2] = [1, {d // 2}], got {k}")
    _check_cap(d, cap)
    points = [p.lines for p in lattice.sigma_k(k)]
    targets = [k * len(lines) // d for lines in points]
    through = [[s for s, lines in enumerate(points) if i in lines] for i in range(d)]
    counts = [0] * len(points)
    # spare[s]: how many more lines of point s may be passed over before it
    # is short; passing one more over makes it short when spare reaches -1.
    spare = [len(lines) - c for lines, c in zip(points, targets)]
    # deficits[t]: the points with c_y - count == t > 0 (entry 0 unused).
    deficits = [0] * (max(targets, default=0) + 1)
    for c in targets:
        deficits[c] += 1
    over = short = 0
    chosen: list[int] = []

    def extend(start: int) -> bool:
        nonlocal over, short
        slots = k - len(chosen) - 1
        if slots < 0:
            return True
        end = d - slots
        for i in range(start, end):
            chosen.append(i)
            for s in through[i]:
                n = counts[s] = counts[s] + 1
                gap = targets[s] - n
                if gap >= 0:
                    deficits[gap + 1] -= 1
                    if gap:
                        deficits[gap] += 1
                elif gap == -1:
                    over += 1
            if (not over or not short and not any(deficits[slots + 1:])) \
                    and extend(i + 1):
                return True
            for s in through[i]:
                n = counts[s]
                counts[s] = n - 1
                gap = targets[s] - n
                if gap >= 0:
                    deficits[gap + 1] += 1
                    if gap:
                        deficits[gap] -= 1
                elif gap == -1:
                    over -= 1
            chosen.pop()
            # Line i is passed over from here on, at this level and below.
            for s in through[i]:
                spare[s] -= 1
                if spare[s] == -1:
                    short += 1
        for i in range(start, end):
            for s in through[i]:
                if spare[s] == -1:
                    short -= 1
                spare[s] += 1
        return False

    if not extend(0):
        return None
    I = frozenset(chosen)
    verdict = check_residue_integrality(lattice, k, I)
    if not verdict.holds:
        raise InvariantViolation(f"residue search returned I={sorted(I)}, which fails")
    return I, verdict


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

    A cross point is a point of multiplicity >= 3 whose lines lie in two or
    more blocks.  Double points are not read, so blocks that cross at a
    double point pass both checks: this is the open false-net fault of
    ROADMAP.md item 1, kept as it is until that item lands.

    bound_holds: every block meets every cross point off the distinguished
    line, with point-independent ratios, and some block of size d/m
    collects exactly 1/m of each such point's multiplicity; then the
    eigenspace dimension at every m-th root of unity is >= r - 2.

    exact_holds: every cross point meets each block exactly once, m = r,
    and some size-d/m block passes the residue integrality check; then the
    dimension at primitive m-th roots is exactly m - 2.
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
    """The :class:`PartitionVerdict` of phi at m, read off the points of
    multiplicity >= 3 alone.  Each point's block counts are taken once, and
    ratio profiles are compared by cross-multiplying the counts."""
    d = lattice.d
    if len(phi.labels) != d:
        raise ValueError("partition length does not match the arrangement")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    r = phi.r
    dist = _default_dist(d, dist)
    details = []
    in_range = 3 <= m <= d - 1 and 3 <= r <= d - 1
    if not in_range:
        details.append(f"m={m}, r={r} outside [3, d-1]")
    blocks = phi.blocks()
    labels = phi.labels

    # The block counts of each point of sigma, taken once.  A cross point
    # has its lines in two or more blocks.
    cross = []
    for p in lattice.sigma():
        counts = [0] * r
        for i in p.lines:
            counts[labels[i]] += 1
        if max(counts) < p.multiplicity:
            cross.append((p, counts))
    cross_affine = [(p, counts) for p, counts in cross if dist not in p.lines]

    bound = True
    if d % m:
        bound = False
        details.append(f"m={m} does not divide d={d}")
    first = None
    for p, counts in cross_affine:
        if 0 in counts:
            bound = False
            details.append(f"block missing at cross point {sorted(p.lines)}")
            break
        # The ratio profile counts / counts[0], compared by cross-multiplying.
        if first is None:
            first = counts
        elif any(c * first[0] != f * counts[0] for c, f in zip(counts, first)):
            bound = False
            details.append(f"ratio profile changes at {sorted(p.lines)}")
            break
    if bound and d % m == 0:
        target = d // m
        candidates = [b for b, block in enumerate(blocks) if len(block) == target]
        good = [b for b in candidates
                if all(counts[b] * m == p.multiplicity for p, counts in cross_affine)]
        if not good:
            bound = False
            details.append(f"no block of size d/m={target} capturing 1/m of each point")
    bound = bound and in_range

    exact = True
    if m != r:
        exact = False
        details.append(f"m={m} != r={r}")
    once = [1] * r
    for p, counts in cross:
        if counts != once:
            exact = False
            details.append(f"cross point {sorted(p.lines)} not simple across blocks")
            break
    certificate_block = None
    if exact and in_range:
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
    """All partitions into m blocks of size d/m where every point of
    multiplicity >= 3 is either contained in one block or meets every block
    exactly once.

    Double points are not read, so a reported partition may cross at a
    double point and not be a net: the open false-net fault of ROADMAP.md
    item 1, kept as it is until that item lands.

    Exhaustive backtracking over line assignments with symmetry breaking
    (blocks are opened in order of their smallest line), so each net is
    produced exactly once up to block relabeling.  Each point keeps the
    labels of its assigned lines as a bitmask, with their count.
    """
    d = lattice.d
    if m < 3:
        raise ValueError("nets need at least 3 blocks")
    if d % m:
        raise ValueError(f"m={m} does not divide d={d}")
    _check_cap(d, cap)
    q = d // m
    sigma = lattice.sigma()
    through: list[list[int]] = [[] for _ in range(d)]
    for s_idx, p in enumerate(sigma):
        for i in p.lines:
            through[i].append(s_idx)
    # Per point of sigma: whether its lines may all lie in one block, whether
    # they may meet every block once, and the labels (a bitmask) and count
    # of its lines assigned so far.
    inside = [p.multiplicity <= q for p in sigma]
    across = [p.multiplicity == m for p in sigma]
    seen = [0] * len(sigma)
    count = [0] * len(sigma)

    labels = [-1] * d
    sizes = [0] * m
    results: list[PartitionPhi] = []

    def assign(line: int, used: int):
        if line == d:
            results.append(PartitionPhi(tuple(labels)))
            return
        points = through[line]
        for b in range(min(used + 1, m)):
            if sizes[b] == q:
                continue
            bit = 1 << b
            # A line labelled ``bit`` may join each of its points: the
            # point's lines must stay in one block or head to one line per
            # block.  Mixed repeats are neither.
            for s in points:
                n = count[s]
                if not n:
                    continue
                mask = seen[s]
                if mask == bit:
                    if not inside[s]:
                        break
                elif mask & bit or mask.bit_count() != n or not across[s]:
                    break
            else:
                labels[line] = b
                sizes[b] += 1
                for s in points:
                    seen[s] |= bit
                    count[s] += 1
                assign(line + 1, max(used, b + 1))
                for s in points:
                    count[s] -= 1
                    # The label stays while another line of the point has it,
                    # which a fitting line leaves only in a one-block point.
                    if not count[s]:
                        seen[s] = 0
                    elif seen[s] != bit:
                        seen[s] ^= bit
                sizes[b] -= 1

    assign(0, 0)
    return results
