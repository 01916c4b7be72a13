"""Finite-abelian-group realization search for triple-point incidence data.

An arrangement whose multiple points are all triple points is encoded as a
0/1 incidence matrix M with one row per triple point.  A solution of
M x = 0 over a finite abelian group G with pairwise distinct components
x_i is a combinatorial realization certificate: labeling the lines by the
x_i reproduces every original triple point as a zero-sum label triple
(possibly along with new zero-sum triples, which are counted separately).
The geometric step of placing the labels on a cubic curve is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from .arrangement import IncidenceLattice
from .linalg import IntMatrix, solve_mod

DEFAULT_ENUM_CAP = 10 ** 6


@dataclass(frozen=True)
class IncidenceSystem:
    """Triple-point incidence rows of an arrangement with all m_y = 3."""

    d: int
    rows: tuple

    def matrix(self) -> IntMatrix:
        data = []
        for triple in self.rows:
            row = [0] * self.d
            for i in triple:
                row[i] = 1
            data.append(row)
        return IntMatrix.from_rows(data, cols=self.d)

    @property
    def q(self) -> int:
        return len(self.rows)


def incidence_from_lattice(lattice: IncidenceLattice) -> IncidenceSystem:
    """One row per triple point; any higher multiplicity is rejected."""
    rows = []
    for p in lattice.points:
        if p.multiplicity < 3:
            continue
        if p.multiplicity > 3:
            raise ValueError(
                f"point {p.point} has multiplicity {p.multiplicity} > 3; the "
                f"group-realization encoding only covers triple points")
        rows.append(frozenset(p.lines))
    return IncidenceSystem(d=lattice.d, rows=tuple(rows))


def _group_add(a, b, moduli):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def _group_zero(moduli):
    return tuple(0 for _ in moduli)


def enumerate_kernel(system: IncidenceSystem, moduli,
                     cap: int = DEFAULT_ENUM_CAP):
    """All solutions of M x = 0 over (prod Z/a)^d, deterministically ordered.

    Returns (vectors, truncated).  Vectors are tuples of group elements; the
    group is closed under addition so the kernel is grown by breadth-first
    closure over the Smith-form generators, capped at ``cap`` elements.
    """
    moduli = list(moduli)
    gens = solve_mod(system.matrix(), moduli)
    zero = tuple(_group_zero(moduli) for _ in range(system.d))
    elements = {zero}
    frontier = [zero]
    truncated = False
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = tuple(_group_add(x, y, moduli) for x, y in zip(current, g))
            if nxt not in elements:
                if len(elements) >= cap:
                    truncated = True
                    frontier = []
                    break
                elements.add(nxt)
                frontier.append(nxt)
    return sorted(elements), truncated


@dataclass(frozen=True)
class RealizationCandidate:
    """A distinct-entry kernel vector with its induced triple-point counts."""

    moduli: tuple
    vector: tuple
    induced_triples: int
    new_triples: int


@dataclass(frozen=True)
class RealizationSearch:
    candidates: tuple
    kernel_size: int
    truncated: bool


def _zero_sum_triples(vector, moduli):
    zero = _group_zero(moduli)
    found = []
    for i, j, l in combinations(range(len(vector)), 3):
        total = _group_add(_group_add(vector[i], vector[j], moduli),
                           vector[l], moduli)
        if total == zero:
            found.append(frozenset((i, j, l)))
    return found


def search_realizations(system: IncidenceSystem, moduli,
                        cap: int = DEFAULT_ENUM_CAP) -> RealizationSearch:
    """Kernel vectors with pairwise distinct entries, with triple counts.

    induced_triples counts every zero-sum 3-subset of labels; the original
    rows are always among them, so new_triples = induced - q >= 0.
    """
    moduli = tuple(int(a) for a in moduli)
    if not moduli or any(a < 2 for a in moduli):
        raise ValueError("moduli must be a nonempty list of integers >= 2")
    vectors, truncated = enumerate_kernel(system, moduli, cap)
    candidates = []
    for vec in vectors:
        if all(x == _group_zero(moduli) for x in vec):
            continue
        if len(set(vec)) != len(vec):
            continue
        induced = len(_zero_sum_triples(vec, moduli))
        candidates.append(RealizationCandidate(
            moduli=moduli, vector=vec,
            induced_triples=induced, new_triples=induced - system.q))
    return RealizationSearch(candidates=tuple(candidates),
                             kernel_size=len(vectors), truncated=truncated)


def annotate_membership(system: IncidenceSystem, vector, moduli) -> dict:
    """Label each zero-sum 3-subset of the vector "original" or "new"."""
    moduli = tuple(int(a) for a in moduli)
    zero = _group_zero(moduli)
    for triple in system.rows:
        total = zero
        for i in triple:
            total = _group_add(total, vector[i], moduli)
        if total != zero:
            raise ValueError(
                f"vector is not a kernel element: row {sorted(triple)} sums to {total}")
    original = set(system.rows)
    return {triple: ("original" if triple in original else "new")
            for triple in _zero_sum_triples(vector, moduli)}


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


def as_plain_vector(vector, moduli):
    """Single-modulus vectors rendered as plain ints, else tuples."""
    if len(moduli) == 1:
        return [entry[0] for entry in vector]
    return [list(entry) for entry in vector]


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
