"""Finite-abelian-group realization search for triple-point incidence data.

An arrangement whose multiple points are all triple points is encoded as a
0/1 incidence matrix M with one row per triple point.  A solution of
M x = 0 over a finite abelian group G with pairwise distinct components
x_i is a combinatorial realization certificate: labeling the lines by the
x_i reproduces every original triple point as a zero-sum label triple
(possibly along with new zero-sum triples, which are counted separately).
The geometric step of placing the labels on a cubic curve is out of scope.

The kernel of M over G^d is the direct product of the cyclic groups spanned
by its Smith-form generators, so its size is known before any vector is
built: a kernel above the enumeration cap is refused, not truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

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
    for p in lattice.sigma():
        if p.multiplicity > 3:
            raise ValueError(
                f"point {p.point} has multiplicity {p.multiplicity} > 3; the "
                f"group-realization encoding only covers triple points")
        rows.append(frozenset(p.lines))
    return IncidenceSystem(d=lattice.d, rows=tuple(rows))


def _group_add(a, b, moduli):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def _kernel_generators(system: IncidenceSystem, moduli: tuple, cap: int):
    """The Smith-form generators of the kernel and its size, the product of
    their orders; a size above ``cap`` is refused (ValueError)."""
    gens = solve_mod(system.matrix(), moduli)
    size = prod(order for _, order in gens)
    if size > cap:
        raise ValueError(f"the kernel has {size} elements, more than the "
                         f"enumeration cap {cap}")
    return gens, size


def enumerate_kernel(system: IncidenceSystem, moduli,
                     cap: int = DEFAULT_ENUM_CAP):
    """Yield each solution of M x = 0 over (prod Z/a)^d once, as a tuple of
    group elements, by running through the multiples of every Smith-form
    generator.  Their orders multiply to the kernel size, which is checked
    against ``cap`` (ValueError) before the first vector is built."""
    moduli = tuple(moduli)
    gens, _ = _kernel_generators(system, moduli, cap)

    def span(base, rest):
        if not rest:
            yield base
            return
        g, order = rest[0]
        for _ in range(order):
            yield from span(base, rest[1:])
            base = tuple(_group_add(x, y, moduli) for x, y in zip(base, g))

    yield from span(((0,) * len(moduli),) * system.d, gens)


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


def _zero_sum_triples(vector, moduli) -> int:
    """The number of 3-subsets of the pairwise distinct labels that sum to
    zero: for each pair i < j, the label -(v_i + v_j) at an index above j."""
    index = {label: t for t, label in enumerate(vector)}
    count = 0
    for i, j in combinations(range(len(vector)), 2):
        third = tuple(-(x + y) % m for x, y, m in zip(vector[i], vector[j], moduli))
        if index.get(third, -1) > j:
            count += 1
    return count


def search_realizations(system: IncidenceSystem, moduli,
                        cap: int = DEFAULT_ENUM_CAP) -> RealizationSearch:
    """Kernel vectors with pairwise distinct entries, sorted, with triple
    counts; a kernel of more than ``cap`` elements is refused (ValueError).

    induced_triples counts every zero-sum 3-subset of labels; the original
    rows are always among them, so new_triples = induced - q >= 0.  A group
    of fewer than d elements has no d distinct labels, so its kernel is
    counted, not walked.
    """
    moduli = tuple(int(a) for a in moduli)
    if prod(moduli) < system.d:
        _, size = _kernel_generators(system, moduli, cap)
        return RealizationSearch(candidates=(), kernel_size=size)
    kernel_size = 0
    distinct = []
    for vec in enumerate_kernel(system, moduli, cap):
        kernel_size += 1
        if len(set(vec)) == len(vec):
            distinct.append(vec)
    candidates = []
    for vec in sorted(distinct):
        induced = _zero_sum_triples(vec, moduli)
        candidates.append(RealizationCandidate(
            moduli=moduli, vector=vec,
            induced_triples=induced, new_triples=induced - system.q))
    return RealizationSearch(candidates=tuple(candidates),
                             kernel_size=kernel_size)


def as_plain_vector(vector, moduli):
    """Single-modulus vectors rendered as plain ints, else tuples."""
    if len(moduli) == 1:
        return [entry[0] for entry in vector]
    return [list(entry) for entry in vector]

