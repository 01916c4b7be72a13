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
from .linalg import solve_mod

DEFAULT_ENUM_CAP = 10 ** 6


@dataclass(frozen=True)
class IncidenceSystem:
    """Triple-point incidence rows of an arrangement with all m_y = 3."""

    d: int
    rows: tuple

    def matrix(self) -> list[list[int]]:
        """The 0/1 rows of M, one per triple point."""
        return [[int(i in triple) for i in range(self.d)] for triple in self.rows]

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
    gens = solve_mod(system.matrix(), system.d, moduli)
    size = prod(order for _, order in gens)
    if size > cap:
        raise ValueError(f"the kernel has {size} elements, more than the "
                         f"enumeration cap {cap}")
    return gens, size


def _span(gens, moduli: tuple, d: int):
    """A generator of each element of the direct product of the cyclic
    groups of the (generator, order) pairs, once, as a tuple of d group
    elements, by running through the multiples of every generator."""
    def walk(base, rest):
        if not rest:
            yield base
            return
        g, order = rest[0]
        for _ in range(order):
            yield from walk(base, rest[1:])
            base = tuple(_group_add(x, y, moduli) for x, y in zip(base, g))

    return walk(((0,) * len(moduli),) * d, gens)


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
    rows are always among them, so new_triples = induced - q >= 0.  The
    kernel size is the product of the Smith orders, and the kernel is walked
    only when the group has at least d elements: a smaller group has no d
    distinct labels.
    """
    moduli = tuple(int(a) for a in moduli)
    gens, kernel_size = _kernel_generators(system, moduli, cap)
    walk = _span(gens, moduli, system.d) if prod(moduli) >= system.d else ()
    candidates = []
    for vec in sorted(v for v in walk if len(set(v)) == len(v)):
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

