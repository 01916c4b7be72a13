"""Projective line arrangements over Q(zeta_n) and their incidence lattices.

An arrangement is a list of distinct lines in P^2 that is essential (the
coefficient vectors span a 3-dimensional space).  The lattice records every
pairwise intersection point together with the full set of incident lines,
which at rank <= 2 is all the combinatorial data the rest of the package
needs.  Arrangements of central hyperplanes in C^n with n > 3 are reduced to
the plane case by a certified generic 2-plane section.

Line indices are 0-based throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .cyclotomic import CycloNumber, as_cyclo
from .linalg import Matrix, rank


class ArrangementError(ValueError):
    """Invalid arrangement input (duplicate lines, non-essential, bad names)."""


class GenericityError(RuntimeError):
    """A generic plane section could not be certified within the retry budget."""


class InvariantViolation(AssertionError):
    """A theorem-encoded internal check failed; indicates an implementation bug."""


def _normalize_triple(values, order, leading_first):
    values = [as_cyclo(v, order).lift(order) for v in values]
    if all(v.is_zero() for v in values):
        raise ArrangementError("projective coordinates must not all vanish")
    idx = next(i for i, v in enumerate(values) if v) if leading_first else \
        max(i for i, v in enumerate(values) if v)
    inv = values[idx].inverse()
    return tuple(v * inv for v in values)


class ProjLine:
    """The line a*x + b*y + c*z = 0, scaled so the first nonzero coefficient is 1."""

    __slots__ = ("order", "coeffs")

    def __init__(self, a, b, c, order: int = 1):
        n = order
        for v in (a, b, c):
            if isinstance(v, CycloNumber):
                n = lcm(n, v.order)
        self.order = n
        self.coeffs = _normalize_triple((a, b, c), n, leading_first=True)

    def lift(self, order: int) -> "ProjLine":
        a, b, c = (v.lift(order) for v in self.coeffs)
        return ProjLine(a, b, c, order)

    def key(self):
        return tuple(v.coeffs for v in self.coeffs)

    def contains(self, point: "ProjPoint") -> bool:
        a, b, c = self.coeffs
        x, y, z = point.coords
        return (a * x + b * y + c * z).is_zero()

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.order == other.order \
            and self.key() == other.key()

    def __repr__(self):
        a, b, c = self.coeffs
        return f"ProjLine({a}, {b}, {c})"

    def to_json(self):
        return [v.to_json() for v in self.coeffs]


class ProjPoint:
    """A point of P^2, scaled so the last nonzero coordinate is 1."""

    __slots__ = ("order", "coords")

    def __init__(self, x, y, z, order: int = 1):
        n = order
        for v in (x, y, z):
            if isinstance(v, CycloNumber):
                n = lcm(n, v.order)
        self.order = n
        self.coords = _normalize_triple((x, y, z), n, leading_first=False)

    def key(self):
        return tuple(v.coeffs for v in self.coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.order == other.order \
            and self.key() == other.key()

    def __repr__(self):
        x, y, z = self.coords
        return f"ProjPoint({x} : {y} : {z})"

    def to_json(self):
        return [v.to_json() for v in self.coords]


def line_intersection(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """Exact intersection point by 2x2 minors (cross product of coefficients)."""
    order = lcm(l1.order, l2.order)
    a1, b1, c1 = (v.lift(order) for v in l1.coeffs)
    a2, b2, c2 = (v.lift(order) for v in l2.coeffs)
    x = b1 * c2 - c1 * b2
    y = c1 * a2 - a1 * c2
    z = a1 * b2 - b1 * a2
    return ProjPoint(x, y, z, order)


class Arrangement:
    """d distinct lines in P^2 over Q(zeta_n); reduced and essential by construction."""

    def __init__(self, lines, name: str = "", order: int = 1):
        n = order
        lines = list(lines)
        if not lines:
            raise ArrangementError("an arrangement needs at least one line")
        for line in lines:
            n = lcm(n, line.order)
        self.field_order = n
        self.lines = tuple(line.lift(n) for line in lines)
        self.name = name
        seen = {}
        for i, line in enumerate(self.lines):
            k = line.key()
            if k in seen:
                raise ArrangementError(
                    f"duplicate line: index {seen[k]} and {i} coincide (not reduced)")
            seen[k] = i
        coeff_rows = [list(line.coeffs) for line in self.lines]
        if rank(Matrix.from_rows(coeff_rows, cols=3, order=n)) != 3:
            raise ArrangementError(
                "non-essential arrangement: line normals span less than 3 dimensions")

    @property
    def d(self) -> int:
        return len(self.lines)

    def __repr__(self):
        return f"Arrangement({self.name or 'unnamed'}, d={self.d}, order={self.field_order})"

    def to_json(self):
        return {
            "name": self.name,
            "cyclotomic_order": self.field_order,
            "lines": [line.to_json() for line in self.lines],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Arrangement":
        n = _json_count(data, "cyclotomic_order", 1)
        lines = []
        for coeffs in _json_array(data.get("lines"), "'lines'"):
            if len(_json_array(coeffs, "a line")) != 3:
                raise ArrangementError("each line needs exactly 3 coefficients")
            a, b, c = (CycloNumber.from_json(v, n) for v in coeffs)
            lines.append(ProjLine(a, b, c, n))
        return cls(lines, name=data.get("name", ""), order=n)


def hyperplanes_from_json(data: dict) -> list[list[CycloNumber]]:
    """The coefficient rows of a {"dimension", "hyperplanes"} input."""
    n = _json_count(data, "cyclotomic_order", 1)
    dim = _json_count(data, "dimension")
    hyperplanes = []
    for row in _json_array(data.get("hyperplanes"), "'hyperplanes'"):
        if len(_json_array(row, "a hyperplane")) != dim:
            raise ArrangementError("hyperplane coefficient count != dimension")
        hyperplanes.append([CycloNumber.from_json(v, n) for v in row])
    return hyperplanes


def _json_count(data: dict, key: str, default=None) -> int:
    """A positive integer field; floats, strings and booleans are rejected."""
    value = data.get(key, default)
    if type(value) is not int or value < 1:
        raise ArrangementError(f"{key!r} must be a positive integer, got {value!r}")
    return value


def _json_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ArrangementError(f"{what} must be a JSON array, got {value!r}")
    return value


@dataclass(frozen=True)
class LatticePoint:
    """One intersection point with its incident line index set I_y."""

    point: ProjPoint
    lines: frozenset

    @property
    def multiplicity(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class IncidenceLattice:
    """All pairwise intersection points of an arrangement, with multiplicities."""

    d: int
    points: tuple

    def sigma(self) -> list[LatticePoint]:
        """Points of multiplicity >= 3."""
        return [p for p in self.points if p.multiplicity >= 3]

    def doubles(self) -> list[LatticePoint]:
        return [p for p in self.points if p.multiplicity == 2]

    def sigma_k(self, k: int) -> list[LatticePoint]:
        """The subset of sigma where m_y * k / d is an integer."""
        return [p for p in self.sigma() if (p.multiplicity * k) % self.d == 0]

    def multiplicity_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for p in self.points:
            hist[p.multiplicity] = hist.get(p.multiplicity, 0) + 1
        return hist


def build_lattice(arr: Arrangement) -> IncidenceLattice:
    """All pairwise intersections, deduplicated exactly, with I_y recomputed.

    Raises if the pair-count identity sum C(m_y, 2) = C(d, 2) fails, which
    would indicate an arithmetic bug rather than bad input.
    """
    d = arr.d
    found: dict = {}
    for i in range(d):
        for j in range(i + 1, d):
            pt = line_intersection(arr.lines[i], arr.lines[j])
            key = pt.key()
            if key not in found:
                incident = frozenset(
                    idx for idx, line in enumerate(arr.lines) if line.contains(pt))
                found[key] = LatticePoint(pt, incident)
    points = tuple(sorted(found.values(), key=lambda p: p.point.key()))
    pair_count = sum(comb(p.multiplicity, 2) for p in points)
    if pair_count != comb(d, 2):
        raise InvariantViolation(
            f"pair-count identity violated: {pair_count} != C({d},2)")
    return IncidenceLattice(d, points)


# ---------------------------------------------------------------------------
# Generic plane section for central arrangements in C^n, n > 3.


@dataclass(frozen=True)
class SectionCertificate:
    """Witness that a random plane section preserved the rank-2 flat data."""

    seed: int
    attempts: int
    flat_index_sets: tuple


def _vector_rank(vectors, order):
    return rank(Matrix.from_rows([list(v) for v in vectors],
                                 cols=len(vectors[0]), order=order))


def rank2_flats(hyperplanes, order: int = 1) -> list[frozenset]:
    """Index sets of the codimension-2 flats of a central essential arrangement."""
    d = len(hyperplanes)
    flats = set()
    for i in range(d):
        for j in range(i + 1, d):
            members = [l for l in range(d)
                       if _vector_rank([hyperplanes[i], hyperplanes[j],
                                        hyperplanes[l]], order) <= 2]
            flats.add(frozenset(members))
    return sorted(flats, key=sorted)


def generic_section(hyperplanes, seed: int = 0, max_attempts: int = 32,
                    name: str = "section") -> tuple[Arrangement, SectionCertificate]:
    """Restrict a central essential arrangement in C^n (n > 3) to a random
    rational 2-plane in P^(n-1), certified to preserve the rank-2 flat data.

    The certificate, not the randomness, carries correctness: each draw is
    checked for (a) pairwise distinct restricted lines and (b) a bijection
    between rank-2 flats and section points preserving incident index sets.
    Failing draws are retried with fresh randomness from the same stream.
    """
    planes = [list(h) for h in hyperplanes]
    if not planes:
        raise ArrangementError("empty hyperplane list")
    n = len(planes[0])
    if any(len(h) != n for h in planes):
        raise ArrangementError("hyperplanes of inconsistent dimension")
    if n <= 3:
        raise ArrangementError(
            "generic_section needs ambient dimension > 3; use the lines directly")
    order = 1
    coerced = []
    for h in planes:
        row = [as_cyclo(v) for v in h]
        for v in row:
            order = lcm(order, v.order)
        coerced.append(row)
    coerced = [[v.lift(order) for v in row] for row in coerced]
    # Rank >= 3 is what a section to an essential P^2 arrangement needs; the
    # input may live in a proper subspace (e.g. reflection arrangements whose
    # normals are orthogonal to a fixed vector).
    if _vector_rank(coerced, order) < 3:
        raise ArrangementError(
            "hyperplane normals span less than 3 dimensions; no essential section")
    for i in range(len(coerced)):
        for j in range(i + 1, len(coerced)):
            if _vector_rank([coerced[i], coerced[j]], order) < 2:
                raise ArrangementError(f"hyperplanes {i} and {j} coincide")
    flats = rank2_flats(coerced, order)

    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        plane = [[Fraction(rng.randint(-1000, 1000)) for _ in range(n)]
                 for _ in range(3)]
        if _vector_rank(plane, 1) != 3:
            continue
        restricted = []
        for h in coerced:
            coeffs = []
            for row in plane:
                acc = CycloNumber.zero(order)
                for p, hv in zip(row, h):
                    acc = acc + hv * p
                coeffs.append(acc)
            restricted.append(coeffs)
        try:
            arr = Arrangement(
                [ProjLine(a, b, c, order) for a, b, c in restricted],
                name=name, order=order)
            lattice = build_lattice(arr)
        except ArrangementError:
            continue
        section_sets = sorted((p.lines for p in lattice.points), key=sorted)
        if section_sets == flats:
            cert = SectionCertificate(seed=seed, attempts=attempt,
                                      flat_index_sets=tuple(flats))
            return arr, cert
    raise GenericityError(
        f"genericity not achieved after {max_attempts} attempts (seed {seed})")


# ---------------------------------------------------------------------------
# Named arrangements used as regression fixtures.


def _rational_lines(triples, name):
    return Arrangement([ProjLine(*t) for t in triples], name=name)


def _braid():
    # xyz(x-y)(x-z)(y-z)
    return _rational_lines(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1),
         (1, -1, 0), (1, 0, -1), (0, 1, -1)], "braid")


def _pappus_dual():
    # xyz(x-y)(y-z)(x-y-z)(2x+y+z)(2x+y-z)(2x-5y+z)
    return _rational_lines(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1),
         (1, -1, 0), (0, 1, -1), (1, -1, -1),
         (2, 1, 1), (2, 1, -1), (2, -5, 1)], "pappus-dual")


def _ex_3_1_iii():
    # xyz(x+y)(y+z)(x+3z)(x+2y+z)(x+2y+3z)(2x+3y+3z)
    return _rational_lines(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1),
         (1, 1, 0), (0, 1, 1), (1, 0, 3),
         (1, 2, 1), (1, 2, 3), (2, 3, 3)], "ex-3-1-iii")


def _ceva3():
    # (x^3-y^3)(x^3-z^3)(y^3-z^3), factored into nine lines over Q(zeta_3)
    z = CycloNumber.zeta(3)
    zero = CycloNumber.zero(3)
    one = CycloNumber.one(3)
    powers = [one, z, z * z]
    lines = []
    for w in powers:
        lines.append(ProjLine(one, -w, zero, 3))
    for w in powers:
        lines.append(ProjLine(one, zero, -w, 3))
    for w in powers:
        lines.append(ProjLine(zero, one, -w, 3))
    return Arrangement(lines, name="ceva3", order=3)


def _hesse():
    # xyz * prod_{i,j=0..2} (t^i x + t^j y + z), t a primitive cube root of unity
    t = CycloNumber.zeta(3)
    zero = CycloNumber.zero(3)
    one = CycloNumber.one(3)
    powers = [one, t, t * t]
    lines = [ProjLine(one, zero, zero, 3),
             ProjLine(zero, one, zero, 3),
             ProjLine(zero, zero, one, 3)]
    for ti in powers:
        for tj in powers:
            lines.append(ProjLine(ti, tj, one, 3))
    return Arrangement(lines, name="hesse", order=3)


_NAMED = {
    "braid": _braid,
    "pappus-dual": _pappus_dual,
    "ex-3-1-iii": _ex_3_1_iii,
    "ceva3": _ceva3,
    "hesse": _hesse,
}


def named_arrangement(name: str) -> Arrangement:
    """One of the built-in fixture arrangements, lines in their defining order."""
    try:
        builder = _NAMED[name]
    except KeyError:
        valid = ", ".join(sorted(_NAMED))
        raise ArrangementError(f"unknown arrangement {name!r}; valid names: {valid}")
    return builder()


def named_arrangement_names() -> list[str]:
    return sorted(_NAMED)
