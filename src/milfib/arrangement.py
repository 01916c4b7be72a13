"""Projective line arrangements over Q(zeta_n) and their incidence lattices.

An arrangement is a list of distinct lines in P^2 that is essential (the
coefficient vectors span a 3-dimensional space).  The lattice records every
pairwise intersection point together with the full set of incident lines,
which at rank <= 2 is all the combinatorial data the rest of the package
needs.  Arrangements of central hyperplanes in C^n with n > 3 are reduced to
the plane case by a certified generic 2-plane section.

Lines and points have one stored form from the input to the jet rows, the
integral projective key of :class:`_Projective`.  Every line is made from an
integral vector over Z[zeta_n] (:meth:`_Projective._of_vector`), read off
the ints and Fractions of the input without building a CycloNumber.
Duplicate lines are found by hashing keys; essentiality is one determinant
test, :func:`_essential`; and the lattice is built from the keys.

Points and codimension-2 flats are found the same way: two lines meet in one
point and two hyperplanes span one flat, so each is a class of pairs whose
wedges u ^ v are proportional.  :func:`pair_key` names that class exactly by
the projective key of the wedge, computed on integers over Z[zeta_n], and
:func:`_group_pairs` groups the pairs by key; a lattice point stores its key
as it is.

Line indices are 0-based throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import mul

from .cyclotomic import (CycloNumber, coefficients_from_json, euler_phi, field_order,
                         int_mul, integral_form, projective_key, rational_key)
# `rank` is not called here; perfbench/tracing.py wraps it by name, as
# tests/test_bench_hooks.py checks.
from .linalg import rank

# The zero every normalized coordinate shares, so that CycloNumber takes it
# as it is instead of building a Fraction per zero entry.
_ZERO = Fraction(0)


class ArrangementError(ValueError):
    """Invalid arrangement input (duplicate lines, non-essential, bad names)."""


class GenericityError(RuntimeError):
    """A generic plane section could not be certified within the retry budget."""


class InvariantViolation(AssertionError):
    """A theorem-encoded internal check failed; indicates an implementation bug."""


class _Projective:
    """A point of P^2 or of its dual over Q(zeta_n), stored only as its
    :func:`~milfib.cyclotomic.projective_key`: power-basis int tuples over
    Z[zeta_n] whose nonzero entry at one end, the unit, is a positive
    rational integer (the first entry for a line, the last for a point).
    Equality and every layer read the key.  The normalized CycloNumber
    values, the key over its unit, are built on first read, for printing.
    """

    __slots__ = ("order", "_key", "_values")
    _step = 1   # -1 reverses a line's entries, so that its unit comes last

    def __init__(self, a, b, c, order: int | None = None):
        order = field_order((a, b, c), order)
        vector = integral_form([_power_basis(v, order) for v in (a, b, c)])
        self.order, self._key, self._values = order, self._key_of(vector, order), None

    @classmethod
    def _key_of(cls, vector, order: int):
        key = projective_key(vector[::cls._step], order)
        if key is None:
            raise ArrangementError("projective coordinates must not all vanish")
        return key[::cls._step]

    @classmethod
    def _of_vector(cls, vector, order: int):
        """The element through the integral vector ``vector``: three
        power-basis int tuples over Z[zeta_order], not all zero."""
        return cls._of_key(cls._key_of(vector, order), order)

    @classmethod
    def _of_key(cls, key, order: int):
        """The element whose key is ``key``, already canonical."""
        element = cls.__new__(cls)
        element.order, element._key, element._values = order, key, None
        return element

    def key(self):
        return self._key

    def _normalized(self) -> tuple:
        if self._values is None:
            unit = next(x[0] for x in self._key[::-self._step] if x[0])
            self._values = tuple(
                CycloNumber(self.order, tuple(Fraction(c, unit) if c else _ZERO for c in x))
                for x in self._key)
        return self._values

    def __eq__(self, other):
        return type(other) is type(self) and self.order == other.order \
            and self._key == other._key

    def to_json(self):
        return [v.to_json() for v in self._normalized()]


def _power_basis(value, order: int) -> tuple:
    """The power-basis coefficients of an int, a Fraction or a CycloNumber
    of order ``order``, read without building a CycloNumber."""
    if isinstance(value, CycloNumber):
        return value.coeffs
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return (value,) + (0,) * (euler_phi(order) - 1)


class ProjLine(_Projective):
    """The line a*x + b*y + c*z = 0; ``coeffs`` are scaled so the first
    nonzero coefficient is 1."""

    __slots__ = ()
    _step = -1
    coeffs = property(_Projective._normalized)

    def __repr__(self):
        a, b, c = self.coeffs
        return f"ProjLine({a}, {b}, {c})"


class ProjPoint(_Projective):
    """A point of P^2; ``coords`` are scaled so the last nonzero coordinate
    is 1."""

    __slots__ = ()
    coords = property(_Projective._normalized)

    def __repr__(self):
        x, y, z = self.coords
        return f"ProjPoint({x} : {y} : {z})"


class Arrangement:
    """d distinct lines in P^2 over Q(zeta_n), n the order they all share;
    reduced and essential by construction."""

    def __init__(self, lines, name: str = ""):
        self.lines = tuple(lines)
        if not self.lines:
            raise ArrangementError("an arrangement needs at least one line")
        orders = {line.order for line in self.lines}
        if len(orders) > 1:
            raise ArrangementError(f"lines over cyclotomic orders {sorted(orders)} "
                                   f"do not share a field")
        self.field_order = n = orders.pop()
        self.name = name
        seen = {}
        for i, line in enumerate(self.lines):
            first = seen.setdefault(line.key(), i)
            if first != i:
                raise ArrangementError(
                    f"duplicate line: index {first} and {i} coincide (not reduced)")
        if not _essential([line.key() for line in self.lines], n):
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
            vector = integral_form([coefficients_from_json(v, n) for v in coeffs])
            lines.append(ProjLine._of_vector(vector, n))
        return cls(lines, name=data.get("name", ""))


def hyperplanes_from_json(data: dict) -> list[list[CycloNumber]]:
    """The coefficient rows of a {"dimension", "hyperplanes"} input, each
    value read by :func:`~milfib.cyclotomic.coefficients_from_json`.  They
    stay CycloNumbers, which carry the input's field order to
    :func:`generic_section` even when every value is rational."""
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
    """One intersection point with its incident line index set I_y and its
    multiplicity m_y = |I_y|, stored when the point is made."""

    point: ProjPoint
    lines: frozenset
    multiplicity: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "multiplicity", len(self.lines))


@dataclass(frozen=True)
class IncidenceLattice:
    """All pairwise intersection points of an arrangement, with multiplicities.

    sigma_index holds the indices into ``points`` of the points of
    multiplicity >= 3, found once when the lattice is made; every search
    reads sigma from it instead of rescanning the points.
    """

    d: int
    points: tuple
    sigma_index: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma_index", tuple(
            idx for idx, p in enumerate(self.points) if p.multiplicity >= 3))

    def sigma(self) -> list[LatticePoint]:
        """Points of multiplicity >= 3."""
        return [self.points[idx] for idx in self.sigma_index]

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


# The cross product in ProjPoint's (x, y, z) order: x = b1*c2 - c1*b2, ...
_CROSS = ((1, 2), (2, 0), (0, 1))


def pair_key(u, v, minors, order: int):
    """The :func:`~milfib.cyclotomic.projective_key` of the wedge u ^ v, whose
    entries are the 2x2 minors (p, q) of the rows u, v (integral forms over
    Z[zeta_order]), or None when u and v are proportional.  Over Q (order
    1) the minors are int products, keyed by its order-1 path
    :func:`~milfib.cyclotomic.rational_key`."""
    if order == 1:
        return rational_key([u[p][0] * v[q][0] - u[q][0] * v[p][0] for p, q in minors])
    return projective_key(_wedge(u, v, minors, order), order)


def _wedge(u, v, minors, order: int) -> list:
    """The 2x2 minors (p, q) of the rows u, v over Z[zeta_order]."""
    return [tuple(x - y for x, y in zip(int_mul(u[p], v[q], order),
                                        int_mul(u[q], v[p], order)))
            for p, q in minors]


def _essential(keys, order: int) -> bool:
    """Whether the line keys span 3 dimensions over Q(zeta_order).

    The keys are distinct, so keys 0 and 1 are not proportional, and the
    span is 3-dimensional exactly when det(l_0, l_1, l_j), the dot product
    of l_j with the cross product l_0 x l_1, is nonzero for some j >= 2:
    one cross product, then one dot product per line until the first
    nonzero one, all over Z[zeta_order].
    """
    if len(keys) < 3:
        return False
    cross = _wedge(keys[0], keys[1], _CROSS, order)
    for l in keys[2:]:
        products = [int_mul(w, e, order) for w, e in zip(cross, l)]
        if any(map(sum, zip(*products))):
            return True
    return False


def _group_pairs(vectors, minors, order: int) -> dict:
    """The index sets of the pairs of ``vectors`` (integral forms over
    Z[zeta_order]) grouped by :func:`pair_key`.

    Every pair lies in exactly one group, so the pair-count identity
    sum C(m, 2) = C(d, 2) over the groups holds exactly when the pairs of
    each group form a clique; a failure indicates an arithmetic bug rather
    than bad input.
    """
    d = len(vectors)
    groups: dict = {}
    for i, j in combinations(range(d), 2):
        key = pair_key(vectors[i], vectors[j], minors, order)
        if key is None:
            raise ArrangementError(f"hyperplanes {i} and {j} coincide")
        groups.setdefault(key, set()).update((i, j))
    pair_count = sum(comb(len(group), 2) for group in groups.values())
    if pair_count != comb(d, 2):
        raise InvariantViolation(
            f"pair-count identity violated: {pair_count} != C({d},2)")
    return groups


def build_lattice(arr: Arrangement) -> IncidenceLattice:
    """All pairwise intersections, grouped exactly by point: I_y is the
    union of the pairs of lines that meet in y.

    The points are sorted by their normalized coordinates without building
    them: the last nonzero entry of each key is a positive rational integer,
    and scaled by L/last, L the lcm of those entries, the keys are integer
    vectors that compare as the coordinates do.
    """
    n = arr.field_order
    groups = _group_pairs([line.key() for line in arr.lines], _CROSS, n)
    lasts = [next(x[0] for x in reversed(key) if x[0]) for key in groups]
    scale = lcm(*lasts)
    ranked = []
    # One factor per key: a key has 3 phi(n) entries, so a division or a
    # dict lookup (which hashes the key) per entry costs phi(n) times more.
    for (key, lines), last in zip(groups.items(), lasts):
        factor = scale // last
        ranked.append((tuple(c * factor for x in key for c in x), key, lines))
    ranked.sort(key=lambda t: t[0])
    points = tuple(LatticePoint(ProjPoint._of_key(key, n), frozenset(lines))
                   for _, key, lines in ranked)
    return IncidenceLattice(arr.d, points)


# ---------------------------------------------------------------------------
# Generic plane section for central arrangements in C^n, n > 3.


@dataclass(frozen=True)
class SectionCertificate:
    """Witness that a random plane section preserved the rank-2 flat data."""

    seed: int
    attempts: int
    flat_index_sets: tuple


def _flats(rows, order: int) -> list[frozenset]:
    """Index sets of the codimension-2 flats of the central arrangement with
    integral rows ``rows`` over Z[zeta_order], sorted; rows that are
    proportional raise ArrangementError.

    The normals of the hyperplanes through a flat span a plane, spanned by
    any two of them, and two pairs span the same plane exactly when their
    wedges are proportional.
    """
    minors = list(combinations(range(len(rows[0])), 2))
    groups = _group_pairs(rows, minors, order)
    return sorted((frozenset(group) for group in groups.values()), key=sorted)


def _integral_rows(hyperplanes, order: int) -> list:
    """Each hyperplane's coefficients cleared of denominators: power-basis
    int tuples over Z[zeta_order], a nonzero multiple of the hyperplane."""
    return [integral_form([_power_basis(v, order) for v in h]) for h in hyperplanes]


def generic_section(hyperplanes, seed: int = 0, max_attempts: int = 32,
                    name: str = "section") -> tuple[Arrangement, SectionCertificate]:
    """Restrict a central essential arrangement in C^n (n > 3) to a random
    rational 2-plane in P^(n-1), certified to preserve the rank-2 flat data.

    The certificate, not the randomness, carries correctness: each draw is
    checked for (a) pairwise distinct restricted lines and (b) a bijection
    between rank-2 flats and section points preserving incident index sets.
    Failing draws are retried with fresh randomness from the same stream.

    The work is on ints: the hyperplanes' integral rows over Z[zeta_n] are
    made once and serve both the flats and every draw, and a draw's plane is
    three rows of rng.randint values, so each restricted line is three int
    dot products per power-basis coefficient, made into a line by
    :meth:`ProjLine._of_vector`.  A row is a nonzero multiple of its
    hyperplane, so the restricted lines are those of the hyperplanes.
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
    order = field_order(v for h in planes for v in h)
    rows = _integral_rows(planes, order)
    for i, row in enumerate(rows):
        if not any(map(any, row)):
            raise ArrangementError(f"hyperplane {i} is all zero")
    # Rank >= 3 is what a section to an essential P^2 arrangement needs; the
    # input may live in a proper subspace (e.g. reflection arrangements whose
    # normals are orthogonal to a fixed vector).  Distinct normals span 3 or
    # more dimensions exactly when they lie in at least two flats.
    flats = _flats(rows, order)
    if len(flats) < 2:
        raise ArrangementError(
            "hyperplane normals span less than 3 dimensions; no essential section")
    # columns[h][t]: the t-th power-basis coefficients of row h's n entries.
    columns = [list(zip(*row)) for row in rows]

    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        plane = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(3)]
        vectors = [tuple(tuple(sum(map(mul, p, column)) for column in cols) for p in plane)
                   for cols in columns]
        try:
            arr = Arrangement([ProjLine._of_vector(v, order) for v in vectors], name=name)
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
    return Arrangement(lines, name="ceva3")


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
    return Arrangement(lines, name="hesse")


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
