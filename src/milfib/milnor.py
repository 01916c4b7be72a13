"""The non-combinatorial route: eigenspace dimensions from jet evaluation.

For each eigenvalue index k (lambda = exp(2*pi*i*k/d)), the two graded
Hodge pieces of the first Milnor fiber cohomology are cokernel dimensions
of evaluation maps: homogeneous polynomials of degree k-3 are Taylor
expanded at the multiple points of the arrangement and truncated at orders
read off the multiplier ideals of the point configuration.  At a multiple
point y with c = m_y*k/d, the outer-ideal conditions C are the jets of
degree <= ceil(c) - 3 and, where c is an integer, the graded layer F is the
jets of degree c - 2.  The unconstrained map from all of C[X]_{k-3} keeps
the jets of degree <= floor(c) - 2: the outer rows when c is not an
integer, the outer rows plus the graded rows when it is, so its matrix is
[C; F] with the rows reordered.  The ideal-constrained map F.N, N a kernel
basis of C, is never formed, since rank(F.N) = rank[C; F] - rank C:

    unconstrained cokernel:  rows(C) + rows(F) - rank[C; F],
    constrained cokernel:    rows(F) - rank[C; F] + rank C.

They differ by rows(C) - rank C, so their agreement, checked and reported
as an invariant violation, never expected, says that the outer-ideal
conditions are linearly independent.

:func:`cokernel_dims` takes each rank with :func:`linalg.certified_rank`.
The jet rows are built in integral homogeneous form.  At a point with
coordinates (X, U, V) in chart x, integral over Z[zeta] (power-basis int
tuples: the entries of the point's projective key as the lattice stores
it, so no coordinate is built as a CycloNumber), the coefficient of u^i v^j
in the Taylor expansion of the monomial x^{a_x} u^{a_u} v^{a_v} of degree
deg is

    C(a_u,i) C(a_v,j) (U/X)^{a_u-i} (V/X)^{a_v-j},

and row (i, j) is taken times X^{deg-i-j}, which leaves

    C(a_u,i) C(a_v,j) U^{a_u-i} V^{a_v-j} X^{a_x},

with no inverse.  Multiplying the rows by nonzero scalars, a diagonal
matrix on the left, changes neither the rank nor the right kernel, so every
cokernel is that of the chart-coordinate matrix.  Only images of these
integral rows are built, never the rows over Z[zeta].  What does not depend
on k is built once per arrangement in a :class:`JetContext`: the keys in
chart order, one Pascal table, and the power tables of X, U and V up to
degree d - 4, over F_p from X, U and V reduced once per prime and root.  A
prime with X = 0 mod p at a point with jets at k is skipped for that k.  A
rank read mod p is used only when it is full (min(rows, cols)) or its
lifted kernel satisfies M x = 0 exactly on the integral rows over Z[zeta],
checked on their image in Z/Phi_n(2^K) (:meth:`JetContext.bound` bounds
their entries); otherwise the next prime of the stream decides, and some
prime does (``linalg``).  So every number reported is exact.  ``jet_matrix`` and
``ideal_basis`` in tests/helpers.py build the same maps exactly over
Q(zeta) in the chart coordinates U/X and V/X, the unconstrained one from
its own truncated-jet layout, and serve as the reference for tests.

The piece of Hodge level one at k is the level-zero piece at d-k, so one
report per k combines the two cokernels and their sum b_1.  A full spectrum
takes them only at the k the vanishing criterion leaves open; :func:`grf_dims`
takes them at any k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

# `build_lattice`, `rank` and `nullspace` are not called here;
# perfbench/tracing.py wraps them by name, as tests/test_bench_hooks.py checks.
from .arrangement import (Arrangement, IncidenceLattice, InvariantViolation,
                          build_lattice)
from .cyclotomic import reduction_norms
from .linalg import _PRIME_BITS, certified_rank, nullspace, rank, reduce_mod
from . import resonance


def monomial_basis(deg: int) -> list[tuple[int, int, int]]:
    """All exponent triples (a, b, c) with a+b+c = deg, lexicographic order."""
    if deg < 0:
        return []
    return [(a, b, deg - a - b)
            for a in range(deg + 1) for b in range(deg - a + 1)]


def ideal_order(m_y: int, k: int, d: int) -> int:
    """Sections of the outer ideal vanish to order ceil(m_y*k/d) - 2 at y."""
    return -((-m_y * k) // d) - 2


def _jet_monomials(order: int) -> list[tuple[int, int]]:
    """Local monomials u^a v^b with a+b < order, by total degree then u-power."""
    return [(i, s - i) for s in range(order) for i in range(s, -1, -1)]


def _layouts(lattice: IncidenceLattice, k: int):
    """Rows of the jet maps at k, as lists of (point index, [(i, j)]): the
    outer-ideal conditions C, and the graded jet layer F at the points where
    m_y*k/d is an integer.  The unconstrained map's rows are C plus F."""
    d = lattice.d
    outer, graded = [], []
    for idx in lattice.sigma_index:
        m = lattice.points[idx].multiplicity
        s = ideal_order(m, k, d)
        if s >= 1:
            outer.append((idx, _jet_monomials(s)))
        level = (m * k) // d - 2
        if (m * k) % d == 0 and level >= 0:
            graded.append((idx, [(i, level - i) for i in range(level, -1, -1)]))
    return outer, graded


def _integral_points(lattice: IncidenceLattice, chart_of: dict[int, int]) -> dict:
    """Per point of multiplicity >= 3: (chart, u index, v index, (X, U, V)),
    with (X, U, V) the entries of its projective key, integral coordinates
    over Z[zeta] (power-basis int tuples), in chart order."""
    points = {}
    for idx, chart in chart_of.items():
        key = lattice.points[idx].point.key()
        if not any(key[chart]):
            raise ValueError("chart coordinate vanishes at the point")
        u_idx, v_idx = [i for i in range(3) if i != chart]
        points[idx] = (chart, u_idx, v_idx, (key[chart], key[u_idx], key[v_idx]))
    return points


def _power_table(x, u, v, deg: int, p: int) -> tuple[list, list]:
    """(uv, xs) with uv[a][b] = u^a * v^b for a + b <= deg and xs[c] = x^c
    for c <= deg, in Z/p."""
    powers = []
    for y in (u, v, x):
        row = [1]
        for _ in range(deg):
            row.append(row[-1] * y % p)
        powers.append(row)
    pu, pv, px = powers
    return [[pu[a] * pv[b] % p for b in range(deg + 1 - a)] for a in range(deg + 1)], px


def _taylor_rows(layout, basis, tables, pascal, p: int) -> list[list]:
    """Row (y, i, j), column x^{a_x} u^{a_u} v^{a_v} in the chart x of y: the
    entry C(a_u,i) C(a_v,j) U^{a_u-i} V^{a_v-j} X^{a_x} in Z/p, the
    coefficient of u^i v^j in the Taylor expansion at y times X^{deg-i-j},
    with pascal[n][i] = C(n, i)."""
    rows = []
    for idx, jets in layout:
        chart, u_idx, v_idx, (uv, xs) = tables[idx]
        exponents = [(m[chart], m[u_idx], m[v_idx]) for m in basis]
        for i, j in jets:
            rows.append([uv[au - i][av - j] * xs[ax] * (pascal[au][i] * pascal[av][j]) % p
                         if au >= i and av >= j else 0 for ax, au, av in exponents])
    return rows


def _charts_for(lattice: IncidenceLattice, charts) -> dict[int, int]:
    """Chart per sigma-point index; default is the last nonzero coordinate,
    read off the point's key."""
    chosen = {}
    for idx in lattice.sigma_index:
        if charts is not None and idx in charts:
            chosen[idx] = charts[idx]
        else:
            key = lattice.points[idx].point.key()
            chosen[idx] = max(i for i in range(3) if any(key[i]))
    return chosen


class JetContext:
    """What the jet maps of one arrangement share over every k: the charts,
    the integral coordinates of every point of multiplicity >= 3 (its
    projective key, as the lattice stores it), one Pascal table up to
    degree d - 4 (the largest k - 3) and, built on first use, the power
    tables of each point up to that degree over F_p for each field prime p
    and root, its coordinates reduced once per (p, root)."""

    def __init__(self, arr: Arrangement, lattice: IncidenceLattice, charts=None):
        self.order = arr.field_order
        self.degree = lattice.d - 4
        self.points = _integral_points(lattice, _charts_for(lattice, charts))
        self.pascal = [[comb(n, i) for i in range(n + 1)]
                       for n in range(self.degree + 1)]
        self._tables = {}

    def _table(self, idx: int, p: int, root: int, deg: int):
        """(chart, u index, v index, (uv, xs)) at point idx in Z/p under
        zeta -> root: the :func:`_power_table` of its reduced (X, U, V), None
        when X is 0 mod p.  It depends on (idx, p, root) alone: below 2^30,
        as every field prime is, it is built up to degree d - 4 and kept;
        for the larger ring of one kernel check, up to ``deg`` and dropped."""
        key = (idx, p, root)
        if key in self._tables:
            return self._tables[key]
        chart, u_idx, v_idx, xuv = self.points[idx]
        x, u, v = (reduce_mod(c, p, root) for c in xuv)
        field = p < 1 << _PRIME_BITS
        table = (chart, u_idx, v_idx, _power_table(
            x, u, v, self.degree if field else deg, p)) if x else None
        if field:
            self._tables[key] = table
        return table

    def rows(self, layout, basis, p: int, root: int) -> list[list] | None:
        """The integral jet rows of ``layout`` on the monomials ``basis`` in
        Z/p under zeta -> root, for a field prime p or the modulus q of a
        kernel check; None when X is 0 mod p at a point of the layout."""
        deg, points = max(map(sum, basis), default=0), {idx for idx, _ in layout}
        tables = {idx: self._table(idx, p, root, deg) for idx in points}
        if None in tables.values():
            return None
        return _taylor_rows(layout, basis, tables, self.pascal, p)

    def bound(self, deg: int) -> int:
        """A = C(deg, floor(deg/2))^2 * rho_1^(deg-1) * N^deg, N the largest
        power-basis 1-norm of a point's X, U or V: an entry of the integral
        rows of degree ``deg`` is two binomials times at most deg such
        factors, so its 1-norm is at most A (``cyclotomic.reduction_norms``)."""
        norm = max(sum(map(abs, c)) for *_, xuv in self.points.values() for c in xuv)
        rho_1 = reduction_norms(self.order)[0]
        return comb(deg, deg // 2) ** 2 * rho_1 ** max(deg - 1, 0) * norm ** deg


def _row_count(layout) -> int:
    return sum(len(jets) for _, jets in layout)


def cokernel_dims(arr: Arrangement, lattice: IncidenceLattice, k: int,
                  charts=None, jets: JetContext | None = None) -> tuple[int, int]:
    """(cokernel of the unconstrained map, cokernel of the ideal-constrained map),
    from the :func:`linalg.certified_rank` over F_p of [C; F] and of C, as in
    the module docstring.  Rank C needs a call of its own only when F has
    rows and the rows of [C; F] are dependent: independent rows of [C; F]
    make those of C independent, so rank C = rows(C).

    The two numbers differ by rows(C) - rank C, and are equal when the
    outer-ideal conditions are independent; callers that want a failure
    recorded rather than raised compare them here.  ``jets``, the
    :class:`JetContext` of the arrangement in ``charts``, is built here
    unless a caller that takes several k passes one.
    """
    if jets is None:
        jets = JetContext(arr, lattice, charts)
    outer, graded = _layouts(lattice, k)
    basis = monomial_basis(k - 3)

    def certified(layout) -> int:
        return certified_rank(
            (_row_count(layout), len(basis)), jets.order,
            lambda p, root: jets.rows(layout, basis, p, root),
            lambda: jets.bound(k - 3)).rank

    full = certified(outer + graded)
    rows_c, rows_f = _row_count(outer), _row_count(graded)
    if full == rows_c + rows_f:
        r_c = rows_c
    else:
        r_c = certified(outer) if graded else full
    return rows_c + rows_f - full, rows_f - (full - r_c)


def grf_dims(arr: Arrangement, lattice: IncidenceLattice, k: int,
             charts=None) -> tuple[int, int]:
    """(dim Gr_F^0, dim Gr_F^1) of the eigenspace at lambda = exp(2*pi*i*k/d)."""
    d = lattice.d
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must be in [1, {d - 1}], got {k}")
    jets = JetContext(arr, lattice, charts)
    return (_agreed(k, *cokernel_dims(arr, lattice, k, jets=jets)),
            _agreed(d - k, *cokernel_dims(arr, lattice, d - k, jets=jets)))


def _agreed(k: int, tilde: int, constrained: int) -> int:
    """The cokernel both evaluation maps give at k; raises if they differ."""
    if tilde != constrained:
        raise InvariantViolation(
            f"cokernel mismatch at k={k}: unconstrained {tilde} != constrained "
            f"{constrained}")
    return tilde


def precheck_vanishing(lattice: IncidenceLattice, k: int) -> tuple[bool, bool]:
    """(some multiple point has lambda^{m_y} = 1, every line contains one).

    If either is False the eigenspace vanishes (Libgober), and a full
    spectrum takes no cokernel at k.
    """
    d = lattice.d
    sigma_k = lattice.sigma_k(k)
    has_point = bool(sigma_k)
    covered = set()
    for p in sigma_k:
        covered.update(p.lines)
    every_line = len(covered) == d
    return has_point, every_line


@dataclass(frozen=True)
class EigenReport:
    """Everything computed for one eigenvalue lambda = exp(2*pi*i*k/d)."""

    k: int
    k_conj: int
    lambda_exponent: str
    sigma_k_size: int
    precheck_point: bool
    precheck_lines: bool
    grf0: int
    grf1: int
    b1: int
    aomoto: int | None = None
    aomoto_certificate: dict | None = None

    def as_dict(self) -> dict:
        return {"k": self.k, "k_conj": self.k_conj,
                "lambda_exponent": self.lambda_exponent,
                "sigma_k_size": self.sigma_k_size,
                "precheck_point": self.precheck_point,
                "precheck_lines": self.precheck_lines,
                "grf0": self.grf0, "grf1": self.grf1, "b1": self.b1,
                "aomoto": self.aomoto,
                "aomoto_certificate": self.aomoto_certificate}


def _lambda_exponent(k: int, d: int) -> str:
    g = gcd(k, d)
    return f"{k // g}/{d // g}"


def residue_searches(lattice: IncidenceLattice,
                     cap: int = resonance.DEFAULT_SEARCH_CAP) -> dict:
    """The residue-subset search result (or None) for every k <= d/2; empty
    when d exceeds the search cap, which the caller reports as a skip."""
    if lattice.d > cap:
        return {}
    return {k: resonance.search_residue_subset(lattice, k, cap=cap)
            for k in range(1, lattice.d // 2 + 1)}


def spectrum_with_checks(arr: Arrangement, lattice: IncidenceLattice,
                         searches: dict, dist: int | None = None):
    """All per-k reports plus the raw cokernel agreement records.

    Cokernels are taken only at the open k, where both values of
    :func:`precheck_vanishing` hold; elsewhere grf0 = grf1 = 0 by the
    vanishing criterion.  sigma_k(k) = sigma_k(d-k), so the open k are
    closed under k -> d-k.  The :class:`JetContext` is built only if needed.

    ``searches`` is a :func:`residue_searches` result; {} leaves the Aomoto
    route out.  The first subset passing the residue check at each low k is
    resolved to the (k, I) the Aomoto computation should actually use: the
    branch avoiding negative integers routes through d-k and the
    complementary subset.  Returns (reports, agreements) where agreements is
    a list of (k, unconstrained cokernel, constrained cokernel) triples, one
    per open k.
    """
    d = lattice.d
    prechecks = {k: precheck_vanishing(lattice, k) for k in range(1, d)}
    open_k = [k for k in range(1, d) if all(prechecks[k])]
    jets = JetContext(arr, lattice) if open_k else None
    agreements = [(k, *cokernel_dims(arr, lattice, k, jets=jets)) for k in open_k]
    cokernel = {k: tilde for k, tilde, _ in agreements}
    aomoto = {}
    for low, found in searches.items():
        if found is None:
            continue
        I, verdict = found
        k_eff, I_eff = low, I
        if verdict.branch != "avoids_positive":
            k_eff, I_eff = d - low, frozenset(range(d)) - I
        weights = resonance.weights_from_kI(d, k_eff, I_eff)
        aomoto[low] = (resonance.aomoto_h1(lattice, weights, dist),
                       {"searched_k": low, "k": k_eff, "I": sorted(I_eff),
                        "branch": verdict.branch})
    reports = []
    for k in range(1, d):
        pre_point, pre_lines = prechecks[k]
        grf0, grf1 = cokernel.get(k, 0), cokernel.get(d - k, 0)
        value, certificate = aomoto.get(min(k, d - k), (None, None))
        reports.append(EigenReport(
            k=k, k_conj=d - k, lambda_exponent=_lambda_exponent(k, d),
            sigma_k_size=len(lattice.sigma_k(k)),
            precheck_point=pre_point, precheck_lines=pre_lines,
            grf0=grf0, grf1=grf1, b1=grf0 + grf1,
            aomoto=value, aomoto_certificate=certificate))
    return reports, agreements


def full_spectrum(arr: Arrangement, lattice: IncidenceLattice) -> list[EigenReport]:
    """One EigenReport per k in [1, d-1]; raises InvariantViolation if the two
    cokernel computations disagree at an open k."""
    reports, agreements = spectrum_with_checks(arr, lattice,
                                               residue_searches(lattice))
    for agreement in agreements:
        _agreed(*agreement)
    return reports
