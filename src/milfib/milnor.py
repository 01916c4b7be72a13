"""The non-combinatorial route: eigenspace dimensions from jet evaluation.

For each eigenvalue index k (lambda = exp(2*pi*i*k/d)), the two graded
Hodge pieces of the first Milnor fiber cohomology are cokernel dimensions
of evaluation maps: homogeneous polynomials of degree k-3 are Taylor
expanded at the multiple points of the arrangement and truncated at orders
read off the multiplier ideals of the point configuration,

    vanishing order at y for the outer ideal:  ceil(m_y*k/d) - 2,
    truncation order at y for the quotient:    floor(m_y*k/d) - 1,

with nonpositive orders meaning "no condition".  Both the map from the
ideal-constrained subspace (restricted to points where m_y*k/d is an
integer) and the unconstrained map from all of C[X]_{k-3} are computed;
their cokernels must agree and the disagreement is reported as an
invariant violation, never expected.

:func:`cokernel_dims` takes each rank with :func:`linalg.certified_rank`:
the Taylor entries are built directly over F_p from chart coordinates
reduced once per prime and root, and a rank read mod p is used only when
it is full (min(rows, cols)) or its lifted kernel satisfies M x = 0 exactly
over Q(zeta); otherwise the next prime, and last exact elimination, decide.
The constrained map F.N (N a kernel basis of the outer-ideal conditions C,
F the graded jet layer) is never formed, because

    rank(F.N) = rank [C; F] - rank C.

So every number reported is exact.  ``jet_matrix`` and ``ideal_basis`` in
tests/helpers.py build the same maps exactly over Q(zeta), from the layouts
and charts used here, and serve as the reference for tests.

The piece of Hodge level one at k is the level-zero piece at d-k, so one
report per k combines the two cokernels and their sum b_1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb, gcd

# `build_lattice`, `rank` and `nullspace` are not called here;
# perfbench/tracing.py wraps them by name, as tests/test_bench_hooks.py checks.
from .arrangement import (Arrangement, IncidenceLattice, InvariantViolation,
                          build_lattice)
from .linalg import Matrix, certified_rank, nullspace, rank, reduce_mod
from . import resonance


def monomial_basis(deg: int) -> list[tuple[int, int, int]]:
    """All exponent triples (a, b, c) with a+b+c = deg, lexicographic order."""
    if deg < 0:
        return []
    return [(a, b, deg - a - b)
            for a in range(deg + 1) for b in range(deg - a + 1)]


def truncation_order(m_y: int, k: int, d: int) -> int:
    """Jets modulo vanishing order floor(m_y*k/d) - 1 survive at y."""
    return (m_y * k) // d - 1


def ideal_order(m_y: int, k: int, d: int) -> int:
    """Sections of the outer ideal vanish to order ceil(m_y*k/d) - 2 at y."""
    return -((-m_y * k) // d) - 2


def _jet_monomials(order: int) -> list[tuple[int, int]]:
    """Local monomials u^a v^b with a+b < order, by total degree then u-power."""
    return [(i, s - i) for s in range(order) for i in range(s, -1, -1)]


def _layouts(lattice: IncidenceLattice, k: int):
    """Rows of the three jet maps at k, as lists of (point index, [(i, j)]):
    the truncated jets of the unconstrained map, the outer-ideal conditions,
    and the graded jet layer at the points where m_y*k/d is an integer."""
    d = lattice.d
    tilde, outer, graded = [], [], []
    for idx, p in enumerate(lattice.points):
        m = p.multiplicity
        if m < 3:
            continue
        t = truncation_order(m, k, d)
        if t >= 1:
            tilde.append((idx, _jet_monomials(t)))
        s = ideal_order(m, k, d)
        if s >= 1:
            outer.append((idx, _jet_monomials(s)))
        level = (m * k) // d - 2
        if (m * k) % d == 0 and level >= 0:
            graded.append((idx, [(i, level - i) for i in range(level, -1, -1)]))
    return tilde, outer, graded


def _power_table(cu, cv, deg: int, p: int | None = None) -> list[list]:
    """table[a][b] = cu^a * cv^b for a + b <= deg, reduced mod p when given."""
    pu, pv = [1], [1]
    for _ in range(deg):
        pu.append(pu[-1] * cu if p is None else pu[-1] * cu % p)
        pv.append(pv[-1] * cv if p is None else pv[-1] * cv % p)
    return [[pu[a] * pv[b] if p is None else pu[a] * pv[b] % p
             for b in range(deg + 1 - a)] for a in range(deg + 1)]


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


def _modular_charts(lattice: IncidenceLattice, chart_of, deg: int, p: int,
                    root: int) -> dict | None:
    """The same chart data over F_p, zeta -> root, for every sigma-point;
    None when a coordinate has p in a denominator or the chart coordinate
    is 0 mod p."""
    charts = {}
    for idx, chart in chart_of.items():
        coords = lattice.points[idx].point.coords
        u_idx, v_idx = [i for i in range(3) if i != chart]
        x, u, v = (reduce_mod(coords[i], p, root) for i in (chart, u_idx, v_idx))
        if not x or u is None or v is None:
            return None
        inv = pow(x, -1, p)
        charts[idx] = (u_idx, v_idx, _power_table(u * inv % p, v * inv % p, deg, p))
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


def _charts_for(lattice: IncidenceLattice, charts) -> dict[int, int]:
    """Chart per sigma-point index; default is the largest nonzero coordinate."""
    chosen = {}
    for idx, p in enumerate(lattice.points):
        if p.multiplicity < 3:
            continue
        if charts is not None and idx in charts:
            chosen[idx] = charts[idx]
        else:
            chosen[idx] = max(i for i in range(3) if not p.point.coords[i].is_zero())
    return chosen


def _exact_matrix(arr: Arrangement, lattice: IncidenceLattice, chart_of, layout,
                  deg: int) -> Matrix:
    basis = monomial_basis(deg)
    rows = _taylor_rows(layout, basis,
                        _exact_charts(lattice, chart_of, layout, deg))
    return Matrix.from_rows(rows, cols=len(basis), order=arr.field_order)


def _row_count(layout) -> int:
    return sum(len(jets) for _, jets in layout)


def cokernel_dims(arr: Arrangement, lattice: IncidenceLattice, k: int,
                  charts=None) -> tuple[int, int]:
    """(cokernel of the unconstrained map, cokernel of the ideal-constrained map).

    The two numbers are equal when the implementation is correct; callers
    that want the failure recorded rather than raised compare them here.

    Every rank is a :func:`linalg.certified_rank` over F_p.  The constrained
    map F.N, with N a kernel basis of the outer-ideal conditions C and F the
    graded jet layer, is never formed: rank(F.N) = rank[C;F] - rank C.
    Chart coordinates are reduced once per prime and root within this call.
    """
    tilde, outer, graded = _layouts(lattice, k)
    deg = k - 3
    basis = monomial_basis(deg)
    chart_of = _charts_for(lattice, charts)
    reduced = {}

    def certified(layout) -> int:
        def modular(p, root):
            if (p, root) not in reduced:
                reduced[p, root] = _modular_charts(lattice, chart_of, deg, p, root)
            charts_p = reduced[p, root]
            if charts_p is None:
                return None
            return [[x % p for x in row]
                    for row in _taylor_rows(layout, basis, charts_p)]

        shape = (_row_count(layout), len(basis))
        return certified_rank(
            shape, arr.field_order, modular,
            lambda: _exact_matrix(arr, lattice, chart_of, layout, deg)).rank

    constrained_rank = certified(outer + graded) - certified(outer)
    return (_row_count(tilde) - certified(tilde),
            _row_count(graded) - constrained_rank)


def grf_dims(arr: Arrangement, lattice: IncidenceLattice, k: int,
             charts=None) -> tuple[int, int]:
    """(dim Gr_F^0, dim Gr_F^1) of the eigenspace at lambda = exp(2*pi*i*k/d)."""
    d = lattice.d
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must be in [1, d-1]; k=0 (lambda=1) is the "
                         f"unipotent part, outside this computation")
    return (_agreed(k, *cokernel_dims(arr, lattice, k, charts)),
            _agreed(d - k, *cokernel_dims(arr, lattice, d - k, charts)))


def _agreed(k: int, tilde: int, constrained: int) -> int:
    """The cokernel both evaluation maps give at k; raises if they differ."""
    if tilde != constrained:
        raise InvariantViolation(
            f"cokernel mismatch at k={k}: unconstrained {tilde} != constrained "
            f"{constrained}")
    return tilde


def precheck_vanishing(lattice: IncidenceLattice, k: int) -> tuple[bool, bool]:
    """(some multiple point has lambda^{m_y} = 1, every line contains one).

    If either is False the eigenspace must vanish, so any nonzero computed
    dimension is an invariant violation.
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
        return asdict(self)


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

    ``searches`` is a :func:`residue_searches` result; {} leaves the Aomoto
    route out.  The first subset passing the residue check at each low k is
    resolved to the (k, I) the Aomoto computation should actually use: the
    branch avoiding negative integers routes through d-k and the
    complementary subset.  Returns (reports, agreements) where agreements is
    a list of (k, unconstrained cokernel, constrained cokernel) triples.
    """
    d = lattice.d
    agreements = [(k, *cokernel_dims(arr, lattice, k)) for k in range(1, d)]
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
        pre_point, pre_lines = precheck_vanishing(lattice, k)
        grf0, grf1 = agreements[k - 1][1], agreements[d - k - 1][1]
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
    cokernel computations ever disagree."""
    reports, agreements = spectrum_with_checks(arr, lattice,
                                               residue_searches(lattice))
    for agreement in agreements:
        _agreed(*agreement)
    return reports
