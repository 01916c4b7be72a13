"""Dense linear algebra over Q(zeta_n): one Gaussian elimination core over
Z, Z[zeta_n], F_p and exact fields, certified ranks, and integer Smith
normal form.

:func:`_echelon` is the only elimination, over four coefficient domains.
With ``p=None`` on ints, or on power-basis int tuples over Z[zeta_order],
it is fraction free: the pivot row is kept, and each row below becomes
``pv * row - row[c] * prow``.  Over Z that row is divided by the gcd of its
entries.  Over Z[zeta_n] (products by :func:`~milfib.cyclotomic.int_mul`
mod Phi_n) every waiting row is divided by the previous pivot, an exact
quotient (Bareiss): its entries are then minors of the input, so they grow
linearly, where division by the integer content alone lets them grow
exponentially.  Every step multiplies a row by a nonzero element of
Q(zeta_n), so the rank is exact with no prime and no certificate;
:func:`int_rank`, :func:`rank` (rows cleared of denominators) and the exact
fallback of :func:`certified_rank` use it.  On ints mod a prime ``p``, and on Fraction
or CycloNumber entries with ``p=None``, pivot rows are scaled to 1;
:func:`_kernel` back-substitutes to the reduced form and reads off one
kernel vector per free column.  The unit-pivot field mode serves only
:func:`nullspace`, the exact reference path.  The first nonzero entry of
each column is the pivot and updates touch only the tails right of it.
The reduced row echelon form and its pivot columns are unique, so
:func:`nullspace` and the modular kernels are reproducible.

:func:`certified_rank` takes the rank of a matrix over Q(zeta_n) from its
images over F_p, for word-size primes p = 1 mod n below 2^30 with zeta
sent to a root of Phi_n mod p: every residue is one CPython digit, as in
the word-size prime fields of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM
TOMS 2008).  The caller builds those images itself, so entries are never
formed as CycloNumber products.  A rank read off mod p is reported only
with a certificate:

* Every minor that is nonzero mod p is nonzero over Q(zeta), so
  rank_p <= rank.  A prime the caller cannot use (its ``modular`` returns
  None) is skipped.
* rank_p == min(rows, cols) settles the rank at once.
* Otherwise the cols - rank_p kernel vectors of the reduced echelon form,
  each 1 at its own free column and 0 at the other free columns, are lifted:
  their images under all phi(n) roots of Phi_n mod p, with the same pivots
  under every root, are interpolated to power-basis coordinates mod p,
  combined by CRT over the primes tried so far and rationally reconstructed.
  The lift certifies rank == rank_p only if M x = 0 holds exactly over
  Z[zeta] for every vector, on the matrix's integral rows: then the kernel
  has dimension >= cols - rank_p.
* After PRIME_BUDGET primes without a certificate the rank is taken by
  fraction-free elimination of those integral rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, NamedTuple

from .cyclotomic import (CycloNumber, conjugate_product, euler_phi, int_mul,
                         int_reduce, integral_form, prime_factors)


class Matrix:
    """Dense row-major matrix over Q(zeta_order); order 1 stores Fractions."""

    __slots__ = ("rows", "cols", "order", "entries")

    def __init__(self, rows: int, cols: int, order: int, entries: tuple):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        self.order = order
        self.entries = entries

    def to_rows(self):
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, order={self.order})"


def _one_zero(order: int):
    if order == 1:
        return Fraction(1), Fraction(0)
    return CycloNumber.one(order), CycloNumber.zero(order)


def _subtract(row, c, f, tail, p):
    """row[c:] -= f * tail, reduced mod p when p is given."""
    if p is None:
        row[c:] = [a - f * b for a, b in zip(row[c:], tail)]
    else:
        row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]


def _quotient_by(d, order: int):
    """x -> x / d on the multiples x of d in Z[zeta_order]: x times the
    product of the other conjugates of d, over the norm N(d)."""
    cofactor = conjugate_product(d, order)
    norm = int_mul(d, cofactor, order)[0]
    return lambda x: tuple(c // norm for c in int_mul(x, cofactor, order))


def _echelon(rows, ncols, p=None, order=1):
    """Row echelon form, consuming ``rows``.  With p None it is fraction free
    on ints (over Z) and on power-basis int tuples (over Z[zeta_order]), and
    exact with unit pivots on Fraction or CycloNumber entries; with p given
    it works over F_p on ints in [0, p) with unit pivots.

    Returns (pivot columns, echelon rows).  Rows still waiting are zero left
    of the current column, so updates touch only the tail.
    """
    first = rows[0][0] if rows and ncols else None
    integral = p is None and isinstance(first, int)
    cyclo = p is None and isinstance(first, tuple)
    pivots, done = [], []
    quotient = None      # division by the previous pivot over Z[zeta]
    for c in range(ncols):
        if not rows:
            break
        if cyclo:
            pivot = next((i for i, row in enumerate(rows) if any(row[c])), None)
        else:
            pivot = next((i for i, row in enumerate(rows) if row[c]), None)
        if pivot is None:
            continue
        prow = rows.pop(pivot)
        pv = prow[c]
        if p is not None:
            inv = pow(pv, -1, p)
            prow[c:] = [x * inv % p for x in prow[c:]]
        elif pv != 1 and not (integral or cyclo):
            inv = 1 / pv if isinstance(pv, Fraction) else pv.inverse()
            prow[c:] = [x * inv for x in prow[c:]]
        tail = prow[c:]
        if integral:
            for row in rows:
                f = row[c]
                if f:
                    new = [pv * a - f * b for a, b in zip(row[c:], tail)]
                    g = gcd(*new)
                    row[c:] = [x // g for x in new] if g > 1 else new
        elif cyclo:
            for row in rows:
                f = row[c]
                new = [tuple(x - y for x, y in zip(int_mul(pv, a, order),
                                                   int_mul(f, b, order)))
                       for a, b in zip(row[c:], tail)]
                row[c:] = new if quotient is None else [quotient(x) for x in new]
            quotient = _quotient_by(pv, order)
        else:
            for row in rows:
                if row[c]:
                    _subtract(row, c, row[c], tail, p)
        pivots.append(c)
        done.append(prow)
    return pivots, done


def _back_substitute(pivots, echelon, p=None):
    """Turn an echelon form with unit pivots into the reduced one, in place."""
    for t in range(len(pivots) - 1, 0, -1):
        c = pivots[t]
        tail = echelon[t][c:]
        for row in echelon[:t]:
            if row[c]:
                _subtract(row, c, row[c], tail, p)


def _kernel(pivots, echelon, ncols, p=None, one=1, zero=0):
    """One kernel vector per free column: ``one`` there, ``zero`` at the
    other free columns; reduces ``echelon`` in place."""
    _back_substitute(pivots, echelon, p)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for c, row in zip(pivots, echelon):
            vec[c] = -row[free] if p is None else -row[free] % p
        basis.append(vec)
    return basis


def clear_denominators(values) -> list[int]:
    """Rationals times the lcm of their denominators, as ints."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values]


def int_rank(rows, ncols: int, order: int = 1) -> int:
    """Rank over Q(zeta_order) of rows of ints, or of power-basis int tuples
    over Z[zeta_order], by fraction-free elimination."""
    return len(_echelon([list(row) for row in rows], ncols, None, order)[0])


def rank(m: Matrix) -> int:
    """Rank over the fraction field, fraction free on the rows cleared of
    their denominators: over Z when the order is 1, else over Z[zeta]."""
    if m.order == 1:
        return int_rank([clear_denominators(row) for row in m.to_rows()], m.cols)
    return int_rank([integral_form([x.coeffs for x in row]) for row in m.to_rows()],
                    m.cols, m.order)


def nullspace(m: Matrix) -> list[tuple]:
    """Deterministic exact basis of the right kernel, one vector per free column."""
    pivots, echelon = _echelon(m.to_rows(), m.cols)
    one, zero = _one_zero(m.order)
    return [tuple(v) for v in _kernel(pivots, echelon, m.cols, None, one, zero)]


# ---------------------------------------------------------------------------
# Certified ranks over F_p.

# The budget's primes lie just below 2^30 and multiply to about 2^210, so a
# kernel lift that needs a modulus of up to 2^180 still reconstructs.
PRIME_BUDGET = 7
_PRIME_BITS = 30
# Miller-Rabin with these bases is deterministic below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    odd, s = m - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, odd, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class FieldPrime(NamedTuple):
    """A prime p = 1 mod n with the phi(n) roots of Phi_n mod p.

    ``roots[0]`` is the primitive n-th root omega the rank is read under;
    ``vinv`` inverts the Vandermonde matrix (roots[a]^i), so that
    coefficient i of an element is sum_a vinv[i][a] * (its image at roots[a]).
    """

    p: int
    roots: tuple
    vinv: tuple


def _inverse_mod(mat, p):
    """Inverse of a square matrix mod p, by elimination on [mat | I]."""
    size = len(mat)
    aug = [list(row) + [int(i == j) for j in range(size)]
           for i, row in enumerate(mat)]
    pivots, ech = _echelon(aug, size, p)
    if len(pivots) != size:
        raise ArithmeticError("singular matrix mod p")
    _back_substitute(pivots, ech, p)
    return tuple(tuple(row[size:]) for row in ech)


def _field_prime(n: int, p: int) -> FieldPrime:
    primes = prime_factors(n)
    for g in range(2, p):
        omega = pow(g, (p - 1) // n, p)
        if all(pow(omega, n // q, p) != 1 for q in primes):
            break
    roots = tuple(pow(omega, a, p) for a in range(1, n + 1) if gcd(a, n) == 1)
    phi = len(roots)
    vinv = _inverse_mod([[pow(r, i, p) for i in range(phi)] for r in roots], p)
    return FieldPrime(p, roots, vinv)


_FIELD_PRIMES: dict[int, list[FieldPrime]] = {}


def field_primes(n: int) -> list[FieldPrime]:
    """The PRIME_BUDGET largest primes p = 1 mod n below 2^30, in the order
    :func:`certified_rank` tries them; computed once per n."""
    found = _FIELD_PRIMES.get(n)
    if found is None:
        found = []
        t = ((1 << _PRIME_BITS) - 2) // n
        while len(found) < PRIME_BUDGET:
            if _is_prime(n * t + 1):
                found.append(_field_prime(n, n * t + 1))
            t -= 1
        _FIELD_PRIMES[n] = found
    return found


def reduce_mod(coeffs, p: int, root: int) -> int:
    """Image in F_p of an element of Z[zeta] (power-basis ints) under
    zeta -> root."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * root + c) % p
    return acc


def _rational(u: int, m: int) -> Fraction | None:
    """The fraction a/b = u mod m with |a|, b <= sqrt(m/2), if there is one."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _kernel_holds(rows, order: int, vectors) -> bool:
    """M x = 0 exactly over Z[zeta_order] for every vector of power-basis
    coordinate lists, M given by its rows of power-basis int tuples; each
    vector is cleared of its denominators first."""
    phi = euler_phi(order)
    xs = [[(j, entry) for j, entry in enumerate(integral_form(vec)) if any(entry)]
          for vec in vectors]
    for row in rows:
        for x in xs:
            acc = [0] * (2 * phi - 1)
            for j, xe in x:
                for s, a in enumerate(row[j]):
                    if a:
                        for t, b in enumerate(xe):
                            acc[s + t] += a * b
            if any(int_reduce(acc, order)):
                return False
    return True


class CertifiedRank(NamedTuple):
    """A rank with the way it was certified.

    ``certificate`` is "full_rank" (rank_p == min(rows, cols)), "kernel_lift"
    (lifted kernel vectors verified exactly) or "exact" (exact elimination
    after the prime budget ran out); ``prime`` is the certifying prime.
    """

    rank: int
    certificate: str
    prime: int | None


def certified_rank(shape: tuple[int, int], order: int,
                   modular: Callable[[int, int], list | None],
                   exact: Callable[[], list]) -> CertifiedRank:
    """Rank over Q(zeta_order) of the matrix of the given shape.

    ``modular(p, root)`` returns its rows over F_p under zeta -> root as
    lists of ints in [0, p), or None when the prime cannot be used (p
    divides a denominator or another value the rows need).  ``exact()``
    returns the rows of the matrix, or of the matrix with each row scaled by
    a nonzero element of Q(zeta), as lists of power-basis int tuples over
    Z[zeta_order]; such a scaling changes neither the rank nor the right
    kernel.  It is called only to verify a lifted kernel or for the exact
    fallback, at most once.
    """
    rows, cols = shape
    full = min(rows, cols)
    if full == 0:
        return CertifiedRank(0, "full_rank", None)
    phi = euler_phi(order)
    exact_rows = None
    reading = None       # the pivots whose kernel residues are accumulated
    modulus, residues = 1, None
    for fp in field_primes(order):
        p = fp.p
        kernels = []
        for root in fp.roots:
            image = modular(p, root)
            if image is None:
                break
            pivots, echelon = _echelon(image, cols, p)
            if not kernels:
                rank_p = len(pivots)
                if rank_p == full:
                    return CertifiedRank(rank_p, "full_rank", p)
                if pivots != reading:
                    reading, modulus, residues = pivots, 1, None
            elif pivots != reading:
                break
            kernels.append(_kernel(pivots, echelon, cols, p))
        if len(kernels) < phi:
            continue
        # Power-basis coordinates mod p of every entry of every kernel vector.
        coords = [[[sum(w * ker[v][j] for w, ker in zip(row, kernels)) % p
                    for row in fp.vinv]
                   for j in range(cols)]
                  for v in range(len(kernels[0]))]
        if residues is None:
            residues = coords
        else:
            inv = pow(modulus, -1, p)
            residues = [[[a + modulus * ((b - a) * inv % p)
                          for a, b in zip(ra, rb)]
                         for ra, rb in zip(va, vb)]
                        for va, vb in zip(residues, coords)]
        modulus *= p
        lifted = [[[_rational(c, modulus) for c in entry] for entry in vec]
                  for vec in residues]
        if any(c is None for vec in lifted for entry in vec for c in entry):
            continue
        if exact_rows is None:
            exact_rows = exact()
        if _kernel_holds(exact_rows, order, lifted):
            return CertifiedRank(cols - len(lifted), "kernel_lift", p)
    if exact_rows is None:
        exact_rows = exact()
    return CertifiedRank(int_rank(exact_rows, cols, order), "exact", None)


# ---------------------------------------------------------------------------
# Integer matrices, as lists of int rows: Smith normal form and kernels
# over Z/aZ.


def smith_normal_form(rows, ncols: int) -> tuple[list[int], list[list[int]]]:
    """(invariant factors, V) of the int matrix m with the given rows: U*m*V
    is diagonal with entries s_1 | s_2 | ... >= 0, min(len(rows), ncols) of
    them, for unimodular U and V; U is not built."""
    a = [list(row) for row in rows]
    if any(len(row) != ncols for row in a):
        raise ValueError(f"every row needs {ncols} entries")
    nr, nc = len(a), ncols
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def add_row(i, src, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[src])]

    def add_col(j, src, c):
        for row in a:
            row[j] += c * row[src]
        for row in v:
            row[j] += c * row[src]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for t in range(min(nr, nc)):
        while True:
            # Move a nonzero entry of smallest magnitude in the block to (t, t).
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                a[t], a[best[0]] = a[best[0]], a[t]
            if best[1] != t:
                swap_cols(t, best[1])
            # Clear row and column t; restarts when a remainder becomes the new pivot.
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the trailing block by the pivot.
            fix = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            add_row(t, fix, 1)
    return [abs(a[t][t]) for t in range(min(nr, nc))], v


def solve_mod(rows, ncols: int, moduli) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """(generator, order) pairs of {x in G^ncols : m x = 0}, m the int matrix
    with the given rows and G = Z/a1 x Z/a2 x ...; the kernel is the direct
    product of their cyclic groups.

    Each generator is a length-``ncols`` vector whose entries are tuples with
    one component per modulus.  Solved componentwise through one Smith form:
    x = V y solves m x = 0 over Z/a iff s_j y_j = 0 for all j, so that
    component is the direct product of the cyclic groups of order
    gcd(s_j, a) spanned by the scaled columns of V (s_j = 0 past the
    diagonal).
    """
    moduli = list(moduli)
    if not moduli or any(a < 2 for a in moduli):
        raise ValueError("moduli must be a nonempty list of integers >= 2")
    s, v = smith_normal_form(rows, ncols)
    s += [0] * (ncols - len(s))
    width = len(moduli)
    gens = []
    for t, a in enumerate(moduli):
        for j in range(ncols):
            order = gcd(s[j], a)
            if order > 1:
                step = a // order
                gens.append((tuple(tuple(v[i][j] * step % a if w == t else 0
                                         for w in range(width))
                                   for i in range(ncols)), order))
    return gens
