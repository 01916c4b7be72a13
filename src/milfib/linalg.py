"""Dense linear algebra over Q(zeta_n): one Gaussian elimination core for
exact and F_p entries, certified ranks, and integer Smith normal form.

:func:`_echelon` is the only elimination.  With ``p=None`` it works on exact
Fraction (order 1) or CycloNumber entries, otherwise on ints mod p.  It
takes the first nonzero entry of each column as pivot, scales pivot rows to
1 and updates only the tails right of the pivot column; :func:`_kernel`
back-substitutes to the reduced form and reads off one kernel vector per
free column.  The reduced row echelon form and its pivot columns are unique,
so :func:`rank` and :func:`nullspace` (exact, the reference path and the
last resort) and the modular kernels are reproducible.

:func:`certified_rank` takes the rank of a matrix over Q(zeta_n) from its
images over F_p, for primes p = 1 mod n of about 61 bits with zeta sent to
a root of Phi_n mod p.  The caller builds those images itself, so entries
are never formed as CycloNumber products.  A rank read off mod p is
reported only with a certificate:

* Every minor that is nonzero mod p is nonzero over Q(zeta), so
  rank_p <= rank.  A prime dividing a denominator (the caller's ``modular``
  returns None) is skipped.
* rank_p == min(rows, cols) settles the rank at once.
* Otherwise the cols - rank_p kernel vectors of the reduced echelon form,
  each 1 at its own free column and 0 at the other free columns, are lifted:
  their images under all phi(n) roots of Phi_n mod p, with the same pivots
  under every root, are interpolated to power-basis coordinates mod p,
  combined by CRT over the primes tried so far and rationally reconstructed.
  The lift certifies rank == rank_p only if M x = 0 holds exactly over
  Q(zeta) for every vector: then the kernel has dimension >= cols - rank_p.
* After PRIME_BUDGET primes without a certificate the rank is taken by
  exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, NamedTuple

from .cyclotomic import CycloNumber, cyclotomic_polynomial, euler_phi, prime_factors


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

    @classmethod
    def from_rows(cls, data, cols: int | None = None, order: int | None = None) -> "Matrix":
        data = [list(row) for row in data]
        nrows = len(data)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, order or 1, ())
        ncols = len(data[0])
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        n = order or 1
        for row in data:
            for v in row:
                if isinstance(v, CycloNumber):
                    n = lcm(n, v.order)
        flat = []
        for row in data:
            for v in row:
                flat.append(_coerce_scalar(v, n))
        return cls(nrows, ncols, n, tuple(flat))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def to_rows(self):
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    def row(self, i: int):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, order={self.order})"


def _coerce_scalar(v, order: int):
    if order == 1:
        if isinstance(v, CycloNumber):
            return v.rational_value()
        return Fraction(v)
    if isinstance(v, CycloNumber):
        return v.lift(order)
    return CycloNumber.from_rational(v, order)


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


def _echelon(rows, ncols, p=None):
    """Row echelon form with unit pivots, consuming ``rows``: exact when p is
    None, else over F_p on ints in [0, p).

    Returns (pivot columns, echelon rows).  Rows still waiting are zero left
    of the current column, so updates touch only the tail.
    """
    pivots, done = [], []
    for c in range(ncols):
        if not rows:
            break
        pivot = next((i for i, row in enumerate(rows) if row[c]), None)
        if pivot is None:
            continue
        prow = rows.pop(pivot)
        pv = prow[c]
        if p is not None:
            inv = pow(pv, -1, p)
            prow[c:] = [x * inv % p for x in prow[c:]]
        elif pv != 1:
            inv = 1 / pv if isinstance(pv, Fraction) else pv.inverse()
            prow[c:] = [x * inv for x in prow[c:]]
        tail = prow[c:]
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


def rank(m: Matrix) -> int:
    """Rank over the fraction field, by exact Gaussian elimination."""
    return len(_echelon(m.to_rows(), m.cols)[0])


def nullspace(m: Matrix) -> list[tuple]:
    """Deterministic exact basis of the right kernel, one vector per free column."""
    pivots, echelon = _echelon(m.to_rows(), m.cols)
    one, zero = _one_zero(m.order)
    return [tuple(v) for v in _kernel(pivots, echelon, m.cols, None, one, zero)]


# ---------------------------------------------------------------------------
# Certified ranks over F_p.

PRIME_BUDGET = 3
_PRIME_BITS = 61
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
    """The PRIME_BUDGET largest primes p = 1 mod n below 2^61, in the order
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


def reduce_mod(x, p: int, root: int) -> int | None:
    """Image of an int, Fraction or CycloNumber in F_p under zeta -> root,
    where root is the image of the CycloNumber's own zeta; None when p
    divides a denominator."""
    if isinstance(x, int):
        return x % p
    coeffs = x.coeffs if isinstance(x, CycloNumber) else (Fraction(x),)
    acc, power = 0, 1
    for c in coeffs:
        if c:
            den = c.denominator
            if den == 1:
                acc += c.numerator * power
            elif den % p:
                acc += c.numerator * pow(den, -1, p) * power
            else:
                return None
        power = power * root % p
    return acc % p


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


def _kernel_holds(m: Matrix, vectors) -> bool:
    """M x = 0 exactly over Q(zeta_order) for every vector of power-basis
    coordinate lists; rows and vectors are cleared of denominators first."""
    modulus = cyclotomic_polynomial(m.order)
    phi = len(modulus) - 1
    xs = []
    for vec in vectors:
        den = lcm(*(c.denominator for entry in vec for c in entry))
        xs.append([(j, [c.numerator * (den // c.denominator) for c in entry])
                   for j, entry in enumerate(vec) if any(entry)])
    for i in range(m.rows):
        row = [x.coeffs if isinstance(x, CycloNumber) else (x,) for x in m.row(i)]
        den = lcm(*(c.denominator for entry in row for c in entry))
        row = [[c.numerator * (den // c.denominator) for c in entry] for entry in row]
        for x in xs:
            acc = [0] * (2 * phi - 1)
            for j, xe in x:
                for s, a in enumerate(row[j]):
                    if a:
                        for t, b in enumerate(xe):
                            acc[s + t] += a * b
            for top in range(2 * phi - 2, phi - 1, -1):
                lead = acc[top]
                if lead:
                    for s, coeff in enumerate(modulus):
                        acc[top - phi + s] -= lead * coeff
            if any(acc[:phi]):
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
                   exact: Callable[[], Matrix]) -> CertifiedRank:
    """Rank over Q(zeta_order) of the matrix of the given shape.

    ``modular(p, root)`` returns its rows over F_p under zeta -> root as
    lists of ints in [0, p), or None when the prime cannot be used (p
    divides a denominator or another value the rows need).  ``exact()``
    returns the matrix itself; it is called only to verify a lifted kernel
    or for the exact fallback, at most once.
    """
    rows, cols = shape
    full = min(rows, cols)
    if full == 0:
        return CertifiedRank(0, "full_rank", None)
    phi = euler_phi(order)
    exact_matrix = None
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
        if exact_matrix is None:
            exact_matrix = exact()
        if _kernel_holds(exact_matrix, lifted):
            return CertifiedRank(cols - len(lifted), "kernel_lift", p)
    if exact_matrix is None:
        exact_matrix = exact()
    return CertifiedRank(rank(exact_matrix), "exact", None)


# ---------------------------------------------------------------------------
# Integer matrices: Smith normal form and kernels over Z/aZ.


class IntMatrix:
    """Dense row-major matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(int(v) for v in entries)

    @classmethod
    def from_rows(cls, data, cols: int | None = None) -> "IntMatrix":
        data = [list(row) for row in data]
        nrows = len(data)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, ())
        ncols = len(data[0])
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(v for row in data for v in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self):
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    def diagonal(self):
        return [self.entry(i, i) for i in range(min(self.rows, self.cols))]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def int_det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Returns (S, U, V) with U*m*V = S, S diagonal, d1 | d2 | ..., det U, V = +-1."""
    a = m.to_rows()
    nr, nc = m.rows, m.cols
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()

    def add_row(i, src, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[src])]
        u[i] = [x + c * y for x, y in zip(u[i], u[src])]

    def add_col(j, src, c):
        for row in a:
            row[j] += c * row[src]
        for row in v:
            row[j] += c * row[src]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

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
                swap_rows(t, best[0])
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
        if t < min(nr, nc) and a[t][t] < 0:
            negate_row(t)

    s = IntMatrix.from_rows(a, cols=nc) if nr else IntMatrix(0, nc, ())
    return (s,
            IntMatrix.from_rows(u, cols=nr) if nr else IntMatrix(0, 0, ()),
            IntMatrix.from_rows(v, cols=nc) if nc else IntMatrix(0, 0, ()))


def kernel_mod_generators(m: IntMatrix, modulus: int,
                          snf: tuple[IntMatrix, IntMatrix, IntMatrix] | None = None
                          ) -> list[tuple[int, ...]]:
    """Generators of {x in (Z/modulus)^cols : m x = 0}, via the Smith form."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    s, _, v = snf if snf is not None else smith_normal_form(m)
    gens = []
    for j in range(m.cols):
        d = s.entry(j, j) if j < min(m.rows, m.cols) else 0
        step = modulus // gcd(abs(d), modulus)
        if step % modulus == 0:
            continue
        g = tuple(v.entry(i, j) * step % modulus for i in range(m.cols))
        if any(g):
            gens.append(g)
    return gens


def solve_mod(m: IntMatrix, moduli) -> list[tuple[tuple[int, ...], ...]]:
    """Generators of the kernel of m over G^cols, G = Z/a1 x Z/a2 x ...

    Each generator is a length-``cols`` vector whose entries are tuples with
    one component per modulus.  Solved componentwise through the Smith form.
    """
    moduli = list(moduli)
    if not moduli or any(a < 2 for a in moduli):
        raise ValueError("moduli must be a nonempty list of integers >= 2")
    snf = smith_normal_form(m)
    width = len(moduli)
    gens = []
    for t, a in enumerate(moduli):
        for g in kernel_mod_generators(m, a, snf=snf):
            vec = tuple(tuple(g[i] if w == t else 0 for w in range(width))
                        for i in range(m.cols))
            gens.append(vec)
    return gens
