"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_n).

An element of Q(zeta_n) = Q[t]/Phi_n(t) is stored as its phi(n)
coefficients in the power basis 1, zeta, ..., zeta^(phi(n)-1), with Phi_n
the n-th cyclotomic polynomial and zeta = exp(2*pi*i/n).  The representation
is unique, so equality is coefficient equality and zero tests are exact.
No floating point is used anywhere.

Phi_n is monic over Z, so reduction mod Phi_n never divides, and one set of
ring kernels serves ints and Fractions alike: :func:`int_mul`,
:func:`int_reduce` and :func:`conjugate_product`, whose product with an
element is its norm.  On ints they stay in Z[zeta_n], hence their names.
:class:`CycloNumber` (Fraction coefficients and an order; order 1 is plain
Q) is built on them.  Code that only needs a vector up to scaling works on
power-basis ints: :func:`integral_form` clears a vector's denominators, and
:func:`projective_key` names its class under Q(zeta_n)^* scaling.

Each computation lives in one field Q(zeta_n): :func:`field_order` reads n
off its values, and two different orders are rejected, never embedded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient function."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def _spread(coeffs, step: int) -> list:
    """The coefficients of p(t^step) from those of p(t)."""
    out = [0] * ((len(coeffs) - 1) * step + 1)
    out[::step] = coeffs
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Dense coefficients of Phi_n, constant term first, monic of degree phi(n).

    Built from Phi_1 = t - 1 by Phi_mp(t) = Phi_m(t^p) / Phi_m(t), an exact
    division over Z, for each prime p of n (p does not divide m), which gives
    Phi_rad(n); then Phi_n(t) = Phi_rad(n)(t^(n/rad(n))).
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    poly, rad = [-1, 1], 1
    for p in prime_factors(n):
        num, deg = _spread(poly, p), len(poly) - 1
        quot = [0] * (len(num) - deg)
        for top in range(len(num) - 1, deg - 1, -1):
            lead = quot[top - deg] = num[top]
            if lead:
                for s, coeff in enumerate(poly):
                    num[top - deg + s] -= lead * coeff
        if any(num[:deg]):
            raise ArithmeticError("Phi_m(t^p) is not divisible by Phi_m(t)")
        poly, rad = quot, rad * p
    return tuple(_spread(poly, n // rad))


def field_order(values, order: int | None = None) -> int:
    """The order n of the one field Q(zeta_n) that ``values`` live in: the
    common order of the CycloNumbers among them and of ``order`` when given,
    else 1.  Two different orders raise ValueError."""
    orders = {v.order for v in values if isinstance(v, CycloNumber)}
    if order is not None:
        orders.add(order)
    if len(orders) > 1:
        raise ValueError(f"elements of cyclotomic orders {sorted(orders)} "
                         f"do not share a field")
    return orders.pop() if orders else 1


class CycloNumber:
    """An element of Q(zeta_n) in the power basis mod Phi_n.

    Instances are immutable.  ``order == 1`` represents a plain rational.
    Arithmetic and equality take ints, Fractions and CycloNumbers of the
    same order; another order raises ValueError.  Instances are deliberately
    unhashable: callers that need dictionary keys use the coefficients.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"order {order} needs {euler_phi(order)} coefficients, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q, order: int = 1) -> "CycloNumber":
        q = Fraction(q)
        phi = euler_phi(order)
        return cls(order, (q,) + (Fraction(0),) * (phi - 1))

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycloNumber":
        return cls.from_rational(1, order)

    @classmethod
    def zeta(cls, order: int) -> "CycloNumber":
        """The primitive root of unity zeta_n itself: t reduced mod Phi_n."""
        return cls(order, int_reduce((0, 1), order))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def _operand(self, other):
        """``other`` by :func:`as_cyclo` in this field, None if it is not a
        number."""
        if isinstance(other, (CycloNumber, int, Fraction)):
            return as_cyclo(other, self.order)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return CycloNumber(self.order, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return CycloNumber(self.order, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):  # scaling needs no reduction mod Phi_n
            return CycloNumber(self.order, tuple(c * other for c in self.coeffs))
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return CycloNumber(self.order, int_mul(self.coeffs, other.coeffs, self.order))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """Multiplicative inverse: the product of the other conjugates over
        the norm, taken on the integral multiple den * self."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        den = lcm(*(c.denominator for c in self.coeffs))
        x = tuple(c.numerator * (den // c.denominator) for c in self.coeffs)
        cofactor = conjugate_product(x, self.order)
        norm = int_mul(x, cofactor, self.order)[0] if any(x[1:]) else x[0] * cofactor[0]
        return CycloNumber(self.order, tuple(Fraction(den * c, norm) for c in cofactor))

    def __truediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_n)")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycloNumber.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    # -- formatting and serialization ------------------------------------

    def __repr__(self):
        return f"CycloNumber({self.order}, {self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            var = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
            if c == 1:
                term = var
            elif c == -1:
                term = f"-{var}"
            else:
                term = f"{c}*{var}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text

    def to_json(self):
        """JSON form: array of rational strings for zeta^0 ... zeta^(phi-1)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data, order: int) -> "CycloNumber":
        """The element :func:`coefficients_from_json` reads off ``data``."""
        return cls(order, coefficients_from_json(data, order))


def coefficients_from_json(data, order: int) -> tuple:
    """The power-basis coefficients over Q(zeta_order) of a JSON coefficient,
    as ints and Fractions, without building a CycloNumber.

    ``data`` is the array form, phi(order) rationals for zeta^0 ...
    zeta^(phi-1), or one rational for a constant.  A rational is an int, a
    float that is an integer, or a "p/q" string; nothing else is coerced.
    """
    phi = euler_phi(order)
    if isinstance(data, list):
        coeffs = tuple(_json_rational(c) for c in data)
        if len(coeffs) != phi:
            raise ValueError(f"order {order} needs {phi} coefficients, got {len(coeffs)}")
        return coeffs
    return (_json_rational(data),) + (0,) * (phi - 1)


def _json_rational(value):
    """An int, an integral float or a "p/q" string, as an int or a
    Fraction; nothing else is coerced."""
    if isinstance(value, str):
        # A signed run of decimal digits is the integer that Fraction would
        # parse it to, without Fraction's regular expression.
        if value.isdecimal() or value[:1] in ("-", "+") and value[1:].isdecimal():
            return int(value)
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a rational coefficient: {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError("non-integer float coefficients are not accepted")
        return int(value)
    return value


def as_cyclo(value, order: int = 1) -> CycloNumber:
    """An int or Fraction as an element of Q(zeta_order), or a CycloNumber of
    that order as it is; a CycloNumber of another order raises ValueError."""
    if not isinstance(value, CycloNumber):
        return CycloNumber.from_rational(value, order)
    if value.order != order:
        raise ValueError(f"elements of cyclotomic orders {value.order} and {order} "
                         f"do not share a field")
    return value


# ---------------------------------------------------------------------------
# Z[zeta_n]: power-basis int tuples, for exact work up to scaling.


def integral_form(entries) -> tuple[tuple[int, ...], ...]:
    """A vector of power-basis coefficient sequences (Fractions or ints)
    times the lcm of its denominators: int tuples in the same projective
    class."""
    den = lcm(*(c.denominator for entry in entries for c in entry))
    if den == 1:
        return tuple(tuple(map(int, entry)) for entry in entries)
    return tuple(tuple(c.numerator * (den // c.denominator) for c in entry)
                 for entry in entries)


def int_reduce(poly, order: int) -> tuple[int, ...]:
    """The remainder of a polynomial (constant term first) mod the monic
    Phi_order, as phi(order) power-basis coefficients.  The coefficients
    may be ints or Fractions; monic division keeps ints integral."""
    modulus = cyclotomic_polynomial(order)
    phi = len(modulus) - 1
    poly = list(poly) + [0] * (phi - len(poly))
    for top in range(len(poly) - 1, phi - 1, -1):
        lead = poly[top]
        if lead:
            for s, coeff in enumerate(modulus):
                poly[top - phi + s] -= lead * coeff
    return tuple(poly[:phi])


def int_mul(a, b, order: int) -> tuple[int, ...]:
    """The product of two power-basis elements of Q(zeta_order), ints or
    Fractions; on ints it is the product in Z[zeta_order].  A rational
    factor scales the other one, which needs no reduction mod Phi_n."""
    if len(a) == 1:
        return (a[0] * b[0],)
    # islice, not a[1:]: the test copies nothing, at phi(n) = 40000 too.
    if not any(islice(a, 1, None)):
        x = a[0]
        return tuple(x * y for y in b)
    if not any(islice(b, 1, None)):
        y = b[0]
        return tuple(x * y for x in a)
    acc = [0] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        if x:
            for t, y in enumerate(b):
                acc[s + t] += x * y
    return int_reduce(acc, order)


def conjugate_product(x, order: int) -> tuple[int, ...]:
    """The product of the conjugates sigma_a(x), 1 < a < order coprime to
    order, of a power-basis element x of Q(zeta_order), ints or Fractions:
    x times it is the norm N(x), a rational (an integer when x is in
    Z[zeta_order])."""
    if not any(x[1:]):      # a rational is its own conjugate
        return (x[0] ** (len(x) - 1),) + (0,) * (len(x) - 1)
    product = (1,) + (0,) * (len(x) - 1)
    for a in range(2, order):
        if gcd(a, order) == 1:
            image = [0] * order
            for e, c in enumerate(x):
                image[a * e % order] += c
            product = int_mul(product, int_reduce(image, order), order)
    return product


def rational_key(ints):
    """:func:`projective_key` at order 1 of the ints ``ints``: they over their
    gcd, signed to end positive, as 1-tuples; None when all are zero."""
    g = gcd(*ints)
    if not g:
        return None
    if next(c for c in reversed(ints) if c) < 0:
        g = -g
    return tuple((c // g,) for c in ints)


def projective_key(vector, order: int):
    """One canonical int vector for the class of ``vector`` (power-basis int
    tuples over Z[zeta_order]) under scaling by Q(zeta_order)^*, or None
    when the vector is zero.

    With w the last nonzero entry, every entry is multiplied by the product
    w' of the conjugates sigma_a(w), a != 1, so the last entry becomes the
    norm N(w), a nonzero rational integer.  Dividing by the gcd of all
    coefficients, signed so that entry is positive, leaves the unique
    primitive integral vector on the line of v / w with a positive last
    entry.  So two vectors get the same key exactly when they are
    proportional over Q(zeta_order).  Order 1 is :func:`rational_key`.
    """
    if order == 1:
        return rational_key([x for x, in vector])
    last = next((x for x in reversed(vector) if any(x)), None)
    if last is None:
        return None
    if len(last) > 1:
        cofactor = conjugate_product(last, order)
        vector = [int_mul(x, cofactor, order) if any(x) else x for x in vector]
        last = next(x for x in reversed(vector) if any(x))
    g = gcd(*(c for x in vector for c in x))
    if last[0] < 0:
        g = -g
    return tuple(tuple(c // g for c in x) for x in vector)
