"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_n).

A :class:`CycloNumber` of order ``n`` is an element of Q[t]/Phi_n(t) stored
in the power basis 1, zeta, ..., zeta^(phi(n)-1), where Phi_n is the n-th
cyclotomic polynomial and zeta = exp(2*pi*i/n).  Representation in the power
basis is unique, so equality is coefficient equality and zero tests are
exact.  Mixed-order arithmetic lifts both operands into Q(zeta_lcm) first.
Order 1 is plain Q.

No floating point is used anywhere; coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Dense coefficients of Phi_n, constant term first, monic of degree phi(n).

    Computed by dividing t^n - 1 by the product of Phi_d over the proper
    divisors d of n.
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    if n == 1:
        return (-1, 1)
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _pmul(den, cyclotomic_polynomial(d))
    quot, rem = _pdivmod(num, den)
    if rem:
        raise ArithmeticError("t^n - 1 is not divisible by its proper cyclotomic factors")
    return tuple(int(c) for c in quot)


# Dense polynomials over Q, constant term first, used only inside this module.

def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _psub(a, b):
    n = max(len(a), len(b))
    out = [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]
    return _trim(out)


def _pdivmod(num, den):
    """(quotient, remainder) of num by den (den nonzero), dense Fraction lists."""
    num = list(num)
    _trim(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dn, 0)
    while len(num) - 1 >= dn and num:
        c = num[-1] / lead
        shift = len(num) - 1 - dn
        quot[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] -= c * dc
        _trim(num)
    return quot, num


class CycloNumber:
    """An element of Q(zeta_n) in the power basis mod Phi_n.

    Instances are immutable.  ``order == 1`` represents a plain rational.
    Cross-order equality holds when both elements agree after lifting into
    the lcm field; instances are deliberately unhashable, callers that need
    dictionary keys use :meth:`key` within a fixed ambient order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        coeffs = tuple(Fraction(c) for c in coeffs)
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
        """The primitive root of unity zeta_n itself."""
        phi = euler_phi(order)
        if phi == 1:
            # zeta_1 = 1, zeta_2 = -1: reduce t mod Phi_n by hand.
            return cls.from_rational(1 if order == 1 else -1, order)
        coeffs = [Fraction(0)] * phi
        coeffs[1] = Fraction(1)
        return cls(order, coeffs)

    # -- representation helpers ----------------------------------------

    @classmethod
    def _from_poly(cls, order: int, poly) -> "CycloNumber":
        phi_mod = [Fraction(c) for c in cyclotomic_polynomial(order)]
        _, rem = _pdivmod(poly, phi_mod)
        phi = euler_phi(order)
        rem = rem + [Fraction(0)] * (phi - len(rem))
        return cls(order, rem)

    def lift(self, order: int) -> "CycloNumber":
        """Image under the embedding Q(zeta_n) -> Q(zeta_m), n | m."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        step = order // self.order
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return CycloNumber._from_poly(order, poly)

    def key(self):
        """Hashable identity within a fixed ambient order."""
        return (self.order, self.coeffs)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(value, order):
        if isinstance(value, CycloNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloNumber.from_rational(value, order)
        return None

    def _pair(self, other):
        other = CycloNumber._coerce(other, self.order)
        if other is None:
            return None, None
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycloNumber(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycloNumber(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):  # scaling needs no reduction mod Phi_n
            return CycloNumber(self.order, tuple(c * other for c in self.coeffs))
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycloNumber._from_poly(a.order, _pmul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        phi_mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        # Extended Euclid on (self, Phi_n): track s with s*self = r mod Phi_n.
        r0, r1 = phi_mod, _trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        # r1 is a nonzero constant c with s1*self = c mod Phi_n.
        c = r1[0]
        inv_poly = [x / c for x in s1]
        return CycloNumber._from_poly(self.order, inv_poly)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if b.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_n)")
        return a * b.inverse()

    def __rtruediv__(self, other):
        other = CycloNumber._coerce(other, self.order)
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
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

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
        """Accepts the array form or a plain "p/q" string for a constant.

        Floats are accepted only when they are integers, in either form.
        """
        if isinstance(data, list):
            return cls(order, [_json_rational(c) for c in data])
        return cls.from_rational(_json_rational(data), order)


def _json_rational(value) -> Fraction:
    """An int, an integral float or a "p/q" string; nothing else is coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"not a rational coefficient: {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError("non-integer float coefficients are not accepted")
        return Fraction(int(value))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def as_cyclo(value, order: int = 1) -> CycloNumber:
    """Coerce an int, Fraction, or CycloNumber into Q(zeta_order) (or larger)."""
    if isinstance(value, CycloNumber):
        return value.lift(lcm(value.order, order))
    return CycloNumber.from_rational(value, order)
