import cmath
import operator
import random
from fractions import Fraction

import pytest
import sympy

from milfib import cyclotomic
from milfib.cyclotomic import (CycloNumber, as_cyclo, cyclotomic_polynomial, euler_phi,
                               field_order, int_mul)


def test_phi_1_and_3_are_the_textbook_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)


def test_rational_fields_match_fraction_arithmetic():
    # At orders 1 and 2 the field is Q: one coefficient, and products,
    # inverses and quotients must be the plain Fraction ones.
    rng = random.Random(12)
    values = [Fraction(0)] + [Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                              for _ in range(40)]
    for order in (1, 2):
        for a, b in zip(values, reversed(values)):
            x, y = CycloNumber(order, (a,)), CycloNumber(order, (b,))
            assert (x * y).coeffs == (a * b,)
            assert (x * y).order == order
            if a:
                assert x.inverse().coeffs == (1 / a,)
                assert (y / x).coeffs == (b / a,)
                assert (x.inverse() * x).coeffs == (Fraction(1),)


def test_phi_12_against_divisor_product_and_numeric_roots():
    # Independent reconstruction: the product of Phi_d over all divisors of 12
    # must be t^12 - 1, and the numeric roots of Phi_12 must be exactly the
    # primitive 12th roots of unity.
    phi12 = cyclotomic_polynomial(12)
    assert phi12 == (1, 0, -1, 0, 1)

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    product = [1]
    for d in (1, 2, 3, 4, 6, 12):
        product = poly_mul(product, list(cyclotomic_polynomial(d)))
    assert product == [-1] + [0] * 11 + [1]

    for k in range(1, 13):
        root = cmath.exp(2j * cmath.pi * k / 12)
        value = sum(c * root ** i for i, c in enumerate(phi12))
        if k in (1, 5, 7, 11):
            assert abs(value) < 1e-9
        else:
            assert abs(value) > 1e-3


def test_degree_is_euler_phi():
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_minimal_polynomial_relation_zeta3():
    z = CycloNumber.zeta(3)
    assert (z * z + z + 1).is_zero()


def test_rational_product():
    a = CycloNumber.from_rational(Fraction(1, 2))
    b = CycloNumber.from_rational(Fraction(2, 3))
    assert a * b == Fraction(1, 3)


def test_inverse_of_one_plus_zeta3():
    z = CycloNumber.zeta(3)
    inv = (1 + z).inverse()
    assert inv == -z
    assert (1 + z) * inv == 1


def test_inverse_of_a_rational_at_a_large_order_makes_no_product(monkeypatch):
    # A rational is its own conjugate: inverting it needs none of the
    # phi(n) - 1 dense products of the other conjugates.
    calls = []

    def counted(*args):
        calls.append(args)
        return int_mul(*args)

    monkeypatch.setattr(cyclotomic, "int_mul", counted)
    for value in (Fraction(1), Fraction(-3, 7), Fraction(2 ** 70 + 1, 5)):
        x = CycloNumber.from_rational(value, 1000)
        assert x.inverse() == CycloNumber.from_rational(1 / value, 1000)
    assert calls == []


def test_zero_division_errors():
    z = CycloNumber.zero(3)
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    with pytest.raises(ZeroDivisionError):
        CycloNumber.one(3) / z


def test_embed_rational_shapes():
    assert CycloNumber.from_rational(1, 3).coeffs == (Fraction(1), Fraction(0))
    assert CycloNumber.from_rational(0, 12).coeffs == (Fraction(0),) * 4
    assert CycloNumber.from_rational(Fraction(-5, 7), 1) == Fraction(-5, 7)
    assert CycloNumber.from_rational(3, 12).coeffs == (Fraction(3),) + (Fraction(0),) * 3


def test_phi_n_annihilates_zeta_n():
    for n in range(1, 25):
        z = CycloNumber.zeta(n)
        acc = CycloNumber.zero(n)
        for c in reversed(cyclotomic_polynomial(n)):
            acc = acc * z + c
        assert acc.is_zero()


def test_constructor_keeps_fractions_and_converts_the_rest():
    half = Fraction(1, 2)
    x = CycloNumber(3, (half, 2))
    assert x.coeffs[0] is half
    assert type(x.coeffs[1]) is Fraction and x.coeffs[1] == 2
    for bad in (None, "abc", [1]):
        with pytest.raises((TypeError, ValueError)):
            CycloNumber(3, (bad, 0))


def _random_element(rng, n):
    return CycloNumber(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for _ in range(euler_phi(n))])


def test_field_axioms_on_random_elements():
    rng = random.Random(20240814)
    for n in (1, 3, 4, 12):
        for _ in range(25):
            a, b, c = (_random_element(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == 1
                assert (b / a) * a == b


def test_mixed_order_arithmetic_is_rejected():
    # Q(zeta_3) and Q(zeta_4) are different fields; nothing embeds one
    # element into the other's field.
    z3, z4 = CycloNumber.zeta(3), CycloNumber.zeta(4)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="do not share a field"):
            op(z3, z4)
    with pytest.raises(ValueError, match="do not share a field"):
        as_cyclo(z3, 12)
    assert as_cyclo(z3, 3) is z3
    assert field_order([1, Fraction(1, 2), z4, z4 * 2]) == 4
    assert field_order([1, Fraction(1, 2)]) == 1
    assert field_order([], 5) == 5
    with pytest.raises(ValueError, match=r"\[3, 4\] do not share a field"):
        field_order([z3, 1], 4)


def test_equality_across_orders_and_with_rationals():
    z3 = CycloNumber.zeta(3)
    with pytest.raises(ValueError, match="do not share a field"):
        z3 == CycloNumber.zeta(12) ** 4
    with pytest.raises(ValueError, match="do not share a field"):
        CycloNumber.from_rational(2, 3) == CycloNumber.from_rational(2, 4)
    assert CycloNumber.from_rational(2, 3) == 2
    assert z3 != 1


def test_serialization_round_trip():
    z = CycloNumber.zeta(12)
    x = (z ** 5) * Fraction(3, 7) - Fraction(1, 2)
    data = x.to_json()
    assert all(isinstance(s, str) for s in data)
    assert CycloNumber.from_json(data, 12) == x
    # plain "p/q" shorthand for constants
    assert CycloNumber.from_json("-5/7", 3) == Fraction(-5, 7)
    assert as_cyclo(Fraction(1, 3), 3).to_json() == ["1/3", "0"]


ORACLE_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15)


def _at_root(x: CycloNumber) -> complex:
    """x as a complex number: its power basis at exp(2 pi i / x.order)."""
    root = cmath.exp(2j * cmath.pi / x.order)
    return sum(complex(c) * root ** i for i, c in enumerate(x.coeffs))


def _close(u: complex, v: complex) -> bool:
    return abs(u - v) <= 1e-9 * max(1.0, abs(u), abs(v))


@pytest.mark.parametrize("n", ORACLE_ORDERS)
def test_arithmetic_agrees_with_complex_evaluation(n):
    # An oracle that shares no code with the ring: each result, read as a
    # complex number at zeta_n, must be the complex result of its operands.
    rng = random.Random(n)
    for _ in range(20):
        a, b = _random_element(rng, n), _random_element(rng, n)
        assert _close(_at_root(a * b), _at_root(a) * _at_root(b))
        if not a.is_zero():
            assert _close(_at_root(a.inverse()), 1 / _at_root(a))
            assert _close(_at_root(b / a), _at_root(b) / _at_root(a))
    z = CycloNumber.zeta(n)
    for k in range(-n, 2 * n + 1):
        assert _close(_at_root(z ** k), cmath.exp(2j * cmath.pi * k / n))


def test_cyclotomic_polynomials_match_sympy():
    t = sympy.symbols("t")
    for n in [*range(1, 61), 105, 864, 1000]:
        expected = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected), n


def test_cyclotomic_polynomial_of_a_prime_power_multiple_is_spread():
    # Phi_n(t) = Phi_rad(n)(t^(n/rad(n))): 100000 has radical 10.
    phi = cyclotomic_polynomial(100000)
    assert len(phi) - 1 == euler_phi(100000) == 40000
    spread = [0] * 40001
    spread[::10000] = cyclotomic_polynomial(10)
    assert phi == tuple(spread)
