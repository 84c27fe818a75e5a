import operator
import random
from fractions import Fraction

import pytest
import sympy

from dp5links.cyclo import (
    DEGREE,
    MODULUS,
    DivisionByZero,
    FieldElement,
    I_UNIT,
    InvalidAutomorphism,
    ONE,
    SQRT5,
    ZERO,
    ZETA,
    ZETA5,
    _element,
    _fold,
    _inverse,
    _mul,
    _product,
    galois_apply,
    rational,
    root_of_unity,
)

X = sympy.Symbol("x")
PHI = sympy.Poly(sympy.cyclotomic_poly(20, X), X, domain="QQ")


def random_element(rnd, max_num=5, max_den=3):
    return FieldElement([
        Fraction(rnd.randint(-max_num, max_num), rnd.randint(1, max_den))
        for _ in range(DEGREE)
    ])


def test_fifth_root_pair_multiplies_to_one():
    assert ZETA5 * ZETA5 ** 4 == ONE


def test_imaginary_unit_squares_to_minus_one():
    assert I_UNIT * I_UNIT == -ONE


def test_sqrt5_squares_to_five():
    # independent expansion: s = 1 + 2 z^4 - 2 z^6, squared and reduced by hand
    assert SQRT5 == FieldElement([1, 0, 0, 0, 2, 0, -2, 0])
    assert SQRT5 * SQRT5 == rational(5)


def test_modulus_vanishes_at_zeta():
    total = ZERO
    for k, c in enumerate(MODULUS):
        total = total + rational(c) * ZETA ** k
    assert total.is_zero()


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.inverse()


def test_non_field_operands_raise_type_error_on_either_side():
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for other in (1.5, "a", None):
        for op in ops:
            for left, right in ((other, ONE), (ONE, other), (other, ZERO), (ZERO, other)):
                with pytest.raises(TypeError) as exc:
                    op(left, right)
                assert "NotImplementedType" not in str(exc.value)


def test_galois_conjugation_examples():
    assert galois_apply(19, I_UNIT) == -I_UNIT
    for q in (Fraction(0), Fraction(7), Fraction(-3, 5)):
        assert galois_apply(19, rational(q)) == rational(q)


def test_galois_conjugation_swaps_u1_and_w1():
    u1 = [ZERO, -I_UNIT, -ONE, ONE, I_UNIT]
    w1 = [ZERO, I_UNIT, -ONE, ONE, -I_UNIT]
    assert [galois_apply(19, c) for c in u1] == w1


def test_galois_requires_coprime_exponent():
    with pytest.raises(InvalidAutomorphism):
        galois_apply(4, ZETA)
    with pytest.raises(InvalidAutomorphism):
        galois_apply(10, ONE)


def test_galois_involution_and_homomorphism():
    rnd = random.Random(11)
    for _ in range(200):
        a = random_element(rnd)
        b = random_element(rnd)
        assert galois_apply(19, galois_apply(19, a)) == a
        for k in (3, 7, 9, 19):
            assert galois_apply(k, a * b) == galois_apply(k, a) * galois_apply(k, b)
            assert galois_apply(k, a + b) == galois_apply(k, a) + galois_apply(k, b)


def test_ring_axioms_thousand_samples():
    rnd = random.Random(20)
    for _ in range(1000):
        a = random_element(rnd, 3, 2)
        b = random_element(rnd, 3, 2)
        c = random_element(rnd, 3, 2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        if not a.is_zero():
            assert a * (ONE / a) == ONE


def remainder_coeffs(d: int) -> list[int]:
    """The power-basis coefficients of x^d mod Phi_20, from sympy."""
    rem = sympy.Poly(X ** d, X, domain="QQ").rem(PHI)
    return [int(rem.coeff_monomial(X ** k)) for k in range(DEGREE)]


def test_fold_of_each_monomial_matches_sympy():
    for d in range(20):
        p = [0] * 20
        p[d] = 1
        assert _fold(p) == remainder_coeffs(d)


def test_mul_of_basis_monomials_matches_sympy():
    basis = [[int(i == k) for k in range(DEGREE)] for i in range(DEGREE)]
    for i in range(DEGREE):
        for j in range(DEGREE):
            assert _mul(basis[i], basis[j]) == remainder_coeffs(i + j)


def test_multiplication_against_sympy_polynomials():
    def to_poly(e):
        return sympy.Poly(list(reversed([sympy.Rational(c) for c in e.coeffs])), X, domain="QQ")

    rnd = random.Random(33)
    for _ in range(40):
        a = random_element(rnd)
        b = random_element(rnd)
        expected = (to_poly(a) * to_poly(b)).rem(PHI)
        got = to_poly(a * b)
        assert got == expected


def test_roots_of_unity_have_right_orders():
    for n in (1, 2, 4, 5, 10, 20):
        z = root_of_unity(n)
        assert z ** n == ONE
        for d in range(1, n):
            if n % d == 0:
                assert z ** d != ONE
    with pytest.raises(InvalidAutomorphism):
        root_of_unity(3)


def test_serialization_round_trip_is_bit_exact():
    rnd = random.Random(5)
    for _ in range(100):
        a = random_element(rnd, 10, 7)
        data = a.serialize()
        assert all(isinstance(s, str) and "/" in s for s in data)
        assert FieldElement.deserialize(data) == a
    assert ONE.serialize() == ["1/1"] + ["0/1"] * 7
    with pytest.raises(ValueError):
        FieldElement.deserialize(["1/1"])


def test_reduction_accepts_long_coefficient_lists():
    # z^8 = z^6 - z^4 + z^2 - 1
    assert FieldElement.zeta_power(8) == FieldElement([-1, 0, 1, 0, -1, 0, 1, 0])
    assert FieldElement.zeta_power(10) == -ONE
    assert ZETA ** 20 == ONE


def test_power_negative_exponent():
    a = FieldElement([1, 2, 0, 0, 1, 0, 0, 0])
    assert a ** -1 == a.inverse()
    assert a ** 0 == ONE


def test_power_squares_only_below_its_top_bit(monkeypatch):
    # one product per set bit of n and one squaring per bit below the top one
    calls = []
    real = FieldElement.__mul__
    monkeypatch.setattr(FieldElement, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    a = FieldElement([1, 2, 0, 0, 1, 0, 0, 0])
    for n in range(1, 17):
        calls.clear()
        a ** n
        assert len(calls) == bin(n).count("1") + n.bit_length() - 1, n


def test_product_of_two_monomials_matches_the_convolution_and_sympy():
    # signed coefficients whose product shares a factor with the denominator
    pairs = [(Fraction(-6, 5), Fraction(10, 3)), (Fraction(3, 4), Fraction(-2, 9)),
             (Fraction(-4), Fraction(-1, 2)), (Fraction(2), Fraction(-3))]
    for i in range(DEGREE):
        for j in range(DEGREE):
            for x, y in pairs:
                a = FieldElement([x if k == i else 0 for k in range(DEGREE)])
                b = FieldElement([y if k == j else 0 for k in range(DEGREE)])
                product = a * b
                generic = _element(_mul(a.num, b.num), a.den * b.den)
                assert (product.num, product.den) == (generic.num, generic.den)
                assert product.coeffs == tuple(x * y * c for c in remainder_coeffs(i + j))


def test_every_monomial_product_and_inverse_matches_the_general_path():
    # every s z^i, i < 20, +-1 among the s: a monomial for i mod 10 < 8, four
    # terms otherwise; the property tests sample these pairs
    scalars = (1, -1, Fraction(2, 3), -5)
    terms = [FieldElement([0] * i + [s]) for i in range(20) for s in scalars]
    assert sum(e.num.count(0) == 7 for e in terms) == 16 * len(scalars)
    for a in terms:
        for b in terms:
            product, generic = _product(a, b), _element(_mul(a.num, b.num), a.den * b.den)
            assert (product.num, product.den) == (generic.num, generic.den)
        inv = _inverse(a)
        assert inv * a == ONE and inv == FieldElement(inv.coeffs)


def test_inverse_of_plus_minus_one_is_the_operand():
    # the shared elements of the current value table are their own inverses;
    # after a clear_tables() the module constants are no longer the shared
    # elements, so for them the inverse is only equal
    for unit in (rational(1), rational(-1)):
        assert unit.inverse() is unit
    for unit in (ONE, -ONE):
        assert unit.inverse() == unit
