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
    _fold,
    _mul,
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
