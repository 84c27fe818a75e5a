"""Property tests of the integer-numerator field against a sympy oracle.

Every operation is compared with polynomial arithmetic over QQ modulo the
cyclotomic polynomial Phi_20, on sparse and dense elements whose
coefficients have mixed denominators.
"""

from datetime import timedelta
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dp5links import cyclo
from dp5links.cyclo import (
    DEGREE,
    DivisionByZero,
    FieldElement,
    IrrationalNorm,
    ONE,
    ZERO,
    ZETA,
    galois_apply,
)

X = sympy.Symbol("x")
PHI = sympy.Poly(sympy.cyclotomic_poly(20, X), X, domain="QQ")
UNITS = (1, 3, 7, 9, 11, 13, 17, 19)

small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
large = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9))
coefficient = st.one_of(small, large)
sparse = st.dictionaries(st.integers(0, DEGREE - 1), coefficient, max_size=3).map(
    lambda terms: [terms.get(k, 0) for k in range(DEGREE)])
dense = st.lists(coefficient, min_size=DEGREE, max_size=DEGREE)
elements = st.one_of(sparse, dense).map(FieldElement)
nonzero = elements.filter(lambda e: not e.is_zero())
# random coefficients almost never give exactly +-1, which products short-cut
units = st.sampled_from([ONE, -ONE])
with_units = st.one_of(units, elements)
nonzero_with_units = st.one_of(units, nonzero)

checked = settings(deadline=timedelta(milliseconds=2000), max_examples=150)


def to_poly(e: FieldElement) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(e.coeffs)],
                      X, domain="QQ")


def is_canonical(e: FieldElement) -> bool:
    return (len(e.num) == DEGREE and e.den > 0 and gcd(e.den, *e.num) == 1
            and all(isinstance(x, int) for x in (e.den, *e.num)))


def agrees(e: FieldElement, expected: sympy.Poly) -> bool:
    return is_canonical(e) and to_poly(e) == expected.rem(PHI)


@checked
@given(with_units, with_units)
def test_sum_difference_product_match_oracle(a, b):
    pa, pb = to_poly(a), to_poly(b)
    assert agrees(a + b, pa + pb)
    assert agrees(a - b, pa - pb)
    assert agrees(-a, -pa)
    assert agrees(a * b, pa * pb)
    assert agrees(b * a, pb * pa)


@checked
@given(elements)
def test_product_with_plus_minus_one_is_the_operand_or_its_negation(x):
    assert x * ONE == x and ONE * x == x
    assert x * -ONE == -x and -ONE * x == -x
    for y in (x * ONE, ONE * x, x * -ONE, -ONE * x):
        assert is_canonical(y)
    assert agrees(x * -ONE, -to_poly(x))
    assert agrees(-ONE * x, -to_poly(x))


@checked
@given(with_units, st.integers(-3, 4))
def test_power_matches_oracle(a, n):
    if n < 0 and a.is_zero():
        with pytest.raises(DivisionByZero):
            a ** n
        return
    pa = to_poly(a) if n >= 0 else to_poly(a).invert(PHI)
    assert agrees(a ** n, pa ** abs(n))


@checked
@given(nonzero_with_units)
def test_inverse_matches_oracle(a):
    inv = a.inverse()
    assert agrees(inv, to_poly(a).invert(PHI))
    assert a * inv == ONE and inv * a == ONE


@checked
@given(elements, st.sampled_from(UNITS))
def test_galois_apply_matches_oracle(a, k):
    power = sympy.Poly(X ** k, X, domain="QQ")
    assert agrees(galois_apply(k, a), to_poly(a).compose(power))


@checked
@given(elements, elements)
def test_equality_and_hash_agree_with_fraction_view(a, b):
    assert (a == b) == (a.coeffs == b.coeffs)
    twice = FieldElement([2 * c for c in a.coeffs])
    same = twice * FieldElement([Fraction(1, 2)])
    assert same == a and hash(same) == hash(a)
    assert FieldElement(a.coeffs) == a
    assert all(isinstance(c, Fraction) for c in a.coeffs)


@checked
@given(elements)
def test_serialization_round_trip(a):
    data = a.serialize()
    assert data == [f"{c.numerator}/{c.denominator}" for c in a.coeffs]
    back = FieldElement.deserialize(data)
    assert back == a and is_canonical(back)


@checked
@given(st.one_of(st.integers(-10**30, 10**30), coefficient))
def test_rational_matches_the_general_constructor(q):
    e, expected = cyclo.rational(q), FieldElement([q])
    assert e == expected and hash(e) == hash(expected) and is_canonical(e)
    assert e.serialize() == [f"{c.numerator}/{c.denominator}" for c in expected.coeffs]


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(DivisionByZero):
        FieldElement([0] * DEGREE).inverse()


def test_irrational_norm_raises_instead_of_asserting(monkeypatch):
    # With the Galois maps replaced by the identity the "norm" of 1 + zeta is
    # (1 + zeta)^8, which is not rational; the inverse must refuse, not assert.
    monkeypatch.setattr(cyclo, "_galois", lambda k, a: list(a))
    with pytest.raises(IrrationalNorm):
        (ONE + ZETA).inverse()
    assert issubclass(IrrationalNorm, ArithmeticError)
