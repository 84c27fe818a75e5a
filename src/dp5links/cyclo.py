"""Exact arithmetic in the degree-8 cyclotomic field Q(zeta_20).

Every number used anywhere in this package is an element of K = Q(zeta_20),
the smallest field containing a primitive fifth root of unity, the imaginary
unit and sqrt(5) at once.  An element is stored in the power basis
1, z, ..., z^7 as eight integer numerators over one positive common
denominator, fully reduced modulo

    Phi_20(x) = x^8 - x^6 + x^4 - x^2 + 1,

with the gcd of the numerators and the denominator equal to 1.  Reduction
takes one pass: zeta^10 = -1 folds x^(10+k) onto -x^k, and Phi_20 rewrites
the two degrees left, x^8 = x^6 - x^4 + x^2 - 1 and x^9 = x^7 - x^5 + x^3 - x.
That form is canonical, so equality of field elements is equality of
(numerators, denominator).  Every operation works on Python ints and
normalises by one gcd at the end (the representation of Cohen, GTM 138,
section 4.2).

Inverses go through the Galois norm tower: (Z/20)^x = <3> x <11>, so with
b = a sigma_11(a) and c = b sigma_9(b) the norm N(a) = c sigma_3(c) is
rational and 1/a = sigma_11(a) sigma_9(b) sigma_3(c) / N(a).  There is no
floating-point code path; all comparisons are exact.

Values are immutable and hashable, hence freely shareable between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Sequence, Union

DEGREE = 8

# Phi_20 coefficients for x^0..x^8 (monic).
MODULUS = (1, 0, -1, 0, 1, 0, -1, 0, 1)

Rat = Union[int, Fraction]
Coercible = Union["FieldElement", int, Fraction]

_ZERO_NUM = (0,) * DEGREE
_ONE_NUM = (1,) + _ZERO_NUM[1:]
_MINUS_ONE_NUM = (-1,) + _ZERO_NUM[1:]
_FRACTION_ZERO = Fraction(0)


class Frozen:
    """Base of the immutable value classes: assigning an attribute raises.

    A subclass names its fields once, in __slots__; dunder entries are not
    fields, and "__dict__" holds cached values.  The constructor fills the
    fields past the guard, positionally or by keyword, as __setstate__ does
    for copies and pickles.  A subclass declared with ``eq=True`` compares
    and hashes by class and fields; the others, several holding dicts or
    lists, keep identity equality.  Three classes write their constructor:
    FieldElement, made some 15,000 times per report, sets its slots itself
    (and keeps an equality that takes ints and Fractions); Permutation
    checks for a bijection; IntLattice checks its gram matrix.
    """

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = False):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("__"))
        if eq:
            get = attrgetter(*cls._fields)

            def __eq__(self, other) -> bool:
                if other.__class__ is not self.__class__:
                    return NotImplemented
                return get(self) == get(other)

            def __hash__(self) -> int:
                return hash(get(self))

            cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)})")
        self.__setstate__([values[name] for name in fields])

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, state) -> None:
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of K."""


class InvalidAutomorphism(ValueError):
    """Galois exponent not coprime to 20."""


class IrrationalNorm(ArithmeticError):
    """The Galois norm of an element came out irrational (a field defect)."""


def _fold(p: list[int]) -> list[int]:
    """Reduce p[0] + p[1] x + ... + p[19] x^19 modulo Phi_20 in one pass."""
    # x^(10+k) = -x^k, then x^8 = x^6 - x^4 + x^2 - 1 and x^9 = x^7 - x^5 + x^3 - x
    c8, c9 = p[8] - p[18], p[9] - p[19]
    return [p[0] - p[10] - c8, p[1] - p[11] - c9, p[2] - p[12] + c8, p[3] - p[13] + c9,
            p[4] - p[14] - c8, p[5] - p[15] - c9, p[6] - p[16] + c8, p[7] - p[17] + c9]


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient vectors modulo Phi_20."""
    p = [0] * 20
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                p[i + j] += x * y
    return _fold(p)


def _galois(k: int, a: Sequence[int]) -> list[int]:
    """sigma_k (zeta -> zeta^k) on an integer coefficient vector."""
    p = [0] * 20
    for j, c in enumerate(a):
        if c:
            p[(j * k) % 20] += c
    return _fold(p)


def _element(num: Sequence[int], den: int) -> "FieldElement":
    """The canonical element num/den in lowest terms; den must be positive."""
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    e = _new(FieldElement)
    _set_num(e, tuple(num))
    _set_den(e, den)
    return e


class FieldElement(Frozen):
    """An element of Q(zeta_20): integer numerators over a common denominator."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = [0] * 20  # zeta^20 = 1
        for d, c in enumerate(cs):
            p[d % 20] += c.numerator * (den // c.denominator)
        e = _element(_fold(p), den)
        _set_num(self, e.num)
        _set_den(self, e.den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q: Rat) -> "FieldElement":
        if q.__class__ is int:  # q/1 is in lowest terms: no Fraction, no gcd
            e = _new(FieldElement)
            _set_num(e, (q,) + _ZERO_NUM[1:])
            _set_den(e, 1)
            return e
        q = Fraction(q)
        return _element((q.numerator,) + _ZERO_NUM[1:], q.denominator)

    @staticmethod
    def zeta_power(k: int) -> "FieldElement":
        """zeta_20^k, any integer k."""
        p = [0] * 20
        p[k % 20] = 1
        return _element(_fold(p), 1)

    # -- ring structure ------------------------------------------------

    @staticmethod
    def _coerce(x: Coercible) -> "FieldElement":
        if isinstance(x, FieldElement):
            return x
        if isinstance(x, (int, Fraction)):
            return FieldElement.from_rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Coercible) -> "FieldElement":
        o = other if other.__class__ is FieldElement else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num == _ZERO_NUM:
            return self
        if self.num == _ZERO_NUM:
            return o
        da, db = self.den, o.den
        if da == db:
            return _element([x + y for x, y in zip(self.num, o.num)], da)
        return _element([x * db + y * da for x, y in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> "FieldElement":
        o = other if other.__class__ is FieldElement else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.num == _ZERO_NUM:
            return self
        da, db = self.den, o.den
        if da == db:
            return _element([x - y for x, y in zip(self.num, o.num)], da)
        return _element([x * db - y * da for x, y in zip(self.num, o.num)], da * db)

    def __rsub__(self, other: Coercible) -> "FieldElement":
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o - self

    def __neg__(self) -> "FieldElement":
        # negation keeps lowest terms, so no gcd is needed
        e = _new(FieldElement)
        _set_num(e, tuple([-x for x in self.num]))
        _set_den(e, self.den)
        return e

    def __mul__(self, other: Coercible) -> "FieldElement":
        o = other if other.__class__ is FieldElement else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.num, o.num
        if a == _ZERO_NUM or b == _ZERO_NUM:
            return ZERO
        # half of all products in a report have an operand of exactly +-1
        if o.den == 1:
            if b == _ONE_NUM:
                return self
            if b == _MINUS_ONE_NUM:
                return -self
        if self.den == 1:
            if a == _ONE_NUM:
                return o
            if a == _MINUS_ONE_NUM:
                return -o
        return _element(_mul(a, b), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Coercible) -> "FieldElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: Coercible) -> "FieldElement":
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse through the Galois norm tower (module docstring)."""
        a, d = self.num, self.den
        if a == _ZERO_NUM:
            raise DivisionByZero("inverse of the zero element")
        terms = [(i, x) for i, x in enumerate(a) if x]
        if len(terms) == 1:  # (x z^i)^-1 = z^(20-i) / x
            (i, norm), = terms
            adj = [0] * 20
            adj[-i % 20] = d
            adj = _fold(adj)
        else:
            s11 = _galois(11, a)
            b = _mul(a, s11)
            s9 = _galois(9, b)
            c = _mul(b, s9)
            s3 = _galois(3, c)
            n = _mul(c, s3)
            if any(n[1:]):
                raise IrrationalNorm(f"norm of {self!r} is not rational")
            norm = n[0]
            adj = [x * d for x in _mul(_mul(s11, s9), s3)]
        if norm < 0:
            norm, adj = -norm, [-x for x in adj]
        return _element(adj, norm)

    # -- predicates and views -------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The eight power-basis coefficients as Fractions (read-only view)."""
        d = self.den
        return tuple(Fraction(x, d) if x else _FRACTION_ZERO for x in self.num)

    def is_zero(self) -> bool:
        return self.num == _ZERO_NUM

    def __eq__(self, other) -> bool:
        o = other if other.__class__ is FieldElement else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return self.num != _ZERO_NUM

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return " + ".join(terms) if terms else "0"

    # -- serialization ---------------------------------------------------

    def serialize(self) -> list[str]:
        """Eight strings "num/den" in power-basis order (bit-exact)."""
        d = self.den
        out = []
        for x in self.num:
            if x:
                g = gcd(x, d)
                out.append(f"{x // g}/{d // g}")
            else:  # one shared string for the most common coefficient
                out.append("0/1")
        return out

    @staticmethod
    def deserialize(data: Sequence[str]) -> "FieldElement":
        if len(data) != DEGREE:
            raise ValueError(f"expected {DEGREE} coefficient strings, got {len(data)}")
        return FieldElement([Fraction(s) for s in data])


# Slot writers that bypass the immutability guard in __setattr__.
_new = object.__new__
_set_num = FieldElement.num.__set__
_set_den = FieldElement.den.__set__


def galois_apply(k: int, a: FieldElement) -> FieldElement:
    """The field automorphism zeta -> zeta^k; requires gcd(k, 20) = 1.

    k = 19 is complex conjugation.
    """
    if gcd(k, 20) != 1:
        raise InvalidAutomorphism(f"gcd({k}, 20) != 1")
    return _element(_galois(k, a.num), a.den)


def root_of_unity(n: int, j: int = 1) -> FieldElement:
    """zeta_n^j for n dividing 20."""
    if 20 % n != 0:
        raise InvalidAutomorphism(f"{n}-th roots of unity do not all lie in Q(zeta_20)")
    return FieldElement.zeta_power((20 // n) * j)


ZERO = FieldElement([0])
ONE = FieldElement([1])
ZETA = FieldElement.zeta_power(1)      # zeta_20
ZETA5 = FieldElement.zeta_power(4)     # primitive fifth root of unity
I_UNIT = FieldElement.zeta_power(5)    # imaginary unit
SQRT5 = ONE + 2 * (ZETA5 + ZETA5 ** 4)


def rational(q: Rat) -> FieldElement:
    return FieldElement.from_rational(q)
