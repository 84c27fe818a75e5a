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

Values are hash-consed.  A report does its arithmetic on a few hundred
distinct small values, so one shared element stands for each value, and the
results of products, sums, differences and inverses are looked up, not
recomputed.  Every element carries a serial number; serials come from one
counter and are never reused, so a serial denotes one value for the life of
the process (an object id is reused once its object dies and could not).
Every path that makes an element from its numerators (_element, and _intern
for results already in lowest terms, as a negation is) looks the value up in
the value table and takes the serial of the element found there, or enters
a new element with a fresh serial; the constructor returns a new object
that carries the shared element's serial.  A copy or a pickle is a distinct
object with a fresh serial of its own.  The memos map operand serials to
results: an operation first looks up its operands' serials and computes
only on a miss.  When any table reaches TABLE_CAP entries, the value table
and every memo are emptied together, which costs later lookups their hits
and nothing else.  Equality and hashing stay by value; identity is only a
fast path of equality.  On a miss, products and inverses keep two shortcuts
that pay (_product and _inverse give the counts): a zero operand, and
monomials, read off the powers of zeta; +-1 takes the monomial path.

Elements are immutable and safe to share between threads.  Each step on
the tables is one dict or counter operation, atomic under the interpreter
lock; two threads that make the same new value at once can enter two
elements for it, each with its own serial, and two that miss on the same
operation both compute it and store equal results; threads that store at
once can take a table an entry or two past TABLE_CAP before it is emptied.
Either way every result is right, so the tables take no lock.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm
from operator import add, attrgetter, sub
from typing import Iterable, Sequence, Union

DEGREE = 8

# Phi_20 coefficients for x^0..x^8 (monic).
MODULUS = (1, 0, -1, 0, 1, 0, -1, 0, 1)

Rat = Union[int, Fraction]
Coercible = Union["FieldElement", int, Fraction]

_ZERO_NUM = (0,) * DEGREE
_FRACTION_ZERO = Fraction(0)

# the size at which the value table and the memos are emptied together
TABLE_CAP = 1 << 16


class Frozen:
    """Base of the immutable value classes: assigning an attribute raises.

    A subclass names its fields once, in __slots__; entries that begin with
    two underscores are not fields, and "__dict__" holds cached values.  The
    constructor fills the fields past the guard, positionally or by keyword,
    as __setstate__ does for copies and pickles.  A subclass declared with
    ``eq=True`` compares and hashes by class and fields; the others, several
    holding dicts or lists, keep identity equality.  Three classes write
    their constructor: FieldElement sets its slots itself, to the shared
    element's, and keeps an equality that takes ints and Fractions;
    Permutation checks for a bijection; IntLattice checks its gram matrix.
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
        if kwargs or len(args) != len(fields):  # all fields positional: no dict to build
            values = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)})")
            args = [values[name] for name in fields]
        self.__setstate__(args)

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


# z^k folded, for k < 20: the product x z^i * y z^j (i, j < 8) is xy z^(i+j)
_ZETA_POWERS = tuple(tuple(_fold([int(i == k) for i in range(20)])) for k in range(20))


def _galois(k: int, a: Sequence[int]) -> list[int]:
    """sigma_k (zeta -> zeta^k) on an integer coefficient vector."""
    p = [0] * 20
    for j, c in enumerate(a):
        if c:
            p[(j * k) % 20] += c
    return _fold(p)


def _element(num: Sequence[int], den: int) -> "FieldElement":
    """The shared element num/den in lowest terms; den must be positive."""
    if den != 1 and (g := gcd(den, *num)) != 1:  # x/1 is in lowest terms
        num = [x // g for x in num]
        den //= g
    return _intern(tuple(num), den)


def _intern(num: tuple[int, ...], den: int) -> "FieldElement":
    """The shared element num/den, which must already be in lowest terms."""
    key = (num, den)
    e = _values.get(key)
    if e is None:
        e = _new(FieldElement)
        _set_num(e, num)
        _set_den(e, den)
        _set_serial(e, next(_serials))
        _remember(_values, key, e)
    return e


def _remember(table: dict, key, value):
    """Store value under key, emptying every table first if this one is full."""
    if len(table) >= TABLE_CAP:
        clear_tables()
    table[key] = value
    return value


def clear_tables() -> None:
    """Empty the value table and the memos of products, sums, differences and
    inverses."""
    for table in _TABLES.values():
        table.clear()


def table_sizes() -> dict[str, int]:
    """The number of entries in the value table and in each memo."""
    return {name: len(table) for name, table in _TABLES.items()}


class FieldElement(Frozen):
    """An element of Q(zeta_20): integer numerators over a common denominator."""

    __slots__ = ("num", "den", "__serial")

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = [0] * 20  # zeta^20 = 1
        for d, c in enumerate(cs):
            p[d % 20] += c.numerator * (den // c.denominator)
        e = _element(_fold(p), den)
        _set_num(self, e.num)
        _set_den(self, e.den)
        _set_serial(self, e.__serial)

    def __setstate__(self, state) -> None:
        # a copy or a pickle is a distinct object, so it takes a fresh serial
        Frozen.__setstate__(self, state)
        _set_serial(self, next(_serials))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q: Rat) -> "FieldElement":
        if q.__class__ is int:  # q/1 needs no Fraction
            return _element((q,) + _ZERO_NUM[1:], 1)
        q = Fraction(q)
        return _element((q.numerator,) + _ZERO_NUM[1:], q.denominator)

    @staticmethod
    def zeta_power(k: int) -> "FieldElement":
        """zeta_20^k, any integer k."""
        return _element(_ZETA_POWERS[k % 20], 1)

    # -- ring structure ------------------------------------------------
    # Each operation looks its operands' serials up in its memo and computes
    # only on a miss (module docstring).

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
        key = (self.__serial, o.__serial)
        e = _sums.get(key)
        return _remember(_sums, key, _sum(self, o)) if e is None else e

    __radd__ = __add__

    def __sub__(self, other: Coercible) -> "FieldElement":
        o = other if other.__class__ is FieldElement else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        key = (self.__serial, o.__serial)
        e = _differences.get(key)
        return _remember(_differences, key, _difference(self, o)) if e is None else e

    def __rsub__(self, other: Coercible) -> "FieldElement":
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o - self

    def __neg__(self) -> "FieldElement":
        return _intern(tuple([-x for x in self.num]), self.den)

    def __mul__(self, other: Coercible) -> "FieldElement":
        o = other if other.__class__ is FieldElement else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        key = (self.__serial, o.__serial)
        e = _products.get(key)
        return _remember(_products, key, _product(self, o)) if e is None else e

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
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse through the Galois norm tower (module docstring)."""
        key = self.__serial
        e = _inverses.get(key)
        return _remember(_inverses, key, _inverse(self)) if e is None else e

    # -- predicates and views -------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The eight power-basis coefficients as Fractions (read-only view)."""
        d = self.den
        return tuple(Fraction(x, d) if x else _FRACTION_ZERO for x in self.num)

    def is_zero(self) -> bool:
        return self.num == _ZERO_NUM

    def __eq__(self, other) -> bool:
        if other is self:
            return True
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
        # one shared string for the most common coefficient
        return [f"{x // (g := gcd(x, d))}/{d // g}" if x else "0/1" for x in self.num]

    @staticmethod
    def deserialize(data: Sequence[str]) -> "FieldElement":
        if len(data) != DEGREE:
            raise ValueError(f"expected {DEGREE} coefficient strings, got {len(data)}")
        return FieldElement([Fraction(s) for s in data])


# Slot writers that bypass the immutability guard in __setattr__.
_new = object.__new__
_set_num = FieldElement.num.__set__
_set_den = FieldElement.den.__set__
_set_serial = FieldElement._FieldElement__serial.__set__

_serials = count()
# (numerators, denominator) -> the shared element of that value
_values: dict[tuple, FieldElement] = {}
# operand serials -> result
_products: dict[tuple[int, int], FieldElement] = {}
_sums: dict[tuple[int, int], FieldElement] = {}
_differences: dict[tuple[int, int], FieldElement] = {}
_inverses: dict[int, FieldElement] = {}
_TABLES = {"values": _values, "products": _products, "sums": _sums,
           "differences": _differences, "inverses": _inverses}


# The ring operations themselves, unmemoised: the memos call them on a miss.

def _sum(a: FieldElement, b: FieldElement) -> FieldElement:
    if b.num == _ZERO_NUM:
        return a
    if a.num == _ZERO_NUM:
        return b
    da, db = a.den, b.den
    if da == db:
        return _element(list(map(add, a.num, b.num)), da)
    return _element([x * db + y * da for x, y in zip(a.num, b.num)], da * db)


def _difference(a: FieldElement, b: FieldElement) -> FieldElement:
    if b.num == _ZERO_NUM:
        return a
    da, db = a.den, b.den
    if da == db:
        return _element(list(map(sub, a.num, b.num)), da)
    return _element([x * db - y * da for x, y in zip(a.num, b.num)], da * db)


def _product(a: FieldElement, b: FieldElement) -> FieldElement:
    x, y = a.num, b.num
    # zero is 19-41% of field-kernels' operands; this test saves 6% of its time
    if x == _ZERO_NUM or y == _ZERO_NUM:
        return ZERO
    if x.count(0) == 7 and y.count(0) == 7:  # monomials: 257 convolutions fewer a report
        s, t = sum(x), sum(y)
        st, den = s * t, a.den * b.den
        g = gcd(st, den)
        st //= g
        return _intern(tuple([st * z for z in _ZETA_POWERS[x.index(s) + y.index(t)]]), den // g)
    return _element(_mul(x, y), a.den * b.den)


def _inverse(a: FieldElement) -> FieldElement:
    x, d = a.num, a.den
    if x == _ZERO_NUM:
        raise DivisionByZero("inverse of the zero element")
    if x.count(0) == 7:  # (x z^i)^-1 = -z^(10-i) / x: 1.3 us by table, 22 us by norms
        norm = sum(x)
        adj = [-d * t for t in _ZETA_POWERS[10 - x.index(norm)]]
    else:
        s11 = _galois(11, x)
        b = _mul(x, s11)
        s9 = _galois(9, b)
        c = _mul(b, s9)
        s3 = _galois(3, c)
        n = _mul(c, s3)
        if any(n[1:]):
            raise IrrationalNorm(f"norm of {a!r} is not rational")
        norm = n[0]
        adj = [t * d for t in _mul(_mul(s11, s9), s3)]
    if norm < 0:
        norm, adj = -norm, [-t for t in adj]
    return _element(adj, norm)


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


ZERO = FieldElement.from_rational(0)
ONE = FieldElement.from_rational(1)
ZETA = FieldElement.zeta_power(1)      # zeta_20
ZETA5 = FieldElement.zeta_power(4)     # primitive fifth root of unity
I_UNIT = FieldElement.zeta_power(5)    # imaginary unit
SQRT5 = ONE + 2 * (ZETA5 + ZETA5 ** 4)


rational = FieldElement.from_rational
