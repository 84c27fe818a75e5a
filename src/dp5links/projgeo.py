"""Exact projective geometry in P^4 and its hyperplane {sum x_i = 0}.

Points are normalized so the first nonzero coordinate is 1; lines are stored
as 2x5 row spans in reduced echelon form, so equality of geometric objects
is equality of canonical representatives.  Surfaces stay in P^4 as pairs
(hyperplane form, defining form) rather than having a variable eliminated,
which keeps every coordinate directly comparable with the classical models.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .cyclo import FieldElement, Frozen, ONE, ZERO, rational
from .linalg import kernel_basis, rank, rref


class CoincidentPoints(ValueError):
    """line_through needs two distinct points."""


class SkewLines(ValueError):
    """Residuation needs two coplanar (meeting) lines."""


class FactorizationFailure(ArithmeticError):
    """The plane through two lines of the surface lies on the surface."""


class ProjPoint(Frozen, eq=True):
    """Point of P^4 with normalized exact coordinates."""

    __slots__ = ("coords",)

    @staticmethod
    def of(coords: Iterable) -> "ProjPoint":
        cs = [c if isinstance(c, FieldElement) else rational(c) for c in coords]
        lead = next((c for c in cs if not c.is_zero()), None)
        if lead is None:
            raise ValueError("all coordinates are zero")
        inv = lead.inverse()
        return ProjPoint(tuple(c * inv for c in cs))

    def __len__(self) -> int:
        return len(self.coords)

    def serialize(self) -> list[list[str]]:
        return [c.serialize() for c in self.coords]

    @staticmethod
    def deserialize(data: Sequence[Sequence[str]]) -> "ProjPoint":
        return ProjPoint.of([FieldElement.deserialize(c) for c in data])

    def sort_key(self) -> tuple:
        return tuple(tuple(c.coeffs) for c in self.coords)

    def __repr__(self) -> str:
        return "(" + " : ".join(repr(c) for c in self.coords) + ")"


class ProjLine(Frozen, eq=True):
    """Line of P^4 as a canonical 2-row reduced echelon span."""

    __slots__ = ("basis",)

    @staticmethod
    def span(v1: Sequence[FieldElement], v2: Sequence[FieldElement]) -> "ProjLine":
        red, pivots = rref([list(v1), list(v2)])
        if len(pivots) != 2:
            raise ValueError("vectors do not span a line")
        return ProjLine((tuple(red[0]), tuple(red[1])))

    def contains(self, p: ProjPoint) -> bool:
        return rank([list(self.basis[0]), list(self.basis[1]), list(p.coords)]) == 2

    def meets(self, other: "ProjLine") -> bool:
        stacked = [list(r) for r in self.basis] + [list(r) for r in other.basis]
        return rank(stacked) <= 3

    def serialize(self) -> list[list[list[str]]]:
        return [[c.serialize() for c in row] for row in self.basis]

    @staticmethod
    def deserialize(data) -> "ProjLine":
        rows = [[FieldElement.deserialize(c) for c in row] for row in data]
        return ProjLine.span(rows[0], rows[1])

    def sort_key(self) -> tuple:
        return tuple(tuple(tuple(c.coeffs) for c in row) for row in self.basis)

    def __repr__(self) -> str:
        return f"ProjLine{self.basis!r}"


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """Canonical line through two distinct points."""
    if p == q:
        raise CoincidentPoints(f"coincident points {p!r}")
    return ProjLine.span(list(p.coords), list(q.coords))


# -- homogeneous forms --------------------------------------------------------

Monomial = tuple[int, ...]


class HomogeneousForm(Frozen, eq=True):
    """Homogeneous polynomial with exact coefficients, sparse exponent map."""

    __slots__ = ("nvars", "degree", "coeffs")

    @staticmethod
    def of(nvars: int, degree: int, terms: Mapping[Monomial, FieldElement] | Iterable
           ) -> "HomogeneousForm":
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        cleaned: dict[Monomial, FieldElement] = {}
        for mono, c in items:
            mono = tuple(int(e) for e in mono)
            c = c if isinstance(c, FieldElement) else rational(c)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong arity")
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} is not of degree {degree}")
            if not c.is_zero():
                cleaned[mono] = cleaned.get(mono, ZERO) + c
        cleaned = {m: c for m, c in cleaned.items() if not c.is_zero()}
        return HomogeneousForm(nvars, degree, tuple(sorted(cleaned.items())))

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        total = ZERO
        for mono, c in self.coeffs:
            term = c
            for x, e in zip(point, mono):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    def serialize(self) -> list[dict]:
        return [
            {"exponents": list(m), "coefficient": c.serialize()}
            for m, c in self.coeffs
        ]

    @staticmethod
    def deserialize(nvars: int, degree: int, data: Iterable[dict]) -> "HomogeneousForm":
        return HomogeneousForm.of(
            nvars, degree,
            {tuple(d["exponents"]): FieldElement.deserialize(d["coefficient"]) for d in data},
        )


def power_sum_form(nvars: int, degree: int) -> HomogeneousForm:
    """x_0^d + ... + x_{n-1}^d."""
    terms = {}
    for i in range(nvars):
        mono = [0] * nvars
        mono[i] = degree
        terms[tuple(mono)] = ONE
    return HomogeneousForm.of(nvars, degree, terms)


# hyperplane basis: columns of B span {sum x_i = 0} in K^5
HYPERPLANE_BASIS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0),
    (-1, 1, 0, 0),
    (0, -1, 1, 0),
    (0, 0, -1, 1),
    (0, 0, 0, -1),
)


def hyperplane_gram(form: HomogeneousForm) -> list[list[FieldElement]]:
    """Gram matrix of a quadratic form on the HYPERPLANE_BASIS vectors b_j = e_j - e_{j+1}.

    With G[i][i] the coefficient of x_i^2 and G[i][j] half that of x_i x_j,
    the entry at (i, j) is G(b_i, b_j) = G[i][j] - G[i][j+1] - G[i+1][j] + G[i+1][j+1].
    """
    half = rational(Fraction(1, 2))
    g = [[ZERO] * 5 for _ in range(5)]
    for mono, c in form.coeffs:
        i, j = (k for k, e in enumerate(mono) for _ in range(e))
        g[i][j] = g[j][i] = c if i == j else c * half
    return [[g[i][j] - g[i][j + 1] - g[i + 1][j] + g[i + 1][j + 1] for j in range(4)]
            for i in range(4)]


def line_in_surface(line: ProjLine, form: HomogeneousForm) -> bool:
    """True iff the form vanishes identically along the line.

    Restricted to the line, a form of degree d is a binary form of degree d,
    and a nonzero one has at most d zeros on P^1; so it is zero iff it
    vanishes at the d + 1 distinct parameters (0 : 1) and (1 : k), k < d.
    """
    b0, b1 = line.basis
    if not form.evaluate(b1).is_zero():
        return False
    return all(
        form.evaluate([a + rational(k) * b for a, b in zip(b0, b1)]).is_zero()
        for k in range(form.degree)
    )


def membership(p: ProjPoint, forms: Iterable[HomogeneousForm]) -> bool:
    """True iff every form vanishes exactly at the point."""
    return all(f.evaluate(p.coords).is_zero() for f in forms)


def residual_line(cubic: HomogeneousForm, a: ProjLine, b: ProjLine) -> ProjLine:
    """Third line of the plane section spanned by two meeting lines of the cubic.

    The caller certifies that a and b lie on the surface; they are not
    tested again here.

    Let x be the meeting point, y a basis row of a and z one of b, each
    chosen independent of x.  In plane coordinates s x + t y + r z the line
    a is {r = 0} and b is {t = 0}; both lie on the cubic F, so F restricted
    to the plane is t r gamma for a linear form gamma = g0 s + g1 t + g2 r,
    and the residual line is {gamma = 0}.  Three values of F give gamma:

        F(y + z) = g1 + g2,  F(y - z) = g2 - g1,  F(x + y + z) = g0 + g1 + g2.

    A zero gamma means the plane lies on the cubic.
    """
    if a == b:
        raise ValueError("the two lines must be distinct")
    (a0, a1), (b0, b1) = a.basis, b.basis
    ker = kernel_basis([[c0, c1, -d0, -d1] for c0, c1, d0, d1 in zip(a0, a1, b0, b1)])
    if len(ker) != 1:
        raise SkewLines("lines do not meet")
    p, q, _, v = ker[0]
    x = [p * c0 + q * c1 for c0, c1 in zip(a0, a1)]
    y = a1 if q.is_zero() else a0
    z = b1 if v.is_zero() else b0
    f_plus = cubic.evaluate([c + d for c, d in zip(y, z)])
    f_minus = cubic.evaluate([c - d for c, d in zip(y, z)])
    f_all = cubic.evaluate([c + d + e for c, d, e in zip(x, y, z)])
    # 2 gamma, to stay clear of a division by 2
    gamma = [(f_all - f_plus) * rational(2), f_plus - f_minus, f_plus + f_minus]
    params = kernel_basis([gamma])
    if len(params) != 2:
        raise FactorizationFailure("the plane lies on the cubic")
    points = [[s * c + t * d + r * e for c, d, e in zip(x, y, z)] for s, t, r in params]
    return ProjLine.span(points[0], points[1])
